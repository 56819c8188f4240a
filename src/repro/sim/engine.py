"""The trace-replay engine: replay configuration and its statistics.

:class:`TraceReplayEngine` replays a :class:`~repro.sim.trace.Trace`
against one drive or an :class:`~repro.sim.shard.LbnRangeShard` fleet and
returns aggregate :class:`ReplayStats`.  Two replay disciplines are
supported:

* **open** replay -- requests are issued at the timestamps recorded in the
  trace; each drive applies its own actuator/bus availability, so queueing
  develops naturally when arrivals outrun service.
* **closed** replay -- trace timestamps are ignored; each drive keeps up to
  ``queue_depth`` requests outstanding, admitting the next trace request
  when one completes (depth 1 is the onereq semantics of Section 5.2 of
  the paper).

A one-shot replay is a stream of one chunk: :meth:`TraceReplayEngine.replay`
and :meth:`~TraceReplayEngine.replay_closed` hand the trace to the drivers
in :mod:`repro.sim.stream`, which choose between the columnar kernels of
:mod:`repro.sim.kernel` and the exact scalar loops and aggregate every
result.  Both disciplines are deterministic: the same trace on a fresh
fleet always produces bitwise-identical statistics, whatever the path or
the chunking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from ..disksim.drive import DiskDrive
from ..disksim.errors import RequestError
from ..disksim.sched import Scheduler, make_scheduler
from .shard import LbnRangeShard
from .trace import Trace

ReplayTarget = Union[DiskDrive, Sequence[DiskDrive], LbnRangeShard]


@dataclass
class ReplayStats:
    """Aggregate outcome of replaying one trace."""

    trace_requests: int
    issued_requests: int
    split_requests: int
    reads: int
    writes: int
    cache_hits: int
    streamed: int
    sectors: int
    start_ms: float
    end_ms: float
    response: dict[str, float]
    breakdown: dict[str, float]
    per_drive: list[dict[str, float]]
    peak_outstanding: int
    mode: str = "open"
    extras: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def makespan_ms(self) -> float:
        return max(0.0, self.end_ms - self.start_ms)

    @property
    def requests_per_second(self) -> float:
        """Simulated-time throughput of the fleet."""
        span = self.makespan_ms
        if span <= 0.0:
            return 0.0
        return self.issued_requests / (span / 1000.0)

    @property
    def mb_per_second(self) -> float:
        span = self.makespan_ms
        if span <= 0.0:
            return 0.0
        return (self.sectors * 512 / 1e6) / (span / 1000.0)

    @property
    def efficiency(self) -> float:
        """Fraction of mechanism-busy time spent transferring data (the
        paper's disk-efficiency metric, aggregated over the replay)."""
        busy = self.breakdown.get("busy_ms", 0.0)
        if busy <= 0.0:
            return 0.0
        return min(1.0, self.breakdown.get("media_transfer_ms", 0.0) / busy)

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the perf benchmark artifact)."""
        return {
            "trace_requests": self.trace_requests,
            "issued_requests": self.issued_requests,
            "split_requests": self.split_requests,
            "reads": self.reads,
            "writes": self.writes,
            "cache_hits": self.cache_hits,
            "streamed": self.streamed,
            "sectors": self.sectors,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "makespan_ms": self.makespan_ms,
            "requests_per_second": self.requests_per_second,
            "mb_per_second": self.mb_per_second,
            "efficiency": self.efficiency,
            "peak_outstanding": self.peak_outstanding,
            "mode": self.mode,
            "response": dict(self.response),
            "breakdown": dict(self.breakdown),
            "per_drive": [dict(d) for d in self.per_drive],
            "extras": dict(self.extras),
        }


class TraceReplayEngine:
    """Replay request traces against a drive or a sharded fleet.

    ``fast`` selects the replay implementation:

    * ``None`` (default) or ``True`` -- use the columnar numpy kernels
      (:mod:`repro.sim.kernel`) whenever they are applicable, otherwise
      the exact scalar path.  Results are bitwise identical either way.
      ``True`` exists so configs can pin it; both normalize to
      ``self.fast = True``.
    * ``False`` -- always use the exact scalar path.

    After every replay, :attr:`last_replay_path` reports which
    implementation ran (``"kernel"`` for the columnar FCFS open kernel,
    ``"kernel_sched"`` for the event-batched scheduled kernel,
    ``"scalar"``, or ``"mixed"`` for a stream whose chunks took both
    kernel and scalar paths) and :attr:`last_fast_reason` is normalized
    to a stable vocabulary: ``"ok"`` whenever a fast path ran, ``"fast
    disabled"`` when ``fast=False`` pinned the scalar path, and otherwise
    exactly one documented refusal string from :mod:`repro.sim.kernel` --
    ``"numpy unavailable"``,
    ``"fault injection active"`` (a fault schedule is attached, so only
    the exact scalar path -- which advances the seeded fault RNG in
    service order -- may produce numbers),
    ``"defective geometry"``, ``"out-of-order bus"``,
    ``"unknown opcode"``, ``"invalid request"``,
    ``"request exceeds fleet capacity"``,
    ``"shard-boundary-crossing requests"``,
    ``"firmware-cache-sensitive reuse"`` (also reported when a warm
    ``reset=False`` replay would read what earlier replays cached) or
    ``"scheduler not kernel-vectorizable"`` -- or, for a scheduled
    stream of more than one chunk, ``"scheduler not chunk-vectorizable"``
    (its pending queues cannot be carried across kernel chunks, so it runs
    the exact scalar queue loops).

    ``scheduler`` selects the drive-level dispatch policy (a name from
    :func:`repro.disksim.sched.available_schedulers`, a
    :class:`~repro.disksim.sched.Scheduler` instance used as a per-drive
    prototype, or ``None`` = FCFS).  Under FCFS open replay uses the
    columnar FCFS kernel chunk by chunk.  Any other policy, and every
    closed replay, uses the event-batched scheduled kernel
    (``last_replay_path == "kernel_sched"``) when it is applicable; for a
    non-FCFS policy or ``queue_depth > 1`` that means a stream of one
    chunk -- every one-shot replay, and a ``service`` run that fits one
    chunk.  Otherwise the exact scalar queue loop runs; results are
    bitwise identical either way.

    ``queue_depth`` applies to closed replay only: each drive keeps up to
    that many requests outstanding (admitting the next trace request when
    one completes), giving the scheduler a queue to reorder.  Depth 1 is
    the classic onereq discipline.
    """

    def __init__(
        self,
        target: ReplayTarget,
        batch_size: int = 4096,
        fast: bool | None = None,
        scheduler: "str | Scheduler | None" = None,
        starvation_ms: float | None = None,
        queue_depth: int = 1,
    ) -> None:
        if batch_size <= 0:
            raise RequestError("batch_size must be positive")
        if queue_depth < 1:
            raise RequestError("queue_depth must be positive")
        if isinstance(target, LbnRangeShard):
            self.fleet = target
        elif isinstance(target, DiskDrive):
            self.fleet = LbnRangeShard([target])
        else:
            self.fleet = LbnRangeShard(list(target))
        self.batch_size = batch_size
        self.fast = True if fast is None else bool(fast)
        self.scheduler = make_scheduler(scheduler, starvation_ms)
        self.scheduler_name = self.scheduler.name
        self.queue_depth = queue_depth
        self.last_replay_path: str | None = None
        self.last_fast_reason: str | None = None

    # ------------------------------------------------------------------ #
    # One-shot replay: a stream of one chunk
    # ------------------------------------------------------------------ #
    def replay(self, trace: Trace, reset: bool = True) -> ReplayStats:
        """Open replay: issue every request at its trace timestamp.

        An unordered trace is first sorted by issue time.  The replay is
        :meth:`replay_stream` of a one-chunk stream, so it takes the same
        path a streamed replay would: the columnar kernel when applicable
        (``"kernel"`` under FCFS, ``"kernel_sched"`` under any other
        policy), otherwise the exact scalar batched path or scalar queue
        loop.  Results are bitwise identical on every path.
        """
        from .stream import TraceStream, replay_stream

        ordered = trace if trace.is_time_ordered() else trace.sorted_by_issue()
        return replay_stream(self, TraceStream([ordered], validate=False), reset)

    def replay_closed(
        self, trace: Trace, think_ms: float = 0.0, reset: bool = True
    ) -> ReplayStats:
        """Closed replay: up to ``queue_depth`` requests outstanding per drive.

        Trace timestamps are ignored; each shard's requests are admitted in
        trace order, each one when an earlier one on that shard completes
        (plus ``think_ms``).  Depth 1 under FCFS is the classic onereq
        discipline (Section 5.2 of the paper).  The replay is
        :meth:`replay_closed_stream` of a one-chunk stream.
        """
        from .stream import TraceStream, replay_closed_stream

        stream = TraceStream([trace], require_ordered=False, validate=False)
        return replay_closed_stream(self, stream, think_ms, reset)

    # ------------------------------------------------------------------ #
    # Streaming replay
    # ------------------------------------------------------------------ #
    def replay_stream(self, chunks, reset: bool = True) -> ReplayStats:
        """Open replay of a chunked trace stream with bounded memory.

        ``chunks`` is a :class:`~repro.sim.stream.TraceStream`, a
        :class:`Trace` (streamed via :meth:`Trace.iter_chunks`), or any
        iterable of trace chunks with globally non-decreasing timestamps.
        Chunks are consumed one at a time with warm-state continuation;
        the returned statistics are **bitwise identical** for every
        chunking of the same trace, :meth:`replay` being the one-chunk
        case.  ``last_replay_path`` may additionally report ``"mixed"``
        when some chunks ran on the kernel and others fell back to the
        scalar path.
        """
        from .stream import replay_stream

        return replay_stream(self, chunks, reset=reset)

    def replay_closed_stream(
        self, chunks, think_ms: float = 0.0, reset: bool = True
    ) -> ReplayStats:
        """Closed replay of a chunked trace stream with bounded memory.

        Bitwise identical to :meth:`replay_closed` of the concatenated
        trace (itself the one-chunk case).  FCFS depth-1 chunks use the
        event-batched scheduled kernel with a carried per-shard clock.
        Non-FCFS policies and ``queue_depth > 1`` use that kernel only for
        a one-chunk stream; longer streams run the exact scalar queue loops
        (``last_fast_reason`` reports ``"scheduler not chunk-vectorizable"``).
        """
        from .stream import replay_closed_stream

        return replay_closed_stream(self, chunks, think_ms=think_ms, reset=reset)


__all__ = ["ReplayStats", "TraceReplayEngine"]
