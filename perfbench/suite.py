"""The three benchmark workloads, driven through the public API only.

Each workload builds its inputs from the ``--seed`` argument, then runs a
fixed *unit* of operations (replay/service calls, or one campaign pass)
that ``run.py`` repeats until the run's time is up.  A unit
is deterministic, so every repetition must produce the same per-operation
digests; for the default seed they must also equal the digests the scalar
oracle (``fast=False``) produced, committed in ``oracle.json``.

Why each workload exists (see README.md for the metric tables):

* ``service-stream`` -- the memory-bounded production path: ``run_service``
  over a lazily generated Poisson stream on a 4-drive cache-off fleet at
  ~80% of saturation.  Stresses ``workloads.arrivals``, the ``sim.stream``
  chunk loop and the FCFS ``sim.kernel`` with its multi-track fallback.
* ``sched-overload`` -- one open replay per policy of whole-track extents
  arriving at ~2x saturation, so every dispatch walks a growing backlog
  through ``replay_kernel_sched`` queue selection.
* ``campaign-sweep`` -- ``run_campaign`` over 108 points with two worker
  processes into a fresh ``ResultStore``, then a resume pass; the only
  workload on the scalar drive path, ``repro.faults``, the executor and
  the store.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import shutil
import threading
import time
from multiprocessing import resource_tracker
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import (
    CampaignConfig,
    DriveConfig,
    FleetConfig,
    ResultStore,
    ScenarioConfig,
    build_fleet,
    clear_drive_build_cache,
    run_campaign,
    run_scenario,
)
from repro.api.result import VOLATILE_DETAIL_KEYS
from repro.sim import Trace, TraceReplayEngine, clear_kernel_tables, run_service
from repro.workloads import PoissonArrivals, PoissonConfig

from spans import SpanRecorder
from worker import TimedProcessExecutor

POLICIES = ("fcfs", "sstf", "sptf", "clook", "traxtent")
ENGINE_PATHS = ("kernel", "kernel_sched", "scalar", "mixed")


def digest(obj) -> str:
    """Stable content digest of a JSON-able result (floats kept exact)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


@dataclass
class Op:
    """One timed operation: a replay/service call or a campaign point."""

    kind: str
    seconds: float
    requests: int
    digest: str | None
    path: str | None = None
    error: str | None = None


@dataclass
class Unit:
    """One repetition of a workload's fixed operation list.

    ``wall_s`` is the host time the unit's throughput is measured over and
    ``checks`` are ops that are counted and checked but not timed (the
    campaign's resume pass)."""

    ops: list[Op]
    wall_s: float
    requests: int
    checks: list[Op] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def path_counts(paths) -> dict[str, float]:
    counts = {f"engine.path.{p}": 0.0 for p in ENGINE_PATHS}
    for path in paths:
        if path is not None:
            counts[f"engine.path.{path}"] += 1.0
    return counts


def single_track_fraction(fleet, traces) -> float:
    """Share of requests the FCFS kernel services vectorised.

    A request is vectorised when it stays inside one drive of the fleet
    and inside one track of that drive; the rest take the drive's scalar
    service.  Computed from public geometry only."""
    single = total = 0
    for trace in traces:
        for lbn, count in zip(trace.lbns, trace.counts):
            total += 1
            shard = fleet.shard_of(lbn)
            start, end = fleet.shard_range(shard)
            if lbn + count > end:
                continue
            geometry = fleet.drives[shard].geometry
            first, length = geometry.track_bounds(geometry.track_of_lbn(lbn - start))
            if lbn - start + count <= first + length:
                single += 1
    return single / total if total else 0.0


def time_fleet_builds(rec: SpanRecorder, fleets, cold: bool) -> float:
    """Host seconds to build a workload's fleets, cold (memo and kernel
    tables cleared first) or warm (drive-build memo hit)."""
    if cold:
        clear_drive_build_cache()
        clear_kernel_tables()
    with rec.span("factory.build_fleet" if cold else "factory.build_fleet_warm"):
        start = time.perf_counter()
        for fleet, drive in fleets:
            build_fleet(fleet, drive)
        return time.perf_counter() - start


def call_op(rec: SpanRecorder, span: str, call):
    """Time one public call inside a span: ``(result, seconds, error)``.

    A call that raises is a failed operation, not a crashed run."""
    with rec.span(span):
        start = time.perf_counter()
        try:
            return call(), time.perf_counter() - start, None
        except Exception as exc:
            return None, time.perf_counter() - start, repr(exc)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------------------- #
# service-stream
# --------------------------------------------------------------------------- #

class ServiceStream:
    name = "service-stream"
    DRIVES = 4
    FLEETS = [(FleetConfig(n_drives=DRIVES), DriveConfig(enable_caching=False))]
    #: ~80% of this fleet's saturation (ServiceStats.saturation_rps reads
    #: ~440 rps for 64-sector random bodies on four cache-off drives).
    RATE_RPS = 352.0
    SECTORS = 64
    READ_FRACTION = 0.7
    STREAMS = 8
    REQUESTS = 8192
    CHUNK = 2048
    PREFIX = 1024

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fleet = None

    def setup(self) -> float:
        clear_drive_build_cache()
        clear_kernel_tables()
        start = time.perf_counter()
        self.fleet = build_fleet(*self.FLEETS[0])
        # The first replay builds the kernel's geometry and seek tables.
        warm = Trace.from_chunks(self.stream(0, n=64))
        TraceReplayEngine(self.fleet).replay(warm)
        return time.perf_counter() - start

    def stream(self, k: int, rec: SpanRecorder | None = None, n: int | None = None):
        """Lazily generated Poisson chunks for stream ``k`` of the unit."""
        config = PoissonConfig(
            rate_rps=self.RATE_RPS,
            n_requests=n if n is not None else self.REQUESTS,
            request_sectors=self.SECTORS,
            read_fraction=self.READ_FRACTION,
            seed=sub_seed(self.seed, k),
        )
        chunks = PoissonArrivals.stream(config, self.fleet.total_lbns, self.CHUNK)
        rec = rec if rec is not None else SpanRecorder("", enabled=False)
        while True:
            with rec.span("workloads.arrivals"):
                chunk = next(chunks, None)
            if chunk is None:
                return
            yield chunk

    def unit(self, rec: SpanRecorder, fast: bool | None = None) -> Unit:
        engine = TraceReplayEngine(self.fleet, fast=fast)
        ops = []
        for k in range(self.STREAMS):
            chunks = self.stream(k, rec)
            stats, seconds, error = call_op(
                rec, "sim.stream.run_service", lambda: run_service(engine, chunks))
            ops.append(Op("service", seconds, stats.requests if stats else 0,
                          digest(stats.to_dict()) if stats else None,
                          engine.last_replay_path, error))
            if rec.enabled:
                with rec.span("sim.stream.replay_stream"):
                    engine.replay_stream(self.stream(k, rec))
                ops.append(Op("replay_stream", 0.0, 0, None, engine.last_replay_path))
                with rec.span("workloads.materialize"):
                    trace = Trace.from_chunks(self.stream(k))
                with rec.span("sim.kernel.replay"):
                    engine.replay(trace)
                ops.append(Op("replay", 0.0, 0, None, engine.last_replay_path))
        primary = [op for op in ops if op.kind == "service"]
        return Unit(primary, sum(op.seconds for op in primary),
                    sum(op.requests for op in primary),
                    info={"paths": [op.path for op in ops]})

    def prefix_pairs(self) -> list[tuple[str, str, str]]:
        pairs = []
        for k in range(self.STREAMS):
            found = []
            for fast in (None, False):
                engine = TraceReplayEngine(self.fleet, fast=fast)
                stats = run_service(engine, self.stream(k, n=self.PREFIX))
                found.append(digest(stats.to_dict()))
            pairs.append((f"service[{k}]", *found))
        return pairs

    def layer_metrics(self, rec: SpanRecorder, units: list[Unit]) -> dict[str, float]:
        services = rec.named("sim.stream.run_service")
        streams = rec.named("sim.stream.replay_stream")
        replays = rec.named("sim.kernel.replay")

        def pulled(span):
            return [c for c in rec.children(span) if c.name == "workloads.arrivals"]

        service_self = [rec.self_time(s) for s in services]
        stream_self = [rec.self_time(s) for s in streams]
        traces = [Trace.from_chunks(self.stream(k)) for k in range(self.STREAMS)]
        return {
            "workloads.arrivals_s": _mean(sum(c.duration for c in pulled(s)) for s in services),
            "workloads.trace_build_s": _mean(s.duration for s in rec.named("workloads.materialize")),
            # Every pull but the last (which ends the stream) yields a chunk.
            "stream.chunks": _mean(len(pulled(s)) - 1 for s in services),
            "stream.self_s": _mean(service_self),
            "stream.overhead_s": _mean(a - b.duration for a, b in zip(stream_self, replays)),
            "stream.service_stats_s": _mean(a - b for a, b in zip(service_self, stream_self)),
            "kernel.replay_s": _mean(s.duration for s in replays),
            "kernel.single_track_fraction": single_track_fraction(self.fleet, traces),
        }


# --------------------------------------------------------------------------- #
# sched-overload
# --------------------------------------------------------------------------- #

class SchedOverload:
    name = "sched-overload"
    DRIVES = 2
    FLEETS = [(FleetConfig(n_drives=DRIVES), DriveConfig(enable_caching=False))]
    #: ~2.1x this fleet's FCFS saturation (~181 rps for whole-track
    #: requests), so the backlog grows through every replay.
    RATE_RPS = 380.0
    READ_FRACTION = 0.7
    TRACES = 4
    REQUESTS = 4000
    PREFIX = 300

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fleet = None
        self.traces: list[Trace] = []
        self.trace_build_s: list[float] = []

    def whole_track_trace(self, k: int) -> Trace:
        """Poisson arrivals whose bodies are whole-track extents.

        The arrival generator supplies times, directions and a uniform LBN;
        each request becomes the entire track holding that LBN, so every
        request is track-aligned and single-track."""
        config = PoissonConfig(
            rate_rps=self.RATE_RPS,
            n_requests=self.REQUESTS,
            request_sectors=1,
            read_fraction=self.READ_FRACTION,
            seed=sub_seed(self.seed, k),
        )
        fleet = self.fleet
        trace = Trace()
        for chunk in PoissonArrivals.stream(config, fleet.total_lbns):
            for issue, lbn, op in zip(chunk.issue_ms, chunk.lbns, chunk.ops):
                shard = fleet.shard_of(lbn)
                base = fleet.shard_range(shard)[0]
                geometry = fleet.drives[shard].geometry
                first, length = geometry.track_bounds(geometry.track_of_lbn(lbn - base))
                trace.append(issue, base + first, length, op)
        return trace

    def setup(self) -> float:
        clear_drive_build_cache()
        clear_kernel_tables()
        start = time.perf_counter()
        self.fleet = build_fleet(*self.FLEETS[0])
        built = time.perf_counter()
        self.traces = [self.whole_track_trace(k) for k in range(self.TRACES)]
        self.trace_build_s.append(time.perf_counter() - built)
        TraceReplayEngine(self.fleet).replay(self.traces[0].slice(0, 64))
        return time.perf_counter() - start

    def unit(self, rec: SpanRecorder, fast: bool | None = None) -> Unit:
        ops, paths, peaks = [], [], {}
        for trace in self.traces:
            for policy in POLICIES:
                engine = TraceReplayEngine(self.fleet, scheduler=policy, fast=fast)
                stats, seconds, error = call_op(
                    rec, f"kernel_sched.replay.{policy}", lambda: engine.replay(trace))
                ops.append(Op(policy, seconds, stats.issued_requests if stats else 0,
                              digest(stats.to_dict()) if stats else None,
                              engine.last_replay_path, error))
                paths.append(engine.last_replay_path)
                if stats is not None:
                    peaks[policy] = max(peaks.get(policy, 0), stats.peak_outstanding)
                if rec.enabled:
                    with rec.span(f"kernel_sched.replay_half.{policy}"):
                        engine.replay(trace.slice(0, len(trace) // 2))
                    paths.append(engine.last_replay_path)
        return Unit(ops, sum(op.seconds for op in ops),
                    sum(op.requests for op in ops),
                    info={"paths": paths, "peaks": peaks})

    def prefix_pairs(self) -> list[tuple[str, str, str]]:
        pairs = []
        for k, trace in enumerate(self.traces):
            prefix = trace.slice(0, self.PREFIX)
            for policy in POLICIES:
                found = [
                    digest(TraceReplayEngine(self.fleet, scheduler=policy, fast=fast)
                           .replay(prefix).to_dict())
                    for fast in (None, False)
                ]
                pairs.append((f"{policy}[{k}]", *found))
        return pairs

    def layer_metrics(self, rec: SpanRecorder, units: list[Unit]) -> dict[str, float]:
        metrics: dict[str, float] = {
            "workloads.trace_build_s": sorted(self.trace_build_s)[len(self.trace_build_s) // 2],
            "kernel.replay_s": _mean(s.duration for s in rec.named("kernel_sched.replay.fcfs")),
            "kernel.single_track_fraction": single_track_fraction(self.fleet, self.traces),
        }
        for policy in POLICIES:
            full = rec.named(f"kernel_sched.replay.{policy}")
            half = rec.named(f"kernel_sched.replay_half.{policy}")
            full_rate = sum(s.duration for s in full) / (len(full) * self.REQUESTS)
            half_rate = sum(s.duration for s in half) / (len(half) * (self.REQUESTS // 2))
            metrics[f"kernel_sched.replay_s.{policy}"] = _mean(s.duration for s in full)
            metrics[f"kernel_sched.peak_backlog.{policy}"] = float(units[0].info["peaks"][policy])
            metrics[f"kernel_sched.cost_growth.{policy}"] = full_rate / half_rate
        return metrics


# --------------------------------------------------------------------------- #
# campaign-sweep
# --------------------------------------------------------------------------- #

FAULTS = {
    "seed": 5,
    "retry_budget": 8,
    "drives": {
        "0": {
            "transient": {"probability": 0.02, "max_retries": 3},
            "slowdowns": [{"start_ms": 2000.0, "end_ms": 6000.0, "factor": 2.0}],
            "grown_defects": [{"at_ms": 1000.0, "lbn": 100000, "sectors": 2048, "retries": 3}],
        },
        "1": {"fail_stop_ms": 8000.0, "spare": True},
    },
}


def class_rows(requests: int) -> list[tuple]:
    """One zip row per point class: (kind, mode, firmware cache, options,
    faults, interarrival ms).  Efficiency points measure half as many
    requests, which keeps their host time near a replay point's."""
    return [
        ("replay", "open", True, {}, None, 12.0),
        ("replay", "open", False, {"scheduler": "sptf"}, FAULTS, 8.0),
        ("replay", "closed", False, {"scheduler": "sptf", "queue_depth": 8}, FAULTS, 1.0),
        ("efficiency", "open", True, {"queue_depth": 2, "n_requests": requests // 2}, None, 1.0),
    ] + [
        ("replay", "closed", False, {"scheduler": policy, "queue_depth": 8}, None, 1.0)
        for policy in POLICIES
    ]


POINT_CLASSES = ("replay_cache_on", "replay_faults", "efficiency", "replay_sched_closed")


def point_class(config: ScenarioConfig) -> str:
    if config.kind == "efficiency":
        return "efficiency"
    if config.faults is not None:
        return "replay_faults"
    if config.drive.enable_caching:
        return "replay_cache_on"
    return "replay_sched_closed"


def record_digest(payload: dict) -> str:
    """Digest of a campaign record without its execution-path keys."""
    payload = dict(payload)
    details = payload.get("details") or {}
    payload["details"] = {k: v for k, v in details.items() if k not in VOLATILE_DETAIL_KEYS}
    return digest(payload)


def point_requests(config: ScenarioConfig, payload: dict) -> int:
    if config.kind == "efficiency":
        return len(payload.get("points", ())) * int(config.options["n_requests"])
    return int(payload.get("replay", {}).get("issued_requests", 0))


class TimedStore(ResultStore):
    """A ``ResultStore`` whose reads and writes are recorded as spans."""

    def __init__(self, directory, rec: SpanRecorder) -> None:
        super().__init__(directory)
        self.rec = rec

    def get(self, scenario_hash):
        with self.rec.span("store.get"):
            return super().get(scenario_hash)

    def put(self, scenario_hash, scenario, result):
        with self.rec.span("store.put"):
            return super().put(scenario_hash, scenario, result)

    def put_failure(self, scenario_hash, scenario, failure):
        with self.rec.span("store.put"):
            return super().put_failure(scenario_hash, scenario, failure)


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every worker process this run started has ended; kill
    any that is still running after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def stop_children(timeout_s: float = 30.0) -> None:
    """Stop every process the run started and wait for each to end.

    Besides the campaign workers, a ``spawn`` process pool starts the
    multiprocessing resource tracker.  Left alone it outlives this process
    until it notices the parent is gone, and nothing waits for it then.
    The pools' manager threads are joined and their queues collected
    first, so that no finalizer starts the tracker again."""
    reap_children(timeout_s)
    deadline = time.monotonic() + timeout_s
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(max(0.0, deadline - time.monotonic()))
    gc.collect()
    resource_tracker._resource_tracker._stop()


class CampaignSweep:
    name = "campaign-sweep"
    WORKERS = 2
    MODELS = ("Quantum Atlas 10K II", "Seagate Cheetah X15")
    FLEETS = [(FleetConfig(n_drives=2), DriveConfig(model=m)) for m in MODELS]
    REPLICAS = 3
    REQUESTS = 3000
    PREFIX_REQUESTS = 300

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.config: CampaignConfig | None = None
        self.passes = 0

    def campaign(self, requests: int, replicas: int, models) -> CampaignConfig:
        base = ScenarioConfig.from_dict({
            "name": "sweep",
            "fleet": {"n_drives": 2},
            "workload": {"name": "synthetic", "params": {"n_requests": requests}},
        })
        zips = {"kind": [], "mode": [], "drive.enable_caching": [], "options": [],
                "faults": [], "workload.interarrival_ms": []}
        for row in class_rows(requests):
            for path, value in zip(zips, row):
                zips[path].append(value)
        return CampaignConfig(
            name="bench-sweep",
            base=base,
            grid={
                "traxtent": [True, False],
                "drive.model": list(models),
                "seed": [sub_seed(self.seed, r) for r in range(replicas)],
            },
            zip_axes=zips,
        )

    def fresh_store_dir(self, tag: str) -> Path:
        path = self.out_dir / f"store-{tag}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self) -> float:
        clear_drive_build_cache()
        start = time.perf_counter()
        for fleet, drive in self.FLEETS:
            build_fleet(fleet, drive)
        self.config = self.campaign(self.REQUESTS, self.REPLICAS, self.MODELS)
        self.config.expand()
        ResultStore(self.fresh_store_dir("setup"))
        seconds = time.perf_counter() - start
        shutil.rmtree(self.out_dir / "store-setup", ignore_errors=True)
        return seconds

    def unit(self, rec: SpanRecorder, fast: bool | None = None) -> Unit:
        self.passes += 1
        directory = self.fresh_store_dir(str(self.passes))
        store = TimedStore(directory, rec)
        executor = TimedProcessExecutor(self.WORKERS)
        with rec.span("campaign.run") as cold_span:
            start = time.perf_counter()
            cold = run_campaign(self.config, workers=self.WORKERS, store=store,
                                executor=executor, fast=fast)
            cold_s = time.perf_counter() - start
        reap_children()
        store_bytes = sum(p.stat().st_size for p in directory.glob("*.json"))
        with rec.span("campaign.resume"):
            start = time.perf_counter()
            warm = run_campaign(self.config, workers=self.WORKERS, store=store)
            resume_s = time.perf_counter() - start
        shutil.rmtree(directory, ignore_errors=True)

        if rec.enabled:
            # Executor and point spans are measured by the executor (points
            # in their worker); place them under the cold pass.
            for begin, end in executor.map_spans:
                rec.add("campaign.executor", begin, end, cold_span.id)
            map_id = rec.spans[-1].id
            for run in cold:
                if run.hash in executor.timings:
                    begin, end, _ = executor.timings[run.hash]
                    rec.add(f"campaign.point.{point_class(run.config)}", begin, end, map_id)

        ops, checks = [], []
        for run in cold:
            begin, end, raw = executor.timings.get(run.hash, (0.0, 0.0, {}))
            failed = run.failed or run.cached
            ops.append(Op(
                point_class(run.config), end - begin,
                0 if failed else point_requests(run.config, run.payload),
                None if failed else record_digest(run.payload),
                (raw.get("details") or {}).get("replay_path"),
                error=f"{run.failure}" if run.failed else ("cached" if run.cached else None),
            ))
        for run in warm:
            failed = run.failed or not run.cached
            checks.append(Op("resume", 0.0, 0, None if failed else record_digest(run.payload),
                             error="not a cache hit" if failed else None))
        info = {
            "reference": executor.references,
            "resume_s": resume_s,
            "paths": [op.path for op in ops],
            "store_bytes": store_bytes,
            "cache_hits": sum(int(r.payload.get("replay", {}).get("cache_hits", 0)) for r in cold),
            "retries": sum(
                r.payload.get("replay", {}).get("extras", {}).get("fault_retries", 0.0)
                for r in cold
            ),
        }
        return Unit(ops, cold_s, sum(op.requests for op in ops), checks, info)

    def prefix_pairs(self) -> list[tuple[str, str, str]]:
        """Every point class of the first model and replica, on short traces."""
        config = self.campaign(self.PREFIX_REQUESTS, 1, self.MODELS[:1])
        pairs = []
        for point in config.expand():
            found = [
                record_digest(run_scenario(point.config, fast=fast).to_dict())
                for fast in (None, False)
            ]
            pairs.append((point.config.name, *found))
        return pairs

    def layer_metrics(self, rec: SpanRecorder, units: list[Unit]) -> dict[str, float]:
        cold = rec.named("campaign.run")
        resume = rec.named("campaign.resume")
        metrics = {
            f"campaign.point_s.{cls}": _mean(s.duration for s in rec.named(f"campaign.point.{cls}"))
            for cls in POINT_CLASSES
        }

        def inside(name, parents):
            return sum(
                s.duration for s in rec.named(name)
                if any(p.start <= s.start and s.end <= p.end for p in parents)
            ) / len(parents)

        metrics.update({
            "drive.cache_hits": _mean(u.info["cache_hits"] for u in units),
            "faults.retries": _mean(u.info["retries"] for u in units),
            "campaign.executor_s": _mean(s.duration for s in rec.named("campaign.executor")),
            "campaign.points_executed": _mean(
                sum(op.error is None for op in u.ops) for u in units),
            "campaign.points_failed": _mean(
                sum(op.error is not None for op in u.ops) for u in units),
            "store.put_s": inside("store.put", cold),
            "store.get_s": inside("store.get", resume),
            "store.bytes": _mean(u.info["store_bytes"] for u in units),
        })
        return metrics


def make(name: str, seed: int, out_dir: Path):
    if name == ServiceStream.name:
        return ServiceStream(seed)
    if name == SchedOverload.name:
        return SchedOverload(seed)
    if name == CampaignSweep.name:
        return CampaignSweep(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")

