"""Event-batched scheduled kernel vs the scalar queue loop: bitwise parity.

The scheduled kernel (``repro.sim.kernel._service_shard_sched`` called
with a scheduler, reported as ``kernel_sched``) vectorizes candidate
scoring between admission events but must remain an *exact*
re-implementation of the scalar queue loop: every test here replays the
same trace twice -- ``fast=True`` (kernel) and ``fast=False`` (scalar) --
and requires ``ReplayStats.to_dict()`` equality, which covers every float
(seek/settle/switch/transfer sums, response percentiles) and the extras
(forced dispatches).  Coverage axes:

* policy x queue depth x track alignment (closed replay),
* open replay with same-timestamp bursts,
* deep closed queues (depth 64: many candidates per decision) and a
  seek curve that is not monotone (SPTF's early stop),
* starvation-bound forced dispatches,
* deterministic sequence tie-breaking on duplicate LBNs,
* multi-drive fleets, FCFS depth-1 (classic onereq), closed FCFS with
  non-negative (queue-free arrival order) and negative think times,
* multi-track requests served inside the kernel (open and closed, every
  policy, zero-latency and ordinary firmware, a bus slower than the
  media, spare tracks between pieces, zone-crossing reads on a caching
  drive), compared with every drive's end state as well, and
* every honest-fallback reason (numpy absent, custom scheduler, warm
  cache).

The suite is dual-mode: with numpy installed the fast side runs through
``kernel_sched``; without numpy it honestly degrades to the scalar loop
(``"numpy unavailable"``) and every parity assertion still holds.  CI runs
it both ways (the ``kernel-parity`` job).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from _parity_helpers import (
    MANY_ZONES, drive_states, kernel_only, multitrack_trace, slow_bus,
    zone_crossing_reads,
)
from repro.disksim import DiskDrive, FirmwareCache, small_test_specs
from repro.disksim.sched import Scheduler
from repro.disksim.specs import SpareScheme
from repro.sim import Trace, TraceReplayEngine

POLICIES = ("fcfs", "sstf", "sptf", "clook", "traxtent")
SMALL = dict(cylinders_per_zone=12, num_zones=3)


def cacheless_drive() -> DiskDrive:
    """A fresh small drive with the firmware cache off.

    Random traces reuse LBN windows, so with caching on the kernel would
    (correctly) refuse as firmware-cache-sensitive; caching off keeps every
    eligibility decision about the *scheduler*, which is what these tests
    exercise.
    """
    return DiskDrive(
        small_test_specs(**SMALL), cache=FirmwareCache(enable_caching=False)
    )


def random_trace(
    drive: DiskDrive,
    n: int = 120,
    seed: int = 9,
    interarrival_ms: float = 0.5,
    aligned: bool = False,
    duplicates: bool = False,
) -> Trace:
    rng = random.Random(seed)
    geometry = drive.geometry
    trace = Trace()
    tracks = None
    if aligned:
        tracks = [
            geometry.track_bounds(track)
            for track in range(geometry.num_tracks)
        ]
        tracks = [(first, count) for first, count in tracks if count > 0]
    for i in range(n):
        if aligned:
            lbn, count = tracks[rng.randrange(len(tracks))]
        else:
            count = rng.choice((8, 16, 64))
            lbn = rng.randrange(0, geometry.total_lbns - count)
        if duplicates and i % 3:
            # Two thirds of the trace re-reads one hot LBN: ties in both
            # the SSTF/SPTF score and the C-LOOK key, broken by sequence.
            lbn, count = 4096, 16
        op = "write" if rng.random() < 0.25 else "read"
        trace.append(i * interarrival_ms, lbn, count, op)
    return trace


def replay_both(
    trace: Trace,
    mode: str = "closed",
    drives: int = 1,
    **engine_kwargs,
) -> tuple[dict, dict, "TraceReplayEngine"]:
    """(kernel payload, scalar payload, kernel engine) for one scenario."""
    payloads = []
    engines = []
    for fast in (True, False):
        if drives == 1:
            target = cacheless_drive()
        else:
            target = [cacheless_drive() for _ in range(drives)]
        engine = TraceReplayEngine(target, fast=fast, **engine_kwargs)
        if mode == "closed":
            stats = engine.replay_closed(trace, think_ms=0.0)
        else:
            stats = engine.replay(trace)
        payloads.append(stats.to_dict())
        engines.append(engine)
    assert engines[1].last_replay_path == "scalar"
    assert engines[1].last_fast_reason == "fast disabled"
    return payloads[0], payloads[1], engines[0]


try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: What the fast side reports: the kernel with numpy, honest scalar without.
FAST_PATH = "kernel_sched" if HAVE_NUMPY else "scalar"
FAST_REASON = "ok" if HAVE_NUMPY else "numpy unavailable"

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="refusal ordering requires the kernel to engage"
)


# --------------------------------------------------------------------------- #
# The core sweep: policy x depth x alignment
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("depth", (1, 4, 8))
@pytest.mark.parametrize("aligned", (False, True))
def test_closed_parity_policy_depth_alignment(policy, depth, aligned):
    trace = random_trace(cacheless_drive(), aligned=aligned)
    kernel, scalar, engine = replay_both(
        trace, scheduler=policy, queue_depth=depth
    )
    assert engine.last_replay_path == FAST_PATH, engine.last_fast_reason
    assert engine.last_fast_reason == FAST_REASON
    assert kernel == scalar


@pytest.mark.parametrize("policy", ("sstf", "sptf", "clook"))
def test_open_parity_with_bursts(policy):
    # Same-timestamp bursts build real queues in open mode.
    drive = cacheless_drive()
    rng = random.Random(5)
    trace = Trace()
    t = 0.0
    for burst in range(30):
        for _ in range(rng.randrange(1, 7)):
            lbn = rng.randrange(0, drive.geometry.total_lbns - 64)
            trace.append(t, lbn, 16, "read")
        t += rng.choice((0.1, 2.0, 8.0))
    kernel, scalar, engine = replay_both(trace, mode="open", scheduler=policy)
    assert engine.last_replay_path == FAST_PATH
    assert kernel == scalar


@pytest.mark.parametrize("policy", ("sstf", "sptf", "traxtent"))
def test_large_queue_uses_numpy_scoring_and_matches(policy):
    # Depth 64 keeps dozens of candidates pending at every decision, so
    # the hooks' index walks (SSTF's cylinder runs, SPTF's outward walk
    # with its seek-floor cut-off, traxtent's track slice) reach far past
    # the head's bisect point.  The name predates the sorted index, when
    # queues this deep were scored with numpy.
    depth = 64
    trace = random_trace(cacheless_drive(), n=3 * depth, interarrival_ms=0.0)
    kernel, scalar, engine = replay_both(
        trace, scheduler=policy, queue_depth=depth
    )
    assert engine.last_replay_path == FAST_PATH
    assert kernel == scalar


class DippingSeekCurve:
    """A measured-looking seek curve that is not monotone: long seeks
    (past a third of the stroke) cost less than mid-length ones."""

    def __init__(self, curve) -> None:
        self.curve = curve

    def seek_time(self, distance: int) -> float:
        seek = self.curve.seek_time(distance)
        return seek * 0.4 if distance > 12 else seek


def test_sptf_stops_exactly_under_a_non_monotone_seek_curve():
    # SPTF's outward walk stops on a lower bound of every remaining seek;
    # with a curve that dips, the bound must come from the dip, not from
    # the seek at the current distance, or far candidates are missed.
    def dipping_drive() -> DiskDrive:
        drive = cacheless_drive()
        return DiskDrive(
            drive.specs,
            cache=FirmwareCache(enable_caching=False),
            seek_curve=DippingSeekCurve(drive.seek_curve),
        )

    trace = random_trace(cacheless_drive(), n=150, interarrival_ms=0.05)
    payloads = []
    for fast in (True, False):
        engine = TraceReplayEngine(dipping_drive(), scheduler="sptf", fast=fast)
        payloads.append(engine.replay(trace).to_dict())
        if fast:
            assert engine.last_replay_path == FAST_PATH
    assert payloads[0] == payloads[1]


# --------------------------------------------------------------------------- #
# Starvation bounds and tie-breaking
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("policy", ("sstf", "sptf", "clook", "traxtent"))
def test_starvation_forced_dispatches_match(policy):
    trace = random_trace(cacheless_drive(), n=150, interarrival_ms=0.1)
    kernel, scalar, engine = replay_both(
        trace, scheduler=policy, queue_depth=8, starvation_ms=3.0
    )
    assert engine.last_replay_path == FAST_PATH
    # The bound must actually bite for this test to mean anything.
    assert kernel["extras"]["forced_dispatches"] > 0
    assert kernel == scalar


@pytest.mark.parametrize("policy", POLICIES)
def test_duplicate_lbn_ties_break_by_sequence(policy):
    trace = random_trace(
        cacheless_drive(), n=90, interarrival_ms=0.0, duplicates=True
    )
    kernel, scalar, engine = replay_both(trace, scheduler=policy, queue_depth=6)
    assert engine.last_replay_path == FAST_PATH
    assert kernel == scalar


# --------------------------------------------------------------------------- #
# Fleets and the classic FCFS disciplines
# --------------------------------------------------------------------------- #

def test_fleet_parity_with_starvation():
    from repro.sim import LbnRangeShard

    probe = LbnRangeShard([cacheless_drive() for _ in range(3)])
    rng = random.Random(3)
    trace = Trace()
    for i in range(240):
        lbn = rng.randrange(0, probe.total_lbns - 64)
        trace.append(i * 0.2, lbn, 32, "read")
    kernel, scalar, engine = replay_both(
        trace, drives=3, scheduler="sptf", queue_depth=6, starvation_ms=4.0
    )
    assert engine.last_replay_path == FAST_PATH
    assert kernel == scalar


def test_fcfs_closed_depth1_is_classic_onereq():
    # Depth-1 FCFS closed replay is the classic onereq discipline; the
    # scheduled kernel must reproduce the heap-driven loop bitwise, with
    # no forced dispatches recorded.
    trace = random_trace(cacheless_drive(), n=100)
    kernel, scalar, engine = replay_both(trace, scheduler="fcfs", queue_depth=1)
    assert engine.last_replay_path == FAST_PATH
    assert "forced_dispatches" not in kernel.get("extras", {})
    assert kernel == scalar


@pytest.mark.parametrize("think_ms", (0.0, 0.7, -25.0))
@pytest.mark.parametrize("depth", (1, 8, 500))
def test_closed_fcfs_matches_across_think_times(depth, think_ms):
    # With a non-negative think time closed FCFS admits in issue order, so
    # the kernel dispatches in trace order without a queue; a negative one
    # admits out of issue order and keeps the queue.  Both must match the
    # scalar loop, multi-track requests and the starvation bound included.
    drive = cacheless_drive()
    trace = random_trace(drive, n=150, seed=13)
    rng = random.Random(2)
    for i in range(0, len(trace), 5):
        trace.counts[i] = rng.randint(300, 1500)
        trace.lbns[i] = rng.randrange(drive.geometry.total_lbns - 1500)
    payloads = []
    for fast in (True, False):
        engine = TraceReplayEngine(
            cacheless_drive(), fast=fast, scheduler="fcfs",
            queue_depth=depth, starvation_ms=4.0,
        )
        payloads.append(engine.replay_closed(trace, think_ms=think_ms).to_dict())
        if fast:
            assert engine.last_replay_path == FAST_PATH
    assert payloads[0] == payloads[1]


# --------------------------------------------------------------------------- #
# Multi-track requests: served piece by piece inside the kernel
# --------------------------------------------------------------------------- #

def replay_multitrack(make_drive, trace, policy, mode, depth=8):
    """Kernel and scalar replays of ``trace`` on fresh drives: their
    ``ReplayStats`` payloads and drive end states.  With numpy, the kernel's
    drive refuses its scalar service code."""
    results = []
    for fast in (True, False):
        drive = (kernel_only(make_drive) if fast and HAVE_NUMPY else make_drive)()
        engine = TraceReplayEngine(
            drive, scheduler=policy, queue_depth=depth, fast=fast
        )
        if mode == "closed":
            stats = engine.replay_closed(trace, think_ms=0.0)
        else:
            stats = engine.replay(trace)
        if fast:
            path = "kernel" if policy == "fcfs" and mode == "open" else FAST_PATH
            if not HAVE_NUMPY:
                path = "scalar"
            assert engine.last_replay_path == path, engine.last_fast_reason
        results.append((stats.to_dict(), drive_states(engine)))
    return results


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode", ("open", "closed"))
@pytest.mark.parametrize("model", ("Quantum Atlas 10K II", "Seagate Cheetah X15"))
@pytest.mark.parametrize("bus_mb_per_s", (None, 20.0))
def test_multitrack_pieces_match_scalar(policy, mode, model, bus_mb_per_s):
    # Zero-latency (Atlas) and ordinary (Cheetah) firmware; two to four
    # pieces per request, pieces that seek to the next cylinder or cross a
    # zone boundary, reads and writes.  A 20 MB/s bus is slower than the
    # media, so buffered prefixes of a read set its completion.
    def make_drive():
        specs = small_test_specs(model, **SMALL)
        return DiskDrive(
            specs,
            cache=FirmwareCache(enable_caching=False),
            bus=slow_bus(specs, bus_mb_per_s),
        )

    trace = multitrack_trace(make_drive().geometry, 160, seed=7, interarrival_ms=2.0)
    kernel, scalar = replay_multitrack(make_drive, trace, policy, mode)
    assert kernel == scalar


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode", ("open", "closed"))
def test_multitrack_pieces_skip_spare_tracks(policy, mode):
    def make_drive():
        specs = dataclasses.replace(
            small_test_specs(**SMALL),
            spare_scheme=SpareScheme.TRACKS_PER_ZONE,
            spare_count=2,
        )
        return DiskDrive(specs, cache=FirmwareCache(enable_caching=False))

    assert 0 in make_drive().geometry._track_lbn_count
    trace = multitrack_trace(make_drive().geometry, 160, seed=8, interarrival_ms=2.0)
    kernel, scalar = replay_multitrack(make_drive, trace, policy, mode)
    assert kernel == scalar


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode", ("open", "closed"))
def test_zone_crossing_reads_on_a_caching_drive(policy, mode):
    # Cache on: every read leaves a prefetch stream at the rate of its last
    # track's zone, recorded in the drive end state compared here.
    def make_drive():
        return DiskDrive(small_test_specs(**MANY_ZONES))

    trace = zone_crossing_reads(make_drive(), seed=9)
    kernel, scalar = replay_multitrack(make_drive, trace, policy, mode, depth=4)
    assert kernel == scalar


# --------------------------------------------------------------------------- #
# Honest fallbacks
# --------------------------------------------------------------------------- #

def test_numpy_absent_falls_back_to_scalar(monkeypatch):
    import builtins

    from repro.disksim import geometry as geometry_module

    trace = random_trace(cacheless_drive(), n=60)
    reference = TraceReplayEngine(
        cacheless_drive(), scheduler="sptf", queue_depth=4, fast=False
    ).replay_closed(trace, think_ms=0.0)

    real_import = builtins.__import__

    def blocked_import(name, *args, **kwargs):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy disabled for this test")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(
        geometry_module, "_NUMPY_CACHE", geometry_module._NUMPY_UNRESOLVED
    )
    monkeypatch.setattr(builtins, "__import__", blocked_import)
    try:
        engine = TraceReplayEngine(
            cacheless_drive(), scheduler="sptf", queue_depth=4, fast=True
        )
        with pytest.warns(RuntimeWarning, match="numpy is not installed"):
            stats = engine.replay_closed(trace, think_ms=0.0)
        assert engine.last_replay_path == "scalar"
        assert engine.last_fast_reason == "numpy unavailable"
        assert stats.to_dict() == reference.to_dict()
    finally:
        geometry_module._NUMPY_CACHE = geometry_module._NUMPY_UNRESOLVED


@needs_numpy
def test_custom_scheduler_subclass_is_refused_honestly():
    class GreedyNewest(Scheduler):
        """Pops the most recently queued request: no kernel columns."""

        name = "greedy-newest"

        def _select(self, now):
            return self.queue[-1]

    trace = random_trace(cacheless_drive(), n=60)
    engine = TraceReplayEngine(
        cacheless_drive(), scheduler=GreedyNewest(), queue_depth=4, fast=True
    )
    stats = engine.replay_closed(trace, think_ms=0.0)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "scheduler not kernel-vectorizable"
    reference = TraceReplayEngine(
        cacheless_drive(), scheduler=GreedyNewest(), queue_depth=4, fast=False
    ).replay_closed(trace, think_ms=0.0)
    assert stats.to_dict() == reference.to_dict()


@needs_numpy
def test_warm_cache_state_matches_scalar():
    # A caching drive that has already served requests is replayed without
    # reset under the per-chunk warm-cache gate: the kernel runs only when
    # no read can hit the warm cache, and the result is bitwise equal to
    # the scalar queue loop either way.
    def run(fast):
        drive = DiskDrive(small_test_specs(**SMALL))
        trace = random_trace(drive, n=40, seed=11)
        engine = TraceReplayEngine(
            drive, scheduler="sstf", queue_depth=4, fast=fast
        )
        engine.replay_closed(trace, think_ms=0.0)
        return engine, engine.replay_closed(trace, think_ms=0.0, reset=False)

    engine, fast = run(True)
    _, slow = run(False)
    assert fast.to_dict() == slow.to_dict()
    assert engine.last_fast_reason in ("ok", "firmware-cache-sensitive reuse")
    assert engine.last_replay_path == (
        "kernel_sched" if engine.last_fast_reason == "ok" else "scalar"
    )
