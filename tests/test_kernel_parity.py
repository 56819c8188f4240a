"""Kernel-vs-scalar parity suite for the columnar replay fast path.

The contract of :mod:`repro.sim.kernel` is *bitwise* agreement with the
scalar batched path: every integer counter identical, every timing
statistic the exact same float (which trivially satisfies the documented
<= 1e-6 relative tolerance).  These tests replay the same traces through
``TraceReplayEngine(fast=False)`` and ``fast=True`` on freshly built
identical targets and compare the full ``ReplayStats.to_dict()`` payloads,
across aligned/unaligned, read/write, single-drive and 4-way-sharded
traces, multi-track requests (which the kernel serves piece by piece and
must never hand to the drive's scalar service code), open queueing
regimes and warm-state continuation -- plus the
refusal cases (defects, cache-sensitive traces, missing numpy) where the
engine must silently degrade to the scalar path.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

pytest.importorskip("numpy", reason="the columnar kernel requires numpy")

from _parity_helpers import (
    MANY_ZONES, drive_states, kernel_only, multitrack_trace, slow_bus,
    zone_crossing_reads,
)
from repro.api import DriveConfig, FleetConfig, build_drive, build_fleet, stripe_trace
from repro.api.factory import clear_drive_build_cache
from repro.disksim import DiskDrive, DiskGeometry, small_test_specs
from repro.disksim.cache import FirmwareCache
from repro.disksim.specs import SpareScheme, available_models
from repro.sim import LbnRangeShard, Trace, TraceReplayEngine
from repro.sim.kernel import track_of_lbns

SMALL = dict(cylinders_per_zone=12, num_zones=3)


def nocache_drive(model: str = "Quantum Atlas 10K II") -> DiskDrive:
    specs = small_test_specs(model, **SMALL)
    return DiskDrive(specs, cache=FirmwareCache(enable_caching=False))


def caching_drive() -> DiskDrive:
    return DiskDrive(small_test_specs(**SMALL))


def spaced_aligned_trace(drive: DiskDrive, stride: int = 9, seed: int = 7) -> Trace:
    """Whole-track reads over widely spaced tracks: no two requests fall
    inside each other's cached-plus-readahead window, so the kernel engages
    even with the firmware cache enabled."""
    geometry = drive.geometry
    tracks = [
        t for t in range(0, geometry.num_tracks, stride)
        if geometry.track_bounds(t)[1] > 0
    ]
    rng = random.Random(seed)
    rng.shuffle(tracks)
    trace = Trace()
    t = 0.0
    for track in tracks:
        first, count = geometry.track_bounds(track)
        trace.append(t, first, count, "read")
        t += 0.8
    return trace


def random_trace(
    geometry: DiskGeometry,
    n: int,
    seed: int = 3,
    write_fraction: float = 0.4,
    max_sectors: int = 1200,
    interarrival_ms: float = 0.5,
) -> Trace:
    """Unaligned random requests, many of which span several tracks."""
    rng = random.Random(seed)
    trace = Trace()
    t = 0.0
    for _ in range(n):
        lbn = rng.randrange(0, geometry.total_lbns - max_sectors)
        count = rng.randint(1, max_sectors)
        op = "write" if rng.random() < write_fraction else "read"
        trace.append(t, lbn, count, op)
        t += interarrival_ms
    return trace


def assert_parity(
    trace: Trace, make_target, expect_path: str = "kernel", make_fast_target=None
):
    """Replay ``trace`` both ways on identical fresh targets and compare
    the ``ReplayStats`` payloads and every drive's end state.
    ``make_fast_target`` (default ``make_target``) builds the fast side's."""
    scalar_engine = TraceReplayEngine(make_target(), fast=False)
    scalar = scalar_engine.replay(trace)
    fast_engine = TraceReplayEngine((make_fast_target or make_target)(), fast=True)
    fast = fast_engine.replay(trace)
    assert fast_engine.last_replay_path == expect_path, fast_engine.last_fast_reason
    assert drive_states(fast_engine) == drive_states(scalar_engine)
    a, b = scalar.to_dict(), fast.to_dict()
    # Integer counters: bitwise.
    for key in (
        "trace_requests", "issued_requests", "split_requests", "reads",
        "writes", "cache_hits", "streamed", "sectors", "peak_outstanding",
    ):
        assert a[key] == b[key], key
    # Timing statistics: the kernel mirrors the scalar arithmetic exactly,
    # so the full payloads (floats included) must match bitwise -- a far
    # stronger guarantee than the documented 1e-6 relative tolerance.
    assert a == b
    for key in ("start_ms", "end_ms", "makespan_ms"):
        assert math.isclose(a[key], b[key], rel_tol=1e-6)
    return scalar, fast


# --------------------------------------------------------------------------- #
# Parity across trace shapes
# --------------------------------------------------------------------------- #

def test_aligned_reads_engage_kernel_with_cache_enabled():
    trace = spaced_aligned_trace(caching_drive())
    assert len(trace) > 8
    assert_parity(trace, caching_drive)


def test_unaligned_single_track_requests():
    geometry = nocache_drive().geometry
    # Partial-track requests that never cross a track boundary.
    rng = random.Random(11)
    trace = Trace()
    t = 0.0
    for _ in range(300):
        track = rng.randrange(geometry.num_tracks)
        first, count = geometry.track_bounds(track)
        if count == 0:
            continue
        offset = rng.randrange(count)
        take = rng.randint(1, count - offset)
        trace.append(t, first + offset, take, "read" if rng.random() < 0.7 else "write")
        t += 0.6
    assert_parity(trace, nocache_drive)


def test_unaligned_multitrack_requests_are_served_inline():
    trace = random_trace(nocache_drive().geometry, 400)
    scalar, fast = assert_parity(
        trace, nocache_drive, make_fast_target=kernel_only(nocache_drive)
    )
    assert scalar.reads > 0 and scalar.writes > 0


ZERO_LATENCY_AND_ORDINARY = ("Quantum Atlas 10K II", "Seagate Cheetah X15")


@pytest.mark.parametrize("bus_mb_per_s", (None, 20.0))
@pytest.mark.parametrize("model", ZERO_LATENCY_AND_ORDINARY)
def test_multitrack_pieces_match_scalar(model, bus_mb_per_s):
    # Two to four pieces per request, whole tracks in the middle, pieces
    # that seek to the next cylinder or cross a zone boundary.  A 20 MB/s
    # bus is slower than the media, so an in-order read's completion is
    # set by when a prefix of its data is buffered, not by its last sector.
    def make_drive():
        specs = small_test_specs(model, **SMALL)
        return DiskDrive(
            specs,
            cache=FirmwareCache(enable_caching=False),
            bus=slow_bus(specs, bus_mb_per_s),
        )

    assert make_drive().zero_latency == (model == "Quantum Atlas 10K II")
    trace = multitrack_trace(make_drive().geometry, 300, seed=31)
    scalar, _ = assert_parity(
        trace, make_drive, make_fast_target=kernel_only(make_drive)
    )
    assert scalar.reads > 0 and scalar.writes > 0


@pytest.mark.parametrize("model", ("Quantum Atlas 10K II", "Quantum Atlas 10K"))
def test_zone_crossing_reads_on_a_caching_drive(model):
    # The prefetch a read leaves behind streams at its last track's zone
    # rate, so a zone-crossing read must hand the cache that rate.
    def make_drive():
        return DiskDrive(small_test_specs(model, **MANY_ZONES))

    drive = make_drive()
    assert drive.cache.enable_caching and drive.zero_latency
    trace = zone_crossing_reads(drive, seed=41)
    zone_of = drive.geometry.zone_of_lbn
    assert all(
        zone_of(lbn) != zone_of(lbn + count - 1)
        for lbn, count, op in zip(trace.lbns, trace.counts, trace.ops)
        if op == "read"
    )
    assert_parity(trace, make_drive, make_fast_target=kernel_only(make_drive))


def spare_track_specs():
    """Test specs whose geometry reserves whole spare tracks per zone: a
    defect-free geometry with empty (zero-LBN) tracks."""
    return dataclasses.replace(
        small_test_specs(**SMALL),
        spare_scheme=SpareScheme.TRACKS_PER_ZONE,
        spare_count=2,
    )


@pytest.mark.parametrize("model", available_models())
def test_bucket_track_lookup_matches_bisection(model):
    import numpy as np

    geometries = [
        DiskGeometry(small_test_specs(model, **SMALL)),
        DiskGeometry(spare_track_specs()),
        DiskGeometry.with_random_defects(
            small_test_specs(model, **SMALL), defect_count=10, seed=3
        ),
    ]
    assert any(0 in g._track_lbn_count for g in geometries)
    rng = random.Random(5)
    for geometry in geometries:
        first = np.asarray(geometry._track_first_lbn, dtype=np.int64)
        probes = {0, geometry.total_lbns - 1}
        for lbn in geometry._track_first_lbn:
            probes.update((lbn - 1, lbn, lbn + 1))
        probes.update(rng.randrange(geometry.total_lbns) for _ in range(500))
        lbns = np.asarray(
            sorted(p for p in probes if 0 <= p < geometry.total_lbns),
            dtype=np.int64,
        )
        expected = np.searchsorted(first, lbns, side="right") - 1
        got = track_of_lbns(np, geometry, lbns)
        assert got.tolist() == expected.tolist()


def test_spare_track_geometry_runs_the_kernel():
    def make_drive():
        return DiskDrive(spare_track_specs(), cache=FirmwareCache(enable_caching=False))

    geometry = make_drive().geometry
    assert not geometry.has_defects
    assert 0 in geometry._track_lbn_count
    trace = random_trace(geometry, 300, seed=21)
    # Some requests have an empty spare track between two of their pieces.
    assert any(
        0 in geometry._track_lbn_count[
            geometry.track_of_lbn(lbn):geometry.track_of_lbn(lbn + count - 1)
        ]
        for lbn, count in zip(trace.lbns, trace.counts)
    )
    assert_parity(trace, make_drive, make_fast_target=kernel_only(make_drive))


def test_non_zero_latency_model():
    drive = nocache_drive("Seagate Cheetah X15")
    assert not drive.zero_latency
    trace = random_trace(drive.geometry, 250, seed=5)
    assert_parity(trace, lambda: nocache_drive("Seagate Cheetah X15"))


def test_heavy_queueing_regime():
    # Zero interarrival: every request queues behind the previous one.
    trace = random_trace(nocache_drive().geometry, 300, interarrival_ms=0.0)
    assert_parity(trace, nocache_drive)


def test_unsorted_trace_is_sorted_identically():
    geometry = nocache_drive().geometry
    trace = random_trace(geometry, 200, seed=9)
    rng = random.Random(1)
    order = list(range(len(trace)))
    rng.shuffle(order)
    shuffled = Trace(
        [trace.issue_ms[i] for i in order],
        [trace.lbns[i] for i in order],
        [trace.counts[i] for i in order],
        [trace.ops[i] for i in order],
    )
    assert not shuffled.is_time_ordered()
    assert_parity(shuffled, nocache_drive)


def test_four_way_sharded_trace():
    def make_fleet():
        return LbnRangeShard([nocache_drive() for _ in range(4)])

    local = random_trace(nocache_drive().geometry, 400, seed=13)
    striped = stripe_trace(local, make_fleet())
    scalar, fast = assert_parity(striped, make_fleet)
    assert len(scalar.per_drive) == 4
    assert all(entry["requests"] > 0 for entry in scalar.per_drive)


def test_warm_state_continuation_reset_false():
    trace_a = random_trace(nocache_drive().geometry, 150, seed=21)
    trace_b = random_trace(nocache_drive().geometry, 150, seed=22)

    scalar_engine = TraceReplayEngine(nocache_drive(), fast=False)
    scalar_engine.replay(trace_a)
    scalar = scalar_engine.replay(trace_b, reset=False)

    fast_engine = TraceReplayEngine(nocache_drive(), fast=True)
    fast_engine.replay(trace_a)
    assert fast_engine.last_replay_path == "kernel"
    fast = fast_engine.replay(trace_b, reset=False)
    assert fast_engine.last_replay_path == "kernel"
    assert scalar.to_dict() == fast.to_dict()
    assert drive_states(fast_engine) == drive_states(scalar_engine)


def test_warm_continuation_on_caching_drive_matches_scalar_sequence():
    """A kernel replay must leave the firmware cache exactly as a scalar
    replay would, so a ``reset=False`` continuation that re-reads earlier
    LBNs sees the same hits whichever path served the first replay."""
    trace_a = spaced_aligned_trace(caching_drive(), seed=7)
    # Trace B re-reads trace A's most recent LBNs (still inside the LRU
    # segment list): cache-sensitive against A's end state.
    trace_b = Trace(
        [t + 1000.0 for t in trace_a.issue_ms[-8:]],
        trace_a.lbns[-8:],
        trace_a.counts[-8:],
        trace_a.ops[-8:],
    )

    scalar_engine = TraceReplayEngine(caching_drive(), fast=False)
    scalar_engine.replay(trace_a)
    scalar = scalar_engine.replay(trace_b, reset=False)
    assert scalar.cache_hits + scalar.streamed > 0

    fast_engine = TraceReplayEngine(caching_drive(), fast=True)
    fast_engine.replay(trace_a)
    assert fast_engine.last_replay_path == "kernel"
    fast = fast_engine.replay(trace_b, reset=False)
    # The continuation is cache-sensitive, so it must refuse the kernel --
    # and the scalar service must see the cache state the kernel recorded.
    assert fast_engine.last_replay_path == "scalar"
    assert scalar.to_dict() == fast.to_dict()


# --------------------------------------------------------------------------- #
# Refusal cases: the engine must degrade to the scalar path
# --------------------------------------------------------------------------- #

def test_defective_geometry_refuses_fast_path():
    specs = small_test_specs(**SMALL)
    geometry = DiskGeometry.with_random_defects(specs, defect_count=10, seed=3)

    def make_drive():
        return DiskDrive(specs, geometry=geometry)

    trace = random_trace(geometry, 120, seed=4, max_sectors=64)
    engine = TraceReplayEngine(make_drive(), fast=True)
    fast = engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "defective geometry"
    scalar = TraceReplayEngine(make_drive(), fast=False).replay(trace)
    assert scalar.to_dict() == fast.to_dict()


def test_cache_heavy_trace_refuses_fast_path():
    drive = caching_drive()
    geometry = drive.geometry
    first, count = geometry.track_bounds(0)
    trace = Trace()
    for i in range(40):  # re-read the same track: guaranteed reuse
        trace.append(i * 1.0, first, count, "read")
    engine = TraceReplayEngine(drive, fast=True)
    stats = engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "firmware-cache-sensitive reuse"
    assert stats.cache_hits > 0  # the scalar path did model the hits
    # With caching disabled the same trace is eligible again.
    engine2 = TraceReplayEngine(nocache_drive(), fast=True)
    engine2.replay(trace)
    assert engine2.last_replay_path == "kernel"


def test_sequential_readahead_stream_refuses_fast_path():
    drive = caching_drive()
    geometry = drive.geometry
    trace = Trace()
    t = 0.0
    lbn = 0
    for _ in range(30):  # sequential whole-track reads ride the prefetch
        track = geometry.track_of_lbn(lbn)
        first, count = geometry.track_bounds(track)
        trace.append(t, first, count, "read")
        lbn = first + count
        t += 2.0
    engine = TraceReplayEngine(drive, fast=True)
    stats = engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "firmware-cache-sensitive reuse"
    assert stats.cache_hits + stats.streamed > 0


def offset_tracks_trace(drive: DiskDrive, offset: int, t0: float) -> Trace:
    """Whole-track reads of every ninth track starting at ``offset``."""
    geometry = drive.geometry
    trace = Trace()
    t = t0
    for track in range(offset, geometry.num_tracks, 9):
        first, count = geometry.track_bounds(track)
        if count:
            trace.append(t, first, count, "read")
            t += 0.8
    return trace


def test_warm_cache_replay_matches_scalar():
    """A reset=False replay on a warm firmware cache is judged by the
    per-chunk warm-cache gate: reads that could hit what earlier requests
    cached keep it on the scalar path, reads clear of the cache run the
    kernel, and both are bitwise equal to fast=False."""

    def run(fast, warm_trace):
        drive = caching_drive()
        engine = TraceReplayEngine(drive, fast=fast)
        engine.replay(spaced_aligned_trace(drive))
        # Seed the cache through the scalar interface too.
        drive.read(0, 8, 10.0)
        return engine, engine.replay(warm_trace(drive), reset=False)

    cases = [
        # Shares tracks with the first replay: possible cache hits.
        (lambda d: spaced_aligned_trace(d, stride=11, seed=8), "scalar",
         "firmware-cache-sensitive reuse"),
        # Tracks the first replay never touched: clean misses.
        (lambda d: offset_tracks_trace(d, 4, 1e5), "kernel", "ok"),
    ]
    for warm_trace, path, reason in cases:
        engine, fast = run(True, warm_trace)
        _, slow = run(False, warm_trace)
        assert fast.to_dict() == slow.to_dict()
        assert engine.last_replay_path == path
        assert engine.last_fast_reason == reason


def test_fast_false_pins_scalar_path():
    trace = spaced_aligned_trace(caching_drive())
    engine = TraceReplayEngine(caching_drive(), fast=False)
    engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "fast disabled"


def test_closed_replay_reports_kernel_sched_path():
    """Classic closed FCFS depth-1 replay is a degenerate schedule the
    event-batched kernel reproduces bitwise, so it reports kernel_sched."""
    trace = spaced_aligned_trace(caching_drive())
    engine = TraceReplayEngine(caching_drive(), fast=True)
    engine.replay(trace)
    assert engine.last_replay_path == "kernel"
    assert engine.last_fast_reason == "ok"
    engine.replay_closed(trace)
    assert engine.last_replay_path == "kernel_sched"
    assert engine.last_fast_reason == "ok"


def test_out_of_order_bus_refuses_fast_path():
    def make_drive():
        specs = small_test_specs(**SMALL)
        return DiskDrive(specs, in_order_bus=False)

    trace = spaced_aligned_trace(make_drive())
    engine = TraceReplayEngine(make_drive(), fast=True)
    engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "out-of-order bus"


def test_kernel_refusal_reports_reason_and_routes_once():
    """A refused kernel chunk leaves no trace on the fleet: the scalar
    fallback routes and serves every request exactly once."""
    first, count = caching_drive().geometry.track_bounds(0)
    trace = Trace.from_records([(0.0, first, count, "read")] * 5)
    fleet = LbnRangeShard([caching_drive()])
    engine = TraceReplayEngine(fleet, fast=True)
    stats = engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "firmware-cache-sensitive reuse"
    assert fleet.routed_requests == 5
    assert fleet.drives[0].stats.requests == 5
    reference = TraceReplayEngine(caching_drive(), fast=False).replay(trace)
    assert stats.to_dict() == reference.to_dict()


# --------------------------------------------------------------------------- #
# Drive-build cache
# --------------------------------------------------------------------------- #

def test_drive_build_cache_shares_immutable_parts():
    clear_drive_build_cache()
    config = DriveConfig(cylinders_per_zone=12, num_zones=3)
    a = build_drive(config)
    b = build_drive(config)
    assert a.geometry is b.geometry
    assert a.seek_curve is b.seek_curve
    assert a.cache is not b.cache  # mutable state is never shared
    other = build_drive(DriveConfig(cylinders_per_zone=10, num_zones=3))
    assert other.geometry is not a.geometry
    clear_drive_build_cache()
    c = build_drive(config)
    assert c.geometry is not a.geometry


def test_scenario_hash_ignores_fast_option():
    """options['fast'] is an execution knob: pinning it must not split a
    ResultStore (results are bitwise identical either way)."""
    from repro.api import Scenario, scenario_hash

    base = Scenario("x").drive(cylinders_per_zone=8, num_zones=2)
    assert (
        scenario_hash(base.config)
        == scenario_hash(Scenario("x", config=base.config).fast(True).config)
        == scenario_hash(Scenario("x", config=base.config).fast(False).config)
    )
    # Other options still differentiate scenarios.
    other = Scenario("x", config=base.config).options(stripe=False)
    assert scenario_hash(other.config) != scenario_hash(base.config)


def test_campaign_records_byte_identical_fast_on_and_off(tmp_path):
    """A 16-point campaign (workers=4) persists byte-identical ResultStore
    records whether the kernel is pinned on or forced off."""
    from repro.api import CampaignConfig, ScenarioConfig, WorkloadConfig, run_campaign
    from repro.api.scenario import build_trace

    base = ScenarioConfig(
        name="kernel-parity",
        kind="replay",
        drive=DriveConfig(
            cylinders_per_zone=8, num_zones=2, enable_caching=False
        ),
        workload=WorkloadConfig(
            name="synthetic", params={"n_requests": 40}, interarrival_ms=1.0
        ),
        seed=1,
    )
    campaign = CampaignConfig(
        name="kernel-parity",
        base=base,
        grid={
            "workload.params.n_requests": [30, 40, 50, 60],
            "seed": [1, 2, 3, 4],
        },
    )
    points = campaign.expand()
    assert len(points) == 16

    # Sanity: the kernel actually engages for these points.
    probe = points[0].config
    engine = TraceReplayEngine(build_fleet(probe.fleet, probe.drive), fast=True)
    engine.replay(build_trace(probe))
    assert engine.last_replay_path == "kernel"

    store_on = tmp_path / "store-on"
    store_off = tmp_path / "store-off"
    on = run_campaign(campaign, workers=4, store=str(store_on), fast=True)
    off = run_campaign(campaign, workers=4, store=str(store_off), fast=False)
    assert on.executed == off.executed == 16

    for point in points:
        record_on = (store_on / f"{point.hash}.json").read_bytes()
        record_off = (store_off / f"{point.hash}.json").read_bytes()
        assert record_on == record_off, point.overrides


def test_cached_factory_fleet_is_bitwise_identical_to_handwired():
    clear_drive_build_cache()
    config = DriveConfig(cylinders_per_zone=12, num_zones=3)
    trace = random_trace(build_drive(config).geometry, 200, seed=17, max_sectors=64)

    def handwired():
        specs = small_test_specs(**SMALL)
        return DiskDrive(specs)

    cached = TraceReplayEngine(build_fleet(FleetConfig(n_drives=2), config), fast=False)
    direct = TraceReplayEngine(
        LbnRangeShard([handwired(), handwired()]), fast=False
    )
    striped = stripe_trace(trace, build_fleet(FleetConfig(n_drives=2), config))
    assert cached.replay(striped).to_dict() == direct.replay(striped).to_dict()
