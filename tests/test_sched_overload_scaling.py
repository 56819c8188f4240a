"""Host-cost scaling guard: scheduled dispatch under a growing backlog.

An open replay offered ~2x a fleet's FCFS saturation never drains: the
pending queue grows with the trace.  If a dispatch decision scanned the
whole queue, the host cost per request would grow linearly with the trace
length (quadratic in total).  The scheduled kernel keeps the queue in an
LBN-sorted index, so per-request cost should stay nearly flat.

The guard replays a 2000-request prefix and the whole 8000-request trace
per policy as 5 back-to-back pairs (alternating which runs first) and
takes each pair's ratio of host CPU seconds per request (process time, so
other processes' load on a shared host does not count).  A noise spike
on a shared host slows one replay, so it skews one pair's ratio, not the
median over pairs: SSTF, C-LOOK and traxtent must keep that median within
1.5x.  The printed line gives each policy's median and the range over its
pairs.  SPTF's ratio is printed, not asserted: its candidate count still
grows with queue density (more requests within any seek distance of the
head).

The trace has the shape of the repo benchmark's ``sched-overload``
workload: two cache-off drives, every request one whole track, ~30%
writes, Poisson arrivals at 380 requests/s (~2.1x FCFS saturation for
whole-track requests on this fleet).
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro import DriveConfig, FleetConfig, build_fleet
from repro.sim import Trace, TraceReplayEngine

pytest.importorskip(
    "numpy", reason="the scalar queue loop is quadratic in the backlog by design"
)

RATE_RPS = 380.0
WRITE_FRACTION = 0.3
SMALL = 2000
LARGE = 8000
PAIRS = 5
MAX_GROWTH = 1.5
GUARDED = ("sstf", "clook", "traxtent")


def overload_trace(fleet, n: int, seed: int = 7) -> Trace:
    rng = random.Random(seed)
    trace = Trace()
    t = 0.0
    for _ in range(n):
        t += rng.expovariate(RATE_RPS / 1000.0)
        lbn = rng.randrange(fleet.total_lbns)
        shard = fleet.shard_of(lbn)
        base = fleet.shard_range(shard)[0]
        geometry = fleet.drives[shard].geometry
        first, length = geometry.track_bounds(geometry.track_of_lbn(lbn - base))
        op = "write" if rng.random() < WRITE_FRACTION else "read"
        trace.append(t, base + first, length, op)
    return trace


def seconds(fleet, policy: str, trace: Trace) -> float:
    engine = TraceReplayEngine(fleet, scheduler=policy)
    start = time.process_time()
    stats = engine.replay(trace)
    elapsed = time.process_time() - start
    assert engine.last_replay_path == "kernel_sched", engine.last_fast_reason
    # The backlog really grows: even the most efficient policy ends with
    # over a quarter of the trace still queued.
    assert stats.peak_outstanding > len(trace) // 4
    return elapsed


def test_per_request_cost_stays_flat_as_the_backlog_grows():
    fleet = build_fleet(FleetConfig(n_drives=2), DriveConfig(enable_caching=False))
    large = overload_trace(fleet, LARGE)
    small = large.slice(0, SMALL)
    seconds(fleet, GUARDED[0], small)  # builds the kernel's cached tables
    growth = {}
    spread = {}
    for policy in GUARDED + ("sptf",):
        ratios = []
        for pair in range(PAIRS):
            if pair % 2:
                large_s = seconds(fleet, policy, large)
                small_s = seconds(fleet, policy, small)
            else:
                small_s = seconds(fleet, policy, small)
                large_s = seconds(fleet, policy, large)
            ratios.append((large_s / LARGE) / (small_s / SMALL))
        growth[policy] = statistics.median(ratios)
        spread[policy] = (min(ratios), max(ratios))
    print(
        f"\nhost cost per request, {LARGE} vs {SMALL} requests, median of "
        f"{PAIRS} pairs [range]: "
        + ", ".join(
            f"{policy} {growth[policy]:.2f}x "
            f"[{spread[policy][0]:.2f}-{spread[policy][1]:.2f}]"
            for policy in growth
        )
    )
    slow = {
        policy: round(growth[policy], 2)
        for policy in GUARDED
        if growth[policy] > MAX_GROWTH
    }
    assert not slow, (
        f"per-request dispatch cost grew more than {MAX_GROWTH}x with the "
        f"backlog: {slow}"
    )
