"""Differential property test: the scheduled kernel's queue index vs a full scan.

The scheduled kernel keeps the pending queue as one LBN-sorted index and
lets each policy read only the part of it near the head (SSTF, C-LOOK,
SPTF's outward walk) or the anchor track (traxtent).  Ties are where such
an index can diverge from the scalar loop's full scan, so the generated
workloads are tie-heavy on purpose:

* exact duplicate requests (equal LBN: equal cylinder, distance, SPTF key
  and C-LOOK key, broken only by arrival sequence),
* same-cylinder requests on other surfaces (distance 0 with a head
  switch), whole-track requests that share a track, and requests that
  span up to three tracks (served piece by piece),
* reads and writes (write settle), zero-latency firmware on and off,
* starvation bounds on and off, one or two drives,
* open overloaded traces whose backlog passes 64 requests, and closed
  runs at depth 1-32 -- including a negative think time, which admits
  requests out of issue order and makes the kernel search for the oldest.

Every policy's kernel replay (``fast=True``) must equal the scalar queue
loop (``fast=False``) bitwise: ``ReplayStats`` (forced dispatches
included) and every drive's end state.  Without numpy the fast side
degrades honestly to the scalar path and the equalities still hold.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from _parity_helpers import drive_states
from repro.disksim import DiskDrive, FirmwareCache, small_test_specs
from repro.sim import Trace, TraceReplayEngine

POLICIES = ("fcfs", "sstf", "sptf", "clook", "traxtent")
SPECS = small_test_specs(cylinders_per_zone=12, num_zones=3)

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False


def make_drives(count: int, zero_latency: bool) -> list[DiskDrive]:
    return [
        DiskDrive(
            SPECS,
            cache=FirmwareCache(enable_caching=False),
            zero_latency=zero_latency,
        )
        for _ in range(count)
    ]


def build_trace(
    drives: int,
    n: int,
    seed: int,
    duplicates: float,
    same_cylinder: float,
    whole_track: float,
    writes: float,
    interarrival_ms: float,
) -> Trace:
    """``n`` requests over a ``drives``-drive fleet, none crossing a shard."""
    geometry = make_drives(1, True)[0].geometry
    surfaces = geometry.surfaces
    shard_lbns = geometry.total_lbns
    tracks = [geometry.track_bounds(t) for t in range(geometry.num_tracks)]
    live = [t for t, (_, count) in enumerate(tracks) if count]
    rng = random.Random(seed)

    def body(track: int) -> tuple[int, int]:
        first, count = tracks[track]
        if rng.random() < whole_track:
            return first, count
        lbn = first + rng.randrange(count)
        # Mostly single-track; some spill onto the next track or two (up
        # to three pieces) and run through the kernel's multi-track service.
        size = rng.choice((1, 8, 64, 200, count + 1, 2 * count))
        return lbn, min(size, shard_lbns - lbn)

    hot = []
    for _ in range(3):
        shard = rng.randrange(drives)
        lbn, count = body(rng.choice(live))
        hot.append((shard * shard_lbns + lbn, count))
    trace = Trace()
    t = 0.0
    last_track = rng.choice(live)
    for _ in range(n):
        shard = rng.randrange(drives)
        draw = rng.random()
        if draw < duplicates:
            lbn, count = rng.choice(hot)
        else:
            if draw < duplicates + same_cylinder:
                cylinder = last_track // surfaces
                other = cylinder * surfaces + rng.randrange(surfaces)
                track = other if tracks[other][1] else last_track
            else:
                track = rng.choice(live)
            last_track = track
            lbn, count = body(track)
            lbn += shard * shard_lbns
        op = "write" if rng.random() < writes else "read"
        trace.append(t, lbn, count, op)
        t += rng.expovariate(1.0 / interarrival_ms)
    return trace


@st.composite
def scenarios(draw):
    mode = draw(st.sampled_from(("open", "closed")))
    drives = draw(st.integers(min_value=1, max_value=2))
    scenario = {
        "mode": mode,
        "drives": drives,
        "zero_latency": draw(st.booleans()),
        "starvation_ms": draw(st.sampled_from((None, 2.0, 25.0))),
        "depth": draw(st.integers(min_value=1, max_value=32)),
        "think_ms": draw(st.sampled_from((0.0, 0.7, -25.0))),
    }
    if mode == "open":
        # At most 0.5 ms between arrivals against several ms of service
        # per request: the backlog passes 64 well before the trace ends,
        # and arrivals keep interleaving with dispatches on the way.
        n = draw(st.integers(min_value=100 * drives, max_value=130 * drives))
        interarrival = draw(st.floats(min_value=0.02, max_value=0.5))
    else:
        n = draw(st.integers(min_value=1, max_value=90))
        interarrival = 1.0
    scenario["trace"] = build_trace(
        drives,
        n,
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        duplicates=draw(st.sampled_from((0.0, 0.3, 0.7))),
        same_cylinder=draw(st.sampled_from((0.0, 0.3, 0.6))),
        whole_track=draw(st.sampled_from((0.0, 0.5, 1.0))),
        writes=draw(st.sampled_from((0.0, 0.3, 1.0))),
        interarrival_ms=interarrival,
    )
    return scenario


def replay(scenario: dict, policy: str, fast: bool):
    engine = TraceReplayEngine(
        make_drives(scenario["drives"], scenario["zero_latency"]),
        scheduler=policy,
        starvation_ms=scenario["starvation_ms"],
        queue_depth=1 if scenario["mode"] == "open" else scenario["depth"],
        fast=fast,
    )
    if scenario["mode"] == "open":
        stats = engine.replay(scenario["trace"])
    else:
        stats = engine.replay_closed(
            scenario["trace"], think_ms=scenario["think_ms"]
        )
    return stats, engine


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_every_policy_kernel_equals_scalar_bitwise(scenario):
    for policy in POLICIES:
        kernel, engine = replay(scenario, policy, fast=True)
        scalar, reference = replay(scenario, policy, fast=False)
        if not HAVE_NUMPY:
            assert engine.last_fast_reason == "numpy unavailable"
        elif policy == "fcfs" and scenario["mode"] == "open":
            assert engine.last_replay_path == "kernel"
        else:
            assert engine.last_replay_path == "kernel_sched", (
                policy, engine.last_fast_reason
            )
        if scenario["mode"] == "open":
            assert kernel.peak_outstanding > 64
        assert kernel.to_dict() == scalar.to_dict(), policy
        assert kernel.extras.get("forced_dispatches") == scalar.extras.get(
            "forced_dispatches"
        ), policy
        assert drive_states(engine) == drive_states(reference), policy
