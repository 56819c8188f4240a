"""Helpers shared by the kernel and stream parity suites."""

from __future__ import annotations

import random
from bisect import bisect_right

from repro.disksim import BusModel
from repro.sim import Trace, TraceReplayEngine


def drive_states(engine: TraceReplayEngine) -> list[tuple]:
    """Every drive's end state: counters (``busy_ms`` included), head
    position, both clocks, and the firmware cache's segments and prefetch
    stream."""
    return [
        (
            drive.stats, drive.head_cylinder, drive.head_surface,
            drive.actuator_free, drive.bus_free,
            drive.cache.segments, drive.cache._prefetch_start,
            drive.cache._prefetch_limit, drive.cache._prefetch_time,
            drive.cache._prefetch_rate_ms,
        )
        for drive in engine.fleet.drives
    ]


def no_scalar_service(*args, **kwargs):
    raise AssertionError("the kernel called the drive's scalar service code")


def kernel_only(make_drive):
    """``make_drive`` whose drives fail if their scalar service code runs
    (the kernel must serve every request itself)."""

    def make():
        drive = make_drive()
        drive._service_read = drive._service_write = no_scalar_service
        return drive

    return make


def slow_bus(specs, rate_mb_per_s):
    """A bus at ``rate_mb_per_s`` with the drive's command overhead, or
    ``None`` (the drive's own bus) when the rate is ``None``."""
    if rate_mb_per_s is None:
        return None
    return BusModel(rate_mb_per_s, command_overhead_ms=specs.command_overhead_ms)


def live_tracks(geometry) -> list[int]:
    """The tracks that hold LBNs, in order (spare tracks left out)."""
    return [
        track for track in range(geometry.num_tracks)
        if geometry.track_bounds(track)[1]
    ]


def multitrack_request(geometry, rng, live: list[int], start: int) -> tuple[int, int]:
    """``(lbn, count)`` of a request that starts on the ``start``-th live
    track (at its first LBN or inside it) and ends one to three live tracks
    further on (at that track's last LBN or inside it): two to four
    pieces, the middle ones whole tracks."""
    start = min(start, len(live) - 2)
    first, count = geometry.track_bounds(live[start])
    lbn = first if rng.random() < 0.3 else first + rng.randrange(count)
    stop = min(start + rng.randint(1, 3), len(live) - 1)
    last, last_count = geometry.track_bounds(live[stop])
    end = last + (last_count if rng.random() < 0.3 else rng.randint(1, last_count))
    return lbn, end - lbn


def multitrack_trace(
    geometry, n: int, seed: int, write_fraction: float = 0.3,
    interarrival_ms: float = 0.4,
) -> Trace:
    """``n`` multi-track requests (:func:`multitrack_request`).  About a
    third start on a cylinder's last live track, so a piece seeks to the
    next cylinder; a fifth start just before a zone boundary, so they
    cross it (and any spare tracks at the zone's end)."""
    rng = random.Random(seed)
    live = live_tracks(geometry)
    surfaces = geometry.surfaces
    trace = Trace()
    for i in range(n):
        draw = rng.random()
        if draw < 0.35:
            cylinder = rng.randrange(geometry.cylinders - 1)
            start = bisect_right(live, cylinder * surfaces + surfaces - 1) - 1
        elif draw < 0.55:
            zone = rng.choice(geometry.zones[1:])
            start = bisect_right(live, zone.first_track - 1) - 1 - rng.randrange(2)
        else:
            start = rng.randrange(len(live) - 1)
        lbn, count = multitrack_request(geometry, rng, live, max(start, 0))
        op = "write" if rng.random() < write_fraction else "read"
        trace.append(i * interarrival_ms, lbn, count, op)
    return trace


#: Narrow zones: every zone boundary is a read's width plus a cache
#: read-ahead window away from the next one.
MANY_ZONES = dict(cylinders_per_zone=4, num_zones=8)


def zone_crossing_reads(drive, seed: int) -> Trace:
    """One multi-track read across each zone boundary of a
    :data:`MANY_ZONES` drive, in random order, with multi-track writes in
    between.  No read starts inside another's cached or read-ahead range,
    so the kernel engages on a caching drive; and whichever read a policy
    serves last, the prefetch it leaves streams at a zone rate its first
    track does not have."""
    geometry = drive.geometry
    live = live_tracks(geometry)
    rng = random.Random(seed)
    starts = [live.index(zone.first_track) - 1 for zone in geometry.zones[1:]]
    rng.shuffle(starts)
    trace = Trace()
    t = 0.0
    for start in starts:
        trace.append(t, *multitrack_request(geometry, rng, live, start), "read")
        lbn, count = multitrack_request(geometry, rng, live, rng.randrange(len(live)))
        trace.append(t + 0.3, lbn, count, "write")
        t += 0.9
    return trace
