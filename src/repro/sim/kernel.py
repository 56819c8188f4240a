"""Columnar fast-path replay kernels: per-shard service with numpy.

The scalar batched path (:meth:`repro.disksim.drive.DiskDrive.submit_batch`)
amortizes Python call overhead, but its hot loop still performs
per-request geometry bisects, memo-dict probes, firmware-cache probes and
thirteen column appends.  The kernels in this module service one
shard-local request stream -- a chunk of a trace, as handed over by the
replay drivers in :mod:`repro.sim.stream` -- with the per-request work
split into two phases:

* **vectorized precompute** -- everything that is a pure function of the
  request stream and the immutable drive configuration is computed with
  numpy array math up front: LBN -> (track, cylinder, surface, slot)
  translation (a cached bucket lookup over the per-track tables), seek
  distances and seek-curve evaluation (a per-curve lookup table), head-switch
  detection, media-transfer and bus-transfer columns, request validation
  and shard routing;
* **serial recurrence** -- only the state that genuinely chains from one
  request to the next (actuator free time, bus free time, and the
  rotation-phase-dependent latency) runs in a tight Python loop over the
  precomputed columns, mirroring the arithmetic of
  :meth:`repro.disksim.drive.DiskDrive.submit_batch` operation for
  operation so the produced :class:`~repro.sim.engine.ReplayStats` is
  bitwise identical to the scalar path.

One service loop, :func:`_service_shard_sched`, serves every kernel
replay in one of two dispatch orders:

* **arrival order** (``scheduler=None``) -- open FCFS, and closed FCFS
  with a non-negative think time (its admissions stay in issue order, so
  the oldest pending request is always the next one).  No queue is kept,
  and seeks and head switches are precomputed columns because the head
  before each request is the previous request's end track.
* **scheduled** -- every other policy, and closed FCFS with a negative
  think time: admission and the dispatch-time policy
  decision stay in the serial loop, which keeps the pending queue as one
  LBN-sorted index; the choice is delegated to the scheduler's
  ``kernel_select`` hook over that index and precomputed columns
  (:class:`~repro.disksim.sched.KernelQueueView`).

Each dispatched request is served inside the loop.  A single-track
request runs inlined arithmetic; a request that spans tracks (an
unaligned one, the paper's baseline) walks its pieces -- the non-empty
tracks it covers, gathered once per chunk from the per-track tables by
:func:`_track_pieces` -- in :func:`_serve_pieces`, which mirrors the
drive's media access and bus model (head switch and seek into each piece,
zero latency on whole-track pieces only, streamed or buffered bus
delivery).  Only the head's arrival time and the drive's clocks are
dynamic.  The loop takes running accumulators, so a chunked replay
continues the fold of earlier chunks bitwise-exactly.

The helpers here return a refusal reason (and the stream driver falls
back to the exact scalar path) whenever the kernel's model could diverge
from the scalar one:

* numpy is not importable,
* a fault schedule is attached to any drive,
* any drive's geometry has slipped/remapped defects,
* any drive uses an out-of-order bus,
* any request crosses a shard boundary (fleet splitting),
* the chunk exhibits *firmware-cache-sensitive reuse*: some read's start
  LBN falls inside another read's cached-plus-readahead window, so the
  scalar path could serve cache hits or prefetch streams the kernel does
  not model.  The check is static and conservative (it ignores request
  ordering, LRU eviction and write invalidation, all of which only make
  real hits less likely), or
* some read could hit what is *already* in a warm firmware cache (left by
  an earlier chunk, or by an earlier replay under ``reset=False``) --
  the dynamic :func:`warm_cache_clean` gate.

A scheduler subclass that overrides the scalar policy hooks without
matching kernel hooks is refused by
:func:`repro.disksim.sched.kernel_fallback_reason`
(``"scheduler not kernel-vectorizable"``).

On caching-enabled drives the kernel performs the same
``record_read``/``record_write`` cache bookkeeping as the scalar path
(recording cannot change this replay's results -- the reuse gates
guarantee no probe would hit), so the drive ends a kernel chunk in
exactly the state a scalar chunk would leave, and warm-state
continuations stay consistent whichever path serves them.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from typing import TYPE_CHECKING

from ..disksim.drive import READ, WRITE
from ..disksim.geometry import _numpy

if TYPE_CHECKING:  # pragma: no cover
    from ..disksim.drive import DiskDrive
    from ..disksim.geometry import DiskGeometry
    from ..disksim.seek import SeekCurve
    from .shard import LbnRangeShard
    from .trace import Trace

# --------------------------------------------------------------------------- #
# Cached per-configuration tables
# --------------------------------------------------------------------------- #

#: geometry -> (first_lbn, lbn_count, spt, skew, sector_ms) int64/float64
#: arrays, one entry per track.  Keyed weakly so cached factory geometries
#: (shared across campaign points) share one table set without leaking.
_GEOMETRY_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: seek curve -> {n_cylinders: float64 seek-time table}.
_SEEK_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: geometry -> (shift, int32 bucket -> track table) for track_of_lbns.
_TRACK_BUCKETS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def geometry_tables(geometry: "DiskGeometry"):
    """Per-track numpy tables for a defect-free geometry (cached).

    Values are produced by the exact same scalar formulas the drive uses
    (``sector_time_ms``, ``skew_offset``), filled zone by zone, so gathers
    from these tables are bitwise identical to the scalar lookups.
    """
    np = _numpy()
    tables = _GEOMETRY_TABLES.get(geometry)
    if tables is not None:
        return tables
    n_tracks = geometry.num_tracks
    surfaces = geometry.surfaces
    first = np.asarray(geometry._track_first_lbn, dtype=np.int64)
    count = np.asarray(geometry._track_lbn_count, dtype=np.int64)
    spt = np.empty(n_tracks, dtype=np.int64)
    skew = np.empty(n_tracks, dtype=np.int64)
    sector_ms = np.empty(n_tracks, dtype=np.float64)
    stream_ms = np.empty(n_tracks, dtype=np.float64)
    specs = geometry.specs
    for zone in geometry.zones:
        lo = zone.first_track
        hi = (zone.end_cylinder + 1) * surfaces
        zone_spt = zone.sectors_per_track
        zone_sector_ms = specs.sector_time_ms(zone_spt)
        spt[lo:hi] = zone_spt
        sector_ms[lo:hi] = zone_sector_ms
        # Sustained streaming rate including skew (what record_read feeds
        # the prefetch model) -- same formula as DiskDrive._track_fast.
        stream_ms[lo:hi] = zone_sector_ms * (zone_spt + zone.track_skew) / zone_spt
        # skew_offset vectorized: k head switches + cylinder crossings
        # since the start of the zone (same formula as the scalar memo).
        k = np.arange(hi - lo, dtype=np.int64)
        crossings = k // surfaces
        switches = k - crossings
        skew[lo:hi] = (
            switches * zone.track_skew + crossings * zone.cylinder_skew
        ) % zone.sectors_per_track
    tables = (first, count, spt, skew, sector_ms, stream_ms)
    _GEOMETRY_TABLES[geometry] = tables
    return tables


def track_of_lbns(np, geometry: "DiskGeometry", lbns):
    """``searchsorted(first_lbn, lbns, side="right") - 1`` over the per-track
    first-LBN table: the last track starting at or before each LBN.

    A bisection over the table pays a dozen mispredicted branches per LBN.
    Instead a cached bucket table records that answer for the first LBN of
    every ``2**shift``-sector bucket, and each LBN steps forward past the
    track starts inside its bucket.  A bucket is no longer than the
    shortest non-empty track, so it holds at most one non-empty track start
    (plus any empty tracks sharing it) and the stepping takes a few
    vectorized passes.  The result is the bisection's, empty tracks
    included.
    """
    first, count = geometry_tables(geometry)[:2]
    buckets = _TRACK_BUCKETS.get(geometry)
    if buckets is None:
        shortest = int(count.min(where=count > 0, initial=count.max()))
        shift = shortest.bit_length() - 1
        n_buckets = ((geometry.total_lbns - 1) >> shift) + 1
        # Bucket b's answer is the number of tracks starting at or before
        # b << shift, minus one: count each track start in the first
        # bucket whose start is not below it, then accumulate.
        starts = first + ((1 << shift) - 1)
        starts >>= shift
        np.minimum(starts, n_buckets, out=starts)
        per_bucket = np.bincount(starts, minlength=n_buckets + 1)[:n_buckets]
        np.cumsum(per_bucket, out=per_bucket)
        per_bucket -= 1
        buckets = (shift, per_bucket.astype(np.int32))
        _TRACK_BUCKETS[geometry] = buckets
    shift, table = buckets
    last = first.shape[0] - 1
    track = table[np.minimum(lbns >> shift, table.shape[0] - 1)].astype(np.intp)
    step = (track < last) & (first[np.minimum(track + 1, last)] <= lbns)
    while step.any():
        track += step
        step = (track < last) & (first[np.minimum(track + 1, last)] <= lbns)
    return track


def seek_table(curve: "SeekCurve", n_cylinders: int):
    """``table[d] == curve.seek_time(d)`` for every distance (cached)."""
    np = _numpy()
    per_curve = _SEEK_TABLES.get(curve)
    if per_curve is None:
        per_curve = {}
        _SEEK_TABLES[curve] = per_curve
    table = per_curve.get(n_cylinders)
    if table is None:
        seek_time = curve.seek_time
        table = np.asarray(
            [seek_time(d) for d in range(n_cylinders)], dtype=np.float64
        )
        per_curve[n_cylinders] = table
    return table


def seek_table_list(curve: "SeekCurve", n_cylinders: int) -> list[float]:
    """Python-list twin of :func:`seek_table` (cached) for scalar lookups."""
    per_curve = _SEEK_TABLES.setdefault(curve, {})
    key = ("list", n_cylinders)
    table = per_curve.get(key)
    if table is None:
        table = seek_table(curve, n_cylinders).tolist()
        per_curve[key] = table
    return table


def seek_floor_list(curve: "SeekCurve", n_cylinders: int) -> list[float]:
    """``floor[d] == min(table[d:])`` of :func:`seek_table` (cached): an
    exact lower bound on the seek time of every distance >= ``d``.

    Fitted curves are monotone, and then the floor *is* the
    :func:`seek_table_list` list; but a drive accepts any ``seek_curve``
    object (a measured one may dip), and SPTF's early stop must stay exact
    for it too."""
    per_curve = _SEEK_TABLES.setdefault(curve, {})
    key = ("floor", n_cylinders)
    table = per_curve.get(key)
    if table is None:
        np = _numpy()
        seeks = seek_table(curve, n_cylinders)
        if bool((seeks[1:] >= seeks[:-1]).all()):
            table = seek_table_list(curve, n_cylinders)
        else:
            table = np.minimum.accumulate(seeks[::-1])[::-1].tolist()
        per_curve[key] = table
    return table


def clear_kernel_tables() -> None:
    """Drop the cached geometry/seek tables (tests and benchmarks)."""
    _GEOMETRY_TABLES.clear()
    _SEEK_TABLES.clear()
    _TRACK_BUCKETS.clear()


# --------------------------------------------------------------------------- #
# Eligibility
# --------------------------------------------------------------------------- #

def _cache_sensitive(np, cache, lbns, counts, is_read) -> bool:
    """Conservative static reuse check for one shard-local stream.

    True when some read's start LBN lies inside another read's
    ``[start, end + readahead]`` window -- the union of the cache segment
    and prefetch ranges a read can populate -- in which case the scalar
    path *could* serve a hit or stream and the kernel must not run.
    """
    if not cache.enable_caching:
        return False
    starts = lbns[is_read]
    if starts.size < 2:
        return False
    extra = cache.readahead_sectors if cache.enable_prefetch else 0
    rights = starts + counts[is_read] + extra
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    rights = rights[order]
    covered_until = np.maximum.accumulate(rights[:-1])
    return bool(np.any(starts[1:] <= covered_until))


def warm_cache_clean(np, cache, lbns, is_read) -> bool:
    """True when every read is a *guaranteed* clean miss against the cache's
    current (possibly warm) state.

    A probe can only return a hit or an active stream when the read's start
    LBN lies inside a cached segment ``[s, e)`` or inside the prefetch
    window, which is always contained in
    ``[_prefetch_start, _prefetch_limit]`` (checked inclusively here, which
    is conservative).  The chunked streaming path uses this dynamic gate --
    together with the static :func:`_cache_sensitive` check for reuse within
    the chunk itself -- to keep servicing later chunks through the kernel
    after earlier chunks have warmed the cache.
    """
    if not cache.enable_caching:
        return True
    starts = lbns[is_read]
    if starts.size == 0:
        return True
    hot = np.zeros(starts.shape[0], dtype=bool)
    for seg_start, seg_end in cache.segments:
        hot |= (starts >= seg_start) & (starts < seg_end)
    if cache.enable_prefetch and cache._prefetch_start is not None:
        hot |= (starts >= cache._prefetch_start) & (
            starts <= cache._prefetch_limit
        )
    return not bool(hot.any())


def fleet_eligibility(fleet: "LbnRangeShard") -> "str | None":
    """Drive-level kernel refusal reason for ``fleet``, or None if eligible.

    Checked once per replay by the stream drivers
    (:mod:`repro.sim.stream`); warm cache state is judged per chunk by
    :func:`warm_cache_clean` instead.
    """
    for drive in fleet.drives:
        if getattr(drive, "faults", None) is not None:
            # Fault schedules advance a seeded RNG per serviced request and
            # mutate remap state mid-run; only the scalar path models that.
            return "fault injection active"
        if drive.geometry.has_defects:
            return "defective geometry"
        if not drive.bus.in_order:
            return "out-of-order bus"
    return None


def trace_columns(np, fleet: "LbnRangeShard", ordered: "Trace"):
    """Validated numpy columns for a trace already in admission order.

    Returns ``((lbns, counts, issue, is_read), None)`` on success or
    ``(None, reason)`` with the kernel's refusal vocabulary.
    """
    lbns = np.asarray(ordered.lbns, dtype=np.int64)
    counts = np.asarray(ordered.counts, dtype=np.int64)
    issue = np.asarray(ordered.issue_ms, dtype=np.float64)
    n = int(lbns.shape[0])
    # Opcodes are counted and compared at C speed: most traces are all
    # reads, and a mixed one is compared as an object array.
    ops = ordered.ops
    reads = ops.count(READ)
    if reads == n:
        is_read = np.ones(n, dtype=bool)
    elif reads + ops.count(WRITE) != n:
        return None, "unknown opcode"
    else:
        is_read = np.asarray(np.array(ops, dtype=object) == READ, dtype=bool)
    if counts.min() <= 0 or lbns.min() < 0:
        return None, "invalid request"
    if int((lbns + counts).max()) > fleet.total_lbns:
        return None, "request exceeds fleet capacity"
    return (lbns, counts, issue, is_read), None


def shard_split(np, fleet: "LbnRangeShard", lbns, counts, issue, is_read):
    """Split validated columns into per-shard local columns.

    Returns ``(shard_cols, None)`` -- one ``(lbns, counts, issue, is_read)``
    tuple per drive, LBNs shard-local -- or ``(None, reason)`` when some
    request crosses a shard boundary.
    """
    n_shards = len(fleet.drives)
    if n_shards == 1:
        return [(lbns, counts, issue, is_read)], None
    starts = np.asarray(
        [fleet.shard_range(s)[0] for s in range(n_shards)], dtype=np.int64
    )
    ends = np.asarray(
        [fleet.shard_range(s)[1] for s in range(n_shards)], dtype=np.int64
    )
    shard = np.searchsorted(starts, lbns, side="right") - 1
    if bool((lbns + counts > ends[shard]).any()):
        return None, "shard-boundary-crossing requests"
    local = lbns - starts[shard]
    shard_cols = []
    for s in range(n_shards):
        mask = shard == s
        shard_cols.append((local[mask], counts[mask], issue[mask], is_read[mask]))
    return shard_cols, None


# --------------------------------------------------------------------------- #
# Per-shard service: vectorized precompute + serial recurrence
# --------------------------------------------------------------------------- #

class _ShardOutcome:
    """Columnar results of one shard's replay (mirrors ``BatchResult``'s
    role in the scalar aggregate, carrying only what the aggregate needs)."""

    __slots__ = (
        "n", "issue", "completions", "seek", "settle", "head_switch",
        "transfer", "bus", "latency_sum", "overlap_sum", "busy_sum",
    )

    def __init__(self) -> None:
        self.n = 0
        self.issue: list[float] = []
        self.completions: list[float] = []
        self.seek: list[float] = []
        self.settle: list[float] = []
        self.head_switch: list[float] = []
        self.transfer: list[float] = []
        self.bus: list[float] = []
        self.latency_sum = 0.0
        self.overlap_sum = 0.0
        self.busy_sum = 0.0


def _track_pieces(np, drive: "DiskDrive", multi, lbns, counts, track, etrack):
    """The pieces of every multi-track row, as ``DiskDrive._split_by_track``
    cuts them: the non-empty tracks from ``track`` to ``etrack``.

    Returns ``({row: [piece, ...]}, transfer)``.  A piece is the tuple
    ``(switch, spt, sector_ms, skew, slot, count, zero_latency, transfer,
    revolution, after)``: the head-switch cost into it (``head_switch_ms``,
    plus the seek when it crosses a cylinder; 0.0 for the first piece,
    which adding leaves the clock unchanged), its
    track's constants, its first slot and sector count, whether
    zero-latency access applies (only to a whole-track piece), its
    transfer and full-revolution times, and how many of the request's
    sectors follow it.  ``transfer`` holds each row's media-transfer time,
    folded over its pieces in order like ``_media_access`` does.
    """
    geometry = drive.geometry
    tr_first, tr_count, tr_spt, tr_skew, tr_sector_ms = geometry_tables(geometry)[:5]
    seek_lut = seek_table(drive.seek_curve, geometry.cylinders)
    head_switch_ms = drive.specs.head_switch_ms
    rows = np.flatnonzero(multi)
    lo_track = track[rows]
    span = etrack[rows] - lo_track + 1
    owner = np.repeat(np.arange(rows.shape[0]), span)
    ptrack = np.arange(owner.shape[0]) + np.repeat(
        lo_track - (np.cumsum(span) - span), span
    )
    live = tr_count[ptrack] > 0
    owner = owner[live]
    ptrack = ptrack[live]
    first = tr_first[ptrack]
    start = np.maximum(lbns[rows][owner], first)
    end = (lbns + counts)[rows][owner]
    stop = np.minimum(end, first + tr_count[ptrack])
    pcount = stop - start
    spt = tr_spt[ptrack]
    sector_ms = tr_sector_ms[ptrack]
    transfer = pcount * sector_ms
    lead = np.ones(owner.shape[0], dtype=bool)
    lead[1:] = owner[1:] != owner[:-1]
    cyl = ptrack // geometry.surfaces
    gap = np.zeros(owner.shape[0], dtype=np.int64)
    gap[1:] = np.abs(cyl[1:] - cyl[:-1])
    switch = np.where(gap == 0, head_switch_ms, head_switch_ms + seek_lut[gap])
    switch[lead] = 0.0
    # Left fold 0.0 + t0 + t1 + ... per row, one piece rank at a time.
    bounds = np.append(np.flatnonzero(lead), owner.shape[0])
    rank = np.arange(owner.shape[0]) - np.repeat(bounds[:-1], np.diff(bounds))
    fold = np.zeros(rows.shape[0], dtype=np.float64)
    for k in range(int(rank.max()) + 1):
        at = rank == k
        fold[owner[at]] += transfer[at]
    pieces = list(zip(
        switch.tolist(), spt.tolist(), sector_ms.tolist(),
        tr_skew[ptrack].tolist(), (start - first).tolist(), pcount.tolist(),
        ((pcount >= spt) & drive.zero_latency).tolist(), transfer.tolist(),
        (spt * sector_ms).tolist(), (end - stop).tolist(),
    ))
    bounds = bounds.tolist()
    return (
        {
            row: pieces[a:b]
            for row, a, b in zip(rows.tolist(), bounds, bounds[1:])
        },
        fold,
    )


def _serve_pieces(pieces, t, hs_ms, rotation, floor, total_bus, bus_sector):
    """Serve one multi-track request whose head arrives at ``t``.

    Mirrors ``DiskDrive._media_access`` piece by piece (head switch and
    seek into each piece, rotational latency, zero-latency wrap on whole
    tracks) and, for a read (``floor`` is the bus floor, ``None`` for a
    write), ``Bus.read_completion`` over the pieces' media runs, float
    operation for float operation.  Runs are visited in LBN order; the
    bus's time sort leaves them in that order exactly when their start
    times never decrease, which is when the data streams to the host.

    Returns ``(media_end, latency, head_switch, bus_completion, overlap)``;
    the last two are ``None`` for a write.
    """
    latency = 0.0
    bus_end = last_begin = stream = float("-inf")
    prefix = 0.0
    in_order = True
    for sw, spt, sector_ms, skew, slot, cnt, zl, transfer, rev, after in pieces:
        hs_ms += sw
        t += sw
        rel = ((((t % rotation) / rotation) * spt - skew) % spt - slot) % spt
        if rel >= cnt or not zl:
            lat = (spt - rel) * sector_ms
            media_ms = lat + transfer
            runs = ((lat, media_ms, cnt, after),)
        else:
            split = int(rel) + 1
            if split > cnt:
                split = cnt
            tail = cnt - split
            media_ms = rev
            lat = rev - transfer
            runs = ((rev - split * sector_ms, rev, split, after + tail),)
            if tail > 0:
                tb = (split - rel) * sector_ms if split > rel else 0.0
                if tb < 0.0:
                    tb = 0.0
                runs += ((tb, tb + tail * sector_ms, tail, after),)
        latency += lat
        if floor is not None:
            for begin, end, run_cnt, left in runs:
                begin = t + begin
                end = t + end
                if end > bus_end:
                    bus_end = end
                if in_order:
                    if begin < last_begin:
                        in_order = False
                        continue
                    last_begin = begin
                    # Prefix [0, j) is buffered once every run before j
                    # is; j is this run's end, ``left`` sectors remain.
                    avail = begin + run_cnt * ((end - begin) / run_cnt)
                    if avail > prefix:
                        prefix = avail
                    cand = (prefix if prefix > floor else floor) + left * bus_sector
                    if cand > stream:
                        stream = cand
        t += media_ms
    if floor is None:
        return t, latency, hs_ms, None, None
    if in_order:
        completion = floor + total_bus
        alt = bus_end + bus_sector
        if alt > completion:
            completion = alt
        if stream > completion:
            completion = stream
        overlap = total_bus - (completion - bus_end)
        if overlap < 0.0:
            overlap = 0.0
        elif overlap > total_bus:
            overlap = total_bus
    else:
        completion = (floor if floor > bus_end else bus_end) + total_bus
        overlap = 0.0
    return t, latency, hs_ms, completion, overlap


def _service_shard_sched(
    np,
    drive: "DiskDrive",
    scheduler,
    lbns,
    counts,
    issue,
    is_read,
    mode: str,
    depth: int,
    think_ms: float,
    latency_start: float = 0.0,
    overlap_start: float = 0.0,
    busy_start: float = 0.0,
    now_start: float = 0.0,
) -> "tuple[_ShardOutcome, int, float]":
    """Replay one shard-local stream: the kernel's one service loop.

    ``lbns``/``counts``/``issue``/``is_read`` are numpy columns in
    admission order.  Every per-request quantity that does not depend on
    dispatch order is precomputed as a numpy column; the loop below keeps
    only the irreducible serial recurrence -- actuator/bus availability,
    head position, rotation phase and queue admission -- and services each
    dispatched request with ``DiskDrive.submit_batch``'s inlined
    single-track arithmetic or, when it spans tracks, with
    :func:`_serve_pieces`, float operation for float operation, so the
    replay is bitwise identical to the scalar path.

    Two dispatch orders share that loop:

    * ``scheduler=None`` dispatches in **arrival order**: open FCFS, where
      the scalar path serves requests in issue order with
      ``mech_start = max(issue + cmd, actuator_free)``, and closed FCFS
      with ``think_ms >= 0``, whose admissions stay in issue order (the
      first ``depth`` requests at ``now_start``, request ``idx + depth``
      when request ``idx`` completes, plus ``think_ms``), so the oldest
      pending request is the next index.  No queue is kept; the head
      before each request is the previous request's end track, so seeks
      and head switches are precomputed columns too, and the input columns
      double as the outputs.
    * otherwise the loop interleaves admission (requests entering the
      pending queue) with dispatch, asking the scheduler's
      ``kernel_select`` hook to pick from a
      :class:`~repro.disksim.sched.KernelQueueView`: the pending queue as
      a sorted list of packed ``lbn * n + idx`` keys (``insort`` on
      admission; the hook returns the chosen key's position, which is
      deleted) plus the columns, so a policy reads only the part of the
      queue near the head or the anchor track.  The oldest pending
      request is tracked, not searched for, and a lone pending request
      is dispatched without asking the policy.  Selection mirrors
      ``Scheduler.pop`` (starvation bound,
      forced-dispatch accounting, seq tie-breaking), so the replay is
      bitwise identical to the scalar queue loop.

    Returns the shard outcome, the scheduler's forced-dispatch count, and
    the final closed-loop clock (``completion + think_ms`` of the last
    dispatch; ``now_start`` echoed back in open mode or on an empty shard).
    ``latency_start``/``overlap_start``/``busy_start``/``now_start`` let a
    chunked replay (:mod:`repro.sim.stream`) continue an earlier chunk's
    accumulator fold and closed-loop clock bitwise-exactly.
    """
    from ..disksim.sched import KernelQueueView, Scheduler, kernel_oldest

    out = _ShardOutcome()
    n = int(lbns.shape[0])
    out.n = n
    if n == 0:
        return out, 0, now_start

    arrival = scheduler is None
    open_mode = mode == "open"

    geometry = drive.geometry
    specs = drive.specs
    bus = drive.bus
    (
        tr_first, tr_count, tr_spt, tr_skew, tr_sector_ms, tr_stream_ms,
    ) = geometry_tables(geometry)
    seek_lut = seek_table(drive.seek_curve, geometry.cylinders)
    surfaces = geometry.surfaces

    # ---- vectorized translation (mirrors translate_batch) -------------- #
    track = track_of_lbns(np, geometry, lbns)
    empty = tr_count[track] == 0
    while empty.any():
        track = np.where(empty, track - 1, track)
        empty = tr_count[track] == 0
    first = tr_first[track]
    last = lbns + counts - 1
    etrack = track_of_lbns(np, geometry, last)
    empty = tr_count[etrack] == 0
    while empty.any():
        etrack = np.where(empty, etrack - 1, etrack)
        empty = tr_count[etrack] == 0
    multi = lbns + counts > first + tr_count[track]
    any_multi = bool(multi.any())
    cache = drive.cache
    maintain_cache = cache.enable_caching

    cyl = track // surfaces
    surf = track - cyl * surfaces
    ecyl = etrack // surfaces
    esurf = etrack - ecyl * surfaces

    cmd_ms = bus.command_overhead_ms
    bus_sector = bus.sector_ms()
    write_settle = specs.write_settle_ms
    rotation = specs.rotation_ms
    zero_latency = drive.zero_latency
    head_switch_cost = specs.head_switch_ms

    spt_col = tr_spt[track]
    skew_col = tr_skew[track]
    sector_ms_col = tr_sector_ms[track]
    start_slot_col = lbns - first
    transfer_col = counts * sector_ms_col
    if any_multi:
        pieces_of, transfer_col[multi] = _track_pieces(
            np, drive, multi, lbns, counts, track, etrack
        )
    total_bus_col = counts * bus_sector
    settle_col = np.where(is_read, 0.0, write_settle)
    if open_mode:
        issue_col = issue
        issue_cmd_col = issue + cmd_ms
    else:
        # Closed mode: admission times are decided by the loop below.
        issue_col = np.zeros(n, dtype=np.float64)
        issue_cmd_col = np.zeros(n, dtype=np.float64)
        if arrival:
            # The first ``depth`` requests are admitted at the start.
            issue_col[:depth] = now_start
            issue_cmd_col[:depth] = now_start + cmd_ms

    # ---- python-scalar views for the serial loop ----------------------- #
    issue_l = issue_col.tolist()
    issue_cmd_l = issue_cmd_col.tolist()
    count_l = counts.tolist()
    is_read_l = is_read.tolist()
    settle_l = settle_col.tolist()
    spt_l = spt_col.tolist()
    skew_l = skew_col.tolist()
    sector_ms_l = sector_ms_col.tolist()
    start_slot_l = start_slot_col.tolist()
    transfer_l = transfer_col.tolist()
    total_bus_l = total_bus_col.tolist()
    multi_l = multi.tolist() if any_multi else None
    # Only the cache bookkeeping reads these; a read's prefetch streams at
    # the rate of its last LBN's track (zone-crossing reads differ).
    lbn_l = lbns.tolist() if maintain_cache else None
    stream_ms_l = tr_stream_ms[etrack].tolist() if maintain_cache else None

    if arrival:
        # Head position before each request: the previous request's end
        # track.  Multi-track rows overwrite their head-switch entries, and
        # completions are stored by index: the inputs are the outputs.
        prev_cyl = np.empty_like(ecyl)
        prev_surf = np.empty_like(esurf)
        prev_cyl[0] = drive.head_cylinder
        prev_surf[0] = drive.head_surface
        prev_cyl[1:] = ecyl[:-1]
        prev_surf[1:] = esurf[:-1]
        distance = np.abs(cyl - prev_cyl)
        seek_l = seek_lut[distance].tolist()
        hs_l = np.where(
            (distance == 0) & (surf != prev_surf), head_switch_cost, 0.0
        ).tolist()
        completions = [0.0] * n
    else:
        span_col = np.minimum(counts, spt_col)
        cyl_l = cyl.tolist()
        surf_l = surf.tolist()
        # Where each request leaves the head: its last piece's track.
        ecyl_l = ecyl.tolist() if any_multi else cyl_l
        esurf_l = esurf.tolist() if any_multi else surf_l
        seek_lut_l = seek_table_list(drive.seek_curve, geometry.cylinders)
        view = KernelQueueView(
            n=n,
            rotation_ms=rotation,
            head_switch_ms=head_switch_cost,
            zero_latency=zero_latency,
            track_first_l=geometry._track_first_lbn,
            surfaces=surfaces,
            issue_l=issue_l,
            issue_cmd_l=issue_cmd_l,
            track_l=track.tolist(),
            cylinder_l=cyl_l,
            seek_lut_l=seek_lut_l,
            seek_floor_l=seek_floor_list(drive.seek_curve, geometry.cylinders),
            pos_cols=(
                surf_l, settle_l, spt_l, sector_ms_l, skew_l, start_slot_l,
                span_col.tolist(),
            ),
        )
        # One sorted index serves every policy; see KernelQueueView.
        keys = view.keys
        key_l = view.key_l = (lbns * n + np.arange(n, dtype=np.int64)).tolist()
        dispatched = view.dispatched = bytearray(n)
        starvation = scheduler.starvation_ms
        ksel = scheduler.kernel_select
        # The base-class removal hook is a no-op; skip the call entirely
        # rather than paying a Python call per dispatch for nothing.
        krem = (
            None
            if type(scheduler).kernel_removed is Scheduler.kernel_removed
            else scheduler.kernel_removed
        )
        issue_o: list[float] = []
        comp_o: list[float] = []
        seek_o: list[float] = []
        settle_o: list[float] = []
        hs_o: list[float] = []
        transfer_o: list[float] = []
        bus_o: list[float] = []

    # Mirror the scalar path's cache bookkeeping so a later warm-state
    # continuation (reset=False) sees exactly the cache a scalar replay
    # would have left behind.  The reuse gate guarantees no probe ever
    # *hits* during this replay, so recording cannot change its results.
    record_read = cache.record_read
    record_write = cache.record_write

    latency_sum = latency_start
    overlap_sum = overlap_start
    busy_sum = busy_start
    # The drive's cumulative busy counter is its own left fold in dispatch
    # order (seeded from the drive, not from ``busy_start``).
    stats = drive.stats
    stat_busy = stats.busy_ms
    act_free = drive.actuator_free
    b_free = drive.bus_free
    head_cyl = drive.head_cylinder
    head_surf = drive.head_surface
    forced = 0

    # ---- the serial recurrence: admission + dispatch ------------------- #
    # One monolithic loop with every piece of live state in plain locals.
    # The pop mirror (Scheduler.pop: starvation bound first, then the
    # policy, with forced-dispatch accounting and removal hooks) and the
    # single-track service arithmetic are inlined: closure cells and
    # helper-call overhead are measurable at kernel speeds.  Multi-track
    # rows walk their pieces in one helper call (_serve_pieces).
    now = now_start
    i = 0
    if not open_mode and not arrival:
        while i < n and len(keys) < depth:
            issue_l[i] = now
            issue_cmd_l[i] = now + cmd_ms
            insort(keys, key_l[i])
            i += 1

    while True:
        if arrival:
            if i >= n:
                break
            idx = i
            i += 1
        else:
            if open_mode:
                if keys:
                    # Busy drive: decide when the mechanism frees up.
                    decision = act_free
                else:
                    if i >= n:
                        break
                    # Idle drive: the next dispatch decision happens when
                    # the next request arrives.
                    decision = issue_l[i]
                    if act_free > decision:
                        decision = act_free
                while i < n and issue_l[i] <= decision:
                    insort(keys, key_l[i])
                    i += 1
            else:
                if not keys:
                    break
                decision = act_free
                if now > decision:
                    decision = now

            # ---- pop: mirror of Scheduler.pop (starvation bound first,
            # then the policy, forced-dispatch accounting, removal hooks).
            # A lone pending request is every policy's pick and is never
            # a forced dispatch, so the hooks only see real choices.  #
            if len(keys) == 1:
                pos = 0
            else:
                view.head_cylinder = head_cyl
                view.head_surface = head_surf
                view.actuator_free = act_free
                if starvation is not None:
                    idx = kernel_oldest(view)
                    if decision - issue_l[idx] > starvation:
                        pos = bisect_left(keys, key_l[idx])
                        if ksel(view) != pos:
                            forced += 1
                    else:
                        pos = ksel(view)
                else:
                    pos = ksel(view)
            idx = keys[pos] % n
            del keys[pos]
            dispatched[idx] = 1
            if krem is not None:
                krem(view, idx)

        # ---- service at the current head/bus state --------------------- #
        mech_start = issue_cmd_l[idx]
        if act_free > mech_start:
            mech_start = act_free

        count = count_l[idx]
        if arrival:
            seek_ms = seek_l[idx]
            hs_ms = hs_l[idx]
        else:
            distance = cyl_l[idx] - head_cyl
            if distance < 0:
                distance = -distance
            seek_ms = seek_lut_l[distance]
            hs_ms = 0.0
            if distance == 0 and surf_l[idx] != head_surf:
                hs_ms = head_switch_cost
        transfer = transfer_l[idx]
        total_bus = total_bus_l[idx]
        is_read_row = is_read_l[idx]

        if is_read_row:
            t = mech_start + seek_ms + hs_ms
            floor = issue_cmd_l[idx]
            if b_free > floor:
                floor = b_free
        else:
            start_w = issue_cmd_l[idx]
            if b_free > start_w:
                start_w = b_free
            first_ready = start_w + bus_sector
            bus_done = start_w + total_bus
            t = mech_start + seek_ms + write_settle + hs_ms
            if first_ready > t:
                t = first_ready
            floor = None

        if any_multi and multi_l[idx]:
            # ------------- multi-track service (head switches) ----------- #
            media_end, latency, hs_ms, bus_completion, overlap = _serve_pieces(
                pieces_of[idx], t, hs_ms, rotation, floor, total_bus, bus_sector
            )
            if arrival:
                hs_l[idx] = hs_ms
        else:
            # ------------- inlined single-track service ------------------ #
            spt = spt_l[idx]
            sector_ms = sector_ms_l[idx]
            start_slot = start_slot_l[idx]
            head_angle = ((t % rotation) / rotation) * spt
            head_slot = (head_angle - skew_l[idx]) % spt
            rel = (head_slot - start_slot) % spt

            two_runs = False
            if rel >= count or not zero_latency:
                latency = (spt - rel) * sector_ms
                media_ms = latency + transfer
                run_cnt0 = count
                run_b0 = latency
                run_e0 = latency + transfer
            else:
                split = int(rel) + 1
                if split > count:
                    split = count
                tail = count - split
                media_ms = spt * sector_ms
                latency = media_ms - transfer
                wrap_begin = media_ms - split * sector_ms
                if tail > 0:
                    two_runs = True
                    tb = (split - rel) * sector_ms if split > rel else 0.0
                    if tb < 0.0:
                        tb = 0.0
                    tail_end = tb + tail * sector_ms
                else:
                    run_cnt0 = split
                    run_b0 = wrap_begin
                    run_e0 = media_ms

            media_end = t + media_ms

            if is_read_row:
                if two_runs:
                    a_begin = t + tb
                    a_end = t + tail_end
                    b_begin = t + wrap_begin
                    b_end = t + media_ms
                    bus_media_end = b_end if b_end > a_end else a_end
                    if a_begin < b_begin:
                        start_b = floor if floor > bus_media_end else bus_media_end
                        bus_completion = start_b + total_bus
                        overlap = 0.0
                    else:
                        bus_completion = floor + total_bus
                        alt = bus_media_end + bus_sector
                        if alt > bus_completion:
                            bus_completion = alt
                        per_b = (b_end - b_begin) / split
                        avail_b = b_begin + split * per_b
                        if avail_b < 0.0:
                            avail_b = 0.0
                        cand = avail_b if avail_b > floor else floor
                        cand = cand + (count - split) * bus_sector
                        if cand > bus_completion:
                            bus_completion = cand
                        per_a = (a_end - a_begin) / tail
                        avail_a = a_begin + tail * per_a
                        avail = avail_b if avail_b > avail_a else avail_a
                        if avail < 0.0:
                            avail = 0.0
                        cand = avail if avail > floor else floor
                        if cand > bus_completion:
                            bus_completion = cand
                        overlap = total_bus - (bus_completion - bus_media_end)
                        if overlap < 0.0:
                            overlap = 0.0
                        elif overlap > total_bus:
                            overlap = total_bus
                else:
                    b_begin = t + run_b0
                    b_end = t + run_e0
                    bus_media_end = b_end
                    bus_completion = floor + total_bus
                    alt = bus_media_end + bus_sector
                    if alt > bus_completion:
                        bus_completion = alt
                    per = (b_end - b_begin) / run_cnt0
                    avail = b_begin + run_cnt0 * per
                    if avail < 0.0:
                        avail = 0.0
                    cand = avail if avail > floor else floor
                    if cand > bus_completion:
                        bus_completion = cand
                    overlap = total_bus - (bus_completion - bus_media_end)
                    if overlap < 0.0:
                        overlap = 0.0
                    elif overlap > total_bus:
                        overlap = total_bus

        if is_read_row:
            completion = bus_completion if bus_completion > media_end else media_end
            act_free = media_end
            if completion > b_free:
                b_free = completion
            if maintain_cache:
                record_read(lbn_l[idx], count, media_end, stream_ms_l[idx])
        else:
            completion = media_end
            mn = bus_done if bus_done < media_end else media_end
            overlap = mn - (first_ready - bus_sector)
            if overlap < 0.0:
                overlap = 0.0
            if overlap > total_bus:
                overlap = total_bus
            b_free = bus_done
            act_free = media_end
            if maintain_cache:
                record_write(lbn_l[idx], count)

        busy = media_end - mech_start
        if busy > 0.0:
            busy_sum += busy
            stat_busy += busy
        latency_sum += latency
        overlap_sum += overlap
        if arrival:
            completions[idx] = completion
        else:
            head_cyl = ecyl_l[idx]
            head_surf = esurf_l[idx]
            issue_o.append(issue_l[idx])
            comp_o.append(completion)
            seek_o.append(seek_ms)
            settle_o.append(settle_l[idx])
            hs_o.append(hs_ms)
            transfer_o.append(transfer)
            bus_o.append(total_bus)

        # ---- closed-loop think time + next admission ------------------- #
        if not open_mode:
            now = completion + think_ms
            if arrival:
                # Request idx's completion admits request idx + depth.
                nxt = idx + depth
                if nxt < n:
                    issue_l[nxt] = now
                    issue_cmd_l[nxt] = now + cmd_ms
            elif i < n:
                if now < issue_l[i - 1]:
                    # Only a negative think time admits out of issue
                    # order; from here on the oldest is searched for.
                    view.oldest = -1
                issue_l[i] = now
                issue_cmd_l[i] = now + cmd_ms
                insort(keys, key_l[i])
                i += 1

    # ---- commit drive state and aggregate counters --------------------- #
    if arrival:
        head_cyl = int(ecyl[n - 1])
        head_surf = int(esurf[n - 1])
        issue_o, comp_o, seek_o, settle_o = issue_l, completions, seek_l, settle_l
        hs_o, transfer_o, bus_o = hs_l, transfer_l, total_bus_l
    drive.actuator_free = act_free
    drive.bus_free = b_free
    drive.head_cylinder = head_cyl
    drive.head_surface = head_surf

    reads = int(np.count_nonzero(is_read))
    stats.requests += n
    stats.reads += reads
    stats.writes += n - reads
    stats.sectors_read += int(counts[is_read].sum())
    stats.sectors_written += int(counts[~is_read].sum())
    stats.busy_ms = stat_busy

    out.issue = issue_o
    out.completions = comp_o
    out.seek = seek_o
    out.settle = settle_o
    out.head_switch = hs_o
    out.transfer = transfer_o
    out.bus = bus_o
    out.latency_sum = latency_sum
    out.overlap_sum = overlap_sum
    out.busy_sum = busy_sum
    return out, forced, now


__all__ = [
    "clear_kernel_tables",
    "fleet_eligibility",
    "geometry_tables",
    "seek_floor_list",
    "seek_table",
    "seek_table_list",
    "shard_split",
    "trace_columns",
    "warm_cache_clean",
]
