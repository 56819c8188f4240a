"""Pluggable request schedulers: the drive's dispatch-time queue policies.

Every queue in the reproduction was implicitly FCFS until now; this module
makes the dispatch decision itself a first-class, swappable policy so the
natural follow-on question of the disksim/freeblock lineage -- how much of
the traxtent advantage survives under position-aware scheduling? -- becomes
one more campaign axis.

A :class:`Scheduler` owns a pending queue of :class:`QueuedRequest` entries.
The replay engine (or any other driver) ``push``-es requests as they arrive
and ``pop``-s one whenever the drive is ready to start its next mechanical
access; the policy decides *which* queued request goes next.  Five policies
are registered:

* ``fcfs``     -- arrival order (the pre-scheduler behaviour; the batched
  engine and the columnar kernel remain bitwise identical under it),
* ``sstf``     -- shortest seek time first: minimise cylinder distance from
  the current head position,
* ``sptf``     -- shortest positioning time first: minimise the *full*
  estimated positioning cost (seek via the drive's fitted
  :class:`~repro.disksim.seek.SeekCurve`, head switch, write settle, plus
  the rotational latency implied by the head's rotation phase at the
  estimated media-arrival time),
* ``clook``    -- circular LOOK: service queued requests in ascending
  cylinder order from the current head position, wrapping to the lowest
  pending cylinder when the sweep runs out, and
* ``traxtent`` -- track-extent batching over an FCFS backbone: when the
  oldest request is dispatched, every queued request falling in the same
  track-aligned extent is coalesced into one ascending-LBN batch and
  dispatched back to back, so the whole extent is drained in a single
  sweep before the arm moves on.

Scheduling composes with fault injection (:mod:`repro.faults`): dispatch
order is decided here, and whatever the policy dispatches then pays the
drive's fault model (retry rotations, slowdown windows, fail-stop) at
service time -- scheduled fault-bearing replays run on the exact scalar
path, never the vectorized kernel.

Every policy carries a configurable **starvation bound**: when the oldest
queued request has waited longer than ``starvation_ms`` at a dispatch
decision, it is dispatched regardless of the policy's preference (and
counted in :attr:`Scheduler.forced_dispatches`).  Ties are broken
deterministically by arrival sequence number, so a replay under any policy
is exactly reproducible.

Schedulers are registered by name (:func:`available_schedulers`,
:func:`get_scheduler`, :func:`make_scheduler`) so scenario configs, campaign
axes and the CLI can select them declaratively.

Every registered policy also implements the **kernel vectorization
contract** used by the replay kernel's scheduled dispatch
(:func:`repro.sim.kernel._service_shard_sched` called with a scheduler,
run by the stream drivers of :mod:`repro.sim.stream`; open FCFS
dispatches in arrival order and never consults a scheduler):
``kernel_select`` picks from a :class:`KernelQueueView` -- the pending
queue as a sorted position index plus precomputed geometry columns --
and returns the request the scalar ``_select`` would have picked,
bitwise-identically: the kernel never re-implements policy semantics, it
asks the policy to pick from columns.  Subclasses that override the
scalar hooks without providing matching kernel hooks are detected by
:func:`kernel_fallback_reason` and replayed through the exact scalar
queue loop instead.

The scalar queue operations are deliberately O(pending) per dispatch
(linear scans over a plain list): they are the obviously-correct oracle.
The kernel hooks are not: the view keeps the queue ordered by LBN (which
is track and cylinder order), so C-LOOK, SSTF and traxtent batching
bisect to the head's cylinder or the anchor's track, SPTF scores
candidates outward from the head and stops once the seek time alone
rules out every remaining one (the positioning-time scheduler
construction of Jacobson & Wilkes 1991 and Worthington, Ganger & Patt
1994), and the oldest request is tracked instead of searched for.  A
kernel replay of an overloaded open trace therefore costs close to
linear time in its length, while a fault-bearing scheduled replay (which
runs the scalar loop) stays quadratic in the backlog.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING

from .drive import WRITE, DiskRequest
from .errors import DiskSimError

if TYPE_CHECKING:  # pragma: no cover
    from .drive import DiskDrive


class SchedulerError(DiskSimError):
    """Unknown scheduling policy or malformed scheduler configuration."""


class KernelQueueView:
    """Columnar view of a drive's pending queue for the replay kernel.

    Built once per shard-local chunk by
    :func:`repro.sim.kernel._service_shard_sched` for scheduled dispatch
    only (arrival-order dispatch keeps no queue and builds no view).
    Columns are plain Python lists indexed by *request index* (the
    request's position in the chunk, which is also its admission order and
    so the scalar scheduler's arrival ``seq``).

    :attr:`keys` is the live queue, maintained by the kernel's dispatch
    loop: one packed int ``lbn * n + idx`` per pending request (``n`` is
    the chunk's request count), kept sorted.  Shard-local LBN order is
    track order and cylinder order, so the keys are sorted by (track,
    lbn, seq) and by (cylinder, lbn, seq) at once: the pending requests on
    cylinder ``c`` or beyond start at the int bisect point of
    ``track_first_l[c * surfaces] * n`` (the geometry's first LBN of each
    track; an empty spare track's entry is the next track's first LBN).
    ``key % n`` recovers a request index, and ``key_l[idx]`` is request
    ``idx``'s key.

    :attr:`dispatched` flags every request the kernel has dispatched, and
    :attr:`oldest` is a lower bound on the lowest pending index, or -1
    when admissions left issue order (see :func:`kernel_oldest`).
    The head position and actuator availability are refreshed by the
    kernel before every decision it hands to a policy.

    ``pos_l`` packs the per-request positioning constants ``(surface,
    settle, spt, sector_ms, skew, start_slot, span)`` into one tuple per
    request so the SPTF scoring loop pays a single subscript + unpack.
    It is ``None`` until :meth:`positions` zips it from ``pos_cols`` (the
    seven columns): only positioning-time scoring reads it, and the other
    policies should not pay for a tuple per request;
    ``seek_floor_l[d]`` is the least seek time of any distance >= ``d``,
    an exact lower bound even for a seek curve that is not monotone.
    """

    __slots__ = (
        "keys", "key_l", "n", "dispatched", "oldest", "head_cylinder",
        "head_surface", "actuator_free", "rotation_ms", "head_switch_ms",
        "zero_latency", "track_first_l", "surfaces", "issue_l",
        "issue_cmd_l", "track_l", "cylinder_l", "seek_lut_l",
        "seek_floor_l", "pos_l", "pos_cols",
    )

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            setattr(self, name, fields.get(name))
        self.keys = []
        self.oldest = 0

    def positions(self) -> list:
        """:attr:`pos_l`, zipped from ``pos_cols`` on first use."""
        if self.pos_l is None:
            self.pos_l = list(zip(*self.pos_cols))
        return self.pos_l


def kernel_oldest(view: KernelQueueView) -> int:
    """Request index of the longest-waiting pending request.

    Admission order is arrival ``seq`` order, and admissions normally come
    in issue-time order too (open traces are sorted; closed completions
    never go backwards), so the oldest request is the lowest pending
    index: :attr:`KernelQueueView.oldest` is advanced past dispatched
    requests, amortized O(1) per dispatch.  If a closed replay's think
    time ever admits a request earlier than the one before it, the kernel
    sets it to -1 and the scalar ``_oldest``'s ``(issue_time, seq)``
    minimum is searched for instead.
    """
    oldest = view.oldest
    if oldest >= 0:
        dispatched = view.dispatched
        while dispatched[oldest]:
            oldest += 1
        view.oldest = oldest
        return oldest
    n = view.n
    issue = view.issue_l
    return min((issue[key % n], key % n) for key in view.keys)[1]


def _defining_class(cls: type, name: str) -> "type | None":
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


def kernel_fallback_reason(scheduler: "Scheduler | type[Scheduler]") -> str | None:
    """``None`` when the policy honours the kernel vectorization contract.

    A policy is kernel-eligible when it keeps the base class's admission
    and dispatch machinery (``push``/``pop``/``_oldest``) and pairs every
    scalar hook override with a matching kernel hook: the class providing
    ``kernel_select`` must sit at-or-before the one providing ``_select``
    in the MRO (likewise ``kernel_removed``/``_on_removed`` and
    ``kernel_reset``/``clear``), so a subclass that changes scalar
    semantics without teaching the kernel falls back to the exact scalar
    queue loop instead of silently diverging.  Returns the stable refusal
    string ``"scheduler not kernel-vectorizable"`` otherwise.
    """
    cls = scheduler if isinstance(scheduler, type) else type(scheduler)
    if (
        cls.pop is not Scheduler.pop
        or cls.push is not Scheduler.push
        or cls._oldest is not Scheduler._oldest
    ):
        return "scheduler not kernel-vectorizable"
    mro = cls.__mro__
    for kernel_name, scalar_name in (
        ("kernel_select", "_select"),
        ("kernel_removed", "_on_removed"),
        ("kernel_reset", "clear"),
    ):
        kernel_def = _defining_class(cls, kernel_name)
        scalar_def = _defining_class(cls, scalar_name)
        if kernel_def is None or scalar_def is None:
            return "scheduler not kernel-vectorizable"
        if mro.index(kernel_def) > mro.index(scalar_def):
            return "scheduler not kernel-vectorizable"
    return None


class QueuedRequest:
    """One pending request plus the geometry facts the policies sort by.

    The physical annotations (track, cylinder, surface, rotational slot,
    sectors-per-track, skew) are resolved once at enqueue time against the
    bound drive's geometry, so ``pop`` decisions cost no geometry lookups.
    """

    __slots__ = (
        "request",
        "issue_time",
        "seq",
        "track",
        "cylinder",
        "surface",
        "start_slot",
        "spt",
        "sector_ms",
    )

    def __init__(self, request: DiskRequest, issue_time: float, seq: int) -> None:
        self.request = request
        self.issue_time = issue_time
        self.seq = seq
        self.track = 0
        self.cylinder = 0
        self.surface = 0
        self.start_slot = 0
        self.spt = 1
        self.sector_ms = 0.0

    def annotate(self, drive: "DiskDrive") -> None:
        geometry = drive.geometry
        self.track = geometry.track_of_lbn(self.request.lbn)
        self.cylinder, self.surface = geometry.track_to_cyl_surface(self.track)
        zone = geometry.zone_of_cylinder(self.cylinder)
        self.spt = zone.sectors_per_track
        self.sector_ms = drive.specs.sector_time_ms(self.spt)
        self.start_slot = geometry.slot_of_lbn(self.request.lbn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueuedRequest(seq={self.seq}, lbn={self.request.lbn}, "
            f"cyl={self.cylinder}, t={self.issue_time})"
        )


class Scheduler:
    """Base class: a pending queue plus the policy hook :meth:`_select`.

    Subclasses implement ``_select(now)`` over :attr:`queue`; the base class
    owns admission (:meth:`push`), the starvation bound, forced-dispatch
    accounting and deterministic removal.  A scheduler must be bound to a
    drive (:meth:`bind`, normally via
    :meth:`repro.disksim.drive.DiskDrive.attach_scheduler`) before requests
    are pushed, because the policies sort by physical position.
    """

    #: Registry key; subclasses override.
    name = "base"

    def __init__(self, starvation_ms: float | None = None) -> None:
        if starvation_ms is not None and starvation_ms <= 0:
            raise SchedulerError("starvation_ms must be positive (or None)")
        self.starvation_ms = starvation_ms
        self.drive: "DiskDrive | None" = None
        self.queue: list[QueuedRequest] = []
        self.forced_dispatches = 0
        self._seq = 0

    # ------------------------------------------------------------------ #
    def bind(self, drive: "DiskDrive") -> None:
        """Attach to a drive and start from an empty queue."""
        self.drive = drive
        self.clear()

    def clone(self) -> "Scheduler":
        """A fresh, unbound scheduler with the same policy parameters."""
        return type(self)(starvation_ms=self.starvation_ms)

    def clear(self) -> None:
        self.queue = []
        self.forced_dispatches = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------------ #
    def push(self, request: DiskRequest, issue_time: float) -> None:
        """Admit one request to the pending queue."""
        if self.drive is None:
            raise SchedulerError(
                f"scheduler {self.name!r} is not bound to a drive"
            )
        entry = QueuedRequest(request, issue_time, self._seq)
        self._seq += 1
        entry.annotate(self.drive)
        self.queue.append(entry)

    def _oldest(self) -> QueuedRequest:
        """The longest-waiting entry (arrival-sequence tie-break)."""
        return min(self.queue, key=lambda e: (e.issue_time, e.seq))

    def pop(self, now: float) -> QueuedRequest | None:
        """Remove and return the request to dispatch at time ``now``.

        The starvation bound is checked first: if the oldest queued request
        has waited longer than ``starvation_ms``, it is dispatched
        regardless of the policy.  Otherwise the policy's :meth:`_select`
        picks, with ties broken by arrival sequence.

        :attr:`forced_dispatches` counts only genuine overrides -- bound
        trips where the policy would have picked a *different* request --
        so it measures how often the bound actually bent the schedule.
        """
        if not self.queue:
            return None
        if self.starvation_ms is not None:
            oldest = self._oldest()
            if now - oldest.issue_time > self.starvation_ms:
                if self._select(now) is not oldest:
                    self.forced_dispatches += 1
                self.queue.remove(oldest)
                self._on_removed(oldest)
                return oldest
        entry = self._select(now)
        self.queue.remove(entry)
        self._on_removed(entry)
        return entry

    # ------------------------------------------------------------------ #
    # Policy hooks
    # ------------------------------------------------------------------ #
    def _select(self, now: float) -> QueuedRequest:
        raise NotImplementedError

    def _on_removed(self, entry: QueuedRequest) -> None:
        """Hook for policies that keep derived state (batches)."""

    # ------------------------------------------------------------------ #
    # Kernel vectorization contract (see repro.sim.kernel)
    # ------------------------------------------------------------------ #
    def kernel_select(self, view: KernelQueueView) -> int:
        """Columnar mirror of :meth:`_select`: the position in
        ``view.keys`` of the pending request the scalar policy would pick
        (ties broken by ``seq``, i.e. by lower request index), computed
        from the view's sorted keys and columns with the exact float
        operations of :meth:`_select`.  The kernel consults it only when
        at least two requests are pending: a lone request is dispatched
        without a decision, so a policy whose kernel state would change on
        such a call must keep that state in :meth:`kernel_removed`."""
        raise NotImplementedError

    def kernel_removed(self, view: KernelQueueView, idx: int) -> None:
        """Columnar mirror of :meth:`_on_removed` (``idx`` is the removed
        request's index)."""

    def kernel_reset(self) -> None:
        """Columnar mirror of :meth:`clear` for kernel-side derived state."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(pending={len(self.queue)}, "
            f"starvation_ms={self.starvation_ms})"
        )


class FCFSScheduler(Scheduler):
    """First-come first-served: dispatch in arrival order."""

    name = "fcfs"

    def _select(self, now: float) -> QueuedRequest:
        return self._oldest()

    def kernel_select(self, view: KernelQueueView) -> int:
        return bisect_left(view.keys, view.key_l[kernel_oldest(view)])


class SSTFScheduler(Scheduler):
    """Shortest seek time first: minimise cylinder distance from the head."""

    name = "sstf"

    def _select(self, now: float) -> QueuedRequest:
        head = self.drive.head_cylinder
        return min(self.queue, key=lambda e: (abs(e.cylinder - head), e.seq))

    def kernel_select(self, view: KernelQueueView) -> int:
        # The nearest pending cylinder at or above the head is the run of
        # keys starting at the head's bisect point, the nearest below it
        # the run ending there.  The lowest index (= seq) wins within the
        # nearer run, and across both runs on a distance tie.
        keys = view.keys
        n = view.n
        cyl = view.cylinder_l
        head = view.head_cylinder
        m = len(keys)
        p = bisect_left(keys, view.track_first_l[head * view.surfaces] * n)
        best = -1
        if p < m:
            best = keys[p] % n
            at = p
            right = cyl[best]
            nearest = right - head
            j = p + 1
            while j < m:
                idx = keys[j] % n
                if cyl[idx] != right:
                    break
                if idx < best:
                    best = idx
                    at = j
                j += 1
        if p:
            j = p - 1
            idx = keys[j] % n
            left = cyl[idx]
            distance = head - left
            if best < 0 or distance <= nearest:
                if best < 0 or distance < nearest or idx < best:
                    best = idx
                    at = j
                j -= 1
                while j >= 0:
                    idx = keys[j] % n
                    if cyl[idx] != left:
                        break
                    if idx < best:
                        best = idx
                        at = j
                    j -= 1
        return at


class SPTFScheduler(Scheduler):
    """Shortest positioning time first: full seek + rotation estimate.

    For every queued request the dispatch-time positioning cost is
    estimated exactly the way the drive will pay it: seek time from the
    fitted :class:`~repro.disksim.seek.SeekCurve`, head-switch and
    write-settle penalties, plus the rotational latency implied by where
    the head will be in its rotation once it arrives over the target track
    (access-on-arrival credit included on zero-latency firmware).  The
    queued request with the smallest estimate is dispatched.
    """

    name = "sptf"

    def _select(self, now: float) -> QueuedRequest:
        drive = self.drive
        specs = drive.specs
        rotation = specs.rotation_ms
        head_cyl = drive.head_cylinder
        head_surf = drive.head_surface
        cmd_ms = drive.bus.command_overhead_ms
        act_free = drive.actuator_free
        skew_offset = drive.geometry.skew_offset
        best = None
        best_key = None
        for entry in self.queue:
            distance = abs(entry.cylinder - head_cyl)
            seek = drive.seek_curve.seek_time(distance)
            switch = 0.0
            if distance == 0 and entry.surface != head_surf:
                switch = specs.head_switch_ms
            settle = specs.write_settle_ms if entry.request.op == WRITE else 0.0
            # Mechanical start exactly as DiskDrive.submit computes it for
            # this candidate: max(issue + command overhead, actuator free).
            start = entry.issue_time + cmd_ms
            if act_free > start:
                start = act_free
            arrival = start + seek + settle + switch
            spt = entry.spt
            head_angle = ((arrival % rotation) / rotation) * spt
            head_slot = (head_angle - skew_offset(entry.track)) % spt
            rel = (head_slot - entry.start_slot) % spt
            span = entry.request.count if entry.request.count < spt else spt
            if drive.zero_latency and rel < span:
                latency = 0.0  # access-on-arrival: the head lands in the arc
            else:
                latency = (spt - rel) * entry.sector_ms
            key = (seek + settle + switch + latency, entry.seq)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    def kernel_select(self, view: KernelQueueView) -> int:
        # Candidates are scored nearest cylinder first, walking outward
        # from the head's bisect point with one cursor per side.  Every
        # key is bounded below by its seek term, and ``seek_floor_l[d]``
        # bounds the seek of every distance >= d, so once the nearest
        # unscored distance's floor exceeds the best key nothing left can
        # win or even tie.  Ties on the key go to the lower seq (index),
        # the scalar (key, seq) order.  Per candidate, the float
        # operations and their order match _select exactly; the
        # settle/switch terms are skipped when both are 0.0 (adding +0.0
        # to a positive float is the identity, so the sums are bitwise
        # unchanged).
        keys = view.keys
        n = view.n
        cyl = view.cylinder_l
        lut = view.seek_lut_l
        floor = view.seek_floor_l
        issue_cmd = view.issue_cmd_l
        cols = view.pos_l
        if cols is None:
            cols = view.positions()
        head_cyl = view.head_cylinder
        head_surf = view.head_surface
        act_free = view.actuator_free
        rotation = view.rotation_ms
        hs_ms = view.head_switch_ms
        zero_latency = view.zero_latency
        m = len(keys)
        r = bisect_left(keys, view.track_first_l[head_cyl * view.surfaces] * n)
        left = r - 1
        far = len(lut)  # beyond every real distance: that side is empty
        if r < m:
            idx_r = keys[r] % n
            d_r = cyl[idx_r] - head_cyl
        else:
            d_r = far
        if left >= 0:
            idx_l = keys[left] % n
            d_l = head_cyl - cyl[idx_l]
        else:
            d_l = far
        best = at = -1
        best_key = math.inf
        while True:
            if d_r <= d_l:
                if d_r == far:
                    break
                idx = idx_r
                distance = d_r
                pos = r
                r += 1
                if r < m:
                    idx_r = keys[r] % n
                    d_r = cyl[idx_r] - head_cyl
                else:
                    d_r = far
            else:
                idx = idx_l
                distance = d_l
                pos = left
                left -= 1
                if left >= 0:
                    idx_l = keys[left] % n
                    d_l = head_cyl - cyl[idx_l]
                else:
                    d_l = far
            if floor[distance] > best_key:
                break
            seek = lut[distance]
            sf, settle, spt, sector_ms, skew, start_slot, span = cols[idx]
            start = issue_cmd[idx]
            if act_free > start:
                start = act_free
            if settle == 0.0 and (distance != 0 or sf == head_surf):
                arrival = start + seek
                base = seek
            else:
                switch = 0.0
                if distance == 0 and sf != head_surf:
                    switch = hs_ms
                arrival = start + seek + settle + switch
                base = seek + settle + switch
            head_slot = (((arrival % rotation) / rotation) * spt - skew) % spt
            rel = (head_slot - start_slot) % spt
            if zero_latency and rel < span:
                key = base
            else:
                key = base + (spt - rel) * sector_ms
            if key < best_key or (key == best_key and idx < best):
                best_key = key
                best = idx
                at = pos
        return at


class CLOOKScheduler(Scheduler):
    """Circular LOOK: ascend in cylinder order, wrap to the lowest pending.

    The arm sweeps in one direction only (toward higher cylinders),
    servicing queued requests in ascending cylinder order from the current
    head position; when nothing is pending at or above the head, the sweep
    restarts from the lowest pending cylinder.  One-directional sweeps give
    every cylinder uniform service, unlike SSTF's middle-of-the-disk bias.
    """

    name = "clook"

    def _select(self, now: float) -> QueuedRequest:
        head = self.drive.head_cylinder
        ahead = [e for e in self.queue if e.cylinder >= head]
        pool = ahead if ahead else self.queue
        return min(pool, key=lambda e: (e.cylinder, e.request.lbn, e.seq))

    def kernel_select(self, view: KernelQueueView) -> int:
        # Key order is (cylinder, lbn, seq) order: the first key at or
        # after the head's cylinder, else the lowest key overall.
        keys = view.keys
        first = view.track_first_l[view.head_cylinder * view.surfaces]
        p = bisect_left(keys, first * view.n)
        return p if p < len(keys) else 0


class TraxtentBatchScheduler(Scheduler):
    """FCFS backbone with track-aligned-extent coalescing at dispatch time.

    When a dispatch decision is made and no batch is in flight, the oldest
    queued request anchors a new batch: every queued request whose first
    LBN falls on the same track (= the same track-aligned extent on
    defect-managed geometry) is collected and dispatched back to back in
    ascending LBN order, draining the whole extent in one sweep before the
    arm moves on.  Requests that arrive after a batch forms wait for the
    next one, which keeps batch membership (and therefore replay results)
    deterministic.
    """

    name = "traxtent"

    def __init__(self, starvation_ms: float | None = None) -> None:
        super().__init__(starvation_ms=starvation_ms)
        self._batch: list[QueuedRequest] = []
        self._kbatch: list[int] = []

    def clear(self) -> None:
        super().clear()
        self._batch = []

    def _select(self, now: float) -> QueuedRequest:
        if not self._batch:
            anchor = self._oldest()
            mates = [e for e in self.queue if e.track == anchor.track]
            self._batch = sorted(mates, key=lambda e: (e.request.lbn, e.seq))
        return self._batch[0]

    def _on_removed(self, entry: QueuedRequest) -> None:
        # Starvation-forced dispatches may pull a request out from under
        # the current batch; keep the batch consistent with the queue.
        if entry in self._batch:
            self._batch.remove(entry)

    def kernel_reset(self) -> None:
        self._kbatch = []

    def kernel_select(self, view: KernelQueueView) -> int:
        keys = view.keys
        batch = self._kbatch
        if not batch:
            # The batch is the anchor track's run of keys around the
            # anchor's own, already in (lbn, seq) order.
            n = view.n
            track = view.track_l
            anchor = kernel_oldest(view)
            anchor_track = track[anchor]
            lo = bisect_left(keys, view.key_l[anchor])
            hi = lo + 1
            while lo and track[keys[lo - 1] % n] == anchor_track:
                lo -= 1
            while hi < len(keys) and track[keys[hi] % n] == anchor_track:
                hi += 1
            self._kbatch = batch = keys[lo:hi]
            return lo
        return bisect_left(keys, batch[0])

    def kernel_removed(self, view: KernelQueueView, idx: int) -> None:
        key = view.key_l[idx]
        if key in self._kbatch:
            self._kbatch.remove(key)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

#: Canonical policy order (FCFS first: the default and the fast-path case).
SCHEDULERS: dict[str, type[Scheduler]] = {
    FCFSScheduler.name: FCFSScheduler,
    SSTFScheduler.name: SSTFScheduler,
    SPTFScheduler.name: SPTFScheduler,
    CLOOKScheduler.name: CLOOKScheduler,
    TraxtentBatchScheduler.name: TraxtentBatchScheduler,
}


def available_schedulers() -> list[str]:
    """Registered policy names, canonical order (FCFS first)."""
    return list(SCHEDULERS)


def get_scheduler(name: str) -> type[Scheduler]:
    """Resolve a policy name to its scheduler class."""
    key = str(name).lower()
    cls = SCHEDULERS.get(key)
    if cls is None:
        raise SchedulerError(
            f"unknown scheduler policy {name!r}; "
            f"available: {available_schedulers()}"
        )
    return cls


def make_scheduler(
    spec: "str | Scheduler | None",
    starvation_ms: float | None = None,
) -> Scheduler:
    """Build a scheduler from a name, an instance, or ``None`` (FCFS).

    Passing an instance uses it as-is (the engine clones it per drive);
    combining an instance with ``starvation_ms`` is rejected so the bound
    lives in exactly one place.
    """
    if isinstance(spec, Scheduler):
        if starvation_ms is not None:
            raise SchedulerError(
                "pass starvation_ms to the scheduler constructor, "
                "not alongside an instance"
            )
        return spec
    if spec is None:
        return FCFSScheduler(starvation_ms=starvation_ms)
    return get_scheduler(spec)(starvation_ms=starvation_ms)


__all__ = [
    "CLOOKScheduler",
    "FCFSScheduler",
    "KernelQueueView",
    "QueuedRequest",
    "SCHEDULERS",
    "SPTFScheduler",
    "SSTFScheduler",
    "Scheduler",
    "SchedulerError",
    "TraxtentBatchScheduler",
    "available_schedulers",
    "get_scheduler",
    "kernel_fallback_reason",
    "kernel_oldest",
    "make_scheduler",
]
