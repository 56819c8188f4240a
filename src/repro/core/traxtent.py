"""Track-aligned extents (traxtents) and the per-disk boundary map.

A *traxtent* is an extent whose LBN range coincides exactly with one disk
track: accessing it as a single request avoids the head switch that a
track-crossing request would incur and, on zero-latency drives, all
rotational latency.  The :class:`TraxtentMap` is the small piece of
disk-specific knowledge a system needs: the list of (first LBN, length)
pairs for every track on the device (or on the partition of interest).

Maps can be built from three sources:

* directly from the simulator's geometry (ground truth, used in tests),
* from the general timing-based extraction algorithm
  (:mod:`repro.core.detection`), or
* from SCSI queries via DIXtrac (:mod:`repro.core.dixtrac`).

The map is deliberately a plain, serialisable structure so that a file
system can store it at format time and load it at mount time, exactly as
the paper's modified FreeBSD FFS stores boundaries in the superblock area
and loads them into the mount structure (Section 4.2.2).
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..disksim.geometry import DiskGeometry


class TraxtentError(Exception):
    """Raised for malformed or inconsistent traxtent maps."""


@dataclass(frozen=True, order=True)
class Traxtent:
    """One track-aligned extent: ``length`` LBNs starting at ``first_lbn``."""

    first_lbn: int
    length: int

    def __post_init__(self) -> None:
        if self.first_lbn < 0:
            raise TraxtentError("traxtent first_lbn must be non-negative")
        if self.length <= 0:
            raise TraxtentError("traxtent length must be positive")

    @property
    def last_lbn(self) -> int:
        return self.first_lbn + self.length - 1

    @property
    def end_lbn(self) -> int:
        """One past the last LBN (exclusive end)."""
        return self.first_lbn + self.length

    def contains(self, lbn: int) -> bool:
        return self.first_lbn <= lbn < self.end_lbn

    def overlaps(self, start: int, count: int) -> bool:
        return start < self.end_lbn and start + count > self.first_lbn


class TraxtentMap:
    """Ordered collection of traxtents covering (part of) a disk."""

    def __init__(self, extents: Iterable[Traxtent]) -> None:
        self._extents = sorted(extents)
        self._starts = [e.first_lbn for e in self._extents]
        self._validate()

    def _validate(self) -> None:
        if not self._extents:
            raise TraxtentError("a traxtent map needs at least one extent")
        previous_end = None
        for extent in self._extents:
            if previous_end is not None and extent.first_lbn < previous_end:
                raise TraxtentError(
                    f"traxtents overlap near LBN {extent.first_lbn}"
                )
            previous_end = extent.end_lbn

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Traxtent]:
        return iter(self._extents)

    def __getitem__(self, index: int) -> Traxtent:
        return self._extents[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraxtentMap):
            return NotImplemented
        return self._extents == other._extents

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def first_lbn(self) -> int:
        return self._extents[0].first_lbn

    @property
    def end_lbn(self) -> int:
        return self._extents[-1].end_lbn

    def extent_index_of(self, lbn: int) -> int:
        """Index of the traxtent containing ``lbn``.

        Raises :class:`TraxtentError` when the LBN falls outside the map or
        into a gap between extents.
        """
        position = bisect.bisect_right(self._starts, lbn) - 1
        if position < 0:
            raise TraxtentError(f"LBN {lbn} precedes the first traxtent")
        extent = self._extents[position]
        if not extent.contains(lbn):
            raise TraxtentError(f"LBN {lbn} is not covered by any traxtent")
        return position

    def extent_of(self, lbn: int) -> Traxtent:
        """The traxtent containing ``lbn``."""
        return self._extents[self.extent_index_of(lbn)]

    def next_boundary(self, lbn: int) -> int:
        """First LBN after ``lbn`` that starts a new track."""
        return self.extent_of(lbn).end_lbn

    def crosses_boundary(self, lbn: int, count: int) -> bool:
        """True when the request [lbn, lbn+count) spans more than one track."""
        if count <= 0:
            raise TraxtentError("count must be positive")
        return self.extent_of(lbn).end_lbn < lbn + count

    def aligned(self, lbn: int, count: int) -> bool:
        """True when [lbn, lbn+count) is exactly one whole traxtent."""
        extent = self.extent_of(lbn)
        return extent.first_lbn == lbn and extent.length == count

    def clip(self, lbn: int, count: int) -> int:
        """Largest prefix of [lbn, lbn+count) that does not cross a track
        boundary (in sectors).  Used to shape prefetch and write-back
        requests (Section 3.2)."""
        if count <= 0:
            raise TraxtentError("count must be positive")
        boundary = self.next_boundary(lbn)
        return min(count, boundary - lbn)

    def extents_in_range(self, start: int, end: int) -> list[Traxtent]:
        """All traxtents overlapping [start, end)."""
        if end <= start:
            return []
        out = []
        position = bisect.bisect_right(self._starts, start) - 1
        position = max(position, 0)
        for extent in self._extents[position:]:
            if extent.first_lbn >= end:
                break
            if extent.overlaps(start, end - start):
                out.append(extent)
        return out

    def mean_track_sectors(self) -> float:
        return sum(e.length for e in self._extents) / len(self._extents)

    def restrict(self, start: int, end: int) -> "TraxtentMap":
        """Sub-map of extents fully contained in [start, end); partial
        extents at the edges are dropped (a partition cannot use them as
        whole-track extents anyway)."""
        kept = [
            e for e in self._extents if e.first_lbn >= start and e.end_lbn <= end
        ]
        if not kept:
            raise TraxtentError("no traxtents fully inside the requested range")
        return TraxtentMap(kept)

    # ------------------------------------------------------------------ #
    # Construction / serialisation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_geometry(
        cls,
        geometry: DiskGeometry,
        start_lbn: int = 0,
        end_lbn: int | None = None,
    ) -> "TraxtentMap":
        """Ground-truth map straight from the simulated drive's geometry:
        every LBN-holding track that lies wholly inside
        ``[start_lbn, end_lbn)``.

        Track first LBNs never decrease, so only the tracks whose first LBN
        is in the range are visited (two bisections), not the whole disk.
        """
        end = geometry.total_lbns if end_lbn is None else end_lbn
        firsts = geometry._track_first_lbn
        counts = geometry._track_lbn_count
        lo = bisect.bisect_left(firsts, start_lbn)
        hi = bisect.bisect_left(firsts, end, lo)
        return cls(
            Traxtent(firsts[track], counts[track])
            for track in range(lo, hi)
            if counts[track] and firsts[track] + counts[track] <= end
        )

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> "TraxtentMap":
        """Build from (first_lbn, length) pairs."""
        return cls(Traxtent(first, length) for first, length in pairs)

    def to_pairs(self) -> list[tuple[int, int]]:
        return [(e.first_lbn, e.length) for e in self._extents]

    def to_json(self) -> str:
        """Serialise to the on-disk representation used at file-system
        creation time."""
        return json.dumps({"version": 1, "extents": self.to_pairs()})

    @classmethod
    def from_json(cls, payload: str) -> "TraxtentMap":
        try:
            data = json.loads(payload)
            return cls.from_pairs([tuple(pair) for pair in data["extents"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraxtentError(f"malformed traxtent map payload: {exc}") from exc

    # ------------------------------------------------------------------ #
    # Comparison helpers (used to validate extraction algorithms)
    # ------------------------------------------------------------------ #
    def boundary_set(self) -> set[int]:
        """Set of first-LBN values (the boundaries themselves)."""
        return set(self._starts)

    def accuracy_against(self, reference: "TraxtentMap") -> float:
        """Fraction of the reference map's boundaries that this map found."""
        mine = self.boundary_set()
        theirs = reference.boundary_set()
        if not theirs:
            return 1.0
        return len(mine & theirs) / len(theirs)
