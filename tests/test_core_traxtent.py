"""Tests for TraxtentMap, allocation, request shaping and SCSI queries."""

import dataclasses

import pytest

from repro.core import (
    AllocationError,
    ExtentAllocator,
    RequestShaper,
    Traxtent,
    TraxtentError,
    TraxtentMap,
    excluded_block_fraction,
    excluded_blocks,
    usable_block_runs,
)
from repro.disksim import AddressError, DiskGeometry, get_specs, small_test_specs
from repro.disksim.specs import SpareScheme, available_models


# --------------------------------------------------------------------------- #
# Traxtent / TraxtentMap
# --------------------------------------------------------------------------- #

def test_traxtent_basics():
    extent = Traxtent(100, 50)
    assert extent.last_lbn == 149
    assert extent.end_lbn == 150
    assert extent.contains(100) and extent.contains(149)
    assert not extent.contains(150)
    assert extent.overlaps(140, 20)
    assert not extent.overlaps(150, 10)
    with pytest.raises(TraxtentError):
        Traxtent(-1, 5)
    with pytest.raises(TraxtentError):
        Traxtent(0, 0)


def full_walk_map(geometry, start, end):
    """Every LBN-holding track of the whole disk, filtered to [start, end)."""
    return TraxtentMap(
        Traxtent(extent.first_lbn, extent.lbn_count)
        for extent in geometry.track_extents()
        if extent.first_lbn >= start and extent.first_lbn + extent.lbn_count <= end
    )


def range_map_geometries():
    small = dict(cylinders_per_zone=12, num_zones=3)
    for model in available_models():
        yield DiskGeometry(small_test_specs(model, **small))
    yield DiskGeometry(
        dataclasses.replace(
            small_test_specs(**small),
            spare_scheme=SpareScheme.TRACKS_PER_ZONE,
            spare_count=2,
        )
    )
    yield DiskGeometry.with_random_defects(
        small_test_specs(**small), defect_count=10, seed=3
    )


def test_ranged_map_equals_the_full_walk_filter():
    geometries = list(range_map_geometries())
    assert any(0 in geometry._track_lbn_count for geometry in geometries)
    for geometry in geometries:
        total = geometry.total_lbns
        ranges = [(0, total), (1, total - 1), (total // 3, total // 3 + 1000)]
        ranges += [geometry.zone_lbn_range(z) for z in range(len(geometry.zones))]
        first, count = geometry.track_bounds(geometry.track_of_lbn(total // 2))
        ranges += [(first, first + count), (first + 1, first + count)]
        for start, end in ranges:
            try:
                expected = full_walk_map(geometry, start, end)
            except TraxtentError:
                # No whole track fits: both ways refuse the empty map.
                with pytest.raises(TraxtentError):
                    TraxtentMap.from_geometry(geometry, start, end)
                continue
            assert TraxtentMap.from_geometry(geometry, start, end) == expected
        assert TraxtentMap.from_geometry(geometry) == full_walk_map(geometry, 0, total)


def test_map_matches_geometry_ground_truth(clean_geometry, truth_map):
    assert len(truth_map) > 0
    assert truth_map.end_lbn == clean_geometry.total_lbns
    for extent in list(truth_map)[:50]:
        track = clean_geometry.track_of_lbn(extent.first_lbn)
        first, count = clean_geometry.track_bounds(track)
        assert (first, count) == (extent.first_lbn, extent.length)


def test_map_lookup_and_boundaries(truth_map):
    first = truth_map[0]
    second = truth_map[1]
    assert truth_map.extent_of(first.first_lbn) == first
    assert truth_map.extent_of(first.last_lbn) == first
    assert truth_map.next_boundary(first.first_lbn) == second.first_lbn
    assert truth_map.crosses_boundary(first.last_lbn, 2)
    assert not truth_map.crosses_boundary(first.first_lbn, first.length)
    assert truth_map.aligned(first.first_lbn, first.length)
    assert not truth_map.aligned(first.first_lbn + 1, first.length)
    assert truth_map.clip(first.first_lbn, 10_000) == first.length


def test_map_rejects_overlaps_and_bad_lookups(truth_map):
    with pytest.raises(TraxtentError):
        TraxtentMap([Traxtent(0, 100), Traxtent(50, 100)])
    with pytest.raises(TraxtentError):
        TraxtentMap([])
    with pytest.raises(TraxtentError):
        truth_map.extent_of(truth_map.end_lbn)


def test_map_serialisation_round_trip(truth_map):
    payload = truth_map.to_json()
    restored = TraxtentMap.from_json(payload)
    assert restored == truth_map
    with pytest.raises(TraxtentError):
        TraxtentMap.from_json("{\"bogus\": 1}")


def test_map_restrict_and_accuracy(truth_map):
    sub = truth_map.restrict(truth_map[2].first_lbn, truth_map[10].end_lbn)
    assert len(sub) == 9  # extents 2..10 inclusive
    assert sub.accuracy_against(sub) == 1.0
    assert sub.accuracy_against(truth_map) < 1.0
    assert truth_map.accuracy_against(sub) == 1.0


def test_extents_in_range(truth_map):
    third = truth_map[3]
    hits = truth_map.extents_in_range(third.first_lbn - 1, third.end_lbn + 1)
    assert third in hits
    assert len(hits) >= 2
    assert truth_map.extents_in_range(5, 5) == []


# --------------------------------------------------------------------------- #
# ExtentAllocator
# --------------------------------------------------------------------------- #

def test_extent_allocator_whole_traxtents(truth_map):
    allocator = ExtentAllocator(truth_map)
    total = allocator.free_traxtents()
    first = allocator.allocate_traxtent()
    assert first == truth_map[0]
    assert allocator.free_traxtents() == total - 1
    allocator.free(first)
    assert allocator.free_traxtents() == total
    with pytest.raises(AllocationError):
        allocator.free(first)


def test_extent_allocator_near_hint(truth_map):
    allocator = ExtentAllocator(truth_map)
    middle = truth_map[len(truth_map) // 2]
    got = allocator.allocate_traxtent(near_lbn=middle.first_lbn)
    assert abs(got.first_lbn - middle.first_lbn) <= middle.length


def test_extent_allocator_multi_traxtent_allocation(truth_map):
    allocator = ExtentAllocator(truth_map)
    sectors = truth_map[0].length + truth_map[1].length // 2
    extents = allocator.allocate(sectors)
    assert len(extents) == 2
    assert sum(e.length for e in extents) == sectors
    assert allocator.stats.split_allocations == 1


def test_extent_allocator_exhaustion(truth_map):
    small = TraxtentMap(list(truth_map)[:3])
    allocator = ExtentAllocator(small)
    for _ in range(3):
        allocator.allocate_traxtent()
    with pytest.raises(AllocationError):
        allocator.allocate_traxtent()
    with pytest.raises(AllocationError):
        allocator.allocate(0)


def test_reserve_range(truth_map):
    allocator = ExtentAllocator(truth_map)
    reserved = allocator.reserve_range(truth_map[0].first_lbn, truth_map[2].end_lbn)
    assert reserved == 3
    assert allocator.allocate_traxtent().first_lbn == truth_map[3].first_lbn


# --------------------------------------------------------------------------- #
# Excluded blocks (Section 4.2.2)
# --------------------------------------------------------------------------- #

def test_excluded_block_fraction_atlas_10k_matches_paper():
    geometry = DiskGeometry(get_specs("Quantum Atlas 10K"))
    zone_map = TraxtentMap.from_geometry(geometry, *geometry.zone_lbn_range(0))
    fraction = excluded_block_fraction(zone_map, 16)
    # Paper: about one of every twenty-one 8 KB blocks (334-sector tracks).
    assert 1 / 25 < fraction < 1 / 18


def test_excluded_block_fraction_atlas_10k_ii_lower():
    geometry = DiskGeometry(get_specs("Quantum Atlas 10K II"))
    zone_map = TraxtentMap.from_geometry(geometry, *geometry.zone_lbn_range(0))
    fraction = excluded_block_fraction(zone_map, 16)
    # Paper: about one in thirty (528-sector tracks hold 33 blocks).
    assert 1 / 40 < fraction < 1 / 25


def test_excluded_blocks_straddle_boundaries(truth_map):
    block_sectors = 16
    excluded = excluded_blocks(truth_map, block_sectors)
    for block in excluded[:20]:
        start = block * block_sectors
        end = start + block_sectors
        extent = truth_map.extent_of(start)
        assert extent.end_lbn < end  # really crosses a boundary


def test_usable_block_runs_skip_excluded(truth_map):
    runs = list(usable_block_runs(truth_map, 16))
    excluded = set(excluded_blocks(truth_map, 16))
    assert runs
    for first, count in runs[:20]:
        assert all(block not in excluded for block in range(first, first + count))


# --------------------------------------------------------------------------- #
# Request shaping
# --------------------------------------------------------------------------- #

def test_shaper_splits_at_boundaries(truth_map):
    shaper = RequestShaper(truth_map)
    first = truth_map[0]
    pieces = shaper.shape(first.first_lbn, first.length + 10)
    assert len(pieces) == 2
    assert pieces[0].aligned
    assert pieces[0].count == first.length
    assert pieces[1].lbn == first.end_lbn
    assert pieces[1].count == 10


def test_shaper_clip_and_extend(truth_map):
    shaper = RequestShaper(truth_map)
    extent = truth_map[4]
    middle = extent.first_lbn + extent.length // 2
    assert shaper.clip_prefetch(middle, 10_000) == extent.end_lbn - middle
    assert shaper.extend_to_track(middle) == (extent.first_lbn, extent.length)
    requests = shaper.to_requests("read", extent.first_lbn, extent.length)
    assert len(requests) == 1 and requests[0].count == extent.length


def test_shaper_max_request_size(truth_map):
    shaper = RequestShaper(truth_map, max_request_sectors=64)
    pieces = shaper.shape(truth_map[0].first_lbn, 200)
    assert all(p.count <= 64 for p in pieces)
    assert sum(p.count for p in pieces) == 200


# --------------------------------------------------------------------------- #
# SCSI query interface
# --------------------------------------------------------------------------- #

def test_scsi_counters_and_queries(scsi, defective_geometry):
    assert scsi.read_capacity() == defective_geometry.total_lbns
    address = scsi.translate_lbn(0)
    assert (address.cylinder, address.surface, address.sector) == (0, 0, 0)
    assert scsi.translate_physical(0, 0, 0) == 0
    defects = scsi.read_defect_list()
    assert len(defects) == len(defective_geometry.defects)
    geometry_page = scsi.mode_sense_geometry()
    assert geometry_page["heads"] == defective_geometry.surfaces
    assert scsi.counters.total() == 5
    scsi.reset_counters()
    assert scsi.counters.total() == 0


def test_scsi_invalid_physical_address_raises(scsi, defective_geometry):
    spt = defective_geometry.zones[0].sectors_per_track
    with pytest.raises(AddressError):
        scsi.translate_physical(0, 0, spt + 5)
