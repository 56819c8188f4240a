"""Helpers shared by the kernel and stream parity suites."""

from __future__ import annotations

from repro.sim import TraceReplayEngine


def drive_states(engine: TraceReplayEngine) -> list[tuple]:
    """Every drive's end state: counters, head position and both clocks."""
    return [
        (
            drive.stats, drive.head_cylinder, drive.head_surface,
            drive.actuator_free, drive.bus_free,
        )
        for drive in engine.fleet.drives
    ]
