"""Batched trace-replay engine with multi-drive fan-out.

This subpackage is the scale layer of the reproduction: it replays large
request traces (captured from the workload generators or synthesised
directly) against one drive or a fleet of LBN-range-sharded drives, using
the batched drive interface so figure-scale experiments do not pay a
Python call per request.

Typical use::

    from repro.sim import LbnRangeShard, Trace, TraceReplayEngine

    fleet = LbnRangeShard.for_model("Quantum Atlas 10K II", n_drives=4)
    engine = TraceReplayEngine(fleet)
    stats = engine.replay(trace)
    print(stats.requests_per_second, stats.response["p99"])
"""

from .engine import ReplayStats, TraceReplayEngine
from .importers import import_blktrace, iter_blktrace_chunks
from .kernel import clear_kernel_tables
from .shard import LbnRangeShard, RoutedPiece
from .stream import ServiceStats, TraceStream, run_service
from .trace import Trace, TraceRecord, TraceRecordingDrive

__all__ = [
    "LbnRangeShard",
    "ReplayStats",
    "RoutedPiece",
    "ServiceStats",
    "Trace",
    "TraceRecord",
    "TraceRecordingDrive",
    "TraceReplayEngine",
    "TraceStream",
    "clear_kernel_tables",
    "import_blktrace",
    "iter_blktrace_chunks",
    "run_service",
]
