"""repro: reproduction of "Track-Aligned Extents" (Schindler et al., FAST 2002).

The package is organised as:

* :mod:`repro.disksim`      -- disk-drive simulation substrate,
* :mod:`repro.core`         -- traxtents: track-boundary detection,
  track-aligned allocation and access shaping (the paper's contribution),
* :mod:`repro.fs`           -- an FFS-like file system driving the simulator,
* :mod:`repro.videoserver`  -- round-based video server and admission control,
* :mod:`repro.lfs`          -- log-structured file system write-cost model,
* :mod:`repro.workloads`    -- workload generators used by the evaluation,
* :mod:`repro.sim`          -- batched trace-replay engine and sharded
  multi-drive fleets (the scale layer),
* :mod:`repro.analysis`     -- statistics and report formatting helpers,
* :mod:`repro.api`          -- the unified scenario facade: declarative
  configs, the workload registry, ``Scenario`` / ``run_scenario``,
  ``Campaign`` / ``run_campaign`` parameter sweeps with a resumable
  ``ResultStore``, and the ``python -m repro`` command line.

The facade names are re-exported here, so most experiments need only::

    import repro

    result = (repro.Scenario("aligned")
              .workload("synthetic", n_requests=2000, interarrival_ms=1.0)
              .traxtent(True)
              .run())
"""

from .api import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    Comparison,
    ConfigError,
    DriveConfig,
    DriveFaultConfig,
    FaultConfig,
    FleetConfig,
    ResultStore,
    RunResult,
    Scenario,
    ScenarioConfig,
    TransientFaultConfig,
    UnknownWorkloadError,
    WorkloadConfig,
    available_fault_kinds,
    available_workloads,
    build_drive,
    build_fleet,
    build_specs,
    build_trace,
    clear_drive_build_cache,
    compare_scenarios,
    get_workload,
    register_workload,
    run_campaign,
    run_scenario,
    scenario_hash,
    workload_config,
)
from .disksim import (
    DiskDrive,
    DiskRequest,
    Scheduler,
    available_schedulers,
    get_scheduler,
    get_specs,
    make_scheduler,
    small_test_specs,
)
from .sim import LbnRangeShard, ReplayStats, Trace, TraceRecordingDrive, TraceReplayEngine

__version__ = "1.9.0"

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "Comparison",
    "ConfigError",
    "DiskDrive",
    "DiskRequest",
    "DriveConfig",
    "DriveFaultConfig",
    "FaultConfig",
    "FleetConfig",
    "LbnRangeShard",
    "ReplayStats",
    "ResultStore",
    "RunResult",
    "Scenario",
    "ScenarioConfig",
    "Trace",
    "Scheduler",
    "TraceRecordingDrive",
    "TraceReplayEngine",
    "TransientFaultConfig",
    "UnknownWorkloadError",
    "WorkloadConfig",
    "__version__",
    "available_fault_kinds",
    "available_schedulers",
    "available_workloads",
    "build_drive",
    "build_fleet",
    "build_specs",
    "build_trace",
    "clear_drive_build_cache",
    "compare_scenarios",
    "get_scheduler",
    "get_specs",
    "get_workload",
    "make_scheduler",
    "register_workload",
    "run_campaign",
    "run_scenario",
    "scenario_hash",
    "small_test_specs",
    "workload_config",
]
