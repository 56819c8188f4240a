"""Tests for the ``repro.api`` scenario facade.

Covers the satellite checklist: JSON round-trip for every config dataclass,
registry lookup errors, facade-vs-direct bitwise replay equality (including
the PR 1 reference trace shape), the uniform workload-generator surface,
and the ``python -m repro`` CLI entry points.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

import repro
from repro.api import (
    ConfigError,
    DriveConfig,
    FleetConfig,
    Scenario,
    ScenarioConfig,
    UnknownWorkloadError,
    WorkloadConfig,
    available_workloads,
    build_drive,
    build_fleet,
    get_workload,
    run_scenario,
    stripe_trace,
    workload_config,
)
from repro.api.cli import main as cli_main
from repro.disksim import DiskDrive, small_test_specs
from repro.sim import Trace, TraceReplayEngine
from repro.workloads import GENERATORS, RandomWorkloadSpec
from repro.workloads import synthetic as synthetic_module

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SMALL = {"cylinders_per_zone": 12, "num_zones": 3}


# --------------------------------------------------------------------------- #
# Config round-trips
# --------------------------------------------------------------------------- #

CONFIGS = [
    DriveConfig(),
    DriveConfig(model="Seagate Cheetah X15", cylinders_per_zone=10, num_zones=2,
                zero_latency=True, cache_segments=4, readahead_sectors=256,
                enable_prefetch=False),
    FleetConfig(),
    FleetConfig(n_drives=8),
    WorkloadConfig(),
    WorkloadConfig(name="postmark", params={"transactions": 50},
                   interarrival_ms=2.0, start_ms=10.0),
    ScenarioConfig(),
    ScenarioConfig(
        name="full",
        kind="efficiency",
        drive=DriveConfig(model="Quantum Atlas 10K"),
        fleet=FleetConfig(n_drives=4),
        workload=WorkloadConfig(name="synthetic", params={"n_requests": 10}),
        traxtent=False,
        mode="closed",
        think_ms=1.5,
        batch_size=128,
        seed=99,
        options={"sizes_sectors": [66, 132], "queue_depth": 1},
    ),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_config_json_round_trip(config):
    data = config.to_dict()
    # The dict side must be genuine JSON (no dataclasses, tuples survive).
    rebuilt = type(config).from_dict(json.loads(json.dumps(data)))
    assert rebuilt == config


def test_scenario_json_text_round_trip():
    config = CONFIGS[-1]
    assert ScenarioConfig.from_json(config.to_json()) == config


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    config = ScenarioConfig(name="disk-file", seed=3)
    config.save(str(path))
    assert ScenarioConfig.load(str(path)) == config


def test_checked_in_example_scenarios_load():
    for name in ("scenario.json", "scenario_unaligned.json"):
        config = ScenarioConfig.load(str(REPO_ROOT / "examples" / name))
        assert ScenarioConfig.from_dict(config.to_dict()) == config


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig(kind="nope")
    with pytest.raises(ConfigError):
        ScenarioConfig(mode="sideways")
    with pytest.raises(ConfigError):
        ScenarioConfig(batch_size=0)
    with pytest.raises(ConfigError, match="think_ms"):
        ScenarioConfig(mode="closed", think_ms=-25.0)
    with pytest.raises(ConfigError, match="think_ms"):
        ScenarioConfig.from_dict({**ScenarioConfig().to_dict(), "think_ms": -0.5})
    assert ScenarioConfig(mode="closed", think_ms=0.0).think_ms == 0.0
    with pytest.raises(ConfigError):
        FleetConfig(n_drives=0)
    with pytest.raises(ConfigError):
        FleetConfig(striping="raid5")
    with pytest.raises(ConfigError):
        DriveConfig.from_dict({"model": "x", "warp_speed": True})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json("not json at all {")


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

def test_registry_contains_all_generators():
    names = available_workloads()
    for generator in GENERATORS:
        assert generator.name in names
    assert "raw" in names and "sequential" in names


def test_registry_unknown_workload_error_lists_names():
    with pytest.raises(UnknownWorkloadError) as excinfo:
        get_workload("not-a-workload")
    message = str(excinfo.value)
    assert "not-a-workload" in message
    for name in available_workloads():
        assert name in message


def test_workload_config_rejects_unknown_params():
    with pytest.raises(ConfigError) as excinfo:
        workload_config("synthetic", {"n_requests": 5, "warp": 1})
    assert "warp" in str(excinfo.value)
    assert "n_requests" in str(excinfo.value)


def test_workload_config_builds_defaults_and_overrides():
    default = workload_config("synthetic")
    assert default == RandomWorkloadSpec()
    tuned = workload_config("synthetic", {"n_requests": 7, "seed": 2})
    assert tuned.n_requests == 7 and tuned.seed == 2


def test_uniform_generator_surface():
    for name in available_workloads():
        generator = get_workload(name)
        assert generator.name == name
        config = generator.default_config()
        assert type(config).__module__  # a real dataclass instance
        assert callable(generator.trace)


def test_register_workload_rejects_incomplete_generators():
    class NotAGenerator:
        name = "broken"

    with pytest.raises(ConfigError):
        repro.register_workload(NotAGenerator)


def test_register_workload_decorator_and_scenario_use():
    @repro.register_workload
    class TinyBurst:
        """Three fixed reads (test-only generator)."""

        name = "tiny-burst-test"

        @classmethod
        def default_config(cls):
            return RandomWorkloadSpec(n_requests=3)

        @classmethod
        def trace(cls, drive, config=None, *, traxtent=False,
                  interarrival_ms=None, start_ms=0.0):
            trace = Trace()
            spacing = interarrival_ms if interarrival_ms is not None else 1.0
            for i in range(3):
                trace.append(start_ms + i * spacing, 0, 8, "read")
            return trace

    try:
        result = (
            Scenario("burst")
            .drive("Quantum Atlas 10K II", **SMALL)
            .workload("tiny-burst-test")
            .run()
        )
        assert result.replay.issued_requests == 3
    finally:
        from repro.api import registry as registry_module

        registry_module._REGISTRY.pop("tiny-burst-test", None)


# --------------------------------------------------------------------------- #
# Factories
# --------------------------------------------------------------------------- #

def test_build_drive_defaults_match_direct_wiring():
    facade = build_drive(DriveConfig(model="Quantum Atlas 10K II"))
    direct = DiskDrive.for_model("Quantum Atlas 10K II")
    assert facade.specs == direct.specs
    assert facade.zero_latency == direct.zero_latency
    assert facade.cache.num_segments == direct.cache.num_segments
    assert facade.cache.readahead_sectors == direct.cache.readahead_sectors


def test_build_drive_knobs():
    drive = build_drive(DriveConfig(
        model="Quantum Atlas 10K II", **SMALL,
        zero_latency=False, cache_segments=3, readahead_sectors=64,
        enable_prefetch=False,
    ))
    assert drive.zero_latency is False
    assert drive.cache.num_segments == 3
    assert drive.cache.readahead_sectors == 64
    assert drive.cache.enable_prefetch is False
    assert drive.specs.num_zones == 3


def test_build_fleet():
    fleet = build_fleet(FleetConfig(n_drives=3),
                        DriveConfig(model="Quantum Atlas 10K II", **SMALL))
    assert len(fleet) == 3
    assert fleet.total_lbns == 3 * fleet.drives[0].geometry.total_lbns


# --------------------------------------------------------------------------- #
# Facade vs. direct wiring: bitwise equality
# --------------------------------------------------------------------------- #

def _small_specs():
    return small_test_specs("Quantum Atlas 10K II", **SMALL)


def test_facade_replay_bitwise_equals_direct_small_trace():
    specs = _small_specs()
    spec = RandomWorkloadSpec(n_requests=300, aligned=True, seed=5)
    trace = synthetic_module.to_trace(DiskDrive(specs), spec, interarrival_ms=1.5)
    direct = TraceReplayEngine(DiskDrive(specs)).replay(trace)

    result = (
        Scenario("facade")
        .drive("Quantum Atlas 10K II", **SMALL)
        .workload("synthetic", n_requests=300, interarrival_ms=1.5)
        .traxtent(True)
        .seed(5)
        .run()
    )
    assert result.replay.to_dict() == direct.to_dict()


def test_facade_closed_replay_bitwise_equals_direct():
    specs = _small_specs()
    spec = RandomWorkloadSpec(n_requests=150, aligned=False, seed=9)
    trace = synthetic_module.to_trace(DiskDrive(specs), spec, interarrival_ms=1.0)
    direct = TraceReplayEngine(DiskDrive(specs)).replay_closed(trace, think_ms=0.5)

    result = (
        Scenario("facade-closed")
        .drive("Quantum Atlas 10K II", **SMALL)
        .workload("synthetic", n_requests=150, interarrival_ms=1.0)
        .traxtent(False)
        .seed(9)
        .closed(think_ms=0.5)
        .run()
    )
    assert result.replay.to_dict() == direct.to_dict()


def _reference_trace(drive: DiskDrive, n: int, seed: int = 42,
                     interarrival_ms: float = 0.05) -> Trace:
    """The PR 1 perf-benchmark reference trace shape: random whole-track
    reads in the first zone."""
    geometry = drive.geometry
    start, end = geometry.zone_lbn_range(0)
    tracks = []
    for track in range(geometry.track_of_lbn(start),
                       geometry.track_of_lbn(end - 1) + 1):
        first, count = geometry.track_bounds(track)
        if count > 0:
            tracks.append((first, count))
    rng = random.Random(seed)
    trace = Trace()
    t = 0.0
    for _ in range(n):
        lbn, count = tracks[rng.randrange(len(tracks))]
        trace.append(t, lbn, count, "read")
        t += interarrival_ms
    return trace


def test_facade_replay_bitwise_equals_direct_reference_trace():
    """Acceptance: facade-built replay of the PR 1 reference trace ==
    direct DiskDrive/TraceReplayEngine wiring, bit for bit."""
    model = "Quantum Atlas 10K II"
    direct_drive = DiskDrive.for_model(model)
    trace = _reference_trace(direct_drive, n=2000)
    direct = TraceReplayEngine(DiskDrive.for_model(model)).replay(trace)

    records = [[t, lbn, count, op] for t, lbn, count, op in trace]
    config = ScenarioConfig(
        name="pr1-reference",
        drive=DriveConfig(model=model),
        workload=WorkloadConfig(name="raw", params={"records": records}),
    )
    result = run_scenario(config)
    assert result.replay.to_dict() == direct.to_dict()


def test_fleet_scenario_conserves_requests():
    result = (
        Scenario("fleet")
        .drive("Quantum Atlas 10K II", **SMALL)
        .fleet(4)
        .workload("synthetic", n_requests=400, interarrival_ms=1.0)
        .seed(11)
        .run()
    )
    stats = result.replay
    assert stats.issued_requests == stats.trace_requests + stats.split_requests
    assert len(stats.per_drive) == 4


def test_raw_global_trace_replays_verbatim_on_fleet():
    """A raw trace that already addresses the fleet's global LBN space must
    not be re-striped by default."""
    drive_cfg = DriveConfig(model="Quantum Atlas 10K II", **SMALL)
    fleet = build_fleet(FleetConfig(n_drives=2), drive_cfg)
    per_drive = fleet.drives[0].geometry.total_lbns
    records = [[0.0, 0, 8, "read"], [1.0, per_drive + 16, 8, "read"]]
    direct = TraceReplayEngine(
        build_fleet(FleetConfig(n_drives=2), drive_cfg)
    ).replay(Trace([0.0, 1.0], [0, per_drive + 16], [8, 8], ["read", "read"]))

    result = run_scenario(ScenarioConfig(
        name="raw-global",
        drive=drive_cfg,
        fleet=FleetConfig(n_drives=2),
        workload=WorkloadConfig(name="raw", params={"records": records}),
    ))
    assert result.replay.to_dict() == direct.to_dict()
    assert [d["requests"] for d in result.replay.per_drive] == [1.0, 1.0]


def test_explicit_stripe_of_global_trace_is_an_error():
    drive_cfg = DriveConfig(model="Quantum Atlas 10K II", **SMALL)
    fleet = build_fleet(FleetConfig(n_drives=2), drive_cfg)
    per_drive = fleet.drives[0].geometry.total_lbns
    config = ScenarioConfig(
        name="bad-stripe",
        drive=drive_cfg,
        fleet=FleetConfig(n_drives=2),
        workload=WorkloadConfig(
            name="raw", params={"records": [[0.0, per_drive + 16, 8, "read"]]}
        ),
        options={"stripe": True},
    )
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(config)
    assert "stripe" in str(excinfo.value)


def test_scenario_rename_to_default_name():
    base = Scenario("custom").config
    assert Scenario("scenario", config=base).config.name == "scenario"
    assert Scenario(config=base).config.name == "custom"


def test_stripe_trace_preserves_locals():
    fleet = build_fleet(FleetConfig(n_drives=2),
                        DriveConfig(model="Quantum Atlas 10K II", **SMALL))
    trace = Trace([0.0, 1.0], [10, 20], [8, 8], ["read", "read"])
    striped = stripe_trace(trace, fleet, seed=1)
    per_drive = fleet.drives[0].geometry.total_lbns
    assert [lbn % per_drive for lbn in striped.lbns] == [10, 20]
    assert striped.issue_ms == trace.issue_ms


def test_efficiency_scenario_matches_direct_curve():
    from repro.core import efficiency_curve

    sizes = [66, 132]
    direct_drive = DiskDrive.for_model("Quantum Atlas 10K")
    direct = efficiency_curve(direct_drive, sizes, aligned=True,
                              queue_depth=1, n_requests=40, seed=1)
    result = (
        Scenario("eff")
        .drive("Quantum Atlas 10K")
        .efficiency(sizes_sectors=sizes, queue_depth=1, n_requests=40)
        .traxtent(True)
        .run()
    )
    assert [p.to_dict() for p in result.points] == [p.to_dict() for p in direct]
    assert result.metrics["efficiency"] == direct[-1].efficiency


# --------------------------------------------------------------------------- #
# Results and comparison
# --------------------------------------------------------------------------- #

def test_run_result_round_trips_to_json():
    result = (
        Scenario("json")
        .drive("Quantum Atlas 10K II", **SMALL)
        .workload("synthetic", n_requests=50, interarrival_ms=1.0)
        .run()
    )
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["kind"] == "replay"
    assert payload["metrics"]["requests"] == 50.0
    assert payload["replay"]["issued_requests"] == 50


def test_comparison_prints_traxtent_win():
    aligned = (
        Scenario("a")
        .drive("Quantum Atlas 10K II", **SMALL)
        .workload("synthetic", n_requests=120, interarrival_ms=2.0)
        .traxtent(True)
    )
    unaligned = Scenario("u", config=aligned.config).traxtent(False)
    comparison = aligned.compare(unaligned)
    assert comparison.a.traxtent is True and comparison.b.traxtent is False
    assert "traxtent win" in comparison.summary()
    assert "efficiency" in comparison.wins


def test_top_level_reexports():
    for name in ("Scenario", "ScenarioConfig", "RunResult", "run_scenario",
                 "build_drive", "build_fleet", "available_workloads"):
        assert name in repro.__all__
        assert hasattr(repro, name)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #

def _write_scenario(tmp_path, name, traxtent):
    config = ScenarioConfig(
        name=name,
        drive=DriveConfig(model="Quantum Atlas 10K II", **SMALL),
        workload=WorkloadConfig(name="synthetic", params={"n_requests": 80},
                                interarrival_ms=1.0),
        traxtent=traxtent,
        seed=4,
    )
    path = tmp_path / f"{name}.json"
    config.save(str(path))
    return str(path)


def test_cli_run(tmp_path, capsys):
    path = _write_scenario(tmp_path, "cli-aligned", True)
    out_json = tmp_path / "result.json"
    assert cli_main(["run", path, "--json", str(out_json)]) == 0
    captured = capsys.readouterr().out
    assert "cli-aligned" in captured
    payload = json.loads(out_json.read_text())
    assert payload["metrics"]["requests"] == 80.0


def test_cli_compare(tmp_path, capsys):
    path_a = _write_scenario(tmp_path, "cli-unaligned", False)
    path_b = _write_scenario(tmp_path, "cli-aligned", True)
    assert cli_main(["compare", path_a, path_b]) == 0
    captured = capsys.readouterr().out
    assert "traxtent win" in captured


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    captured = capsys.readouterr().out
    for name in available_workloads():
        assert name in captured
    assert "Quantum Atlas 10K II" in captured


def test_cli_error_paths(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli_main(["run", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nope"}')
    assert cli_main(["run", str(bad)]) == 2
    # Domain errors behind the facade must also hit the friendly path:
    # an unknown drive model (SpecError) ...
    unknown_model = tmp_path / "model.json"
    unknown_model.write_text(json.dumps({"drive": {"model": "Floppotron 3000"}}))
    assert cli_main(["run", str(unknown_model)]) == 2
    # ... and a workload-config validation error (ValueError).
    bad_fb = tmp_path / "fb.json"
    bad_fb.write_text(json.dumps(
        {"workload": {"name": "filebench", "params": {"workload": "bogus"}}}
    ))
    assert cli_main(["run", str(bad_fb)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Floppotron" in captured.err
