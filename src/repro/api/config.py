"""Declarative scenario configuration: the JSON-serialisable experiment shape.

Every experiment the repo can run is described by a :class:`ScenarioConfig`
tree:

* :class:`DriveConfig`    -- which drive model (via the
  :func:`repro.disksim.specs.get_specs` registry) and which firmware knobs,
* :class:`FleetConfig`    -- how many drives and how they are striped,
* :class:`WorkloadConfig` -- which registered workload generates the request
  stream, with generator-specific parameters,
* :class:`ScenarioConfig` -- the experiment itself: traxtent on/off, open
  vs. closed replay, seeds, batch size.

All four round-trip through plain JSON dictionaries
(``from_dict(to_dict(c)) == c``), which is what makes scenarios shareable
as ``scenario.json`` files and runnable with ``python -m repro run``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

# ConfigError lives with the rest of the simulator's exception hierarchy so
# sim-layer validators (stream/importers) can raise it without importing the
# api package; re-exported here because this module is its historical home.
from ..disksim.errors import ConfigError
from ..faults import FaultConfig

#: Replay disciplines understood by :class:`ScenarioConfig`.
MODES = ("open", "closed")

#: Experiment kinds understood by :func:`repro.api.scenario.run_scenario`.
KINDS = ("replay", "efficiency", "service")


def _check_fields(cls: type, data: Mapping[str, Any]) -> None:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(
            f"{cls.__name__}: unknown keys {unknown}; known keys: {sorted(known)}"
        )


def set_path(tree: dict, path: str, value: Any) -> None:
    """Set ``value`` at a dotted ``path`` inside a nested config dict.

    Intermediate components must already exist as mappings (``workload``,
    ``options``, ...); only the final component may introduce a new key,
    which is how axes reach into the free-form ``options``/``params``
    dicts.  Typos in dataclass-backed levels are still caught, because the
    mutated dict goes back through ``from_dict`` field validation.
    """
    parts = path.split(".")
    if not path or not all(parts):
        raise ConfigError(f"malformed config path {path!r}")
    node: Any = tree
    for depth, part in enumerate(parts[:-1]):
        if not isinstance(node, dict) or part not in node:
            known = sorted(node) if isinstance(node, dict) else []
            raise ConfigError(
                f"config path {path!r}: {'.'.join(parts[: depth + 1])!r} does "
                f"not exist; known keys here: {known}"
            )
        node = node[part]
    if not isinstance(node, dict):
        raise ConfigError(
            f"config path {path!r} descends into a non-mapping value"
        )
    node[parts[-1]] = value


@dataclass(frozen=True)
class DriveConfig:
    """One simulated drive: spec-database model plus firmware knobs.

    ``model`` is resolved through :func:`repro.disksim.specs.get_specs`.
    ``cylinders_per_zone``/``num_zones`` build a reduced-capacity drive with
    identical timing (the ``small_test_specs`` scaling) so scenarios used in
    tests and examples stay fast; leave them ``None`` for the full drive.
    Cache and bus knobs default to the model's published values.
    """

    model: str = "Quantum Atlas 10K II"
    cylinders_per_zone: int | None = None
    num_zones: int | None = None
    zero_latency: bool | None = None
    cache_segments: int | None = None
    readahead_sectors: int | None = None
    enable_caching: bool = True
    enable_prefetch: bool = True
    in_order_bus: bool = True

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DriveConfig":
        _check_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class FleetConfig:
    """How many drives and how the global LBN space maps onto them."""

    n_drives: int = 1
    striping: str = "lbn-range"

    def __post_init__(self) -> None:
        if self.n_drives <= 0:
            raise ConfigError("n_drives must be positive")
        if self.striping != "lbn-range":
            raise ConfigError(
                f"unknown striping scheme {self.striping!r}; "
                "only 'lbn-range' is implemented"
            )

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetConfig":
        _check_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class WorkloadConfig:
    """Which workload generator produces the request trace.

    ``name`` is looked up in the workload registry
    (:func:`repro.api.registry.get_workload`); ``params`` override fields of
    the generator's default config dataclass.  ``interarrival_ms`` turns
    request streams into a fixed-spacing open arrival process where the
    generator supports it (synthetic/raw/sequential sources); file-system
    workloads carry their own captured timestamps.
    """

    name: str = "synthetic"
    params: dict[str, Any] = field(default_factory=dict)
    interarrival_ms: float | None = None
    start_ms: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "params": dict(self.params),
            "interarrival_ms": self.interarrival_ms,
            "start_ms": self.start_ms,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadConfig":
        _check_fields(cls, data)
        data = dict(data)
        params = data.pop("params", None)
        return cls(params=dict(params) if params else {}, **data)


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete declarative experiment.

    ``kind`` selects the experiment family: ``replay`` builds a trace from
    the workload and replays it through the batched engine; ``efficiency``
    sweeps request sizes with :func:`repro.core.efficiency.efficiency_curve`
    (the paper's Figure 1/6/8 measurement).  ``traxtent`` is the master
    switch for track alignment: it selects the aligned request shape for
    raw-disk workloads and the traxtent FFS variant for file-system
    workloads.  ``options`` holds kind-specific extras (for ``efficiency``:
    ``sizes_sectors``, ``queue_depth``, ``n_requests``, ``op``,
    ``zone_index``; for ``replay``: ``scheduler`` -- a dispatch policy name
    from :func:`repro.disksim.sched.available_schedulers` --
    ``starvation_ms``, ``queue_depth`` for closed replay, ``stripe``,
    ``stripe_seed`` and the execution-only ``fast`` switch).

    ``faults`` optionally attaches a seeded per-drive fault schedule
    (:class:`repro.faults.FaultConfig`) to ``replay`` and ``service``
    scenarios.  It participates in ``scenario_hash`` -- but an empty
    schedule normalizes to ``None`` at construction and ``to_dict`` omits
    the key entirely when unset, so fault-free configs hash (and replay)
    exactly as before the fault layer existed.
    """

    name: str = "scenario"
    kind: str = "replay"
    drive: DriveConfig = field(default_factory=DriveConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    traxtent: bool = True
    mode: str = "open"
    think_ms: float = 0.0
    batch_size: int = 4096
    seed: int | None = None
    options: dict[str, Any] = field(default_factory=dict)
    faults: FaultConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; one of {KINDS}")
        if self.faults is not None and not isinstance(self.faults, FaultConfig):
            raise ConfigError(
                f"faults must be a FaultConfig (or None): {self.faults!r}"
            )
        if self.faults is not None and self.faults.is_empty():
            # An empty schedule is the same experiment as no schedule at
            # all; normalize so both shapes share one scenario_hash.
            object.__setattr__(self, "faults", None)
        if self.mode not in MODES:
            raise ConfigError(f"unknown replay mode {self.mode!r}; one of {MODES}")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if self.think_ms < 0:
            # A negative think time would admit each closed-loop request
            # before the completion that releases it.
            raise ConfigError("think_ms must be non-negative")
        policy = self.options.get("scheduler")
        if isinstance(policy, str) and policy != policy.lower():
            # Policy names are case-insensitive at lookup time; normalise
            # here so 'SPTF' and 'sptf' share one scenario_hash (and one
            # result-store record).
            self.options["scheduler"] = policy.lower()

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "drive": self.drive.to_dict(),
            "fleet": self.fleet.to_dict(),
            "workload": self.workload.to_dict(),
            "traxtent": self.traxtent,
            "mode": self.mode,
            "think_ms": self.think_ms,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "options": dict(self.options),
        }
        if self.faults is not None:
            # Emitted only when set: fault-free configs keep their
            # historical JSON shape and therefore their scenario_hash.
            data["faults"] = self.faults.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        _check_fields(cls, data)
        data = dict(data)
        drive = data.pop("drive", None)
        fleet = data.pop("fleet", None)
        workload = data.pop("workload", None)
        options = data.pop("options", None)
        faults = data.pop("faults", None)
        return cls(
            faults=FaultConfig.from_dict(faults) if faults is not None else None,
            drive=DriveConfig.from_dict(drive) if drive is not None else DriveConfig(),
            fleet=FleetConfig.from_dict(fleet) if fleet is not None else FleetConfig(),
            workload=(
                WorkloadConfig.from_dict(workload)
                if workload is not None
                else WorkloadConfig()
            ),
            options=dict(options) if options else {},
            **data,
        )

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioConfig":
        """A copy with dotted-path fields replaced.

        Paths address any field of the config tree (``traxtent``,
        ``fleet.n_drives``, ``drive.model``, ``workload.params.n_requests``,
        ``options.queue_depth``, ...).  This is the primitive campaign axes
        are built on: the override goes through ``to_dict``/``from_dict``,
        so unknown field names fail loudly.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            set_path(data, path, value)
        return ScenarioConfig.from_dict(data)

    # ------------------------------------------------------------------ #
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid scenario JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("scenario JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


__all__ = [
    "ConfigError",
    "DriveConfig",
    "FleetConfig",
    "KINDS",
    "MODES",
    "ScenarioConfig",
    "WorkloadConfig",
    "set_path",
]
