"""Campaigns: declarative parameter sweeps over scenarios.

Every figure in the paper is a sweep -- efficiency vs. request size, write
cost vs. segment size, streams vs. buffer -- so the campaign layer makes
the sweep itself a first-class, JSON-serialisable object instead of a
hand-rolled Python loop around :func:`~repro.api.scenario.run_scenario`:

* :class:`CampaignConfig` declares axes over any
  :class:`~repro.api.config.ScenarioConfig` field via dotted paths
  (``traxtent``, ``fleet.n_drives``, ``workload.params.n_requests``,
  ``options.queue_depth``, ...).  ``grid`` axes are crossed (Cartesian
  product); ``zip`` axes advance together (aligned lists).  Expansion is
  deterministic and every concrete scenario gets a stable content-hash ID.
* :func:`run_campaign` executes the expanded scenarios through a pluggable
  executor -- :class:`SerialExecutor` in-process or
  :class:`ProcessExecutor` over a ``multiprocessing`` pool -- with both
  backends sharing :func:`~repro.api.scenario.run_scenario_payload`, so
  ``workers > 1`` is bitwise-identical to a serial loop (seeds included).
* A :class:`~repro.api.store.ResultStore` makes campaigns resumable: a
  point whose hash already has a record is a logged cache hit, not a
  recomputation.
* :class:`CampaignResult` aggregates the runs and exports long-form rows
  that feed :func:`repro.analysis.report.format_table` /
  :func:`repro.analysis.report.format_series` directly.
* :class:`Campaign` is the fluent builder mirroring
  :class:`~repro.api.scenario.Scenario`.

The same sweep can be written three ways::

    # Fluent
    result = (Campaign("efficiency-vs-size")
              .base(Scenario().efficiency(n_requests=250))
              .axis("traxtent", [True, False])
              .axis("options.sizes_sectors", [[264], [528], [1056]])
              .run(workers=4, store="campaign-store"))

    # Declarative
    result = run_campaign(CampaignConfig.load("campaign.json"), workers=4)

    # Command line
    #   python -m repro sweep campaign.json --workers 4 --store DIR
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import time
import traceback
from concurrent import futures as cf
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..analysis.report import format_table
from .config import ConfigError, ScenarioConfig
from .result import RunResult
from .scenario import FAST_PAYLOAD_KEY, Scenario, run_scenario_payload
from .store import ResultStore


# --------------------------------------------------------------------------- #
# Content-hash identity
# --------------------------------------------------------------------------- #

def scenario_hash(config: ScenarioConfig) -> str:
    """Stable content hash of a scenario (the result-store key).

    Computed over the canonical JSON form of ``config.to_dict()`` with the
    presentation-only ``name`` field excluded: two scenarios that measure
    the same thing share a hash no matter what they are called, which
    campaign they came from, or where they sit in an expansion.  That is
    what lets an extended or reordered sweep -- or a different campaign
    sweeping overlapping points -- reuse a store's existing records.

    ``options["fast"]`` (the columnar-kernel switch) is excluded too: it
    selects an execution path whose results are bitwise identical to the
    scalar one, so pinning it on or off does not change what the scenario
    measures and must not invalidate a store's existing records.

    Every *semantic* option stays in the hash -- in particular
    ``options["scheduler"]`` (and its ``starvation_ms`` / ``queue_depth``
    companions): distinct dispatch policies service different schedules and
    must get distinct store records (the regression tests assert both
    directions).
    """
    data = config.to_dict()
    data.pop("name", None)
    options = data.get("options")
    if isinstance(options, dict):
        options.pop("fast", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Declarative configuration
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class CampaignPoint:
    """One concrete scenario produced by expanding a campaign."""

    index: int
    overrides: dict[str, Any]
    config: ScenarioConfig
    hash: str


@dataclass(frozen=True)
class CampaignConfig:
    """A declarative sweep: a base scenario plus axes of overrides.

    ``grid`` maps dotted config paths to value lists and is expanded as a
    Cartesian product in declaration order (first axis slowest).  ``zip_axes``
    (JSON key ``"zip"``) maps paths to equal-length lists that advance
    together -- one composite axis, crossed with the grid and iterated
    fastest.  Expansion order is deterministic, which keeps point indices,
    derived names and content hashes stable across runs and machines.
    """

    name: str = "campaign"
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    grid: dict[str, list[Any]] = field(default_factory=dict)
    zip_axes: dict[str, list[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for path, values in {**self.grid, **self.zip_axes}.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(
                    f"axis {path!r} needs a non-empty list of values"
                )
        overlap = sorted(set(self.grid) & set(self.zip_axes))
        if overlap:
            raise ConfigError(
                f"axes {overlap} appear in both 'grid' and 'zip'"
            )
        lengths = {path: len(values) for path, values in self.zip_axes.items()}
        if len(set(lengths.values())) > 1:
            raise ConfigError(
                f"zip axes must have equal lengths, got {lengths}"
            )

    # ------------------------------------------------------------------ #
    @property
    def axes(self) -> list[str]:
        """Axis paths in expansion order (grid first, then zip)."""
        return list(self.grid) + list(self.zip_axes)

    def expand(self) -> list[CampaignPoint]:
        """Every concrete scenario of the sweep, in deterministic order."""
        grid_paths = list(self.grid)
        combos = (
            list(itertools.product(*(self.grid[p] for p in grid_paths)))
            if grid_paths
            else [()]
        )
        zip_paths = list(self.zip_axes)
        zip_rows = (
            list(zip(*(self.zip_axes[p] for p in zip_paths)))
            if zip_paths
            else [()]
        )
        points: list[CampaignPoint] = []
        for combo in combos:
            for row in zip_rows:
                index = len(points)
                overrides = dict(zip(grid_paths, combo))
                overrides.update(zip(zip_paths, row))
                overrides = {path: overrides[path] for path in self.axes}
                try:
                    config = self.base.with_overrides(
                        {**overrides, "name": f"{self.name}[{index:04d}]"}
                    )
                except ConfigError as exc:
                    raise ConfigError(
                        f"campaign {self.name!r}, point {index} "
                        f"({overrides}): {exc}"
                    ) from None
                points.append(
                    CampaignPoint(index, overrides, config, scenario_hash(config))
                )
        return points

    def __len__(self) -> int:
        rows = len(next(iter(self.zip_axes.values()))) if self.zip_axes else 1
        combos = 1
        for values in self.grid.values():
            combos *= len(values)
        return combos * rows

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "grid": {path: list(values) for path, values in self.grid.items()},
            "zip": {
                path: list(values) for path, values in self.zip_axes.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignConfig":
        known = {"name", "base", "grid", "zip"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"CampaignConfig: unknown keys {unknown}; "
                f"known keys: {sorted(known)}"
            )
        base = data.get("base")
        return cls(
            name=data.get("name", "campaign"),
            base=(
                ScenarioConfig.from_dict(base)
                if base is not None
                else ScenarioConfig()
            ),
            grid={
                path: list(values)
                for path, values in (data.get("grid") or {}).items()
            },
            zip_axes={
                path: list(values)
                for path, values in (data.get("zip") or {}).items()
            },
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid campaign JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("campaign JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "CampaignConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


# --------------------------------------------------------------------------- #
# Executors (the pluggable fan-out seam)
# --------------------------------------------------------------------------- #

#: Reserved payload key carrying the point's scenario hash to workers, so a
#: failure report can name the point that produced it (popped before config
#: validation; never hashed).
HASH_PAYLOAD_KEY = "__hash__"

#: Key under which a worker reports a structured failure instead of a
#: result payload.
FAILURE_PAYLOAD_KEY = "__failed__"


def run_scenario_payload_safe(data: Mapping[str, Any]) -> dict[str, Any]:
    """Run one scenario payload, converting exceptions to failure payloads.

    This is what campaign executors actually map: a worker that raises
    (bad config reaching the sim layer, a workload bug) reports a
    structured ``{"__failed__": {...}}`` payload -- with the originating
    scenario hash and full traceback -- instead of poisoning the whole
    campaign.  Hard crashes (killed/segfaulted workers) cannot report
    anything and are detected by :class:`ProcessExecutor` instead.
    """
    data = dict(data)
    digest = data.pop(HASH_PAYLOAD_KEY, None)
    try:
        return run_scenario_payload(data)
    except Exception as exc:
        return {
            FAILURE_PAYLOAD_KEY: {
                "kind": "exception",
                "error": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                "hash": digest,
            }
        }


def _failure_payload(
    item: Mapping[str, Any], failure: dict[str, Any], attempts: int
) -> dict[str, Any]:
    """A structured failure payload for a point the executor gave up on."""
    return {
        FAILURE_PAYLOAD_KEY: {
            **failure,
            "hash": item.get(HASH_PAYLOAD_KEY),
            "attempts": attempts,
        }
    }


class SerialExecutor:
    """Run scenario payloads one after another in this process."""

    workers = 1

    def map(
        self,
        fn: Callable[[dict[str, Any]], dict[str, Any]],
        items: Sequence[dict[str, Any]],
    ) -> list[dict[str, Any]]:
        return [fn(item) for item in items]


class ProcessExecutor:
    """Fan scenario payloads out over a crash-tolerant process pool.

    Uses the ``spawn`` start method so worker processes behave identically
    on every platform.  Results come back in submission order, and because
    scenarios are fully described by their config dicts (seeds included),
    the output is bitwise-identical to :class:`SerialExecutor`.

    Unlike a bare ``multiprocessing.Pool``, the executor survives its
    workers: points are dispatched in waves of at most ``workers`` (so
    every in-flight point is actually running, which is what makes a
    per-point ``timeout_s`` meaningful), and a point whose worker is
    killed (crash), or that exceeds the timeout (hung worker: the process
    is killed and the pool rebuilt), is retried up to ``retries`` times
    with a ``backoff_s`` pause.  A crash in a wave of several points
    cannot be pinned on one of them, so their unfinished points are rerun
    one at a time, uncharged: only a point that kills its own solo worker
    spends a retry, and a crashing sibling never exhausts an innocent's.
    A point that keeps failing becomes a structured ``{"__failed__": ...}``
    payload instead of an exception, so one bad point cannot sink a
    thousand-point campaign.  Worker-raised exceptions are *not* retried
    -- they are deterministic, and :func:`run_scenario_payload_safe`
    already reports them structurally.
    """

    def __init__(
        self,
        workers: int,
        *,
        timeout_s: float | None = None,
        retries: int = 1,
        backoff_s: float = 0.5,
    ):
        if workers <= 0:
            raise ConfigError("workers must be positive")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigError("timeout_s must be positive (or None)")
        if retries < 0:
            raise ConfigError("retries must be >= 0")
        if backoff_s < 0:
            raise ConfigError("backoff_s must be >= 0")
        self.workers = workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s

    def map(
        self,
        fn: Callable[[dict[str, Any]], dict[str, Any]],
        items: Sequence[dict[str, Any]],
    ) -> list[dict[str, Any]]:
        items = list(items)
        if not items:
            return []
        results: list[dict[str, Any] | None] = [None] * len(items)
        attempts = [0] * len(items)
        pending = list(range(len(items)))
        # points of a broken multi-point wave, each rerun in a wave of one
        suspects: list[int] = []
        width = min(self.workers, len(items))
        context = multiprocessing.get_context("spawn")
        pool: cf.ProcessPoolExecutor | None = None

        def requeue(index: int, failure: dict[str, Any], retry: list[int]) -> None:
            attempts[index] += 1
            if attempts[index] <= self.retries:
                retry.append(index)
            else:
                results[index] = _failure_payload(
                    items[index], failure, attempts[index]
                )

        try:
            while pending or suspects:
                if pool is None:
                    pool = cf.ProcessPoolExecutor(
                        max_workers=width, mp_context=context
                    )
                if suspects:
                    wave = [suspects.pop(0)]
                else:
                    wave, pending = pending[:width], pending[width:]
                futures = {pool.submit(fn, items[i]): i for i in wave}
                done, hung = cf.wait(futures, timeout=self.timeout_s)
                retry: list[int] = []
                broken = False
                for future in done:
                    index = futures[future]
                    error = future.exception()
                    if error is None:
                        results[index] = future.result()
                    elif len(wave) > 1:
                        # BrokenProcessPool: some worker died mid-wave.
                        # We cannot tell which point killed it, so every
                        # unfinished point is rerun alone, uncharged; the
                        # true culprit crashes again on its own worker.
                        broken = True
                        suspects.append(index)
                    else:
                        broken = True
                        requeue(
                            index,
                            {
                                "kind": "crash",
                                "error": type(error).__name__,
                                "message": str(error) or "worker process died",
                            },
                            retry,
                        )
                if hung:
                    broken = True
                    for proc in list(getattr(pool, "_processes", {}).values()):
                        proc.kill()
                    for future in hung:
                        requeue(
                            futures[future],
                            {
                                "kind": "timeout",
                                "error": "TimeoutError",
                                "message": (
                                    f"point still running after "
                                    f"{self.timeout_s}s; worker killed"
                                ),
                            },
                            retry,
                        )
                if broken:
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                if retry:
                    if self.backoff_s > 0:
                        time.sleep(
                            self.backoff_s * max(attempts[i] for i in retry)
                        )
                    if len(wave) > 1:
                        pending = retry + pending
                    else:
                        suspects = retry + suspects
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        # Every index is either a result or a failure payload by now; a
        # lost point would misalign the campaign's zip, so fail it loudly.
        return [
            payload
            if payload is not None
            else _failure_payload(
                items[index],
                {
                    "kind": "lost",
                    "error": "RuntimeError",
                    "message": "executor lost track of this point",
                },
                attempts[index],
            )
            for index, payload in enumerate(results)
        ]


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #

@dataclass
class CampaignRun:
    """One executed (or cache-served) campaign point.

    A point whose worker failed (raised, crashed, or timed out past its
    retry budget) carries a structured ``failure`` dict instead of a
    result payload; its ``payload`` is empty and :attr:`result` refuses.
    """

    point: CampaignPoint
    payload: dict[str, Any]
    cached: bool
    failure: dict[str, Any] | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None

    @property
    def index(self) -> int:
        return self.point.index

    @property
    def overrides(self) -> dict[str, Any]:
        return self.point.overrides

    @property
    def config(self) -> ScenarioConfig:
        return self.point.config

    @property
    def hash(self) -> str:
        return self.point.hash

    @cached_property
    def result(self) -> RunResult:
        """The payload rehydrated as a typed :class:`RunResult`."""
        if self.failure is not None:
            raise ConfigError(
                f"point {self.point.index} ({self.point.hash}) failed: "
                f"{self.failure.get('error')}: {self.failure.get('message')}"
            )
        return RunResult.from_dict(self.payload)


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign execution."""

    name: str
    config: CampaignConfig
    runs: list[CampaignRun]

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[CampaignRun]:
        return iter(self.runs)

    @property
    def cache_hits(self) -> int:
        return sum(run.cached for run in self.runs)

    @property
    def executed(self) -> int:
        return len(self.runs) - self.cache_hits

    @property
    def failures(self) -> list[CampaignRun]:
        """Points that failed (exception, crash, or timeout), in order."""
        return [run for run in self.runs if run.failed]

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def where(self, filters: Mapping[str, Any]) -> list[CampaignRun]:
        """Runs whose axis overrides match every ``path: value`` filter."""
        unknown = sorted(set(filters) - set(self.config.axes))
        if unknown:
            raise ConfigError(
                f"unknown axes {unknown}; campaign axes: {self.config.axes}"
            )
        return [
            run
            for run in self.runs
            if all(run.overrides[path] == value for path, value in filters.items())
        ]

    def find(self, filters: Mapping[str, Any]) -> CampaignRun:
        """The single run matching ``filters`` (0 or >1 matches raise)."""
        matches = self.where(filters)
        if len(matches) != 1:
            raise ConfigError(
                f"filters {dict(filters)} match {len(matches)} runs, expected 1"
            )
        return matches[0]

    # ------------------------------------------------------------------ #
    # Long-form export (feeds format_table / format_series directly)
    # ------------------------------------------------------------------ #
    def metric_names(self) -> list[str]:
        """Union of headline metric names across all runs, sorted."""
        names: set[str] = set()
        for run in self.runs:
            names.update(run.payload.get("metrics", {}))
        return sorted(names)

    def columns(self, metrics: Sequence[str] | None = None) -> list[str]:
        """Header row for :meth:`rows`: scenario, axes, then metrics."""
        metrics = list(metrics) if metrics is not None else self.metric_names()
        return ["scenario", "hash", *self.config.axes, *metrics]

    def rows(self, metrics: Sequence[str] | None = None) -> list[list[Any]]:
        """Long-form rows, one per run, aligned with :meth:`columns`."""
        metrics = list(metrics) if metrics is not None else self.metric_names()
        out: list[list[Any]] = []
        for run in self.runs:
            values = run.payload.get("metrics", {})
            out.append(
                [
                    run.config.name,
                    run.hash,
                    *(run.overrides[path] for path in self.config.axes),
                    *(values.get(metric, "") for metric in metrics),
                ]
            )
        return out

    def table(
        self,
        metrics: Sequence[str] | None = None,
        title: str | None = None,
    ) -> str:
        """The long-form export rendered with ``analysis.format_table``."""
        return format_table(
            self.columns(metrics),
            self.rows(metrics),
            title=title if title is not None else f"campaign {self.name!r}",
        )

    def series(
        self,
        x: str,
        y: str,
        where: Mapping[str, Any] | None = None,
    ) -> list[tuple[Any, Any]]:
        """(x, y) pairs for ``analysis.format_series`` or plotting.

        ``x`` and ``y`` each name either an axis path or a headline metric;
        ``where`` filters on axis values first (e.g. one curve per
        ``traxtent`` setting).
        """
        runs = self.where(where) if where else self.runs

        def value(run: CampaignRun, key: str) -> Any:
            if key in run.overrides:
                return run.overrides[key]
            metrics = run.payload.get("metrics", {})
            if key in metrics:
                return metrics[key]
            raise ConfigError(
                f"{key!r} is neither an axis of campaign {self.name!r} "
                f"nor a metric of scenario {run.config.name!r}"
            )

        return [(value(run, x), value(run, y)) for run in runs]

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """One-line execution report (what the CLI prints)."""
        line = (
            f"campaign {self.name!r}: {len(self.runs)} scenarios, "
            f"{self.cache_hits} cache hits, {self.executed} executed"
        )
        failed = len(self.failures)
        if failed:
            line += f", {failed} FAILED"
        return line

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (what ``python -m repro sweep --json`` emits)."""
        return {
            "name": self.name,
            "campaign": self.config.to_dict(),
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failed": len(self.failures),
            "points": [
                {
                    "index": run.index,
                    "hash": run.hash,
                    "overrides": dict(run.overrides),
                    "cached": run.cached,
                    "scenario": run.config.to_dict(),
                    "result": dict(run.payload),
                    **(
                        {"failure": dict(run.failure)}
                        if run.failure is not None
                        else {}
                    ),
                }
                for run in self.runs
            ],
        }


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #

def run_campaign(
    config: CampaignConfig,
    *,
    workers: int = 1,
    store: ResultStore | str | None = None,
    executor: SerialExecutor | ProcessExecutor | None = None,
    log: Callable[[str], None] | None = None,
    fast: bool | None = None,
    timeout_s: float | None = None,
    retries: int = 1,
    backoff_s: float = 0.5,
) -> CampaignResult:
    """Expand a campaign and execute every point, reusing stored results.

    ``store`` (a :class:`ResultStore` or a directory path) makes the run
    resumable: points whose scenario hash already has a record are served
    from disk and logged as cache hits.  ``executor`` overrides the backend
    outright; otherwise ``workers`` picks :class:`SerialExecutor` (1) or
    :class:`ProcessExecutor` (>1).  Results are identical either way.

    ``fast`` is the execution-level columnar-kernel override threaded to
    every point (and across worker processes).  It does not enter scenario
    hashes: replay results are bitwise identical with the kernel on or
    off, so reusing a stored record computed the other way is sound.

    The campaign is crash-tolerant: a point whose worker raises, crashes,
    or exceeds ``timeout_s`` (after ``retries`` retries with ``backoff_s``
    backoff -- multi-process executor only) yields a structured failure
    record instead of sinking the run.  Failures are persisted to the
    store, so a resumed campaign deliberately *skips* known-bad points
    (logged as such) rather than re-crashing on them; delete the record to
    retry.  Timeout/retry knobs are execution policy, never hashed.
    """
    if workers < 1:
        raise ConfigError("workers must be positive")
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    points = config.expand()

    cached_payloads: dict[int, dict[str, Any]] = {}
    cached_failures: dict[int, dict[str, Any]] = {}
    pending: list[CampaignPoint] = []
    for point in points:
        record = store.get(point.hash) if store is not None else None
        if record is None:
            pending.append(point)
        elif "failure" in record:
            cached_failures[point.index] = record["failure"]
            if log is not None:
                log(f"known bad  {point.hash}  {point.config.name}  (skipped)")
        else:
            cached_payloads[point.index] = record["result"]
            if log is not None:
                log(f"cache hit  {point.hash}  {point.config.name}")

    if executor is None:
        executor = (
            SerialExecutor()
            if workers <= 1
            else ProcessExecutor(
                workers,
                timeout_s=timeout_s,
                retries=retries,
                backoff_s=backoff_s,
            )
        )
    items = []
    for point in pending:
        item = point.config.to_dict()
        item[HASH_PAYLOAD_KEY] = point.hash
        if fast is not None:
            item[FAST_PAYLOAD_KEY] = fast
        items.append(item)
    payloads = executor.map(run_scenario_payload_safe, items)

    runs_by_index: dict[int, CampaignRun] = {}
    for point, payload in zip(pending, payloads):
        failure = payload.get(FAILURE_PAYLOAD_KEY)
        if failure is not None:
            if store is not None:
                store.put_failure(point.hash, point.config, failure)
            if log is not None:
                log(
                    f"FAILED     {point.hash}  {point.config.name}  "
                    f"({failure.get('kind')}: {failure.get('error')})"
                )
            runs_by_index[point.index] = CampaignRun(
                point, {}, cached=False, failure=failure
            )
            continue
        if store is not None:
            store.put(point.hash, point.config, payload)
        runs_by_index[point.index] = CampaignRun(point, payload, cached=False)
    for point in points:
        if point.index in cached_payloads:
            runs_by_index[point.index] = CampaignRun(
                point, cached_payloads[point.index], cached=True
            )
        elif point.index in cached_failures:
            runs_by_index[point.index] = CampaignRun(
                point, {}, cached=True, failure=cached_failures[point.index]
            )

    return CampaignResult(
        name=config.name,
        config=config,
        runs=[runs_by_index[point.index] for point in points],
    )


# --------------------------------------------------------------------------- #
# Fluent builder
# --------------------------------------------------------------------------- #

class Campaign:
    """Fluent builder over :class:`CampaignConfig`, mirroring ``Scenario``.

    Every mutator returns ``self``; :attr:`config` snapshots the current
    state as an immutable config, and :meth:`run` executes it.
    """

    def __init__(
        self, name: str | None = None, config: CampaignConfig | None = None
    ):
        if config is None:
            self._config = CampaignConfig(
                name=name if name is not None else "campaign"
            )
        elif name is None:
            self._config = config
        else:
            self._config = CampaignConfig(
                name=name,
                base=config.base,
                grid=dict(config.grid),
                zip_axes=dict(config.zip_axes),
            )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: CampaignConfig) -> "Campaign":
        return cls(config=config)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Campaign":
        return cls.from_config(CampaignConfig.from_dict(data))

    @classmethod
    def load(cls, path: str) -> "Campaign":
        return cls.from_config(CampaignConfig.load(path))

    # ------------------------------------------------------------------ #
    def _replace(self, **changes: Any) -> "Campaign":
        current = {
            "name": self._config.name,
            "base": self._config.base,
            "grid": dict(self._config.grid),
            "zip_axes": dict(self._config.zip_axes),
        }
        current.update(changes)
        self._config = CampaignConfig(**current)
        return self

    def base(self, scenario: "Scenario | ScenarioConfig") -> "Campaign":
        """The scenario every sweep point starts from."""
        config = scenario.config if isinstance(scenario, Scenario) else scenario
        return self._replace(base=config)

    def axis(self, path: str, values: Sequence[Any]) -> "Campaign":
        """Add a grid axis: ``path`` sweeps ``values``, crossed with others."""
        grid = dict(self._config.grid)
        grid[path] = list(values)
        return self._replace(grid=grid)

    def zip_axis(self, axes: Mapping[str, Sequence[Any]]) -> "Campaign":
        """Add zipped axes: equal-length lists that advance together."""
        zipped = dict(self._config.zip_axes)
        for path, values in axes.items():
            zipped[path] = list(values)
        return self._replace(zip_axes=zipped)

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> CampaignConfig:
        """Immutable snapshot of the campaign."""
        return self._config

    def to_dict(self) -> dict[str, Any]:
        return self._config.to_dict()

    def to_json(self, indent: int = 2) -> str:
        return self._config.to_json(indent=indent)

    def save(self, path: str) -> None:
        self._config.save(path)

    def expand(self) -> list[CampaignPoint]:
        return self._config.expand()

    def run(
        self,
        workers: int = 1,
        store: ResultStore | str | None = None,
        executor: SerialExecutor | ProcessExecutor | None = None,
        log: Callable[[str], None] | None = None,
        fast: bool | None = None,
        timeout_s: float | None = None,
        retries: int = 1,
        backoff_s: float = 0.5,
    ) -> CampaignResult:
        """Execute the campaign (see :func:`run_campaign`)."""
        return run_campaign(
            self._config,
            workers=workers,
            store=store,
            executor=executor,
            log=log,
            fast=fast,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
        )

    def __len__(self) -> int:
        return len(self._config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self._config
        return (
            f"Campaign({cfg.name!r}, axes={cfg.axes}, points={len(cfg)})"
        )


__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignPoint",
    "CampaignResult",
    "CampaignRun",
    "FAILURE_PAYLOAD_KEY",
    "HASH_PAYLOAD_KEY",
    "ProcessExecutor",
    "SerialExecutor",
    "run_campaign",
    "run_scenario_payload_safe",
    "scenario_hash",
]
