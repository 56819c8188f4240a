"""Where the wall-clock perf benchmarks write their numbers.

Every perf benchmark gates against the committed baseline
``BENCH_replay.json`` at the repository root.  By default a run leaves the
committed files alone: its fresh numbers -- its sections of
``BENCH_replay.json``, one ``BENCH_history.jsonl`` line per benchmark and
the printed ``BENCH_*.txt`` tables -- go to the git-ignored
``benchmarks/perf/out/`` (the CI perf job uploads that directory).

``pytest benchmarks/perf --update-baselines`` refreshes the committed
files instead: ``BENCH_replay.json``, ``benchmarks/results/BENCH_*.txt``
and ``benchmarks/results/BENCH_history.jsonl``.  A benchmark section of
the committed baseline is only replaced when its regression gate passed,
so a slow run cannot lower the bar for its own rerun.
"""

from __future__ import annotations

import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
OUT_DIR = pathlib.Path(__file__).parent / "out"


class BenchArtifacts:
    """Paths and writers for one pytest run's perf numbers."""

    def __init__(self, update: bool) -> None:
        self.update = update
        if update:
            self.bench_path = REPO_ROOT / "BENCH_replay.json"
            self.results_dir = REPO_ROOT / "benchmarks" / "results"
        else:
            self.bench_path = OUT_DIR / "BENCH_replay.json"
            self.results_dir = OUT_DIR
        self.history_path = self.results_dir / "BENCH_history.jsonl"

    def describe(self) -> str:
        return (
            f"artifacts: {self.bench_path.relative_to(REPO_ROOT)}, "
            f"{self.history_path.relative_to(REPO_ROOT)}"
        )

    def merge(self, sections: dict, passed: bool) -> None:
        """Merge one benchmark's own keys into its ``BENCH_replay.json``.

        Other benchmarks' sections in the file survive the rewrite."""
        if self.update and not passed:
            return
        try:
            merged = json.loads(self.bench_path.read_text())
        except (OSError, json.JSONDecodeError):
            merged = {}
        if not isinstance(merged, dict):
            merged = {}
        merged.update(sections)
        self.bench_path.parent.mkdir(parents=True, exist_ok=True)
        self.bench_path.write_text(json.dumps(merged, indent=2) + "\n")

    def append_history(self, line: dict) -> None:
        """One line per benchmark run: the cross-run perf trajectory."""
        self.history_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.history_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")

    def record(self, name: str, text: str) -> None:
        print(f"\n{text}\n")
        self.results_dir.mkdir(parents=True, exist_ok=True)
        (self.results_dir / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def artifacts(request) -> BenchArtifacts:
    return BenchArtifacts(request.config.getoption("--update-baselines"))


@pytest.fixture(scope="session")
def record(artifacts):
    """The shared table recorder, writing where this run's numbers go."""
    return artifacts.record
