"""Shared fixtures and result recording for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Because the
substrate is a simulator rather than the authors' testbed, absolute numbers
differ, but each benchmark prints (and stores under ``benchmarks/results/``)
the same rows or series the paper reports so the *shape* -- who wins, by
what factor, where the crossovers fall -- can be compared directly.

Workload sizes are scaled down from the paper where the full size would
take minutes in pure Python; the scaling is noted in each benchmark's
docstring and in EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.disksim import DiskDrive

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--update-baselines",
        action="store_true",
        default=False,
        help="write the perf benchmarks' numbers into the committed "
        "BENCH_replay.json and benchmarks/results/ instead of "
        "benchmarks/perf/out/",
    )


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record(results_dir):
    """Write a named result table both to stdout and to results/<name>.txt."""

    def _record(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record


@pytest.fixture()
def atlas10k2_drive() -> DiskDrive:
    return DiskDrive.for_model("Quantum Atlas 10K II")


@pytest.fixture()
def atlas10k_drive() -> DiskDrive:
    return DiskDrive.for_model("Quantum Atlas 10K")
