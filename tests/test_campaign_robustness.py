"""Crash-tolerant campaign execution and result-store robustness.

Covers the :class:`ProcessExecutor` failure machinery (killed workers are
retried and the campaign completes; hung workers are killed at the point
timeout; exhausted retries become structured failure payloads), worker
exceptions reported with the originating scenario hash and traceback,
failure records persisted and deliberately skipped on resume, the
truncated-record quarantine, and bitwise determinism of seeded fault
campaigns across ``workers=1`` vs ``workers=4``.
"""

from __future__ import annotations

import json
import logging
import time

import pytest

import _worker_helpers as helpers
from repro.api import (
    Campaign,
    ProcessExecutor,
    ResultStore,
    Scenario,
    ScenarioConfig,
    SerialExecutor,
    scenario_hash,
)
from repro.api.campaign import FAILURE_PAYLOAD_KEY, HASH_PAYLOAD_KEY
from repro.api.config import DriveConfig
from repro.faults import DriveFaultConfig, FaultConfig, TransientFaultConfig

SMALL_DRIVE = DriveConfig(cylinders_per_zone=8, num_zones=2)


def small_campaign(n_requests_values=(40, 60)) -> Campaign:
    base = (
        Scenario("robust")
        .drive(cylinders_per_zone=8, num_zones=2)
        .workload("synthetic", n_requests=40, interarrival_ms=1.0)
        .seed(4)
    )
    return (
        Campaign("robust-sweep")
        .base(base)
        .axis("workload.params.n_requests", list(n_requests_values))
    )


# --------------------------------------------------------------------------- #
# ProcessExecutor: crashes, hangs, retries
# --------------------------------------------------------------------------- #

class TestProcessExecutorRobustness:
    def test_killed_worker_is_retried_and_completes(self, tmp_path):
        executor = ProcessExecutor(2, retries=1, backoff_s=0.0)
        marker = tmp_path / "crashed-once"
        out = executor.map(helpers.crash_once, [{"marker": str(marker)}])
        assert out == [{"ok": True, "survived": str(marker)}]
        assert marker.exists()

    def test_innocent_points_survive_a_crashing_sibling(self, tmp_path):
        # crash_once kills whichever worker picks it up; the echo items
        # sharing the wave must still complete (retried if collateral).
        executor = ProcessExecutor(3, retries=2, backoff_s=0.0)
        marker = tmp_path / "sibling-crash"
        items = [
            {"marker": str(marker)},
            {"marker": str(tmp_path / "absent-a"), "echo": 1},
            {"marker": str(tmp_path / "absent-b"), "echo": 2},
        ]
        out = executor.map(helpers.crash_once, items)
        assert out[0] == {"ok": True, "survived": str(marker)}
        # every slot produced a payload -- no point was silently lost even
        # though the crashing sibling took the whole pool down mid-wave
        assert all(isinstance(payload, dict) for payload in out)

    def test_crash_in_a_shared_wave_spends_no_retry(self, tmp_path):
        # A crash in a wave of several points cannot be pinned on one of
        # them, so it is charged to none: with no retries at all, the
        # crashing point and its slow healthy sibling (still running when
        # the pool breaks) both complete on their solo reruns.
        executor = ProcessExecutor(2, retries=0, backoff_s=0.0)
        crashing, healthy = tmp_path / "crashing", tmp_path / "healthy"
        healthy.write_text("never crashes")
        items = [
            {"marker": str(crashing)},
            {"marker": str(healthy), "delay_s": 1.0},
        ]
        out = executor.map(helpers.crash_once, items)
        assert out == [
            {"ok": True, "survived": str(crashing)},
            {"ok": True, "survived": str(healthy)},
        ]

    def test_exhausted_retries_become_structured_failure(self):
        executor = ProcessExecutor(1, retries=1, backoff_s=0.0)
        out = executor.map(
            helpers.crash_always, [{HASH_PAYLOAD_KEY: "feedf00d"}]
        )
        failure = out[0][FAILURE_PAYLOAD_KEY]
        assert failure["kind"] == "crash"
        assert failure["hash"] == "feedf00d"
        assert failure["attempts"] == 2  # first try + one retry

    def test_hung_worker_is_killed_at_timeout(self):
        executor = ProcessExecutor(1, timeout_s=2.0, retries=0, backoff_s=0.0)
        start = time.monotonic()
        out = executor.map(helpers.hang, [{HASH_PAYLOAD_KEY: "cafe"}])
        elapsed = time.monotonic() - start
        failure = out[0][FAILURE_PAYLOAD_KEY]
        assert failure["kind"] == "timeout"
        assert failure["hash"] == "cafe"
        assert elapsed < 30.0  # nowhere near helpers.hang's 600 s sleep

    def test_executor_validates_knobs(self):
        from repro.api import ConfigError

        with pytest.raises(ConfigError):
            ProcessExecutor(2, timeout_s=0.0)
        with pytest.raises(ConfigError):
            ProcessExecutor(2, retries=-1)
        with pytest.raises(ConfigError):
            ProcessExecutor(2, backoff_s=-0.5)


# --------------------------------------------------------------------------- #
# Worker exceptions: reported, persisted, skipped on resume
# --------------------------------------------------------------------------- #

class TestWorkerExceptions:
    def failing_campaign(self) -> Campaign:
        # n_requests=-5 passes config validation (params are free-form)
        # and explodes inside the worker when the generator runs.
        return small_campaign(n_requests_values=(40, -5))

    def test_exception_reported_with_hash_and_traceback(self, tmp_path):
        campaign = self.failing_campaign()
        result = campaign.run(store=tmp_path / "store")
        assert len(result.failures) == 1
        bad = result.failures[0]
        assert bad.failed and not bad.cached
        assert bad.failure["kind"] == "exception"
        assert bad.failure["hash"] == bad.point.hash
        assert "Traceback" in bad.failure["traceback"]
        assert "FAILED" in result.summary()
        # the healthy sibling still completed
        good = [run for run in result.runs if not run.failed]
        assert len(good) == 1 and good[0].payload["metrics"]["requests"] > 0

    def test_exception_works_across_workers(self, tmp_path):
        result = self.failing_campaign().run(
            workers=2, store=tmp_path / "store", retries=0, backoff_s=0.0
        )
        assert len(result.failures) == 1
        assert result.failures[0].failure["kind"] == "exception"

    def test_resume_skips_known_bad_points(self, tmp_path):
        campaign = self.failing_campaign()
        store = ResultStore(tmp_path / "store")
        first = campaign.run(store=store)
        assert len(first.failures) == 1

        class ForbiddenExecutor(SerialExecutor):
            def map(self, fn, items):
                assert not items, "resume must not re-run known-bad points"
                return []

        messages: list[str] = []
        second = campaign.run(
            store=store, executor=ForbiddenExecutor(), log=messages.append
        )
        assert len(second.failures) == 1
        assert second.failures[0].cached
        assert any(m.startswith("known bad") for m in messages)
        # deleting the failure record re-arms the point
        store.path(first.failures[0].hash).unlink()
        third = campaign.run(store=store)
        assert len(third.failures) == 1 and not third.failures[0].cached

    def test_failed_run_result_property_refuses(self, tmp_path):
        from repro.api import ConfigError

        result = self.failing_campaign().run(store=tmp_path / "store")
        with pytest.raises(ConfigError, match="failed"):
            result.failures[0].result

    def test_to_dict_carries_failures(self, tmp_path):
        result = self.failing_campaign().run(store=tmp_path / "store")
        payload = result.to_dict()
        assert payload["failed"] == 1
        failed_points = [p for p in payload["points"] if "failure" in p]
        assert len(failed_points) == 1
        assert failed_points[0]["failure"]["kind"] == "exception"


# --------------------------------------------------------------------------- #
# ResultStore: quarantine + failure records
# --------------------------------------------------------------------------- #

class TestStoreQuarantine:
    def test_truncated_record_is_quarantined_with_warning(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        config = ScenarioConfig(name="t", drive=SMALL_DRIVE)
        digest = scenario_hash(config)
        path = store.put(digest, config, {"scenario": "t", "kind": "replay"})
        # truncate the record mid-object, as a crash mid-write would
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.api.store"):
            assert store.get(digest) is None
        assert digest not in store
        quarantined = store.directory / f"{digest}.json.corrupt"
        assert quarantined.exists()
        assert any("quarantined" in message for message in caplog.messages)
        # the evidence survives verbatim
        assert quarantined.read_text(encoding="utf-8") == text[: len(text) // 2]

    def test_non_object_record_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        store.path("abad1dea").write_text("[1, 2, 3]", encoding="utf-8")
        assert store.get("abad1dea") is None
        assert (store.directory / "abad1dea.json.corrupt").exists()

    def test_foreign_schema_is_left_in_place(self, tmp_path):
        store = ResultStore(tmp_path)
        store.path("00ddba11").write_text(
            json.dumps({"schema": 999, "hash": "00ddba11", "result": {}}),
            encoding="utf-8",
        )
        assert store.get("00ddba11") is None
        assert store.path("00ddba11").exists()  # miss, not corruption

    def test_failure_record_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        config = ScenarioConfig(name="f", drive=SMALL_DRIVE)
        failure = {"kind": "crash", "error": "BrokenProcessPool",
                   "message": "worker died", "attempts": 2}
        store.put_failure("deadbeef", config, failure)
        record = store.get("deadbeef")
        assert record["failure"] == failure
        assert "result" not in record
        assert "deadbeef" in store


# --------------------------------------------------------------------------- #
# Determinism: seeded fault campaigns across worker counts
# --------------------------------------------------------------------------- #

class TestFaultCampaignDeterminism:
    def fault_campaign(self) -> Campaign:
        base = (
            Scenario("faulty")
            .drive(cylinders_per_zone=8, num_zones=2)
            .workload("synthetic", n_requests=120, interarrival_ms=1.0)
            .seed(9)
            .faults(
                FaultConfig(
                    seed=21,
                    drives={
                        0: DriveFaultConfig(
                            transient=TransientFaultConfig(
                                probability=0.1, max_retries=2
                            )
                        )
                    },
                )
            )
        )
        return (
            Campaign("fault-sweep")
            .base(base)
            .axis("traxtent", [True, False])
            .axis("mode", ["open", "closed"])
        )

    def test_workers_1_and_4_byte_identical(self, tmp_path):
        campaign = self.fault_campaign()
        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")
        serial = campaign.run(workers=1, store=serial_store)
        parallel = campaign.run(workers=4, store=parallel_store)
        assert not serial.failures and not parallel.failures
        assert serial_store.hashes() == parallel_store.hashes()
        for digest in serial_store.hashes():
            a = serial_store.path(digest).read_bytes()
            b = parallel_store.path(digest).read_bytes()
            assert a == b, f"record {digest} differs between worker counts"
        # and the fault model actually acted somewhere in the sweep
        extras = [
            run.payload["replay"]["extras"].get("fault_retries", 0.0)
            for run in serial.runs
        ]
        assert any(value > 0 for value in extras)
