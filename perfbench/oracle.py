"""Regenerate ``oracle.json``: scalar-oracle digests for the default seed.

Runs one unit of every workload with the fast paths disabled
(``fast=False``: the engine's exact scalar loops) and records each
operation's result digest.  Run from the root of a checkout after a change
that is meant to alter simulated results::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json

from run import DEFAULT_SEED, ORACLE, OUT_DIR, WORKLOAD_NAMES, import_suite


def regenerate(suite) -> None:
    from spans import SpanRecorder

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name in WORKLOAD_NAMES:
        workload = suite.make(name, DEFAULT_SEED, OUT_DIR)
        workload.setup()
        unit = workload.unit(SpanRecorder("oracle", enabled=False), fast=False)
        suite.reap_children()
        bad = [op for op in unit.ops if op.error is not None or op.digest is None]
        if bad:
            raise SystemExit(f"{name}: oracle run failed: {bad[0]}")
        digests[name] = [op.digest for op in unit.ops]
        print(f"{name}: {len(unit.ops)} digests")
    with open(ORACLE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1)
        handle.write("\n")


def main() -> None:
    suite = import_suite()
    try:
        regenerate(suite)
    finally:
        suite.stop_children()


if __name__ == "__main__":
    main()
