"""Module-level worker functions for the campaign-robustness tests.

``ProcessExecutor`` ships callables to ``spawn`` workers by reference
(module + qualname), so anything a test wants to run in a worker must live
at module level in an importable module -- not inside a test function.
The spawn machinery propagates ``sys.path``, so this module resolves in
children exactly as it does under pytest.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Mapping


def echo(item: Mapping[str, Any]) -> dict[str, Any]:
    """Return the item untouched (a healthy worker)."""
    return dict(item)


def crash_once(item: Mapping[str, Any]) -> dict[str, Any]:
    """Die hard (no exception, no cleanup) the first time a marker is unseen.

    The marker file persists across attempts, so the retry succeeds --
    which is exactly the transient-infrastructure failure the executor's
    retry loop exists for.  An optional ``delay_s`` pause comes first, so
    an item whose marker already exists is a slow healthy point.
    """
    time.sleep(item.get("delay_s", 0.0))
    marker = Path(item["marker"])
    if not marker.exists():
        marker.write_text("crashed once")
        os._exit(42)
    return {"ok": True, "survived": str(marker)}


def crash_always(item: Mapping[str, Any]) -> dict[str, Any]:
    """Die hard on every attempt (a point that can never run)."""
    os._exit(43)


def hang(item: Mapping[str, Any]) -> dict[str, Any]:
    """Never return (a wedged worker the timeout must kill)."""
    time.sleep(600)
    return {"ok": False}
