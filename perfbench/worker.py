"""Campaign-worker side of the benchmark: time each point where it runs.

:class:`TimedProcessExecutor` hands every scenario payload to
:func:`timed_call` in a spawned worker.  The worker times the public
``run_scenario_payload_safe`` call and sends the timing back beside the
payload; the parent strips it off again before ``run_campaign`` sees the
payload, so stored records are exactly what an untimed campaign stores.
"""

from __future__ import annotations

import functools
import time

from repro.api import ProcessExecutor
from repro.api.campaign import HASH_PAYLOAD_KEY

from reference import reference_time

#: Key of the worker's reply that carries the unchanged scenario payload.
PAYLOAD = "payload"


def timed_call(fn, item):
    start = time.perf_counter()
    payload = fn(item)
    end = time.perf_counter()
    # The point's host speed, measured in the worker that ran it.
    return {PAYLOAD: payload, "start": start, "end": end, "reference": reference_time()}


class TimedProcessExecutor(ProcessExecutor):
    """A ``ProcessExecutor`` that records host start/end of every point.

    ``timings`` maps each point's scenario hash to ``(start, end,
    payload)``; ``map_spans`` holds the ``(start, end)`` of each ``map``;
    ``references`` holds one reference-loop time per point, timed in its
    worker right after the point.
    """

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self.timings: dict[str, tuple[float, float, dict]] = {}
        self.map_spans: list[tuple[float, float]] = []
        self.references: list[float] = []

    def map(self, fn, items):
        items = list(items)
        start = time.perf_counter()
        replies = super().map(functools.partial(timed_call, fn), items)
        self.map_spans.append((start, time.perf_counter()))
        payloads = []
        for item, reply in zip(items, replies):
            # A point whose worker died comes back as the executor's own
            # failure payload, without timing.
            if PAYLOAD in reply:
                self.timings[item[HASH_PAYLOAD_KEY]] = (
                    reply["start"], reply["end"], reply[PAYLOAD]
                )
                self.references.append(reply["reference"])
                reply = reply[PAYLOAD]
            payloads.append(reply)
        return payloads
