"""In-memory span recorder, written out as Chrome trace-event JSON.

Spans are recorded by the benchmark around its calls into the program; the
program itself is not instrumented. Perfetto (https://ui.perfetto.dev) and
chrome://tracing open the written file.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Spans:
    """Nested spans of one thread: name, start, duration, parent, arguments."""

    def __init__(self) -> None:
        self.events: List[Dict] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **args):
        ev = {
            "name": name,
            "id": len(self.events),
            "parent": self._stack[-1] if self._stack else None,
            "args": args,
        }
        self.events.append(ev)
        self._stack.append(ev["id"])
        ev["start"] = time.perf_counter() - self._origin
        try:
            yield ev
        finally:
            ev["dur"] = time.perf_counter() - self._origin - ev["start"]
            self._stack.pop()

    def root(self, ev: Dict) -> int:
        while ev["parent"] is not None:
            ev = self.events[ev["parent"]]
        return ev["id"]

    def durations_ms(self, name: str, root: Optional[int] = None) -> List[float]:
        """Durations of the spans called `name`, optionally only under span `root`."""
        return [
            ev["dur"] * 1e3
            for ev in self.events
            if ev["name"] == name and (root is None or self.root(ev) == root)
        ]

    def chrome_trace(self) -> Dict:
        pid = os.getpid()
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": ev["name"],
                    "cat": ev["name"].split(".")[0],
                    "ph": "X",
                    "ts": ev["start"] * 1e6,
                    "dur": ev["dur"] * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {"id": ev["id"], "parent": ev["parent"], **ev["args"]},
                }
                for ev in self.events
            ],
        }

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)
