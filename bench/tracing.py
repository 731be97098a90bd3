"""Spans recorded from the benchmark's side of each layer boundary.

A span is ``<layer>:<what>`` with a start, an end, the span that caused
it and the batch or request it belongs to.  Spans stay in memory and
are written once, as a Chrome trace, when the run ends.  (A layer's self
time -- its spans' time minus what their child spans cover -- is worked
out in ``ledger.py``, where times are normalised first.)
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self):
        #: ``[name, start, end, parent index or -1, batch id]``
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, batch: int = -1):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if batch < 0 and parent >= 0:
            batch = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, batch]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = clock()
        try:
            yield record
        finally:
            record[2] = clock()
            self._stack.pop()

    def mark(self) -> int:
        """How many spans there are so far: a position in :attr:`spans`."""
        return len(self.spans)

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (open in chrome://tracing or Perfetto);
        one ``tid`` per layer so layers stack as rows."""
        if not self.spans:
            events = []
        else:
            origin = min(s[1] for s in self.spans)
            layers: dict[str, int] = {}
            events = []
            for index, (name, start, end, parent, batch) in enumerate(self.spans):
                layer = name.split(":", 1)[0]
                tid = layers.setdefault(layer, len(layers) + 1)
                events.append({
                    "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": {"span": index, "parent": parent, "batch": batch},
                })
            events.extend(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "args": {"name": layer}}
                for layer, tid in layers.items()
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
