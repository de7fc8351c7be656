"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls
into each layer of ``src/repro`` (spans inside ``src/`` are a later
change).  A span carries a name, start, end, the span that caused it
and the id of the operation it belongs to; everything stays in memory
and is written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator


class SpanRecorder:
    """Nested spans on one thread: the innermost open span is the
    parent of the next one opened."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None, op id]`` each.
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``."""
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the part of it covered
        by child spans (children of one span never overlap here, so
        their durations simply add)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def layer_self_ms_per_op(self) -> dict[str, float]:
        """Self time summed by layer (the part of a span name before
        the first dot), in milliseconds per traced operation."""
        ops = len({span[4] for span in self.spans}) or 1
        layers: dict[str, float] = {}
        for name, seconds in self.self_seconds().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return {layer: seconds * 1000.0 / ops
                for layer, seconds in layers.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in \
                    enumerate(self.spans):
                handle.write(json.dumps(
                    {"span": index, "name": name, "start": start,
                     "end": end, "parent": parent, "op": op}) + "\n")
