"""In-memory spans, self time and the statistics the benchmark reports.

A span is ``[name, start, end, parent, item]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``item`` the identifier of
the work item that caused it, so every span of one item shares it.
Spans stay in memory until :meth:`Tracer.dump` writes them out when the
run ends.  A layer's self time is its spans' duration minus the part
covered by their child spans.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from collections import defaultdict
from time import perf_counter


class Tracer:
    __slots__ = ("spans", "stack", "counts", "item")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item = None

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.item]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def layers(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every span recorded."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start - covered
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


def digest(obj) -> str:
    """First 16 hex digits of the SHA-256 of ``obj`` as canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(q * n)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]
