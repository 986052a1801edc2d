"""In-memory span tracing around the public functions of ``degseq``.

The tracer replaces each traced function in every ``degseq`` module
namespace that holds it (``realize_bounded`` lives in both
``degseq.realization`` and ``degseq.rao``, and in the package itself), so
calls between library modules are traced as well as calls from the
benchmark. Each span records its name, start, end, parent span, the id of
the pair or sequence being processed, the input size and the outcome.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function) pairs that get a span per call. Generator functions
# get a yield counter instead: their work runs inside the caller's frame
# and is charged to the caller's self time.
TRACED = (
    ("sequences", "parse_sequence"),
    ("sequences", "erdos_gallai_check"),
    ("sequences", "erdos_gallai_sides"),
    ("sequences", "to_regularity"),
    ("sequences", "from_regularity"),
    ("graphs", "components_with_vertices"),
    ("graphs", "disjoint_union"),
    ("realization", "require_graphic"),
    ("realization", "realize"),
    ("realization", "plan_bounded"),
    ("realization", "realize_bounded"),
    ("rao", "canonical_form"),
    ("rao", "decompose"),
    ("rao", "is_induced_subgraph"),
    ("rao", "rao_leq_sufficient"),
    ("rao", "rao_leq_via_components"),
    ("rao", "rao_leq_oracle"),
    ("rao", "labeled_realizations"),
    ("harness", "generate_stream"),
    ("cli", "main"),
)

# Span outcomes: the call returned a value, returned None, or raised.
HIT, MISS, CAPPED, RAISED = "hit", "miss", "capped", "raised"


def _input_size(args) -> int:
    """Entries of a sequence argument or vertices of a graph argument."""
    if not args:
        return 0
    first = args[0]
    size = getattr(first, "n", None)
    if size is None:
        size = getattr(first, "vertex_count", 0)
    return size if isinstance(size, int) else 0


class Tracer:
    """Records spans while installed; ``op`` names the pair or sequence at work."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, op id, input size, outcome)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, size: int = 0):
        """A span opened from benchmark code, around a call into a layer."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        outcome = HIT
        try:
            yield
        except BaseException:
            outcome = RAISED
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, size, outcome)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            key = f"{name}.yielded"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    if self.op is not None:
                        self.counters[key] += 1
                    yield item
            return counted

        spans, stack = self.spans, self._stack
        capped_error = sys.modules["degseq.errors"].CapExceededError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            outcome = MISS
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if result is not None:
                    outcome = HIT
                return result
            except capped_error:
                outcome = CAPPED
                raise
            except BaseException:
                outcome = RAISED
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op,
                                _input_size(args), outcome)
        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded ``degseq`` namespace."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "degseq" or n.startswith("degseq."))]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"degseq.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines, times in ms from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as out:
            for index, (name, start, end, parent, op, size, outcome) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "op": op,
                    "start_ms": round((start - origin) * 1e3, 4),
                    "end_ms": round((end - origin) * 1e3, 4),
                    "size": size, "outcome": outcome}) + "\n")


def _counted(name: str, op) -> bool:
    """Whether a span counts toward the per-layer figures.

    Spans opened while an operation is at work count. Of the set-up spans
    (no operation) only the ``harness`` ones count, and they absorb the time
    of their uncounted children, so that they carry the whole set-up.
    """
    return op is not None or name.startswith("harness.")


class SpanStats:
    """Per-name aggregates over the counted spans of a trace: calls, self time, outcomes."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, op, *_ in spans:
            if parent >= 0 and _counted(name, op):
                covered[parent] += end - start
        self.calls: Counter = Counter()
        self.self_ms: defaultdict = defaultdict(float)
        self.outcomes: defaultdict = defaultdict(Counter)
        self.entries: Counter = Counter()
        self._by_size: defaultdict = defaultdict(lambda: defaultdict(list))
        self.counters = tracer.counters
        for index, (name, start, end, _, op, size, outcome) in enumerate(spans):
            if not _counted(name, op):
                continue
            own = (end - start - covered[index]) * 1e3
            self.calls[name] += 1
            self.self_ms[name] += own
            self.outcomes[name][outcome] += 1
            self.entries[name] += size
            if size > 0:
                self._by_size[name][size].append(own)

    def hit_ratio(self, name: str) -> float:
        counts = self.outcomes[name]
        decided = counts[HIT] + counts[MISS]
        return counts[HIT] / decided if decided else 0.0

    def growth_exponent(self, name: str) -> float:
        """Least-squares slope of log(median self ms) against log(input size).

        Taking the median per distinct size first keeps thousands of tiny
        calls from outweighing the few large ones. Zero without at least
        two distinct sizes.
        """
        points = [(math.log(size), math.log(max(statistics.median(times), 1e-6)))
                  for size, times in self._by_size[name].items()]
        if len(points) < 2:
            return 0.0
        mean_x = statistics.fmean(x for x, _ in points)
        mean_y = statistics.fmean(y for _, y in points)
        var_x = sum((x - mean_x) ** 2 for x, _ in points)
        if var_x == 0:
            return 0.0
        return sum((x - mean_x) * (y - mean_y) for x, y in points) / var_x
