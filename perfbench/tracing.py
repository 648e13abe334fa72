"""In-memory span tracing around the library's layer boundaries.

The benchmark traces from outside the package: it rebinds the functions
that ``mmirror.cli`` imports from the layer modules (``rootsys``, ``weyl``,
``qchev``, ``minrep``, ``period_gw``, ``crystal_potential``) to wrappers
that record a span per call.  ``cli`` looks these names up in its own
namespace at call time, and the workloads call the library through the
``cli`` module too, so one rebinding covers both.  Calls a layer makes
inside its own module are not split out; they count as that layer's time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]   # index of the enclosing span, None at top level
    case: str               # item the span belongs to ("setup" in set-up)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans nest on one thread, so a span's children are disjoint intervals
    inside it and the covered time is the sum of their durations.  The
    self times of a span tree therefore add up to its root's duration, by
    construction: every moment of a case is attributed to exactly one
    span.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _nonzero_entries(matrix) -> int:
    return sum(1 for row in matrix.entries for e in row if not e.is_zero())


# Work counters taken from a layer's return value, keyed by the counter's
# metric name.
COUNTERS: Dict[str, Dict[str, Callable]] = {
    "minuscule_coset_reps": {"weyl.cosets": len},
    "quantum_chevalley_minuscule": {"qchev.nonzero_entries": _nonzero_entries},
    "fw_matrix": {"qchev.nonzero_entries": _nonzero_entries},
    "mihalcea_equivariant": {"qchev.nonzero_entries": _nonzero_entries},
    "quantum_period": {"period_gw.coefficients":
                       lambda s: len(s.coefficients)},
    "potential_typeA": {"crystal_potential.f1_terms":
                        lambda p: len(p.f_one().terms)},
}


class Tracer:
    """Collects spans and counters while installed on ``mmirror.cli``."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.case = "setup"
        self._stack: List[int] = []
        self._originals: Dict[str, Callable] = {}

    @contextmanager
    def span(self, name: str, case: Optional[str] = None):
        """Record one span; ``case`` also sets the case id of the spans
        opened inside it."""
        outer = self.case
        if case is not None:
            self.case = case
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.case)
            self.case = outer

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counters = COUNTERS.get(fn.__name__, {})

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            # counted outside the span: the cost lands in the caller's
            # self time, in the traced run only
            for key, count in counters.items():
                self.counts[key] += count(result)
            return result

        return traced

    def install(self, cli) -> None:
        """Rebind every function ``cli`` imports from a layer module."""
        for attr, value in vars(cli).items():
            module = getattr(value, "__module__", "") or ""
            if (callable(value) and not isinstance(value, type)
                    and module.startswith("mmirror.")
                    and module != cli.__name__):
                layer = module.rsplit(".", 1)[1]
                self._originals[attr] = value
                setattr(cli, attr, self._wrap(f"{layer}.{attr}", value))

    def uninstall(self, cli) -> None:
        for attr, value in self._originals.items():
            setattr(cli, attr, value)
        self._originals.clear()

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: self time, inclusive time and calls."""
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for span, own in zip(self.spans, self_times(self.spans)):
            t = totals[span.name]
            t["self_s"] += own
            t["total_s"] += span.end - span.start
            t["calls"] += 1
        return dict(totals)

    def per_case(self) -> Dict[str, Dict[str, int]]:
        """Calls of each span name, per case id."""
        table: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for span in self.spans:
            table[span.case][span.name] += 1
        return {case: dict(calls) for case, calls in table.items()}
