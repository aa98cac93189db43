"""Per-layer tracing from outside the package.

``Recorder.install`` replaces every public function of each degeq module with
a wrapper, in its defining module and in every degeq namespace that imported
it (so ``degeq.forest_dp.make_certificate`` is traced as a certificates call).
A wrapper records one span: name, parent span, start and end in
``perf_counter_ns``, and the exception type or a ``False`` result.  Spans stay
in memory; ``summarize`` turns them into per-layer figures at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

from instances import adjacency, candidate_pairs, subsets_tried

# Layer name -> modules whose public functions belong to it.
LAYERS = {
    "graph": ("degeq.graph",),
    "forest_dp": ("degeq.forest_dp",),
    "oracle": ("degeq.oracle",),
    "certificates": ("degeq.certificates",),
    "constructive": ("degeq.constructive",),
    "bounds": ("degeq.bounds",),
    "generators": ("degeq.generators", "degeq.extremal"),
    "verify": ("degeq.verify",),
}

# Functions whose inputs or results give a computed work count.
WORK_FUNCTIONS = ("forest_dp.compute_fk_forest", "oracle.brute_force_fk")

NAME, PARENT, START, END, OUTCOME, WORK = range(6)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, 0, 0, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter_ns()
        return span

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    def _close(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, fn):
        recorder = self
        keeps_args = name in WORK_FUNCTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                recorder._close(span)
                span[OUTCOME] = type(exc).__name__
                raise
            recorder._close(span)
            if result is False:
                span[OUTCOME] = "false"
            if keeps_args:
                span[WORK] = (args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, everywhere the
        degeq package refers to them; ``uninstall`` puts the originals back."""
        wrappers = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                for attr, value in vars(sys.modules[modname]).items():
                    if (
                        inspect.isfunction(value)
                        and not attr.startswith("_")
                        and value.__module__ == modname
                    ):
                        wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for modname, module in list(sys.modules.items()):
            if modname != "degeq" and not modname.startswith("degeq."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def settle(self) -> None:
        """Replace the arguments kept by work-counting spans with the count,
        so the graphs they reference can be freed."""
        for span in self.spans:
            if isinstance(span[WORK], tuple):
                span[WORK] = _work_count(span[NAME], *span[WORK])

    # -- reporting ---------------------------------------------------------

    def export(self) -> list[list]:
        self.settle()
        return self.spans

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded in a child process below span ``parent``."""
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + offset
            self.spans.append(span)


class _Span:
    __slots__ = ("recorder", "name", "span")

    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.span = self.recorder._open(self.name)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.recorder._close(self.span)
        if exc_type is not None:
            self.span[OUTCOME] = exc_type.__name__
        return False


def _work_count(name: str, args, kwargs, result) -> int:
    graph, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    value, cert = result
    if name == "oracle.brute_force_fk":
        return subsets_tried(graph.n, cert.x)
    # The enumeration runs only past the early exits (already equalized,
    # n <= k); those calls visit no (S, delta) pair.
    if value == 0 or graph.n <= k:
        return 0
    return candidate_pairs(adjacency(graph.n, graph.edges()), k)


def summarize(spans: list[list]) -> dict[str, float]:
    """Totals per span name and per layer, in nanoseconds or counts.

    ``<name>.incl`` counts a span only when no ancestor has the same name, so
    recursion is not double counted; ``<layer>.incl`` likewise counts only
    spans with no ancestor in the same layer.  ``<layer>.self`` is each
    span's duration minus the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0) + value

    for i, span in enumerate(spans):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        duration = span[END] - span[START]
        add(f"{layer}.self", duration - child_ns[i])
        add("all.self", duration - child_ns[i])
        add(f"{name}.count", 1)
        if span[OUTCOME] is not None:
            add(f"{name}.outcome.{span[OUTCOME]}", 1)
        if span[WORK] is not None:
            add(f"{name}.work", span[WORK])
        same_name = same_layer = False
        parent = span[PARENT]
        while parent >= 0 and not same_name:
            ancestor = spans[parent][NAME]
            same_name = ancestor == name
            same_layer = same_layer or ancestor.split(".", 1)[0] == layer
            parent = spans[parent][PARENT]
        if not same_name:
            add(f"{name}.incl", duration)
        if not same_layer:
            add(f"{layer}.incl", duration)
            if span[OUTCOME] is not None:
                add(f"{layer}.outer_outcome.{span[OUTCOME]}", 1)
    return totals
