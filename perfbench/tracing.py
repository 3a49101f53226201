"""In-memory span recorder and the timing hooks of the traced run.

The traced run times calls into each layer's public functions by wrapping
them from outside the program: module attributes (the portfolio and the
solve facade import their collaborators lazily, at call time, so a wrapped
module attribute is what they find) and class methods.  Nothing in
``src/`` is edited.  A hook whose target no longer exists marks its layer
absent instead of failing the run.

A span is ``(name, start, end, parent, request)``; spans of one solve share
the request id.  Calls run on one thread and nest strictly, so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> (module, attribute path) of every wrapped callable.  A
#: dotted attribute path names a method on a class.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("runtime.registry", "repro.runtime.registry", "default_registry"),
    ("runtime.registry", "repro.runtime.registry", "SolverSpec.solve"),
    ("model.validate", "repro.model.problem", "AssignmentProblem.validate"),
    ("core.portfolio", "repro.core.portfolio", "PortfolioSolver.solve"),
    ("baselines.greedy", "repro.baselines.greedy", "greedy_assignment"),
    ("core.coloring", "repro.core.coloring", "color_tree"),
    ("core.assignment_graph", "repro.core.assignment_graph",
     "build_assignment_graph"),
    ("core.label_search", "repro.core.label_search",
     "LabelDominanceSearch.search"),
    ("baselines.pareto_dp", "repro.baselines.pareto_dp",
     "pareto_dp_pruned_assignment"),
    ("core.assignment.eval", "repro.core.assignment_graph",
     "ColoredAssignmentGraph.path_to_assignment"),
    ("core.assignment.eval", "repro.core.assignment",
     "Assignment.end_to_end_delay"),
    ("core.assignment.eval", "repro.core.assignment", "Assignment.host_load"),
    ("core.assignment.eval", "repro.core.assignment",
     "Assignment.max_satellite_load"),
)

#: Every layer the hooks can report, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in HOOKS))


class Tracer:
    """Records spans while :attr:`active`; hooks call :meth:`call`."""

    def __init__(self) -> None:
        self.active = False
        self.request: Optional[int] = None
        # parallel lists: cheaper to append than one object per span
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[Optional[int]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []
        self.absent: Dict[str, str] = {}

    # ------------------------------------------------------------ recording
    def call(self, name: str, fn: Callable, args, kwargs,
             on_result: Optional[Callable[[Any], None]] = None) -> Any:
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(result)
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Run ``fn`` under a span of its own (the benchmark's root span)."""
        return self.call(name, fn, args, kwargs)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    # --------------------------------------------------------------- hooks
    def install(self) -> None:
        """Wrap every target in :data:`HOOKS`; missing ones mark absence."""
        for layer, module_name, path in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.absent.setdefault(layer, f"{module_name}.{path}: {exc}")
                continue
            wrapper = self._wrapper(layer, original, self._observer(layer))
            setattr(owner, attr, wrapper)
            self._restore.append(
                functools.partial(setattr, owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrapper(self, layer: str, original: Callable,
                 on_result: Optional[Callable[[Any], None]]) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(layer, original, args, kwargs, on_result)

        return traced

    def _observer(self, layer: str) -> Optional[Callable[[Any], None]]:
        if layer == "core.assignment_graph":
            def graph_edges(graph: Any) -> None:
                self.count("core.assignment_graph.graphs")
                self.count("core.assignment_graph.edges",
                           graph.number_of_edges())
            return graph_edges
        if layer == "core.label_search":
            def label_stats(result: Any) -> None:
                # extension-time bound prunes reject a label before it is
                # stored, so the stats count them apart from labels_created
                stats = result.stats
                generated = (stats.labels_created + stats.pruned_colour
                             + stats.pruned_joint + stats.pruned_meet)
                self.count("core.label_search.labels_created",
                           stats.labels_created)
                self.count("core.label_search.labels_generated", generated)
                self.count("core.label_search.labels_useful",
                           generated - stats.labels_dominated
                           - stats.labels_bound_pruned)
            return label_stats
        return None

    # ------------------------------------------------------------ analysis
    def self_times(self) -> Dict[str, float]:
        """Total self time (seconds) per span name."""
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        out: Dict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            out[name] += (self.ends[index] - self.starts[index]
                          - child_time[index])
        return dict(out)

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return dict(out)

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(json.dumps({
                    "name": name, "start": self.starts[index],
                    "end": self.ends[index], "parent": self.parents[index],
                    "request": self.requests[index]}) + "\n")
