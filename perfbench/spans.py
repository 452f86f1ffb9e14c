"""Outside-in tracing of the storelayout package for the traced benchmark run.

The recorder wraps public functions at the place their callers look them
up (module globals of ``storelayout.cli`` and ``storelayout.solvers``,
``storelayout.demand.shortest_path`` and ``storelayout.qap.SolutionPool.offer``),
so the program itself is not changed. Calls into a layer become spans with a
name, start, end and parent, kept in memory and written out when the run
ends. Calls made thousands of times per second (swap deltas, objective
evaluations, shortest paths, pool offers) are kept as a count and a total
time under the span that made them instead of one span each.

Span names are ``<module>.<function>``; ``tabu_search`` is split by level
into ``solvers.tabu_search.level1`` and ``solvers.tabu_search.level2``.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

# Public names whose callers look them up as globals of these modules.
_SPAN_TARGETS = {
    "storelayout.cli": (
        "load_store",
        "read_transactions_csv",
        "expected_transitions",
        "sampled_transitions",
        "replay_paths",
        "build_exposure_matrices",
        "accumulate_traffic",
        "render_heatmap",
        "linearize",
        "linearize_integrated",
        "write_lp",
        "build_level1_instance",
        "build_level2_instance",
        "objective",
        "read_plan",
        "write_plan",
        "write_matrix_tsv",
        "evaluate_layout",
        "solve_hierarchical",
        "solve_level1",
        "block_descent",
        "tabu_search",
    ),
    "storelayout.solvers": (
        "build_level1_instance",
        "build_level2_instance",
        "solve_level1",
        "branch_and_bound",
        "block_descent",
        "tabu_search",
        "check_feasible",
    ),
}

# Frequent calls: counted under the enclosing span, not recorded one by one.
_COUNTER_TARGETS = {
    "storelayout.solvers": ("swap_delta_matrix", "objective_of_permutation"),
    "storelayout.demand": ("shortest_path",),
}


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s", "attrs", "counters")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children_s = 0.0
        self.attrs: dict[str, float] = {}
        self.counters: dict[str, list[float]] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``install`` replaces the traced names with wrappers; ``uninstall``
    puts the originals back, so untraced and traced calls can alternate in
    one process.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_descent: float | None = None

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the caller gets the span back for attributes."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        return result, span

    def _count(self, name: str, elapsed: float) -> None:
        if not self._stack:
            return
        parent = self.spans[self._stack[-1]]
        counter = parent.counters.setdefault(name, [0, 0.0])
        counter[0] += 1
        counter[1] += elapsed
        parent.children_s += elapsed

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn):
        name = f"{_short(fn.__module__)}.{fn.__name__}"
        tracer = self

        def wrapped(*args, **kwargs):
            label = name
            if fn.__name__ == "tabu_search":
                label = f"{name}.{args[0].level}"
            result, span = tracer.span(label, fn, *args, **kwargs)
            tracer._annotate(fn.__name__, span, args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _counter_wrapper(self, fn, name: str):
        tracer = self

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._count(name, perf_counter() - t0)

        wrapped.__wrapped__ = fn
        return wrapped

    def _annotate(self, fname: str, span: Span, args, result) -> None:
        """Work counts read off the arguments and results of a traced call."""
        if fname == "tabu_search":
            span.attrs["iterations"] = result.iterations
            if args[0].level == "level2" and self._last_descent is not None:
                span.attrs["improved"] = float(result.objective > self._last_descent)
                self._last_descent = None
        elif fname == "block_descent":
            span.attrs["cycles"] = result.iterations
            self._last_descent = result.objective
        elif fname == "solve_level1":
            span.attrs["pool_size"] = len(result)
            span.attrs["objective"] = result.best_objective
        elif fname == "solve_hierarchical":
            span.attrs["candidates"] = len(result.candidates)
            span.attrs["distinct_l2_objectives"] = len({round(c[2], 9) for c in result.candidates})
            span.attrs["objective"] = result.objective
        elif fname == "replay_paths":
            span.attrs["legs"] = sum(len(t.subcategory_ids) + 1 for t in args[0])
        elif fname == "linearize":
            span.attrs["tag"] = result.tag
        elif fname == "write_lp":
            model, path = args[0], args[1]
            span.attrs["tag"] = model.tag
            span.attrs["bytes"] = os.path.getsize(path)
            span.attrs["rows"] = len(model.constraints)
            span.attrs["vars"] = len(model.binary_names) + len(model.continuous_names)

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        from storelayout import qap

        for modname, names in _SPAN_TARGETS.items():
            module = importlib.import_module(modname)
            for attr in names:
                self._replace(module, attr, self._span_wrapper(getattr(module, attr)))
        for modname, names in _COUNTER_TARGETS.items():
            module = importlib.import_module(modname)
            for attr in names:
                fn = getattr(module, attr)
                self._replace(module, attr, self._counter_wrapper(fn, f"{_short(fn.__module__)}.{attr}"))
        self._replace(
            qap.SolutionPool, "offer", self._counter_wrapper(qap.SolutionPool.offer, "qap.SolutionPool.offer")
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every recorded span as JSON, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "id": i,
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "self_s": s.self_s,
                **s.attrs,
                **{f"{k}.calls": c for k, (c, _) in s.counters.items()},
                **{f"{k}.s": t for k, (_, t) in s.counters.items()},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")


def summarize(spans: list[Span]) -> dict[str, float]:
    """Flat per-name totals of one operation's spans.

    Gives ``<name>.s`` (inclusive time) and ``<name>.calls`` per span name,
    every numeric attribute summed as ``<name>.<attr>``, the counted
    frequent calls as ``<counter>.calls`` and ``<counter>.s``, and each
    module's self time as ``layer.<module>.self_s``. Linearize spans carry
    their model tag in the name (``linearize.write_lp.level2``).
    """
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        name = span.name
        if "tag" in span.attrs:
            name = f"{name}.{span.attrs['tag']}"
        out[name + ".s"] += span.duration
        out[name + ".calls"] += 1
        out[f"layer.{name.split('.', 1)[0]}.self_s"] += span.self_s
        for key, value in span.attrs.items():
            if key != "tag":
                out[f"{name}.{key}"] += value
        for key, (calls, total) in span.counters.items():
            out[key + ".calls"] += calls
            out[key + ".s"] += total
            out[f"layer.{key.split('.', 1)[0]}.self_s"] += total
    return dict(out)
