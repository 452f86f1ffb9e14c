"""Static check over every module of the package: each parameter with a
default, of each public module-level function, is passed by some call in
the package or the benchmark. A default that no caller overrides is an
option no run sets, and the code path behind it is reached by tests alone.
The check reads the syntax trees; it runs none of the callers.

A call counts when it names the function, as a name (``tabu_search(...)``)
or as an attribute (``solvers.tabu_search(...)``), and passes the parameter
by keyword or by position. A ``*args`` passes every positional parameter,
and a ``**kwargs`` every parameter."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "storelayout").glob("*.py"))
CALLERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def defaulted_parameters(source: str) -> dict[str, list[tuple[str, int | None]]]:
    """(name, position) of each parameter with a default, per public
    module-level function that has one; a keyword-only parameter has no
    position."""
    out = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params: list[tuple[str, int | None]] = [
            (arg.arg, i) for i, arg in enumerate(positional) if i >= first
        ]
        params += [
            (arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        if params:
            out[node.name] = params
    return out


def passed_parameters(
    source: str, functions: dict[str, list[tuple[str, int | None]]]
) -> set[tuple[str, str]]:
    """(function, parameter) of each defaulted parameter that a call in
    ``source`` passes."""
    passed = set()
    for call in ast.walk(ast.parse(source)):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in functions:
            continue
        keywords = {kw.arg for kw in call.keywords}
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        for param, position in functions[name]:
            by_position = position is not None and (position < len(call.args) or starred)
            if param in keywords or None in keywords or by_position:
                passed.add((name, param))
    return passed


def test_every_default_is_passed_by_a_caller():
    sources = [path.read_text(encoding="utf-8") for path in CALLERS]
    unpassed = []
    for module in MODULES:
        functions = defaulted_parameters(module.read_text(encoding="utf-8"))
        passed = set().union(*(passed_parameters(source, functions) for source in sources))
        unpassed += [
            f"{module.stem}.{name}({param})"
            for name, params in functions.items()
            for param, _ in params
            if (name, param) not in passed
        ]
    assert not unpassed, f"defaults no caller overrides: {unpassed}"


def test_catches_a_default_no_caller_passes():
    source = (
        "def solve(instance, config=None, initial=None, *, deadline=None, trace=False):\n"
        "    pass\n"
        "def build(instance):\n"
        "    pass\n"
        "def _walk(lanes=1):\n"
        "    pass\n"
    )
    functions = defaulted_parameters(source)
    assert functions == {
        "solve": [("config", 1), ("initial", 2), ("deadline", None), ("trace", None)],
    }
    callers = (
        "solve(instance, cfg)\n"
        "solvers.solve(instance, deadline=3)\n"
        "other(instance, cfg, start, trace=True)\n"
    )
    assert passed_parameters(callers, functions) == {("solve", "config"), ("solve", "deadline")}
    everything = {("solve", param) for param, _ in functions["solve"]}
    assert passed_parameters("solve(*args, **kwargs)\n", functions) == everything
    assert passed_parameters("solve(instance, **options)\n", functions) == everything
