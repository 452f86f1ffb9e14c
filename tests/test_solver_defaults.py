"""Static check over every module of the package: each parameter with a
default, of each public module-level function, is passed by some call in
the package or the benchmark. A default that no caller overrides is an
option no run sets, and the code path behind it is reached by tests alone.
The check reads the syntax trees; it runs none of the callers.

A call counts when it names the function of that module and passes the
parameter by keyword or by position. A bare call (``tabu_search(...)``)
names it in its own module, or in a module that imports it from there
(``from .solvers import tabu_search``, under any alias). An attribute call
names it when the last name before the function is the module's
(``solvers.tabu_search(...)``, ``self.solvers.tabu_search(...)``), so a
same-named function of another module never counts. A ``*args`` passes
every positional parameter, and a ``**kwargs`` every parameter."""

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


def _last_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return getattr(node, "attr", None)


def passed_parameters(
    source: str,
    module: str,
    functions: dict[str, list[tuple[str, int | None]]],
    own: bool = False,
) -> set[tuple[str, str]]:
    """(function, parameter) of each defaulted parameter of ``module``'s
    functions that a call in ``source`` passes; ``own`` when ``source`` is
    that module's text."""
    tree = ast.parse(source)
    # the local name under which a bare call reaches each function
    local = {name: name for name in functions} if own else {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            local.update(
                (alias.asname or alias.name, alias.name)
                for alias in node.names
                if alias.name in functions
            )
    passed = set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name):
            name = local.get(func.id)
        elif isinstance(func, ast.Attribute) and _last_name(func.value) == module:
            name = func.attr
        else:
            continue
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
    sources = {path: path.read_text(encoding="utf-8") for path in CALLERS}
    unpassed = []
    for module in MODULES:
        functions = defaulted_parameters(sources[module])
        passed = set().union(
            *(
                passed_parameters(source, module.stem, functions, own=path == module)
                for path, source in sources.items()
            )
        )
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
        "from storelayout.solvers import solve\n"
        "solve(instance, cfg)\n"
        "solvers.solve(instance, deadline=3)\n"
        "other(instance, cfg, start, trace=True)\n"
        "qap.solve(instance, cfg, start, trace=True)\n"
    )
    assert passed_parameters(callers, "solvers", functions) == {
        ("solve", "config"),
        ("solve", "deadline"),
    }
    everything = {("solve", param) for param, _ in functions["solve"]}
    assert passed_parameters("solve(*args, **kwargs)\n", "solvers", functions, True) == everything
    assert passed_parameters("solvers.solve(x, **options)\n", "solvers", functions) == everything


def test_a_same_named_function_of_another_module_does_not_count():
    functions = defaulted_parameters("def solve(x, config=None, *, trace=False):\n    pass\n")

    def passed(source: str, own: bool = False) -> set[tuple[str, str]]:
        return passed_parameters(source, "solvers", functions, own)

    config, trace = {("solve", "config")}, {("solve", "trace")}
    # a bare call counts in the function's own module, or where it is imported from it
    assert passed("solve(instance, cfg)\n") == set()
    assert passed("solve(instance, cfg)\n", own=True) == config
    assert passed("from storelayout.qap import solve\nsolve(instance, cfg)\n") == set()
    assert passed("from .solvers import solve as run\nrun(instance, cfg)\n") == config
    # an attribute call counts when the last name before the function is the module's
    assert passed("qap.solve(instance, trace=True)\n") == set()
    assert passed("self.qap.solve(instance, trace=True)\n") == set()
    assert passed("self.solvers.solve(instance, trace=True)\n") == trace
