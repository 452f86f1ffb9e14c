"""Static check over the solver's callers: every SolverConfig field is set by
some call in the package or the benchmark. A field no caller sets has one
value in use and belongs in solvers.py as a constant. The check reads the
syntax trees; it runs none of the callers."""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from storelayout.solvers import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted((ROOT / "src" / "storelayout").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)


def _named(node: ast.expr, name: str) -> bool:
    """True for ``name`` and for ``anything.name``."""
    if isinstance(node, ast.Name):
        return node.id == name
    return isinstance(node, ast.Attribute) and node.attr == name


def keywords_set(source: str) -> set[str]:
    """Keywords given to ``SolverConfig(...)`` and to
    ``functools.partial(SolverConfig, ...)`` anywhere in ``source``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if _named(node.func, "SolverConfig") or (
            _named(node.func, "partial") and node.args and _named(node.args[0], "SolverConfig")
        ):
            out |= {kw.arg for kw in node.keywords if kw.arg is not None}
    return out


def test_every_field_is_set_by_a_caller():
    used = set().union(*(keywords_set(path.read_text(encoding="utf-8")) for path in CALLERS))
    unset = [f.name for f in fields(SolverConfig) if f.name not in used]
    assert not unset, f"SolverConfig fields no caller sets: {unset}"


def test_fields():
    assert [f.name for f in fields(SolverConfig)] == [
        "seed", "time_limit", "iteration_limit", "pool_capacity", "pool_gap",
    ]


def test_reads_calls_and_partials():
    source = (
        "import functools\n"
        "from storelayout import solvers\n"
        "a = SolverConfig(seed=1, **extra)\n"
        "b = functools.partial(solvers.SolverConfig, iteration_limit=3)\n"
        "c = functools.partial(print, pool_gap=0.1)\n"
        "d = replace(a, time_limit=2.0)\n"
    )
    assert keywords_set(source) == {"seed", "iteration_limit"}
