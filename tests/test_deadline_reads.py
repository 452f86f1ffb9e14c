"""Static check over solvers.py: a run's time limit becomes a stop time in
one place. Only ``_deadline``, which turns the limit into an absolute
perf_counter deadline, and ``_time_limit_note``, which names the limit in
the note of a stopped search, read an attribute named ``time_limit``;
``SolverConfig.__post_init__`` reads it too, to validate the field. Every
search stops at the deadline it is handed, so another reader would start
another clock. ``block_descent`` takes no config and reads no clock at all,
so no deadline can cut it. The checks read the syntax tree; they run
nothing."""

from __future__ import annotations

import ast
from pathlib import Path

SOLVERS = Path(__file__).resolve().parent.parent / "src" / "storelayout" / "solvers.py"
READERS = {"_deadline", "_time_limit_note", "SolverConfig.__post_init__"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _reads_time_limit(node: ast.AST) -> bool:
    """``x.time_limit`` read, or ``getattr(x, "time_limit", ...)``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "time_limit" and isinstance(node.ctx, ast.Load)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "time_limit"
    )


def time_limit_readers(source: str) -> set[str]:
    """Dotted names of the functions in ``source`` that read the time limit,
    a nested function named under the one that holds it; a read outside any
    function is named ``<module>``."""
    readers: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, _SCOPES):
                name = getattr(child, "name", "<lambda>")
                inner = f"{scope}.{name}" if scope else name
            elif _reads_time_limit(child):
                readers.add(scope or "<module>")
            visit(child, inner)

    visit(ast.parse(source), "")
    return readers


def test_only_the_deadline_helpers_read_the_time_limit():
    readers = time_limit_readers(SOLVERS.read_text(encoding="utf-8"))
    assert readers - READERS == set(), "time_limit read outside _deadline and _time_limit_note"
    assert "_deadline" in readers


def test_block_descent_reads_no_clock():
    source = SOLVERS.read_text(encoding="utf-8")
    [descent] = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "block_descent"
    ]
    assert [arg.arg for arg in descent.args.args] == ["instance", "initial"]
    names = {node.id for node in ast.walk(descent) if isinstance(node, ast.Name)}
    assert not names & {"perf_counter", "time", "monotonic", "_deadline"}
    assert "block_descent" not in time_limit_readers(source)


def test_catches_a_second_reader():
    source = (
        "def _deadline(config, deadline):\n"
        "    return deadline or config.time_limit\n"
        "def search(cfg):\n"
        "    def walk():\n"
        "        return getattr(cfg, 'time_limit')\n"
        "    return cfg.time_limit, walk, lambda c: c.time_limit\n"
        "class Config:\n"
        "    time_limit = None\n"
        "    def set(self):\n"
        "        self.time_limit = 1\n"
        "limit = CONFIG.time_limit\n"
    )
    assert time_limit_readers(source) == {
        "_deadline", "search", "search.walk", "search.<lambda>", "<module>",
    }
