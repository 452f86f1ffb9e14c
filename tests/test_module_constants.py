"""Static check over the package's module constants: each ALL-CAPS name bound
at a module's top level is read by some code in the package or the benchmark.
A policy constant that only tests still patch steers nothing and belongs
deleted. The check reads the syntax trees; it runs none of the callers."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "storelayout").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def is_constant_name(name: str) -> bool:
    """ALL-CAPS with digits and underscores, a leading underscore allowed."""
    bare = name.lstrip("_")
    return bare.isupper() and bare.replace("_", "").isalnum()


def module_constants(source: str) -> list[str]:
    """ALL-CAPS names bound by a top-level assignment, in source order."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        out += [t.id for t in targets if isinstance(t, ast.Name) and is_constant_name(t.id)]
    return out


def names_loaded(source: str) -> set[str]:
    """Names and attributes read anywhere in ``source``; an assignment to a
    name is no read of it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_every_constant_is_read():
    read = set().union(*(names_loaded(path.read_text(encoding="utf-8")) for path in CALLERS))
    unread = [
        f"{path.name}:{name}"
        for path in PACKAGE
        for name in module_constants(path.read_text(encoding="utf-8"))
        if name not in read
    ]
    assert not unread, f"module constants no code in src/ or perfbench/ reads: {unread}"


def test_finds_constants_and_reads():
    source = (
        "LIMIT = 3\n"
        "_PRIVATE: int = 4\n"
        "SPARE = 5\n"
        "lower = 6\n"
        "Mixed = 7\n"
        "def f(cfg):\n"
        "    INNER = 8\n"
        "    cfg.SPARE = LIMIT\n"
        "    return _PRIVATE + other.DEPTH\n"
    )
    assert module_constants(source) == ["LIMIT", "_PRIVATE", "SPARE"]
    read = names_loaded(source)
    assert {"LIMIT", "_PRIVATE", "DEPTH"} <= read
    assert not {"SPARE", "INNER"} & read
