"""Static check over the package source: the cyclic garbage collector is
touched in one place only. ``cli.main`` pauses it around a command's handler
with ``gc.isenabled``, ``gc.disable`` and ``gc.enable``; no other module
imports ``gc``, and nothing collects, freezes or retunes it, since a library
caller in a long-lived process would inherit that. No linter is assumed; the
check reads the syntax tree."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "storelayout"

# module name -> {function -> the gc attributes it may use}
ALLOWED = {"cli.py": {"main": {"isenabled", "disable", "enable"}}}


def gc_uses(path: Path) -> list[str]:
    """Each import of ``gc`` and each use of a ``gc`` attribute that
    ``ALLOWED`` does not grant the enclosing top-level function, as
    ``line: source``. A bare ``gc`` passed on as a value counts."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    granted = ALLOWED.get(path.name, {})
    found = []

    def visit(node: ast.AST, function: str | None, parent: ast.AST | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        allowed = granted.get(function, set())
        if isinstance(node, ast.Import):
            # an alias would hide the calls from the attribute check
            if any(a.name == "gc" and (a.asname or not granted) for a in node.names):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id == "gc":
            attr = parent.attr if isinstance(parent, ast.Attribute) else None
            if attr not in allowed:
                found.append((node.lineno, ast.unparse(parent if attr else node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function, node)

    visit(tree, None, None)
    return [f"{line}: {source}" for line, source in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_main_pauses_the_collector(path):
    uses = gc_uses(path)
    assert not uses, f"{path.name} touches the garbage collector: {uses}"


def test_cli_main_uses_the_granted_calls():
    # the guard is not vacuous: main does pause the collector
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    main = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    used = {
        node.attr for node in ast.walk(main)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "gc"
    }
    assert used == ALLOWED["cli.py"]["main"]


def test_flags_each_kind_of_use(tmp_path):
    other = tmp_path / "store.py"
    other.write_text(
        "import gc\n"
        "from gc import collect\n"
        "def build():\n"
        "    gc.collect()\n"
        "    gc.disable()\n",
        encoding="utf-8",
    )
    assert gc_uses(other) == [
        "1: import gc",
        "2: from gc import collect",
        "4: gc.collect",
        "5: gc.disable",
    ]
    cli = tmp_path / "cli.py"
    cli.write_text(
        "import gc\n"
        "import gc as collector\n"
        "gc.freeze()\n"
        "def _run(args):\n"
        "    gc.collect()\n"
        "def main(argv=None):\n"
        "    on = gc.isenabled()\n"
        "    gc.disable()\n"
        "    gc.set_threshold(10_000)\n"
        "    hook = gc\n"
        "    if on:\n"
        "        gc.enable()\n",
        encoding="utf-8",
    )
    assert gc_uses(cli) == [
        "2: import gc as collector",
        "3: gc.freeze",
        "5: gc.collect",
        "9: gc.set_threshold",
        "10: gc",
    ]
