"""Static check over the package's public functions: each one is called or
read by some code in the package or the benchmark. A public function only the
tests reach is kept for no caller, unless it is a test oracle named below. The
check reads the syntax trees; it runs none of the callers.

A function counts as used when its name is read anywhere in those trees: as
a name, as an attribute, or as a string constant (the benchmark wraps
functions by name). An attribute read off a module bound by ``import`` in the
same file (``itertools.permutations``, ``np.sum``) names that module's
function, not one of the package's, so it does not count. Methods are matched
by their bare name, so a method is flagged only when no attribute of that
name is read anywhere."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "storelayout").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# Slow or exhaustive references that the tests check the fast code against.
ORACLES = {
    "swap_delta",  # criterion 5's per-swap delta, against SwapScan
    "swap_delta_matrix",  # the full delta matrix, against SwapScan
    "shortest_path_length",  # Dijkstra distances, against the exposure build
    "brute_force",  # criterion 1's enumeration, against branch_and_bound
}


def public_functions(source: str) -> list[str]:
    """Public module-level functions, and ``Class.method`` for the public
    methods of module-level classes, in source order."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return out


def names_read(source: str) -> set[str]:
    """Names, attributes and string constants read anywhere in ``source``,
    less the attributes read off a module that ``source`` imports."""
    tree = ast.parse(source)
    modules = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_function_has_a_caller():
    read = set().union(*(names_read(path.read_text(encoding="utf-8")) for path in CALLERS))
    unused = [
        f"{path.name}:{qualname}"
        for path in PACKAGE
        for qualname in public_functions(path.read_text(encoding="utf-8"))
        if qualname.rsplit(".", 1)[-1] not in read | ORACLES
    ]
    assert not unused, f"public functions no code in src/ or perfbench/ calls: {unused}"


def test_oracles_exist():
    defined = {
        qualname.rsplit(".", 1)[-1]
        for path in PACKAGE
        for qualname in public_functions(path.read_text(encoding="utf-8"))
    }
    assert ORACLES <= defined, sorted(ORACLES - defined)


def test_reads_names_attributes_and_strings():
    source = (
        "from .qap import imported_only\n"
        "class Box:\n"
        "    def used(self): return helper(self)\n"
        "    def spare(self): pass\n"
        "    def _private(self): pass\n"
        "def helper(box): return box.used()\n"
        "def by_name(): pass\n"
        "def unread(): pass\n"
        "unread_target = None\n"
        "TARGETS = ('by_name',)\n"
    )
    assert public_functions(source) == ["Box.used", "Box.spare", "helper", "by_name", "unread"]
    read = names_read(source)
    assert {"helper", "used", "by_name"} <= read
    assert not {"spare", "unread", "imported_only", "unread_target"} & read


def test_skips_attributes_of_imported_modules():
    source = (
        "import itertools\n"
        "import numpy as np\n"
        "import os.path\n"
        "from . import qap\n"
        "def f(pool):\n"
        "    itertools.permutations(pool)\n"
        "    np.zeros(3)\n"
        "    os.path.join('a')\n"
        "    qap.swap_delta(pool)\n"
        "    return pool.entries\n"
    )
    read = names_read(source)
    assert {"swap_delta", "entries", "itertools", "np"} <= read
    assert not {"permutations", "zeros", "path"} & read
