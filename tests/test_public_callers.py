"""Static check over the package's functions: each public one, and each
private module-level one, is called or read by some code in the package or
the benchmark. A function only the tests reach is kept for no caller, unless
it is a public test oracle named below. The check reads the syntax trees; it
runs none of the callers.

A function counts as used when its name is read anywhere in those trees: as
a name, as an attribute, or as a string constant (the benchmark wraps
functions by name). An attribute read off a module bound by ``import`` in the
same file (``itertools.permutations``, ``np.sum``) names that module's
function, not one of the package's, so it does not count. Methods are matched
by their bare name, but only against attributes and strings: a method is
flagged when no attribute or string of that name is read anywhere, whatever
local variables share its name."""

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


def private_functions(source: str) -> list[str]:
    """Private module-level functions (``_name``, not ``__name__``), in source
    order."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.endswith("__")
    ]


def attributes_read(source: str) -> set[str]:
    """Attributes and string constants read anywhere in ``source``, less the
    attributes read off a module that ``source`` imports: the reads that can
    reach a method."""
    tree = ast.parse(source)
    modules = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def names_read(source: str) -> set[str]:
    """Names read anywhere in ``source``, plus its ``attributes_read``."""
    bare = {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bare | attributes_read(source)


def unread_public(source: str, names: set[str], attributes: set[str]) -> list[str]:
    """The public functions of ``source`` not in ``names`` and its public
    methods not in ``attributes``, less the oracles, in source order."""
    return [
        qualname
        for qualname in public_functions(source)
        if qualname.rsplit(".", 1)[-1] not in (attributes if "." in qualname else names) | ORACLES
    ]


def test_every_public_function_has_a_caller():
    sources = [path.read_text(encoding="utf-8") for path in CALLERS]
    names = set().union(*map(names_read, sources))
    attributes = set().union(*map(attributes_read, sources))
    unused = [
        f"{path.name}:{qualname}"
        for path in PACKAGE
        for qualname in unread_public(path.read_text(encoding="utf-8"), names, attributes)
    ]
    assert not unused, f"public functions no code in src/ or perfbench/ calls: {unused}"


def test_every_private_function_has_a_caller():
    read = set().union(*(names_read(path.read_text(encoding="utf-8")) for path in CALLERS))
    unused = [
        f"{path.name}:{name}"
        for path in PACKAGE
        for name in private_functions(path.read_text(encoding="utf-8"))
        if name not in read
    ]
    assert not unused, f"private functions no code in src/ or perfbench/ reads: {unused}"


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
    assert private_functions(source) == []
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


def test_lists_module_level_private_functions():
    source = (
        "def _kept(x): return x\n"
        "def _spare(): pass\n"
        "def __getattr__(name): pass\n"
        "class Box:\n"
        "    def _method(self): return _kept(self)\n"
        "def public(): return _kept(1)\n"
    )
    assert private_functions(source) == ["_kept", "_spare"]
    read = names_read(source)
    assert "_kept" in read and "_spare" not in read


def test_a_local_variable_does_not_read_a_method():
    # a method is reached only through an attribute or a string; a local
    # variable of its name reads nothing of it, a bare name reads a function
    source = (
        "class Scan:\n"
        "    def __init__(self, m):\n"
        "        h = m * 2\n"
        "        self.m = h\n"
        "    def h(self): return self.m\n"
        "    def deltas(self): return helper(self.m)\n"
        "def helper(m): return m\n"
        "def run(scan): return scan.deltas()\n"
    )
    assert "h" in names_read(source) and "h" not in attributes_read(source)
    assert unread_public(source, names_read(source), attributes_read(source)) == ["Scan.h", "run"]
