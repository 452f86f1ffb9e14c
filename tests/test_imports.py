"""Static check over the package source: no module keeps a module-level
import it never uses. No linter is assumed; the check reads the syntax
tree."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "storelayout"

# Imported only so that perfbench/spans.py finds them where it wraps or
# counts calls; each carries a `# noqa: F401` at its import.
WRAPPED = {
    "cli.py": {"block_descent", "tabu_search"},
    "solvers.py": {"swap_delta_matrix"},
}


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names read by string annotations such as ``-> "Assignment"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            expr = ast.parse(ann.value, mode="eval")
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's top-level imports and read nowhere in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - _annotation_names(tree))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = set(unused_imports(path)) - WRAPPED.get(path.name, set())
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_finds_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .qap import Assignment, QapInstance\n"
        "def f(x: \"QapInstance\") -> int:\n"
        "    return np.size(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["Assignment", "os"]
