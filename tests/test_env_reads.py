"""Static check over the package source: the only environment variable it
reads is SOURCE_DATE_EPOCH, named by a string literal at the read. Run
settings come from the command line alone. No linter is assumed; the check
reads the syntax tree."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "storelayout"

ALLOWED = {"SOURCE_DATE_EPOCH"}


def _is_environ(node: ast.AST) -> bool:
    """`os.environ`, or `environ` imported from os."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("environ", "environb") and _is_os(node.value)
    return isinstance(node, ast.Name) and node.id in ("environ", "environb")


def _is_getenv(node: ast.AST) -> bool:
    """`os.getenv`, or `getenv` imported from os."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("getenv", "getenvb") and _is_os(node.value)
    return isinstance(node, ast.Name) and node.id in ("getenv", "getenvb")


def _is_os(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "os"


def _call_of(node: ast.AST, parents: dict) -> ast.Call | None:
    """The call whose function is `node`, else None."""
    call = parents.get(node)
    return call if isinstance(call, ast.Call) and call.func is node else None


def environment_reads(path: Path) -> list[str]:
    """Each use of the process environment other than a read of a key in
    ALLOWED spelled as a literal, as ``line: source``. A key held in a
    name, or the mapping passed on whole, counts."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        parent = parents.get(node)
        if _is_environ(node) and isinstance(parent, ast.Subscript) and parent.value is node:
            site, key = parent, parent.slice
        elif _is_environ(node) and isinstance(parent, ast.Attribute) and parent.attr == "get":
            site = _call_of(parent, parents) or parent
            key = site.args[0] if isinstance(site, ast.Call) and site.args else None
        elif _is_getenv(node):
            site = _call_of(node, parents) or parent
            key = site.args[0] if isinstance(site, ast.Call) and site.args else None
        elif _is_environ(node):
            site, key = parent, None
        else:
            continue
        if not (isinstance(key, ast.Constant) and key.value in ALLOWED):
            found.append((node.lineno, ast.unparse(site)))
    return [f"{line}: {source}" for line, source in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_reads_only_source_date_epoch(path):
    reads = environment_reads(path)
    assert not reads, f"{path.name} reads the environment beyond {sorted(ALLOWED)}: {reads}"


def test_finds_each_kind_of_read(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os\n"
        "from os import environ, getenv\n"
        'CONFIG_ENV = "STORELAYOUT_CONFIG"\n'
        'a = os.environ.get("SOURCE_DATE_EPOCH")\n'
        'b = os.environ["SOURCE_DATE_EPOCH"]\n'
        "c = os.environ.get(CONFIG_ENV)\n"
        'd = os.environ["HOME"]\n'
        'e = os.getenv("PATH")\n'
        'f = getenv("SOURCE_DATE_EPOCH")\n'
        'g = environ.get("USER", "")\n'
        "h = dict(os.environ)\n"
        'i = print("SOURCE_DATE_EPOCH", os.environ)\n',
        encoding="utf-8",
    )
    assert environment_reads(module) == [
        "6: os.environ.get(CONFIG_ENV)",
        "7: os.environ['HOME']",
        "8: os.getenv('PATH')",
        "10: environ.get('USER', '')",
        "11: dict(os.environ)",
        "12: print('SOURCE_DATE_EPOCH', os.environ)",
    ]
