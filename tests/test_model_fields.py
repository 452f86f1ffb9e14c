"""Static check over the LP model's readers: every LinearModel field is read
by some code in the package or the benchmark. A field nothing reads is carried
by every model for no one. The check reads the syntax trees; it runs none of
the readers.

Both trees hold a LinearModel in a variable named ``model`` wherever they read
one, so a read is ``model.<field>`` in a load context. A reader that names its
model otherwise shows up here as an unread field, not as a silent pass."""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from storelayout.linearize import LinearModel

ROOT = Path(__file__).resolve().parent.parent
READERS = sorted((ROOT / "src" / "storelayout").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)


def fields_read(source: str) -> set[str]:
    """Attributes loaded from a name ``model`` anywhere in ``source``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == "model"
    }


def test_every_field_is_read():
    read = set().union(*(fields_read(path.read_text(encoding="utf-8")) for path in READERS))
    unread = [f.name for f in fields(LinearModel) if f.name not in read]
    assert not unread, f"LinearModel fields no code reads: {unread}"


def test_fields():
    assert [f.name for f in fields(LinearModel)] == [
        "tag", "binary_names", "fixed_zero", "continuous_names", "objective", "constraints",
    ]


def test_reads_loads_from_model_only():
    source = (
        "def f(model, other):\n"
        "    model.n = 3\n"
        "    x = other.sparsified + len(model.constraints)\n"
        "    return model.tag, model.objective[0].name\n"
    )
    assert fields_read(source) == {"constraints", "tag", "objective"}
