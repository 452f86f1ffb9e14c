"""Exact MILP linearization of the quadratic exposure objective.

Every quadratic product of two assignment binaries is replaced by one
continuous variable tied to the binaries by per-position and per-product
sum constraints plus pairwise symmetry; on binary assignments the linear
objective reproduces the quadratic one exactly. Models are emitted as
LP-format text for out-of-band MILP solvers, and external solutions are
parsed back and validated against the quadratic objective.

Variable naming is a pure function of axis indices: strategic models use
x_i_k binaries and w_i1_k1_i2_k2 products, tactical and integrated models
use z/y; the integrated model adds the strategic x binaries coupled to z.
Products of a variable with itself collapse onto the binary (x^2 = x), and
symmetry rows are emitted once per unordered pair. Names are only written:
every reader finds a variable by its cell, never by parsing its name.

All three models come from the same builders: one-to-one assignment rows
(``_assignment_layer``), family rows tying a category's members to a
location's slots (``_family_rows``), and the product layer, assembled into a
``LinearModel`` by ``_model``. No product-layer name is stored: a layer
keeps its cells' index keys and its two variable prefixes (``ProductNames``),
and each reader spells a name from those when it needs one. Cell a's binary
is ``z_<key_a>`` and the product of cells a and b is ``y_<key_a>_<key_b>``,
so the layer's names form an (N, N) table with the binaries on its diagonal.
The objective's coefficients form a table of that shape too, but it is not
stored either: ``ObjectiveRows`` computes each table row when it is read,
from the flow and exposure columns of the layer's cells. Every constraint
row is an equation of +1 terms, at most one -1 term and a right-hand side
of 0 or 1; the head rows are stored as such tuples (``Row``). The product
layer's rows are described, not stored: ``_product_rows`` gives them as
column blocks (``ProductBlock``) over the cells, and is their only
description. Every name in a product row is spelled around the row's own
cell key, so ``write_lp`` lays a block's row out once, cut at that key, and
joins each row from the pieces with its key. ``validate_solution`` reads the layer's
values once, into an (N, N) table laid out as the name table, and takes
every row residual and the objective off that table, each a Python ``sum``
over its terms.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .demand import Catalog, TransitionMatrices
from .errors import InputError, ParseError, ValidationError
from .qap import (
    DOOR_PINS,
    LEVEL1,
    Assignment,
    QapInstance,
    _eligibility_matrix,
    check_feasible,
    objective_of_permutation,
)
from .store import ExposureMatrices, StoreGraph

# Tag of the joint two-level model; a QapInstance is of one level only.
INTEGRATED = "integrated"

# Largest violation validate_solution forgives: solver round-off in a binary,
# a bound or a row residual.
TOLERANCE = 1e-6


# A row (name, plus, minus, rhs) is the equation sum(plus) - minus = rhs:
# ``plus`` holds the +1 terms, ``minus`` the one -1 term or None, and ``rhs``
# is 0 or 1. Every row of the three models has this shape; the head rows are
# stored so.
Row = tuple[str, Sequence[str], "str | None", int]

# A product block (head, rows, plus, minus, own) states len(rows) rows of the
# product layer at once, its columns named by cell index. Row b, for each
# cell b in the range ``rows``, is named head + key of b; its +1 terms are
# the products of each cell a of ``plus`` with b, its -1 term is b's binary
# when ``minus`` is None and the product of b with cell ``minus`` otherwise,
# and its right-hand side is 0. The j-th entry of ``own`` is a row that
# leaves out column j and the -1 term: the row of a group's own cell, empty
# in a singleton group.
ProductBlock = tuple[str, range, list[int], "int | None", Sequence[int]]


class ProductNames(Sequence[str]):
    """The variable names of a product layer, spelled from its cells' index
    ``keys`` when they are read: cell a's binary is ``binary + keys[a]`` and
    the product of cells a and b is ``product + keys[a] + "_" + keys[b]``.
    As a sequence it is the layer's continuous variables, the products of
    distinct cells in row-major order, with a closed-form ``len()``; no name
    is stored."""

    __slots__ = ("keys", "binary", "product")

    def __init__(self, keys: list[str], binary: str, product: str) -> None:
        self.keys = keys
        self.binary = binary
        self.product = product

    def prefix(self, a: int) -> str:
        """The names of table row a, less its diagonal, are this plus a key."""
        return f"{self.product}{self.keys[a]}_"

    def __len__(self) -> int:
        n = len(self.keys)
        return n * (n - 1)

    def __getitem__(self, index: int) -> str:
        index = operator.index(index)
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("product name index out of range")
        a, b = divmod(index, len(self.keys) - 1)
        return self.prefix(a) + self.keys[b + (b >= a)]

    def __iter__(self) -> Iterator[str]:
        keys = self.keys
        for a in range(len(keys)):
            prefix = self.prefix(a).__add__
            yield from map(prefix, keys[:a])
            yield from map(prefix, keys[a + 1 :])


class ObjectiveRows(Sequence[np.ndarray]):
    """The objective coefficients of a product layer over N cells, one row
    per cell, computed when read: row a is ``flow_cols[products[a]] *
    expo_cols[positions[a]]``, a fresh float64 array whose entry b
    multiplies the product of cells a and b, or cell a's binary when
    ``a == b``. ``flow_cols`` and ``expo_cols`` are the ``(n, N)`` flow and
    exposure columns of the cells' products and positions, so each entry is
    the product of the same two doubles as in the ``(N, N)`` table, which is
    never built."""

    __slots__ = ("flow_cols", "expo_cols", "products", "positions")

    def __init__(
        self,
        flow_cols: np.ndarray,
        expo_cols: np.ndarray,
        products: list[int],
        positions: list[int],
    ) -> None:
        self.flow_cols = flow_cols
        self.expo_cols = expo_cols
        self.products = products
        self.positions = positions

    def __len__(self) -> int:
        return len(self.products)

    def __getitem__(self, index: int) -> np.ndarray:
        index = operator.index(index)
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("objective row index out of range")
        return self.flow_cols[self.products[index]] * self.expo_cols[self.positions[index]]

    def __iter__(self) -> Iterator[np.ndarray]:
        return map(
            operator.mul,
            map(self.flow_cols.__getitem__, self.products),
            map(self.expo_cols.__getitem__, self.positions),
        )


class ModelRows:
    """The constraint rows of a model: the ``head`` rows, then the product
    layer's linking and symmetry rows over ``cells``, whose index keys are
    ``keys``. Product rows are not stored: ``_product_rows`` gives them in
    model order as column blocks, for ``write_lp`` and ``validate_solution``
    alike, and the model's ``continuous_names`` spells their variables. Empty
    rows (a singleton group's own row) are counted but never written."""

    __slots__ = ("head", "cells", "keys")

    def __init__(
        self, head: tuple[Row, ...], cells: list[tuple[int, int]], keys: list[str]
    ) -> None:
        self.head = head
        self.cells = cells
        self.keys = keys

    def __len__(self) -> int:
        # one li row per (position, cell), one lk row per (product, cell),
        # one sym row per unordered cell pair
        n = len(self.cells)
        groups = len({k for _, k in self.cells}) + len({i for i, _ in self.cells})
        return len(self.head) + groups * n + n * (n - 1) // 2


@dataclass
class LinearModel:
    """Variable registry, constraint rows and objective of one linearized
    instance. All orderings are deterministic functions of the instance.

    ``continuous_names`` spells the product layer's names over its N cells.
    ``objective`` holds the objective's coefficients over those cells as N
    rows of length N (``ObjectiveRows`` in every built model): entry b of
    row a multiplies the product of cells a and b, or the binary of cell a
    when ``a == b``. Its readers take the nonzero terms one row at a time,
    so any sequence of such rows serves, an ``(N, N)`` array included."""

    tag: str
    binary_names: tuple[str, ...]
    fixed_zero: tuple[str, ...]
    continuous_names: ProductNames
    objective: Sequence[np.ndarray]
    constraints: ModelRows


@dataclass(frozen=True)
class ExternalSolution:
    """Variable values parsed from a solver's solution file."""

    values: dict[str, float]
    reported_objective: float | None


@dataclass
class SolutionReport:
    """Outcome of validating an external solution: reconstructed assignment,
    constraint residuals and the linear-versus-quadratic objective gap."""

    feasible: bool
    violations: tuple[str, ...]
    assignment: Assignment | None
    linear_objective: float
    quadratic_objective: float | None
    objective_gap: float | None
    reported_objective: float | None
    max_constraint_violation: float


def variable_name(prefix: str, *indices: int) -> str:
    return prefix + "_" + "_".join(str(i) for i in indices)


def _product_families(instance: QapInstance) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Category-style grouping of a tactical instance: aligned (member
    product indices, slot position indices) pairs, dummies as singletons:
    check-in, the blocks, check-out."""
    check_in, check_out = (
        [((instance.product_index(pid),), (instance.position_index(pos),))]
        if pid in instance.product_ids else []
        for pid, pos in DOOR_PINS.items()
    )
    return check_in + [
        (
            tuple(instance.product_index(p) for p in blk.product_ids),
            tuple(instance.position_index(k) for k in blk.position_ids),
        )
        for blk in instance.blocks
    ] + check_out


def _layer_names(cells: list[tuple[int, int]], bvar: str, wvar: str) -> ProductNames:
    """The names of a product layer over ``cells``, binaries ``bvar`` and
    products ``wvar``; equal to ``variable_name`` on the same indices. Each
    cell's index key is formatted once, not once per pair."""
    return ProductNames([f"{i}_{k}" for i, k in cells], f"{bvar}_", f"{wvar}_")


def _product_rows(cells: list[tuple[int, int]], keys: list[str]) -> Iterator[ProductBlock]:
    """The product layer's rows in model order as column blocks over the
    cells and their index ``keys``: a block per li group (the cells at one
    position, ascending), a block per lk group (the cells of one product,
    ascending), then a symmetry block per cell a.

    Row (group G, cell b) sums the products of every cell a of G with b and
    subtracts b's binary: its plus columns are G's cells. The diagonal
    product a == b is b's binary itself, so when b lies in G the two cancel
    and neither term is written (``own``); a singleton group's own row is
    empty. Symmetry row (a, b), a < b, equates the product of a with b and
    the product of b with a."""
    by_position: dict[int, list[int]] = {}
    by_product: dict[int, list[int]] = {}
    for a, (i, k) in enumerate(cells):
        by_position.setdefault(k, []).append(a)
        by_product.setdefault(i, []).append(a)
    every = range(len(cells))
    for prefix, groups in (("li_", by_position), ("lk_", by_product)):
        for g in sorted(groups):
            group = groups[g]
            yield f"{prefix}{g}_", every, group, None, group
    for a, key_a in enumerate(keys):
        yield f"sym_{key_a}_", every[a + 1 :], [a], a, ()


def _cells(elig: np.ndarray, sparsify: bool) -> list[tuple[int, int]]:
    """Row-major eligible cells of ``elig``, or all n^2 cells in full mode."""
    n = len(elig)
    return [(i, k) for i in range(n) for k in range(n) if not sparsify or elig[i, k]]


def _assignment_layer(
    elig: np.ndarray, binary: dict[tuple[int, int], str]
) -> tuple[tuple[str, ...], list[Row]]:
    """Fixed-to-zero binaries and one-to-one assignment rows of the binary
    layer ``binary`` (its row-major cells and their names). Eligibility
    enters as the cell set when sparsified and as zero bounds on the
    excluded binaries in full mode; a sparsified layer excludes none."""
    n = len(elig)
    fixed = tuple(name for (i, k), name in binary.items() if not elig[i, k])
    by_product: list[list[str]] = [[] for _ in range(n)]
    by_position: list[list[str]] = [[] for _ in range(n)]
    for (i, k), name in binary.items():
        by_product[i].append(name)
        by_position[k].append(name)
    rows = [(f"asg_p_{i}", tuple(plus), None, 1) for i, plus in enumerate(by_product)]
    rows += [(f"asg_k_{k}", tuple(plus), None, 1) for k, plus in enumerate(by_position)]
    return fixed, rows


def _family_rows(
    members: Sequence[tuple[int, ...]],
    slots: Sequence[tuple[int, ...]],
    binary: dict[tuple[int, int], str],
    coupling: Callable[[int, int], tuple[str | None, int]],
) -> list[Row]:
    """Family rows over the binary layer ``binary`` (cells and their names):
    for every (member family fi, slot family fk) pair, each member of fi sums
    its binaries over fk's slots, and each slot of fk sums its binaries over
    fi's members. ``coupling(fi, fk)`` gives the pair's -1 term (a name or
    None), shared by each of its rows, and their right-hand side. A row with
    no terms and a zero right-hand side is dropped."""
    rows: list[Row] = []
    for fi, mem in enumerate(members):
        for fk, slt in enumerate(slots):
            minus, rhs = coupling(fi, fk)
            for i1 in mem:
                plus = tuple(binary[i1, k1] for k1 in slt if (i1, k1) in binary)
                if plus or minus is not None or rhs:
                    rows.append((f"grp_p_{fi}_{fk}_{i1}", plus, minus, rhs))
            for k1 in slt:
                plus = tuple(binary[i1, k1] for i1 in mem if (i1, k1) in binary)
                if plus or minus is not None or rhs:
                    rows.append((f"grp_k_{fi}_{fk}_{k1}", plus, minus, rhs))
    return rows


def _diagonal(cells: list[tuple[int, int]], names: ProductNames) -> dict[tuple[int, int], str]:
    """Each cell's binary: the diagonal of the layer's name table."""
    return dict(zip(cells, map(names.binary.__add__, names.keys)))


def _model(
    tag: str,
    lead_binaries: tuple[str, ...],
    fixed: tuple[str, ...],
    head: list[Row],
    binary: dict[tuple[int, int], str],
    names: ProductNames,
    flow: np.ndarray,
    expo: np.ndarray,
) -> LinearModel:
    """The model of ``head`` rows over ``lead_binaries`` and the binary layer
    ``binary`` (its cells and their names), completed by the product layer
    over those cells, named by ``names``. The objective coefficient of cells
    a and b is flow[i1, i2] * expo[k1, k2]."""
    cells = list(binary)
    products, positions = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    objective = ObjectiveRows(
        flow.take(products, axis=1),
        expo.take(positions, axis=1),
        products.tolist(),
        positions.tolist(),
    )
    return LinearModel(
        tag=tag,
        binary_names=lead_binaries + tuple(binary.values()),
        fixed_zero=fixed,
        continuous_names=names,
        objective=objective,
        constraints=ModelRows(tuple(head), cells, names.keys),
    )


def linearize(instance: QapInstance, sparsify: bool = False) -> LinearModel:
    """Linearized MILP of a strategic or tactical instance.

    Full index ranges are the default, matching the sum domains of the
    source formulation; ``sparsify`` restricts variables to eligible cells
    (and drops rows that become vacuous), shrinking tactical models from
    quartic in n to quartic in the largest block size.
    """
    bvar, wvar = ("x", "w") if instance.level == LEVEL1 else ("z", "y")
    cells = _cells(instance.eligibility, sparsify)
    names = _layer_names(cells, bvar, wvar)
    binary = _diagonal(cells, names)
    if instance.level == LEVEL1:
        fixed, head = _assignment_layer(instance.eligibility, binary)
    else:
        # Tactical family rows: for every (category family, location family)
        # pair, each member must occupy that family's slots exactly when the
        # families are matched, and each slot must be filled from the
        # category exactly when matched. Unmatched pairs force zeros.
        fixed = ()
        members, slots = zip(*_product_families(instance))
        head = _family_rows(
            members, slots, binary, lambda fi, fk: (None, 1 if fi == fk else 0)
        )
    return _model(
        instance.level, (), fixed, head, binary, names, instance.flow, instance.exposure
    )


def linearize_integrated(
    exposures: ExposureMatrices,
    transitions: TransitionMatrices,
    eligibility,
    catalog: Catalog,
    graph: StoreGraph,
    sparsify: bool = False,
) -> LinearModel:
    """Joint strategic-plus-tactical MILP: strategic binaries x with
    one-to-one and eligibility rows, tactical binaries z coupled to x
    through per-family sum rows, and the z-product linearization."""
    cat_axis = transitions.cat_axis
    loc_axis = exposures.loc_axis
    sub_axis = transitions.sub_axis
    slot_axis = exposures.sub_axis
    if len(cat_axis) != len(loc_axis):
        raise InputError("category and location axes differ in length")
    if len(sub_axis) != len(slot_axis):
        raise InputError("subcategory and sublocation axes differ in length")
    n = len(sub_axis)
    cat_elig = _eligibility_matrix(cat_axis, loc_axis, eligibility)

    sub_index = {pid: i for i, pid in enumerate(sub_axis)}
    slot_index = {pid: k for k, pid in enumerate(slot_axis)}
    members = [tuple(sub_index[s] for s in catalog.subcategories_of(cid)) for cid in cat_axis]
    slots = [
        (slot_index[kid],)
        if kid in DOOR_PINS.values()
        else tuple(slot_index[s] for s in graph.location_by_id(kid).sublocation_ids)
        for kid in loc_axis
    ]

    # Tactical cell (i1, k1) is reachable only when some eligible (i, k)
    # links its category to its location.
    sub_ok = np.zeros((n, n), dtype=bool)
    for ci, ki in zip(*np.nonzero(cat_elig)):
        sub_ok[np.ix_(members[ci], slots[ki])] = True
    x_binary = {cell: variable_name("x", *cell) for cell in _cells(cat_elig, sparsify)}
    fixed, head = _assignment_layer(cat_elig, x_binary)
    cells = _cells(sub_ok, sparsify)
    names = _layer_names(cells, "z", "y")
    binary = _diagonal(cells, names)
    head += _family_rows(members, slots, binary, lambda ci, ki: (x_binary.get((ci, ki)), 0))
    return _model(
        INTEGRATED, tuple(x_binary.values()), fixed, head, binary, names,
        transitions.sub_transitions, exposures.sub_exposure,
    )


# -- LP-format emission -------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(value, ".12g")


class _SignedText(dict):
    """``+ c `` or ``- c `` of each coefficient c, formatted on first use:
    an objective holds few distinct coefficients over many terms."""

    def __missing__(self, coeff: float) -> str:
        text = self[coeff] = f"{'- ' if coeff < 0 else '+ '}{abs(coeff):.12g} "
        return text


def _write_objective(write: Callable[[str], object], model: LinearModel) -> None:
    """The objective line: each nonzero term as ``+ c name`` or ``- c name``,
    six per line, continuation lines indented one space, the first term's
    sign folded into ``c name`` or ``-c name``; ``0`` times the first binary
    when no term is nonzero. Written one objective row at a time, each row
    read once: each term is joined from its separator, its coefficient's
    text, the row's name prefix and the column's key, so no term string is
    built."""
    names = model.continuous_names
    signed = _SignedText()
    count = 0  # terms written so far; every sixth term starts a line
    for a, coeffs in enumerate(model.objective):
        cols = np.flatnonzero(coeffs)
        if not cols.size:
            continue
        seps = [" "] * len(cols)
        breaks = range(-count % 6, len(cols), 6)
        seps[breaks.start :: 6] = ["\n "] * len(breaks)
        heads = [names.prefix(a)] * len(cols)
        if coeffs[a]:
            # the diagonal term is cell a's binary
            heads[int(np.searchsorted(cols, a))] = names.binary
        text = "".join(
            chain.from_iterable(
                zip(
                    seps,
                    map(signed.__getitem__, coeffs[cols].tolist()),
                    heads,
                    map(names.keys.__getitem__, cols.tolist()),
                )
            )
        )
        if not count:
            # the first term opens the line: no separator, its sign folded
            text = (" obj: " if text[2] == "+" else " obj: -") + text[4:]
        write(text)
        count += len(cols)
    if not count:
        write(f" obj: 0 {model.binary_names[0]}")
    write("\n")


def _terms_text(plus: Sequence[str], minus: str | None) -> str:
    """LP text of the terms of sum(plus) - minus: ``+ 1 name`` per +1 term,
    ``- 1 name`` last, six per line, continuation lines indented two
    spaces, the first sign folded into ``1 name`` or ``-1 name``."""
    if not plus:
        return "-1 " + minus
    text = "1 " + "\n  + 1 ".join(
        " + 1 ".join(plus[start : start + 6]) for start in range(0, len(plus), 6)
    )
    if minus is None:
        return text
    if len(plus) % 6:
        return f"{text} - 1 {minus}"
    return f"{text}\n  - 1 {minus}"


# A placeholder key: a product row's text, with each name spelled around
# this in place of the row's own cell key, cut at it leaves the pieces that
# the row's key joins. No key holds it.
_SLOT = "\0"


def _block_text(block: ProductBlock, names: ProductNames) -> str:
    """LP text of a product block's written rows. Every name in a row (the
    row's own, each +1 term and the -1 term) is spelled around the row's
    cell key, so a row is its key joining the pieces of ``_terms_text``'s
    layout of the row cut at a placeholder key; an own row leaves out its
    column and the -1 term, and an empty one is not written."""
    head, rows, plus, minus, own = block
    keys = names.keys
    terms = [names.prefix(a) + _SLOT for a in plus]
    last = names.binary + _SLOT if minus is None else f"{names.product}{_SLOT}_{keys[minus]}"

    def pieces(row_plus: list[str], row_minus: str | None) -> list[str]:
        return f" {head}{_SLOT}: {_terms_text(row_plus, row_minus)} = 0\n".split(_SLOT)

    regular = pieces(terms, last)
    parts: list[str] = []
    start = rows.start
    for j, b in enumerate(own):
        parts += map(str.join, keys[start:b], repeat(regular))
        if len(terms) > 1:
            parts.append(keys[b].join(pieces(terms[:j] + terms[j + 1 :], None)))
        start = b + 1
    parts += map(str.join, keys[start : rows.stop], repeat(regular))
    return "".join(parts)


def write_lp(model: LinearModel, path: str) -> None:
    """Emit the model as an LP-format file: Maximize / Subject To / Bounds /
    Binaries / End. Byte-identical output for identical models. Rows are
    written as soon as they are formatted, one string per block, so the text
    is never held whole."""
    rows = model.constraints
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        write(f"\\ {model.tag} exposure maximization model\nMaximize\n")
        _write_objective(write, model)
        write("Subject To\n")
        equals = (" = 0\n", " = 1\n")
        write(
            "".join(
                f" {name}: {_terms_text(plus, minus)}{equals[rhs]}"
                for name, plus, minus, rhs in rows.head
                if plus or minus is not None
            )
        )
        for block in _product_rows(rows.cells, rows.keys):
            write(_block_text(block, model.continuous_names))
        write("Bounds\n")
        for name in model.fixed_zero:
            write(f" {name} = 0\n")
        write("Binaries\n")
        names = model.binary_names
        for start in range(0, len(names), 8):
            write(" " + " ".join(names[start : start + 8]) + "\n")
        write("End\n")


def parse_solution_file(path: str) -> ExternalSolution:
    """Read a solver solution file: one ``name value`` pair per line,
    ``#`` comments ignored, optional ``# Objective value = X`` header. The
    file is UTF-8 text, with or without a byte-order mark."""
    values: dict[str, float] = {}
    reported: float | None = None
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line.lstrip("#").strip()
                    if body.lower().startswith("objective value"):
                        _, _, tail = body.partition("=")
                        try:
                            reported = float(tail.strip())
                        except ValueError:
                            raise ParseError(
                                "bad objective value", path=path, line=lineno
                            ) from None
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ParseError(
                        f"expected 'name value', got {len(parts)} fields", path=path, line=lineno
                    )
                name = parts[0]
                if name in values:
                    first = _first_line_of(path, name)
                    raise ParseError(
                        f"variable {name!r} is listed twice, on lines {first} and {lineno}",
                        path=path,
                        line=lineno,
                    )
                try:
                    values[name] = float(parts[1])
                except ValueError:
                    raise ParseError(f"bad value for {name!r}", path=path, line=lineno) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    return ExternalSolution(values=values, reported_objective=reported)


def _first_line_of(path: str, name: str) -> int:
    """The number of the first line of a solution file that gives ``name`` a
    value; a comment line starts with ``#``, which no name does. Opened as
    ``parse_solution_file`` opens it, so a byte-order mark is no part of the
    first line's name."""
    with open(path, encoding="utf-8-sig") as fh:
        return next(lineno for lineno, raw in enumerate(fh, start=1) if raw.split()[:1] == [name])


def _value_table(model: LinearModel, values: dict[str, float]) -> np.ndarray:
    """The values of the product layer's names as an (N, N) table laid out
    as the objective's rows: cell a's binary at [a, a] and the product of
    cells a and b at [a, b], a missing name read as 0. Read one table row at
    a time, from names spelled for that row."""
    get = values.get
    zeros = repeat(0.0)
    keys = model.constraints.keys
    names = model.continuous_names
    table = np.empty((len(keys), len(keys)))
    for a, row in enumerate(table):
        row[:] = np.fromiter(map(get, map(names.prefix(a).__add__, keys), zeros), float, len(keys))
        row[a] = get(names.binary + keys[a], 0.0)
    return table


def _objective_value(model: LinearModel, table: np.ndarray) -> float:
    """The objective at the value table ``table`` (``_value_table``): each
    objective row's nonzero coefficients times the same row of values, in
    row-major cell order, added by one running sum over all rows."""

    def row_terms(coeffs: np.ndarray, values: np.ndarray) -> Iterator[float]:
        cols = np.flatnonzero(coeffs)
        return map(operator.mul, coeffs[cols].tolist(), values[cols].tolist())

    return float(sum(chain.from_iterable(map(row_terms, model.objective, table))))


def validate_solution(
    instance: QapInstance, model: LinearModel, solution: ExternalSolution
) -> SolutionReport:
    """Check an external solution: binary integrality, constraint residuals
    and variable bounds within ``TOLERANCE``, then reconstruct the assignment
    from the active binaries of the product layer's cells, verify
    feasibility, and compare linear against quadratic objective."""
    values = solution.values
    missing = [name for name in model.binary_names if name not in values]
    if missing:
        raise ValidationError(
            f"solution is missing {len(missing)} binary variables, first: {missing[0]}"
        )
    violations: list[str] = []
    worst = 0.0

    def flagged(amounts: np.ndarray) -> list[int]:
        # every amount counts toward the worst, as max(worst, amount) taken
        # one by one would; the indices of those past the tolerance (or NaN)
        # are returned, so only a violation is formatted
        nonlocal worst
        above = amounts[amounts > worst]
        if above.size:
            worst = float(above.max())
        return np.flatnonzero(~(amounts <= TOLERANCE)).tolist()

    get = values.get
    zeros = repeat(0.0)
    table = _value_table(model, values)

    def read(names: Sequence[str]) -> np.ndarray:
        return np.fromiter(map(get, names, zeros), dtype=float, count=len(names))

    bounds = (
        (model.binary_names, read(model.binary_names), lambda v: np.abs(v - np.round(v))),
        (model.fixed_zero, read(model.fixed_zero), np.abs),
    )
    templates = (
        "binary {} = {} is not integral",
        "fixed variable {} = {} violates its zero bound",
    )
    for (names, v, amounts), template in zip(bounds, templates):
        with np.errstate(invalid="ignore"):  # an infinite binary is NaN off integral
            off = amounts(v)
        for j in flagged(off):
            violations.append(template.format(names[j], _fmt(float(v[j]))))
    # the continuous values are the table's off its diagonal, row-major:
    # each table row is checked where it lies, its diagonal binary left out
    products = model.continuous_names
    for a, row in enumerate(table):
        below = np.negative(row)
        below[a] = 0.0
        for b in flagged(below):
            name = products.prefix(a) + products.keys[b]
            violations.append(f"continuous {name} = {_fmt(float(row[b]))} is negative")
    rows = model.constraints
    # -v is -1.0 * v: each row sums, with Python's sum, the terms in order
    # that a sum of (coefficient * value) products would; the float start
    # keeps an empty row's residual a float
    residuals = [
        sum(chain(map(get, plus, zeros), () if minus is None else (-get(minus, 0.0),)), 0.0)
        - rhs
        for _, plus, minus, rhs in rows.head
    ]
    for j in flagged(np.abs(residuals)):
        violations.append(f"constraint {rows.head[j][0]} residual {_fmt(residuals[j])}")
    # a product row is summed the same way, its terms read off the value
    # table: plus cell a's term in row b is [a, b], the -1 term is the
    # diagonal or the minus cell's column; an own row leaves out its own
    # column and the -1 term
    keys = rows.keys
    diagonal = table.diagonal()
    for head, span, plus, minus, own in _product_rows(rows.cells, keys):
        cols = slice(span.start, span.stop)
        last = diagonal[cols] if minus is None else table[cols, minus]
        terms = np.vstack((table[plus, cols], -last)).T.tolist()
        residuals = np.fromiter(map(sum, terms, zeros), float, len(terms))
        for j, b in enumerate(own):
            row = terms[b - span.start]
            residuals[b - span.start] = sum(row[:j] + row[j + 1 : -1], 0.0)
        for j in flagged(np.abs(residuals)):
            violations.append(
                f"constraint {head}{keys[span[j]]} residual {_fmt(float(residuals[j]))}"
            )

    # the assignment binaries are the product layer's: the table's diagonal
    mapping: dict[str, str] = {}
    duplicates = False
    for a in np.flatnonzero(diagonal > 0.5).tolist():
        i, k = rows.cells[a]
        pid = instance.product_ids[i]
        if pid in mapping:
            duplicates = True
        mapping[pid] = instance.position_ids[k]
    assignment = Assignment.from_mapping(mapping) if mapping else None
    quadratic = None
    if assignment is not None and not duplicates:
        report = check_feasible(instance, assignment)
        if report.ok:
            quadratic = objective_of_permutation(instance, instance.permutation_of(assignment))
        else:
            violations.extend(report.violations)
    elif duplicates:
        violations.append("a product carries two active assignment binaries")

    linear = _objective_value(model, table)
    gap = abs(linear - quadratic) if quadratic is not None else None
    return SolutionReport(
        feasible=not violations,
        violations=tuple(violations),
        assignment=assignment,
        linear_objective=linear,
        quadratic_objective=quadratic,
        objective_gap=gap,
        reported_objective=solution.reported_objective,
        max_constraint_violation=worst,
    )
