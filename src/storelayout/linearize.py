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
``LinearModel`` by ``_model``. Every binary and product name of a layer comes
from one table (``_cell_names``; the binaries are its diagonal), and the
objective is the coefficient table of the same shape beside it. Every row
is an equation of +1 terms, at most one -1 term and a right-hand side of 0 or
1 (``Row``). The product layer's rows are described, not stored:
``_product_rows`` generates them from the cells and the name table, and
``_row_blocks`` streams every row of a model, for ``write_lp`` and
``validate_solution`` alike.
"""

from __future__ import annotations

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
# is 0 or 1. Every row of the three models has this shape. Head rows hold
# variable names; ``_row_blocks`` reads each +1 term through a caller's
# function of its name.
Row = tuple[str, Sequence, "str | None", int]


class ModelRows:
    """The constraint rows of a model: the ``head`` rows, then the product
    layer's linking and symmetry rows over ``cells``, named from their
    ``_cell_names`` table ``names``. Product rows are not stored:
    ``_row_blocks`` generates every row in model order, for ``write_lp`` and
    ``validate_solution`` alike. Empty rows (a singleton group's own column)
    are counted but never written."""

    __slots__ = ("head", "cells", "names")

    def __init__(
        self,
        head: tuple[Row, ...],
        cells: list[tuple[int, int]],
        names: list[list[str]],
    ) -> None:
        self.head = head
        self.cells = cells
        self.names = names

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

    ``objective`` is the ``(N, N)`` coefficient table over the product
    layer's N cells: ``objective[a, b]`` multiplies the variable
    ``constraints.names[a][b]``, the binary of cell a when ``a == b``.
    ``_objective_terms`` reads its nonzero terms."""

    tag: str
    binary_names: tuple[str, ...]
    fixed_zero: tuple[str, ...]
    continuous_names: tuple[str, ...]
    objective: np.ndarray
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


def _cell_names(cells: list[tuple[int, int]], bvar: str, wvar: str) -> list[list[str]]:
    """Name table of a cell list: ``names[a][b]`` is the product variable of
    cells a and b, or the binary of cell a when ``a == b`` (x^2 = x). Equal to
    ``variable_name`` on the same indices; each cell's index key is formatted
    once, not once per pair, and every model part takes its names from this
    one table."""
    keys = [f"{i}_{k}" for i, k in cells]
    names: list[list[str]] = []
    for a, key_a in enumerate(keys):
        row = [f"{wvar}_{key_a}_{key_b}" for key_b in keys]
        row[a] = f"{bvar}_{key_a}"
        names.append(row)
    return names


def _product_rows(
    cells: list[tuple[int, int]], names: list[list[str]], plus: list[list]
) -> Iterator[list[Row]]:
    """The product layer's rows in model order, one block at a time: a block
    per li group (the cells at one position, ascending), a block per lk group
    (the cells of one product, ascending), then a symmetry block per cell a.
    The +1 terms of a row are entries of ``plus``, any per-cell-pair table on
    ``names`` (the names themselves or values); its -1 term is a name, and its
    right-hand side is 0.

    Row (group G, cell b) sums the products of b with every cell a of G and
    subtracts b's binary. The diagonal product a == b is b's binary itself, so
    when b lies in G the two cancel and neither term is written; a singleton
    group's own row is empty. Symmetry row (a, b), a < b, equates the product
    of a with b and the product of b with a."""
    keys = [f"{i}_{k}" for i, k in cells]
    by_position: dict[int, list[int]] = {}
    by_product: dict[int, list[int]] = {}
    for a, (i, k) in enumerate(cells):
        by_position.setdefault(k, []).append(a)
        by_product.setdefault(i, []).append(a)
    binaries = [row[b] for b, row in enumerate(names)]
    for prefix, groups in (("li", by_position), ("lk", by_product)):
        for g in sorted(groups):
            group = groups[g]
            head = f"{prefix}_{g}_"
            # column b holds the group's +1 terms with cell b
            columns = zip(*(plus[a] for a in group))
            block = [
                (head + key_b, column, binary, 0)
                for key_b, column, binary in zip(keys, columns, binaries)
            ]
            for j, b in enumerate(group):
                name, column, _, _ = block[b]
                block[b] = (name, column[:j] + column[j + 1 :], None, 0)
            yield block
    for a, key_a in enumerate(keys):
        head = f"sym_{key_a}_"
        yield [
            (head + key_b, (term,), row_b[a], 0)
            for key_b, term, row_b in zip(keys[a + 1 :], plus[a][a + 1 :], names[a + 1 :])
        ]


def _row_blocks(
    rows: ModelRows, terms: Callable[[Sequence[str]], Sequence]
) -> Iterator[list[Row]]:
    """Every row of ``rows`` in model order, one block at a time: the head
    rows, then the product layer's blocks. ``terms`` maps variable names to
    their +1 terms (the names for the writer, values for the validator);
    each -1 term stays a name."""
    yield [(name, terms(plus), minus, rhs) for name, plus, minus, rhs in rows.head]
    yield from _product_rows(rows.cells, rows.names, [terms(row) for row in rows.names])


def _objective_terms(model: LinearModel) -> Iterator[tuple[str, float]]:
    """The objective's nonzero terms ``(name, coeff)`` in row-major cell
    order, each name read off the name table beside the coefficient table.
    One table row is read at a time, so the terms are never held whole."""
    for coeffs, names in zip(model.objective, model.constraints.names):
        cols = np.flatnonzero(coeffs)
        for b, coeff in zip(cols.tolist(), coeffs[cols].tolist()):
            yield names[b], coeff


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


def _diagonal(cells: list[tuple[int, int]], names: list[list[str]]) -> dict[tuple[int, int], str]:
    """Each cell's binary, read off the diagonal of its ``_cell_names`` table."""
    return {cell: names[a][a] for a, cell in enumerate(cells)}


def _model(
    tag: str,
    lead_binaries: tuple[str, ...],
    fixed: tuple[str, ...],
    head: list[Row],
    cells: list[tuple[int, int]],
    names: list[list[str]],
    flow: np.ndarray,
    expo: np.ndarray,
) -> LinearModel:
    """The model of ``head`` rows over ``lead_binaries`` and the binaries of
    ``cells``, completed by the product layer over ``cells``; every name
    past the lead binaries comes from the ``_cell_names`` table ``names``.
    The objective coefficient of cells a and b is flow[i1, i2] * expo[k1, k2]."""
    products, positions = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    return LinearModel(
        tag=tag,
        binary_names=lead_binaries + tuple(row[a] for a, row in enumerate(names)),
        fixed_zero=fixed,
        continuous_names=tuple(
            chain.from_iterable(row[:a] + row[a + 1 :] for a, row in enumerate(names))
        ),
        objective=flow[np.ix_(products, products)] * expo[np.ix_(positions, positions)],
        constraints=ModelRows(tuple(head), cells, names),
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
    names = _cell_names(cells, bvar, wvar)
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
        instance.level, (), fixed, head, cells, names, instance.flow, instance.exposure
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
    names = _cell_names(cells, "z", "y")
    head += _family_rows(
        members,
        slots,
        _diagonal(cells, names),
        lambda ci, ki: (x_binary.get((ci, ki)), 0),
    )
    return _model(
        INTEGRATED, tuple(x_binary.values()), fixed, head, cells, names,
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
    sign folded into ``c name`` or ``-c name``. Written one table row at a
    time, whole lines only, so at most a table row of terms is held."""
    signed = _SignedText()
    pending: list[str] = []
    lead = " obj: "

    def flush(count: int) -> None:
        # write the first ``count`` pending terms as whole lines
        nonlocal lead
        text = "\n ".join(" ".join(pending[start : start + 6]) for start in range(0, count, 6))
        if lead == " obj: ":
            text = text[2:] if text[0] == "+" else "-" + text[2:]
        write(lead + text)
        lead = "\n "
        del pending[:count]

    for coeffs, names in zip(model.objective, model.constraints.names):
        cols = np.flatnonzero(coeffs)
        pending += map(
            str.__add__,
            map(signed.__getitem__, coeffs[cols].tolist()),
            map(names.__getitem__, cols.tolist()),
        )
        if len(pending) >= 6:
            flush(len(pending) - len(pending) % 6)
    if pending:
        flush(len(pending))
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


def write_lp(model: LinearModel, path: str) -> None:
    """Emit the model as an LP-format file: Maximize / Subject To / Bounds /
    Binaries / End. Byte-identical output for identical models. Rows are
    written as soon as they are formatted, one string per row block, straight
    from their variable names, so the text is never held whole."""
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        write(f"\\ {model.tag} exposure maximization model\nMaximize\n")
        if model.objective.any():
            _write_objective(write, model)
        else:
            anchor = model.binary_names[0] if model.binary_names else model.continuous_names[0]
            write(f" obj: 0 {anchor}\n")
        write("Subject To\n")
        # the right-hand side, 0 or 1, as text by lookup, not by formatting
        # each row's number; most rows are one +1 term and one -1 term
        equals = (" = 0\n", " = 1\n")
        for block in _row_blocks(model.constraints, _same):
            write(
                "".join(
                    f" {name}: 1 {plus[0]} - 1 {minus}{equals[rhs]}"
                    if len(plus) == 1 and minus is not None
                    else f" {name}: {_terms_text(plus, minus)}{equals[rhs]}"
                    for name, plus, minus, rhs in block
                    if plus or minus is not None
                )
            )
        write("Bounds\n")
        for name in model.fixed_zero:
            write(f" {name} = 0\n")
        write("Binaries\n")
        names = model.binary_names
        for start in range(0, len(names), 8):
            write(" " + " ".join(names[start : start + 8]) + "\n")
        write("End\n")


def _same(names: Sequence[str]) -> Sequence[str]:
    """The writer's +1 terms: the variable names themselves."""
    return names


def parse_solution_file(path: str) -> ExternalSolution:
    """Read a solver solution file: one ``name value`` pair per line,
    ``#`` comments ignored, optional ``# Objective value = X`` header."""
    values: dict[str, float] = {}
    reported: float | None = None
    with open(path, encoding="utf-8") as fh:
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
                        raise ParseError("bad objective value", path=path, line=lineno) from None
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(
                    f"expected 'name value', got {len(parts)} fields", path=path, line=lineno
                )
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                raise ParseError(f"bad value for {parts[0]!r}", path=path, line=lineno) from None
    return ExternalSolution(values=values, reported_objective=reported)


def evaluate_linear_objective(model: LinearModel, values: dict[str, float]) -> float:
    return float(sum(coeff * values.get(name, 0.0) for name, coeff in _objective_terms(model)))


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
    bounds = (
        (model.binary_names, lambda v: np.abs(v - np.round(v)), "binary {} = {} is not integral"),
        (model.fixed_zero, np.abs, "fixed variable {} = {} violates its zero bound"),
        (model.continuous_names, np.negative, "continuous {} = {} is negative"),
    )
    for names, amounts, template in bounds:
        v = np.fromiter(map(get, names, zeros), dtype=float, count=len(names))
        with np.errstate(invalid="ignore"):  # an infinite binary is NaN off integral
            off = amounts(v)
        for j in flagged(off):
            violations.append(template.format(names[j], _fmt(float(v[j]))))
    for block in _row_blocks(model.constraints, lambda row: list(map(get, row, zeros))):
        # -v is -1.0 * v: each row sums the terms, in order, that a sum of
        # (coefficient * value) products would; the float start keeps an
        # empty row's residual a float
        residuals = [
            sum(plus if minus is None else (*plus, -get(minus, 0.0)), 0.0) - rhs
            for _, plus, minus, rhs in block
        ]
        for j in flagged(np.abs(residuals)):
            violations.append(f"constraint {block[j][0]} residual {_fmt(residuals[j])}")

    # the assignment binaries are the product layer's: cell a's is names[a][a]
    names = model.constraints.names
    mapping: dict[str, str] = {}
    duplicates = False
    for a, (i, k) in enumerate(model.constraints.cells):
        if values[names[a][a]] > 0.5:
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

    linear = evaluate_linear_objective(model, values)
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
