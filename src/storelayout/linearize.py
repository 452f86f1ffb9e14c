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
symmetry rows are emitted once per unordered pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import CHECK_IN, CHECK_OUT, Catalog, TransitionMatrices
from .errors import InputError, ParseError, ValidationError
from .qap import (
    INTEGRATED,
    LEVEL1,
    Assignment,
    QapInstance,
    check_feasible,
    objective_of_permutation,
)
from .store import ENTRANCE_POS, EXIT_POS, ExposureMatrices, StoreGraph


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple[tuple[str, float], ...]
    sense: str
    rhs: float


@dataclass
class LinearModel:
    """Variable registry, constraint rows and objective of one linearized
    instance. All orderings are deterministic functions of the instance."""

    tag: str
    binary_names: tuple[str, ...]
    fixed_zero: tuple[str, ...]
    continuous_names: tuple[str, ...]
    objective: tuple[tuple[str, float], ...]
    constraints: tuple[Constraint, ...]
    sparsified: bool
    assignment_prefix: str
    n: int

    def constraint_count(self, prefix: str) -> int:
        return sum(1 for c in self.constraints if c.name.startswith(prefix))


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


def _prefixes(tag: str) -> tuple[str, str]:
    return ("x", "w") if tag == LEVEL1 else ("z", "y")


def variable_name(prefix: str, *indices: int) -> str:
    return prefix + "_" + "_".join(str(i) for i in indices)


def decode_variable(name: str) -> tuple[str, tuple[int, ...]]:
    """Inverse of variable_name; raises on malformed names."""
    parts = name.split("_")
    if len(parts) < 3 or parts[0] not in ("x", "z", "w", "y"):
        raise InputError(f"not a model variable name: {name!r}")
    try:
        indices = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise InputError(f"non-numeric indices in variable name {name!r}") from None
    want = 2 if parts[0] in ("x", "z") else 4
    if len(indices) != want:
        raise InputError(f"variable {name!r} should carry {want} indices")
    return parts[0], indices


def _product_families(instance: QapInstance) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Category-style grouping of a tactical instance: aligned (member
    product indices, slot position indices) pairs, dummies as singletons."""
    fams: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if CHECK_IN in instance.product_ids:
        fams.append(
            ((instance.product_index(CHECK_IN),), (instance.position_index(ENTRANCE_POS),))
        )
    for blk in instance.blocks:
        fams.append(
            (
                tuple(instance.product_index(p) for p in blk.product_ids),
                tuple(instance.position_index(k) for k in blk.position_ids),
            )
        )
    if CHECK_OUT in instance.product_ids:
        fams.append(
            ((instance.product_index(CHECK_OUT),), (instance.position_index(EXIT_POS),))
        )
    return fams


def _linking_constraints(
    cells: list[tuple[int, int]],
    cell_set: set[tuple[int, int]],
    n: int,
    bvar: str,
    wvar: str,
) -> list[Constraint]:
    """Per-position sums (one row per k1, i2, k2), per-product sums (one row
    per i1, i2, k2), and symmetry once per unordered cell pair. Diagonal
    products are substituted by the binary itself, which can cancel against
    the right-hand binary of the same row."""
    rows: list[Constraint] = []
    by_position: dict[int, list[int]] = {}
    by_product: dict[int, list[int]] = {}
    for i, k in cells:
        by_position.setdefault(k, []).append(i)
        by_product.setdefault(i, []).append(k)

    def row(name: str, terms: dict[str, float]) -> None:
        coeffs = tuple((v, c) for v, c in terms.items() if c != 0.0)
        rows.append(Constraint(name=name, coeffs=coeffs, sense="=", rhs=0.0))

    for k1 in sorted(by_position):
        for i2, k2 in cells:
            terms: dict[str, float] = {}
            for i1 in by_position[k1]:
                if (i1, k1) == (i2, k2):
                    var = variable_name(bvar, i2, k2)
                else:
                    var = variable_name(wvar, i1, k1, i2, k2)
                terms[var] = terms.get(var, 0.0) + 1.0
            target = variable_name(bvar, i2, k2)
            terms[target] = terms.get(target, 0.0) - 1.0
            row(f"li_{k1}_{i2}_{k2}", terms)
    for i1 in sorted(by_product):
        for i2, k2 in cells:
            terms = {}
            for k1 in by_product[i1]:
                if (i1, k1) == (i2, k2):
                    var = variable_name(bvar, i2, k2)
                else:
                    var = variable_name(wvar, i1, k1, i2, k2)
                terms[var] = terms.get(var, 0.0) + 1.0
            target = variable_name(bvar, i2, k2)
            terms[target] = terms.get(target, 0.0) - 1.0
            row(f"lk_{i1}_{i2}_{k2}", terms)
    for a, c1 in enumerate(cells):
        for c2 in cells[a + 1 :]:
            i1, k1 = c1
            i2, k2 = c2
            rows.append(
                Constraint(
                    name=f"sym_{i1}_{k1}_{i2}_{k2}",
                    coeffs=(
                        (variable_name(wvar, i1, k1, i2, k2), 1.0),
                        (variable_name(wvar, i2, k2, i1, k1), -1.0),
                    ),
                    sense="=",
                    rhs=0.0,
                )
            )
    return rows


def _objective_terms(
    cells: list[tuple[int, int]], flow: np.ndarray, expo: np.ndarray, bvar: str, wvar: str
) -> list[tuple[str, float]]:
    terms: list[tuple[str, float]] = []
    for i1, k1 in cells:
        for i2, k2 in cells:
            coeff = float(flow[i1, i2] * expo[k1, k2])
            if coeff == 0.0:
                continue
            if (i1, k1) == (i2, k2):
                terms.append((variable_name(bvar, i1, k1), coeff))
            else:
                terms.append((variable_name(wvar, i1, k1, i2, k2), coeff))
    return terms


def linearize(instance: QapInstance, sparsify: bool = False) -> LinearModel:
    """Linearized MILP of a strategic or tactical instance.

    Full index ranges are the default, matching the sum domains of the
    source formulation; ``sparsify`` restricts variables to eligible cells
    (and drops rows that become vacuous), shrinking tactical models from
    quartic in n to quartic in the largest block size.
    """
    if instance.level == INTEGRATED:
        raise InputError(
            "integrated models carry two coupled variable layers; use linearize_integrated"
        )
    n = instance.n
    bvar, wvar = _prefixes(instance.level)
    full = [(i, k) for i in range(n) for k in range(n)]
    cells = [(i, k) for i, k in full if instance.eligibility[i, k]] if sparsify else full
    cell_set = set(cells)

    binaries = tuple(variable_name(bvar, i, k) for i, k in cells)
    fixed: tuple[str, ...] = ()
    constraints: list[Constraint] = []

    if instance.level == LEVEL1:
        # One-to-one assignment rows; eligibility enters as fixed-to-zero
        # bounds on the excluded binaries in full mode.
        if not sparsify:
            fixed = tuple(
                variable_name(bvar, i, k)
                for i, k in full
                if not instance.eligibility[i, k]
            )
        for i in range(n):
            coeffs = tuple(
                (variable_name(bvar, i, k), 1.0) for k in range(n) if (i, k) in cell_set
            )
            constraints.append(Constraint(f"asg_p_{i}", coeffs, "=", 1.0))
        for k in range(n):
            coeffs = tuple(
                (variable_name(bvar, i, k), 1.0) for i in range(n) if (i, k) in cell_set
            )
            constraints.append(Constraint(f"asg_k_{k}", coeffs, "=", 1.0))
    else:
        # Tactical family rows: for every (category family, location family)
        # pair, each member must occupy that family's slots exactly when the
        # families are matched, and each slot must be filled from the
        # category exactly when matched. Unmatched pairs force zeros.
        fams = _product_families(instance)
        for fi, (members, _) in enumerate(fams):
            for fk, (_, slots) in enumerate(fams):
                rhs = 1.0 if fi == fk else 0.0
                for i1 in members:
                    coeffs = tuple(
                        (variable_name(bvar, i1, k1), 1.0) for k1 in slots if (i1, k1) in cell_set
                    )
                    if not coeffs and rhs == 0.0:
                        continue
                    constraints.append(Constraint(f"grp_p_{fi}_{fk}_{i1}", coeffs, "=", rhs))
                for k1 in slots:
                    coeffs = tuple(
                        (variable_name(bvar, i1, k1), 1.0)
                        for i1 in members
                        if (i1, k1) in cell_set
                    )
                    if not coeffs and rhs == 0.0:
                        continue
                    constraints.append(Constraint(f"grp_k_{fi}_{fk}_{k1}", coeffs, "=", rhs))

    continuous = tuple(
        variable_name(wvar, i1, k1, i2, k2)
        for i1, k1 in cells
        for i2, k2 in cells
        if (i1, k1) != (i2, k2)
    )
    constraints.extend(_linking_constraints(cells, cell_set, n, bvar, wvar))
    objective = _objective_terms(cells, instance.flow, instance.exposure, bvar, wvar)
    return LinearModel(
        tag=instance.level,
        binary_names=binaries,
        fixed_zero=fixed,
        continuous_names=continuous,
        objective=tuple(objective),
        constraints=tuple(constraints),
        sparsified=sparsify,
        assignment_prefix=bvar,
        n=n,
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
    from .qap import _eligibility_matrix  # shared dummy-pinning construction

    cat_axis = transitions.cat_axis
    loc_axis = exposures.loc_axis
    sub_axis = transitions.sub_axis
    slot_axis = exposures.sub_axis
    if len(cat_axis) != len(loc_axis):
        raise InputError("category and location axes differ in length")
    if len(sub_axis) != len(slot_axis):
        raise InputError("subcategory and sublocation axes differ in length")
    m = len(cat_axis)
    n = len(sub_axis)
    cat_elig = _eligibility_matrix(cat_axis, loc_axis, eligibility)

    sub_index = {pid: i for i, pid in enumerate(sub_axis)}
    slot_index = {pid: k for k, pid in enumerate(slot_axis)}
    members: dict[int, tuple[int, ...]] = {}
    slots: dict[int, tuple[int, ...]] = {}
    for ci, cid in enumerate(cat_axis):
        members[ci] = tuple(sub_index[s] for s in catalog.subcategories_of(cid))
    for ki, kid in enumerate(loc_axis):
        if kid == ENTRANCE_POS:
            slots[ki] = (slot_index[ENTRANCE_POS],)
        elif kid == EXIT_POS:
            slots[ki] = (slot_index[EXIT_POS],)
        else:
            slots[ki] = tuple(
                slot_index[s] for s in graph.location_by_id(kid).sublocation_ids
            )

    # Tactical cell (i1, k1) is reachable only when some eligible (i, k)
    # links its category to its location.
    full_sub = [(i, k) for i in range(n) for k in range(n)]
    if sparsify:
        sub_ok = np.zeros((n, n), dtype=bool)
        for ci in range(m):
            for ki in range(m):
                if cat_elig[ci, ki]:
                    sub_ok[np.ix_(members[ci], slots[ki])] = True
        cells = [(i, k) for i, k in full_sub if sub_ok[i, k]]
        x_cells = [(i, k) for i in range(m) for k in range(m) if cat_elig[i, k]]
        fixed: tuple[str, ...] = ()
    else:
        cells = full_sub
        x_cells = [(i, k) for i in range(m) for k in range(m)]
        fixed = tuple(
            variable_name("x", i, k)
            for i in range(m)
            for k in range(m)
            if not cat_elig[i, k]
        )
    cell_set = set(cells)
    x_cell_set = set(x_cells)

    constraints: list[Constraint] = []
    for i in range(m):
        coeffs = tuple((variable_name("x", i, k), 1.0) for k in range(m) if (i, k) in x_cell_set)
        constraints.append(Constraint(f"asg_p_{i}", coeffs, "=", 1.0))
    for k in range(m):
        coeffs = tuple((variable_name("x", i, k), 1.0) for i in range(m) if (i, k) in x_cell_set)
        constraints.append(Constraint(f"asg_k_{k}", coeffs, "=", 1.0))
    for ci in range(m):
        for ki in range(m):
            has_x = (ci, ki) in x_cell_set
            for i1 in members[ci]:
                terms: dict[str, float] = {}
                for k1 in slots[ki]:
                    if (i1, k1) in cell_set:
                        v = variable_name("z", i1, k1)
                        terms[v] = terms.get(v, 0.0) + 1.0
                if has_x:
                    xv = variable_name("x", ci, ki)
                    terms[xv] = terms.get(xv, 0.0) - 1.0
                if terms:
                    coeffs = tuple((v, c) for v, c in terms.items() if c != 0.0)
                    constraints.append(Constraint(f"grp_p_{ci}_{ki}_{i1}", coeffs, "=", 0.0))
            for k1 in slots[ki]:
                terms = {}
                for i1 in members[ci]:
                    if (i1, k1) in cell_set:
                        v = variable_name("z", i1, k1)
                        terms[v] = terms.get(v, 0.0) + 1.0
                if has_x:
                    xv = variable_name("x", ci, ki)
                    terms[xv] = terms.get(xv, 0.0) - 1.0
                if terms:
                    coeffs = tuple((v, c) for v, c in terms.items() if c != 0.0)
                    constraints.append(Constraint(f"grp_k_{ci}_{ki}_{k1}", coeffs, "=", 0.0))

    constraints.extend(_linking_constraints(cells, cell_set, n, "z", "y"))
    binaries = tuple(variable_name("x", i, k) for i, k in x_cells) + tuple(
        variable_name("z", i, k) for i, k in cells
    )
    continuous = tuple(
        variable_name("y", i1, k1, i2, k2)
        for i1, k1 in cells
        for i2, k2 in cells
        if (i1, k1) != (i2, k2)
    )
    objective = _objective_terms(
        cells, transitions.sub_transitions, exposures.sub_exposure, "z", "y"
    )
    return LinearModel(
        tag=INTEGRATED,
        binary_names=binaries,
        fixed_zero=fixed,
        continuous_names=continuous,
        objective=tuple(objective),
        constraints=tuple(constraints),
        sparsified=sparsify,
        assignment_prefix="z",
        n=n,
    )


# -- LP-format emission -------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _expression(terms: tuple[tuple[str, float], ...], indent: str = " ") -> list[str]:
    """Render terms as LP text, a few per line, deterministic."""
    pieces: list[str] = []
    for idx, (name, coeff) in enumerate(terms):
        if idx == 0:
            sign = "-" if coeff < 0 else ""
        else:
            sign = "- " if coeff < 0 else "+ "
        pieces.append(f"{sign}{_fmt(abs(coeff))} {name}")
    lines: list[str] = []
    for start in range(0, len(pieces), 6):
        lines.append(indent + " ".join(pieces[start : start + 6]))
    return lines


def write_lp(model: LinearModel, path: str) -> None:
    """Emit the model as an LP-format file: Maximize / Subject To / Bounds /
    Binaries / End. Byte-identical output for identical models."""
    lines: list[str] = [f"\\ {model.tag} exposure maximization model"]
    lines.append("Maximize")
    if model.objective:
        expr = _expression(model.objective)
        lines.append(" obj: " + expr[0].strip())
        lines.extend(expr[1:])
    else:
        anchor = model.binary_names[0] if model.binary_names else model.continuous_names[0]
        lines.append(f" obj: 0 {anchor}")
    lines.append("Subject To")
    for con in model.constraints:
        if not con.coeffs:
            continue
        expr = _expression(con.coeffs, indent="  ")
        sense = "=" if con.sense == "=" else con.sense
        lines.append(f" {con.name}: " + expr[0].strip())
        lines.extend(expr[1:])
        lines[-1] = lines[-1] + f" {sense} {_fmt(con.rhs)}"
    lines.append("Bounds")
    for name in model.fixed_zero:
        lines.append(f" {name} = 0")
    lines.append("Binaries")
    names = list(model.binary_names)
    for start in range(0, len(names), 8):
        lines.append(" " + " ".join(names[start : start + 8]))
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    return float(sum(coeff * values.get(name, 0.0) for name, coeff in model.objective))


def validate_solution(
    instance: QapInstance,
    model: LinearModel,
    solution: ExternalSolution,
    tolerance: float = 1e-6,
) -> SolutionReport:
    """Check an external solution: binary integrality, constraint residuals
    and variable bounds within tolerance, then reconstruct the assignment,
    verify feasibility, and compare linear against quadratic objective."""
    values = solution.values
    missing = [name for name in model.binary_names if name not in values]
    if missing:
        raise ValidationError(
            f"solution is missing {len(missing)} binary variables, first: {missing[0]}"
        )
    violations: list[str] = []
    worst = 0.0

    def note(amount: float, message: str) -> None:
        nonlocal worst
        worst = max(worst, amount)
        if amount > tolerance:
            violations.append(message)

    for name in model.binary_names:
        v = values[name]
        note(abs(v - round(v)), f"binary {name} = {_fmt(v)} is not integral")
    for name in model.fixed_zero:
        v = values.get(name, 0.0)
        note(abs(v), f"fixed variable {name} = {_fmt(v)} violates its zero bound")
    for name in model.continuous_names:
        v = values.get(name, 0.0)
        note(max(0.0, -v), f"continuous {name} = {_fmt(v)} is negative")
    for con in model.constraints:
        total = sum(coeff * values.get(name, 0.0) for name, coeff in con.coeffs)
        note(abs(total - con.rhs), f"constraint {con.name} residual {_fmt(total - con.rhs)}")

    mapping: dict[str, str] = {}
    duplicates = False
    for name in model.binary_names:
        prefix, idx = decode_variable(name)
        if prefix != model.assignment_prefix:
            continue
        if values[name] > 0.5:
            i, k = idx
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
