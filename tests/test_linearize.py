"""Linearized MILP emission: exactness against the quadratic objective,
constraint-count closed forms, LP text format, and solution validation."""

from __future__ import annotations

import ast
import builtins
import dataclasses
import errno
import hashlib
import itertools
import math
import multiprocessing
import os
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from random import Random

import numpy as np
import pytest

from conftest import (
    catalog_for,
    force_workers,
    line_store,
    random_level1_instance,
    random_level2_instance,
)
from storelayout import linearize as linearize_module
from storelayout.cli import main
from storelayout.demand import expected_transitions, load_transactions, read_transactions_csv
from storelayout.errors import InputError, ParseError, ValidationError
from storelayout.linearize import (
    ExternalSolution,
    LinearModel,
    ModelRows,
    ObjectiveRows,
    ProductNames,
    SolutionReport,
    _family_rows,
    _objective_value,
    _product_rows,
    _value_table,
    linearize,
    linearize_integrated,
    parse_solution_file,
    validate_solution,
    variable_name,
    write_lp,
)
from storelayout.qap import (
    Assignment,
    QapInstance,
    _eligibility_matrix,
    build_level1_instance,
    build_level2_instance,
    check_feasible,
    objective_of_permutation,
)
from storelayout.report import read_plan
from storelayout.solvers import capacity_eligibility
from storelayout.store import build_exposure_matrices
from storelayout.storefile import load_store


def decode_variable(name: str) -> tuple[str, tuple[int, ...]]:
    """Inverse of variable_name, for the witnesses and reference validator
    below that read a variable's indices off its name; raises InputError on a
    malformed name. The package itself never parses a name."""
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


def feasible_perms(instance: QapInstance):
    for perm in itertools.permutations(range(instance.n)):
        if all(instance.eligibility[i, perm[i]] for i in range(instance.n)):
            yield np.array(perm, dtype=np.int64)


def product_solution(model: LinearModel, perm) -> dict[str, float]:
    """Exact witness: binaries from the permutation, products for the
    continuous layer."""
    bvar = "x" if model.tag == "level1" else "z"
    active = {variable_name(bvar, i, int(k)) for i, k in enumerate(perm)}
    values: dict[str, float] = {}
    for name in model.binary_names:
        values[name] = 1.0 if name in active else 0.0
    for name in model.continuous_names:
        _, (i1, k1, i2, k2) = decode_variable(name)
        a = variable_name(bvar, i1, k1)
        b = variable_name(bvar, i2, k2)
        values[name] = values.get(a, 0.0) * values.get(b, 0.0)
    return values


def lp_rows(model: LinearModel) -> list[tuple[str, list[tuple[str, float]], float]]:
    """The rows of ``model``'s LP text, read back as (name, (variable,
    coefficient) terms, right-hand side): an account of the rows that does not
    go through the validator. Empty rows are never written, so they are not
    here."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lp"
        write_lp(model, str(path))
        text = path.read_text(encoding="utf-8")
    body = text.split("\nSubject To\n")[1].split("\nBounds\n")[0]
    lines: list[str] = []
    for line in body.splitlines():
        if line.startswith("  "):  # a continuation line
            lines[-1] += line
        else:
            lines.append(line)
    rows = []
    for line in lines:
        name, _, expr = line.partition(":")
        *tokens, equals, rhs = expr.split()
        assert equals == "="
        terms, sign, at = [], 1.0, 0
        while at < len(tokens):
            if tokens[at] in ("+", "-"):
                sign = 1.0 if tokens[at] == "+" else -1.0
                at += 1
                continue
            terms.append((tokens[at + 1], sign * float(tokens[at])))
            sign, at = 1.0, at + 2
        rows.append((name.strip(), terms, float(rhs)))
    return rows


def linear_objective(instance: QapInstance, model: LinearModel, values: dict[str, float]) -> float:
    """The objective the validator reads at ``values``, which set every
    binary."""
    return validate_solution(instance, model, ExternalSolution(values, None)).linear_objective


def residuals(model: LinearModel, values: dict[str, float]) -> float:
    worst = 0.0
    for _, terms, rhs in lp_rows(model):
        total = sum(c * values.get(name, 0.0) for name, c in terms)
        worst = max(worst, abs(total - rhs))
    return worst


def row_count(model: LinearModel, prefix: str) -> int:
    """Written rows of ``model`` whose name starts with ``prefix``."""
    return sum(1 for name, _, _ in lp_rows(model) if name.startswith(prefix))


def _cell_names(cells: list[tuple[int, int]], bvar: str, wvar: str) -> list[list[str]]:
    """Name table of a cell list: ``names[a][b]`` is the product variable of
    cells a and b, or the binary of cell a when ``a == b`` (x^2 = x). The
    table the package built for every layer before it spelled names from the
    cells' keys; the oracle for the names it spells now."""
    keys = [f"{i}_{k}" for i, k in cells]
    names: list[list[str]] = []
    for a, key_a in enumerate(keys):
        row = [f"{wvar}_{key_a}_{key_b}" for key_b in keys]
        row[a] = f"{bvar}_{key_a}"
        names.append(row)
    return names


def name_table(model: LinearModel) -> list[list[str]]:
    """The oracle name table of ``model``'s product layer."""
    bvar, wvar = ("x", "w") if model.tag == "level1" else ("z", "y")
    return _cell_names(model.constraints.cells, bvar, wvar)


def _objective_terms(model: LinearModel):
    """The objective's nonzero terms ``(name, coeff)`` in row-major cell
    order, each name read off the oracle name table beside the row of
    coefficients: the term-by-term reading of ``model.objective``."""
    for coeffs, names in zip(model.objective, name_table(model)):
        cols = np.flatnonzero(coeffs)
        for b, coeff in zip(cols.tolist(), coeffs[cols].tolist()):
            yield names[b], coeff


def objective_table(
    cells: list[tuple[int, int]], flow: np.ndarray, expo: np.ndarray
) -> np.ndarray:
    """The ``(N, N)`` objective coefficient table of a product layer over
    ``cells``: ``table[a, b]`` is flow[i1, i2] * expo[k1, k2] for cells a =
    (i1, k1) and b = (i2, k2). The table the package built for every model
    before it computed the objective's rows when read; the oracle for
    ``ObjectiveRows``."""
    products, positions = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    table = flow[products][:, products]
    table *= expo[positions][:, positions]
    return table


GOLDEN_2X2 = """\\ level1 exposure maximization model
Maximize
 obj: 1 w_0_0_1_0 + 3 w_0_0_1_1 + 3 w_0_1_1_0 + 1 w_0_1_1_1
Subject To
 asg_p_0: 1 x_0_0 + 1 x_0_1 = 1
 asg_p_1: 1 x_1_0 + 1 x_1_1 = 1
 asg_k_0: 1 x_0_0 + 1 x_1_0 = 1
 asg_k_1: 1 x_0_1 + 1 x_1_1 = 1
 li_0_0_0: 1 w_1_0_0_0 = 0
 li_0_0_1: 1 w_0_0_0_1 + 1 w_1_0_0_1 - 1 x_0_1 = 0
 li_0_1_0: 1 w_0_0_1_0 = 0
 li_0_1_1: 1 w_0_0_1_1 + 1 w_1_0_1_1 - 1 x_1_1 = 0
 li_1_0_0: 1 w_0_1_0_0 + 1 w_1_1_0_0 - 1 x_0_0 = 0
 li_1_0_1: 1 w_1_1_0_1 = 0
 li_1_1_0: 1 w_0_1_1_0 + 1 w_1_1_1_0 - 1 x_1_0 = 0
 li_1_1_1: 1 w_0_1_1_1 = 0
 lk_0_0_0: 1 w_0_1_0_0 = 0
 lk_0_0_1: 1 w_0_0_0_1 = 0
 lk_0_1_0: 1 w_0_0_1_0 + 1 w_0_1_1_0 - 1 x_1_0 = 0
 lk_0_1_1: 1 w_0_0_1_1 + 1 w_0_1_1_1 - 1 x_1_1 = 0
 lk_1_0_0: 1 w_1_0_0_0 + 1 w_1_1_0_0 - 1 x_0_0 = 0
 lk_1_0_1: 1 w_1_0_0_1 + 1 w_1_1_0_1 - 1 x_0_1 = 0
 lk_1_1_0: 1 w_1_1_1_0 = 0
 lk_1_1_1: 1 w_1_0_1_1 = 0
 sym_0_0_0_1: 1 w_0_0_0_1 - 1 w_0_1_0_0 = 0
 sym_0_0_1_0: 1 w_0_0_1_0 - 1 w_1_0_0_0 = 0
 sym_0_0_1_1: 1 w_0_0_1_1 - 1 w_1_1_0_0 = 0
 sym_0_1_1_0: 1 w_0_1_1_0 - 1 w_1_0_0_1 = 0
 sym_0_1_1_1: 1 w_0_1_1_1 - 1 w_1_1_0_1 = 0
 sym_1_0_1_1: 1 w_1_0_1_1 - 1 w_1_1_1_0 = 0
Bounds
 x_0_1 = 0
 x_1_0 = 0
Binaries
 x_0_0 x_0_1 x_1_0 x_1_1
End
"""


def toy_2x2() -> QapInstance:
    return QapInstance(
        level="level1",
        product_ids=("check-in", "check-out"),
        position_ids=("entrance", "exit"),
        flow=np.array([[0.0, 1.0], [0.0, 0.0]]),
        exposure=np.array([[1.0, 3.0], [3.0, 1.0]]),
        eligibility=np.eye(2, dtype=bool),
    )


class TestVariableNames:
    def test_round_trip(self):
        assert decode_variable(variable_name("x", 3, 7)) == ("x", (3, 7))
        assert decode_variable(variable_name("w", 1, 2, 3, 4)) == ("w", (1, 2, 3, 4))
        assert decode_variable(variable_name("y", 0, 0, 0, 1)) == ("y", (0, 0, 0, 1))

    def test_malformed_names_rejected(self):
        for bad in ("q_1_2", "x_1", "w_1_2_3", "x_a_b", "x", "w_1_2_3_4_5"):
            with pytest.raises(InputError):
                decode_variable(bad)


class TestExactness:
    def test_level1_products_reproduce_quadratic(self):
        rng = Random(101)
        for trial in range(15):
            inst = random_level1_instance(rng, rng.randint(2, 4))
            for sparsify in (False, True):
                model = linearize(inst, sparsify=sparsify)
                for perm in feasible_perms(inst):
                    values = product_solution(model, perm)
                    want = objective_of_permutation(inst, perm)
                    got = linear_objective(inst, model, values)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                    assert residuals(model, values) <= 1e-12

    def test_level2_products_reproduce_quadratic(self):
        rng = Random(103)
        for trial in range(10):
            inst = random_level2_instance(rng, (2, rng.randint(1, 3)))
            for sparsify in (False, True):
                model = linearize(inst, sparsify=sparsify)
                for perm in feasible_perms(inst):
                    values = product_solution(model, perm)
                    want = objective_of_permutation(inst, perm)
                    got = linear_objective(inst, model, values)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                    assert residuals(model, values) <= 1e-12

    def test_diagonal_terms_live_on_binaries(self):
        # standing exposure times self-flow must appear even though the
        # diagonal continuous variables are identified away
        inst = toy_2x2()
        inst = QapInstance(
            level="level1",
            product_ids=inst.product_ids,
            position_ids=inst.position_ids,
            flow=np.array([[2.0, 1.0], [0.0, 5.0]]),
            exposure=inst.exposure,
            eligibility=inst.eligibility,
        )
        model = linearize(inst)
        byname = dict(_objective_terms(model))
        assert byname.get("x_0_0") == 2.0  # flow[0,0] * exposure[0,0]
        assert byname.get("x_1_1") == 5.0
        perm = np.array([0, 1])
        values = product_solution(model, perm)
        assert linear_objective(inst, model, values) == pytest.approx(
            objective_of_permutation(inst, perm)
        )


class TestConstraintCounts:
    def test_full_mode_closed_forms(self):
        rng = Random(107)
        inst = random_level1_instance(rng, 3)
        n = inst.n
        model = linearize(inst)
        assert len(model.binary_names) == n * n
        assert len(model.continuous_names) == n * n * (n * n - 1)
        assert row_count(model, "li_") == n ** 3
        assert row_count(model, "lk_") == n ** 3
        assert row_count(model, "sym_") == (n * n) * (n * n - 1) // 2
        assert row_count(model, "asg_p_") == n
        assert row_count(model, "asg_k_") == n

    def test_sparsify_shrinks_restricted_models(self):
        rng = Random(109)
        inst = random_level2_instance(rng, (2, 2))
        full = linearize(inst, sparsify=False)
        sparse = linearize(inst, sparsify=True)
        assert len(sparse.binary_names) < len(full.binary_names)
        assert len(sparse.continuous_names) < len(full.continuous_names)
        assert len(sparse.constraints) < len(full.constraints)
        assert sparse.fixed_zero == ()

    def test_integrated_rejected_by_single_level_entry(self):
        # an instance is of one level; the integrated model has its own entry
        rng = Random(113)
        inst = random_level1_instance(rng, 3)
        with pytest.raises(InputError, match="unknown level"):
            dataclasses.replace(inst, level="integrated")


class TestIntegratedModel:
    @staticmethod
    def pieces(group_sizes=(2, 1)):
        graph = line_store(sum(group_sizes), group_sizes)
        catalog = catalog_for(group_sizes)
        sub_ids = [s.subcategory_id for s in catalog.subcategories]
        txns = load_transactions([("t1", sid) for sid in sub_ids], catalog)
        matrices = expected_transitions(txns, catalog)
        exposures = build_exposure_matrices(graph)
        return graph, catalog, matrices, exposures

    @staticmethod
    def integrated_witness(model, catalog, graph, matrices, exposures, cat_perm, block_perms):
        """Build (x, z, y) for a category permutation plus per-category
        slot orders, and the resulting subcategory permutation."""
        cat_axis = matrices.cat_axis
        loc_axis = exposures.loc_axis
        sub_index = {pid: i for i, pid in enumerate(matrices.sub_axis)}
        slot_index = {pid: k for k, pid in enumerate(exposures.sub_axis)}
        values = {name: 0.0 for name in model.binary_names}
        n = len(matrices.sub_axis)
        sub_perm = np.empty(n, dtype=np.int64)
        for ci, ki in enumerate(cat_perm):
            name = variable_name("x", ci, int(ki))
            if name in values:
                values[name] = 1.0
            cid = cat_axis[ci]
            lid = loc_axis[int(ki)]
            if cid == "check-in":
                members, slots = ["check-in"], ["entrance"]
            elif cid == "check-out":
                members, slots = ["check-out"], ["exit"]
            else:
                members = list(catalog.subcategories_of(cid))
                slots = list(graph.location_by_id(lid).sublocation_ids)
            order = block_perms.get(cid, tuple(range(len(members))))
            for idx, sid in enumerate(members):
                i1 = sub_index[sid]
                k1 = slot_index[slots[order[idx]]]
                sub_perm[i1] = k1
                zname = variable_name("z", i1, k1)
                if zname in values:
                    values[zname] = 1.0
        for name in model.continuous_names:
            _, (i1, k1, i2, k2) = decode_variable(name)
            a = values.get(variable_name("z", i1, k1), 0.0)
            b = values.get(variable_name("z", i2, k2), 0.0)
            values[name] = a * b
        return values, sub_perm

    @pytest.mark.parametrize("sparsify", [False, True])
    def test_consistent_witness_is_feasible_and_exact(self, sparsify):
        # equal block sizes so every category order is assignable; the
        # tactical instance of each category order is the validator's
        graph, catalog, matrices, exposures = self.pieces((2, 2))
        model = linearize_integrated(
            exposures, matrices, None, catalog, graph, sparsify=sparsify
        )
        m = len(matrices.cat_axis)
        flow = matrices.sub_transitions
        expo = exposures.sub_exposure
        for real_perm in itertools.permutations(range(1, m - 1)):
            cat_perm = (0, *real_perm, m - 1)
            for oa in itertools.permutations(range(2)):
                for ob in itertools.permutations(range(2)):
                    values, sub_perm = self.integrated_witness(
                        model, catalog, graph, matrices, exposures,
                        cat_perm, {"C1": oa, "C2": ob},
                    )
                    assert residuals(model, values) <= 1e-12
                    want = float((flow * expo[np.ix_(sub_perm, sub_perm)]).sum())
                    layout = dict(zip(matrices.cat_axis, (exposures.loc_axis[k] for k in cat_perm)))
                    instance = build_level2_instance(
                        exposures, matrices, Assignment.from_mapping(layout), catalog, graph
                    )
                    got = linear_objective(instance, model, values)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_inconsistent_witness_violates_coupling(self):
        # put a subcategory in a location its category does not occupy
        graph, catalog, matrices, exposures = self.pieces((1, 1))
        model = linearize_integrated(exposures, matrices, None, catalog, graph)
        values, _ = self.integrated_witness(
            model, catalog, graph, matrices, exposures, (0, 1, 2, 3), {}
        )
        # category C1 sits at L1 but move its subcategory to L2's slot
        values[variable_name("z", 1, 1)] = 0.0
        values[variable_name("z", 1, 2)] = 1.0
        assert residuals(model, values) > 0.5

    def test_axis_mismatch_rejected(self):
        graph, catalog, matrices, exposures = self.pieces((2, 1))
        other = build_exposure_matrices(line_store(4, (2, 2)))
        with pytest.raises(InputError):
            linearize_integrated(other, matrices, None, catalog, graph)


class TestLpFormat:
    def test_golden_2x2(self, tmp_path):
        model = linearize(toy_2x2())
        path = tmp_path / "toy.lp"
        write_lp(model, str(path))
        assert path.read_text(encoding="utf-8") == GOLDEN_2X2

    def test_emission_deterministic(self, tmp_path):
        rng = Random(127)
        inst = random_level1_instance(rng, 4)
        model = linearize(inst)
        a = tmp_path / "a.lp"
        b = tmp_path / "b.lp"
        write_lp(model, str(a))
        write_lp(linearize(inst), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_flow_still_valid(self, tmp_path):
        inst = QapInstance(
            level="level1",
            product_ids=("a", "b"),
            position_ids=("k1", "k2"),
            flow=np.zeros((2, 2)),
            exposure=np.ones((2, 2)),
            eligibility=np.ones((2, 2), dtype=bool),
        )
        model = linearize(inst)
        assert list(_objective_terms(model)) == []
        path = tmp_path / "zero.lp"
        write_lp(model, str(path))
        text = path.read_text(encoding="utf-8")
        assert "obj: 0 x_0_0" in text
        assert text.endswith("End\n")

    def test_long_rows_wrap(self, tmp_path):
        rng = Random(131)
        inst = random_level1_instance(rng, 5, full_eligibility=True)
        model = linearize(inst)
        path = tmp_path / "wide.lp"
        write_lp(model, str(path))
        for line in path.read_text(encoding="utf-8").splitlines():
            assert len(line.split("+")) <= 7  # six terms per row maximum


# -- reference models and LP writer -------------------------------------------------
#
# The construction that the shared row builders, the one-name-table product
# layer and the streaming writer replaced: assignment rows as loops over a cell
# set, family rows written separately per model (the integrated ones summed
# into a dict per row), linking rows summed into a dict per row, each row a
# Constraint of (name, coefficient) terms, the objective as a double loop over
# cells, and the LP text joined into one string. The library must reproduce
# its models field for field, row for row, and its files byte for byte.


@dataclasses.dataclass(slots=True)
class Constraint:
    name: str
    coeffs: tuple[tuple[str, float], ...]
    sense: str
    rhs: float


def as_constraint(row) -> Constraint:
    """A library row (name, +1 terms, -1 term or None, right-hand side) whose
    +1 terms are (name, 1.0) pairs, as the reference states it."""
    name, plus, minus, rhs = row
    coeffs = tuple(plus) + (((minus, -1.0),) if minus is not None else ())
    return Constraint(name, coeffs, "=", float(rhs))


def unit_terms(names) -> list[tuple[str, float]]:
    return [(name, 1.0) for name in names]


def expand_block(block, keys, table) -> list[tuple]:
    """The rows (name, +1 terms, -1 term or None, 0) of a product column
    block over cells with index ``keys``, in order, each name read off the
    oracle name ``table``."""
    head, span, plus, minus, own = block
    rows = []
    for b in span:
        last = table[b][b] if minus is None else table[b][minus]
        rows.append((head + keys[b], tuple(table[a][b] for a in plus), last, 0))
    for j, b in enumerate(own):
        name, terms, _, _ = rows[b - span.start]
        rows[b - span.start] = (name, terms[:j] + terms[j + 1 :], None, 0)
    return rows


def expanded_rows(model: LinearModel) -> list[Constraint]:
    """Every row of ``model``, in order: the head rows, then the product
    layer's column blocks, which write_lp and validate_solution read,
    expanded row by row."""
    rows = model.constraints
    table = name_table(model)
    blocks = (expand_block(b, rows.keys, table) for b in _product_rows(rows.cells, rows.keys))
    return [
        as_constraint((name, unit_terms(plus), minus, rhs))
        for name, plus, minus, rhs in itertools.chain(rows.head, *blocks)
    ]


def ref_assignment_rows(n: int, cell_set: set[tuple[int, int]], bvar: str) -> list[Constraint]:
    rows: list[Constraint] = []
    for i in range(n):
        coeffs = tuple((variable_name(bvar, i, k), 1.0) for k in range(n) if (i, k) in cell_set)
        rows.append(Constraint(f"asg_p_{i}", coeffs, "=", 1.0))
    for k in range(n):
        coeffs = tuple((variable_name(bvar, i, k), 1.0) for i in range(n) if (i, k) in cell_set)
        rows.append(Constraint(f"asg_k_{k}", coeffs, "=", 1.0))
    return rows


def ref_product_families(instance: QapInstance) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    fams = [((0,), (0,))] if "check-in" in instance.product_ids else []
    for blk in instance.blocks:
        fams.append(
            (
                tuple(instance.product_index(p) for p in blk.product_ids),
                tuple(instance.position_index(k) for k in blk.position_ids),
            )
        )
    if "check-out" in instance.product_ids:
        fams.append(((instance.n - 1,), (instance.n - 1,)))
    return fams


def ref_family_rows(
    fams: list[tuple[tuple[int, ...], tuple[int, ...]]],
    cell_set: set[tuple[int, int]],
    bvar: str,
) -> list[Constraint]:
    rows: list[Constraint] = []
    for fi, (members, _) in enumerate(fams):
        for fk, (_, slots) in enumerate(fams):
            rhs = 1.0 if fi == fk else 0.0
            for i1 in members:
                coeffs = tuple(
                    (variable_name(bvar, i1, k1), 1.0) for k1 in slots if (i1, k1) in cell_set
                )
                if not coeffs and rhs == 0.0:
                    continue
                rows.append(Constraint(f"grp_p_{fi}_{fk}_{i1}", coeffs, "=", rhs))
            for k1 in slots:
                coeffs = tuple(
                    (variable_name(bvar, i1, k1), 1.0) for i1 in members if (i1, k1) in cell_set
                )
                if not coeffs and rhs == 0.0:
                    continue
                rows.append(Constraint(f"grp_k_{fi}_{fk}_{k1}", coeffs, "=", rhs))
    return rows


def ref_coupled_family_rows(
    members: dict[int, tuple[int, ...]],
    slots: dict[int, tuple[int, ...]],
    cell_set: set[tuple[int, int]],
    x_cell_set: set[tuple[int, int]],
) -> list[Constraint]:
    rows: list[Constraint] = []
    m = len(members)
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
                    rows.append(Constraint(f"grp_p_{ci}_{ki}_{i1}", coeffs, "=", 0.0))
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
                    rows.append(Constraint(f"grp_k_{ci}_{ki}_{k1}", coeffs, "=", 0.0))
    return rows


def ref_linking_constraints(
    cells: list[tuple[int, int]],
    cell_set: set[tuple[int, int]],
    n: int,
    bvar: str,
    wvar: str,
) -> list[Constraint]:
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


def ref_objective_terms(
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


def ref_expression(terms: tuple[tuple[str, float], ...], indent: str = " ") -> list[str]:
    pieces: list[str] = []
    for idx, (name, coeff) in enumerate(terms):
        if idx == 0:
            sign = "-" if coeff < 0 else ""
        else:
            sign = "- " if coeff < 0 else "+ "
        pieces.append(f"{sign}{format(abs(coeff), '.12g')} {name}")
    lines: list[str] = []
    for start in range(0, len(pieces), 6):
        lines.append(indent + " ".join(pieces[start : start + 6]))
    return lines


def ref_write_lp(model: LinearModel, path: str) -> None:
    lines: list[str] = [f"\\ {model.tag} exposure maximization model"]
    lines.append("Maximize")
    if model.objective:
        expr = ref_expression(model.objective)
        lines.append(" obj: " + expr[0].strip())
        lines.extend(expr[1:])
    else:
        anchor = model.binary_names[0] if model.binary_names else model.continuous_names[0]
        lines.append(f" obj: 0 {anchor}")
    lines.append("Subject To")
    for con in model.constraints:
        if not con.coeffs:
            continue
        expr = ref_expression(con.coeffs, indent="  ")
        sense = "=" if con.sense == "=" else con.sense
        lines.append(f" {con.name}: " + expr[0].strip())
        lines.extend(expr[1:])
        lines[-1] = lines[-1] + f" {sense} {format(con.rhs, '.12g')}"
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


def ref_model(
    tag: str,
    binaries: tuple[str, ...],
    fixed: tuple[str, ...],
    head: list[Constraint],
    cells: list[tuple[int, int]],
    flow: np.ndarray,
    expo: np.ndarray,
    n: int,
) -> LinearModel:
    bvar, wvar = ("x", "w") if tag == "level1" else ("z", "y")
    return LinearModel(
        tag=tag,
        binary_names=binaries,
        fixed_zero=fixed,
        continuous_names=tuple(
            variable_name(wvar, i1, k1, i2, k2)
            for i1, k1 in cells
            for i2, k2 in cells
            if (i1, k1) != (i2, k2)
        ),
        objective=tuple(ref_objective_terms(cells, flow, expo, bvar, wvar)),
        constraints=tuple(head + ref_linking_constraints(cells, set(cells), n, bvar, wvar)),
    )


def reference_model(instance: QapInstance, sparsify: bool) -> LinearModel:
    """The strategic or tactical model of ``instance``, built wholly by the
    reference functions."""
    n = instance.n
    bvar = "x" if instance.level == "level1" else "z"
    full = [(i, k) for i in range(n) for k in range(n)]
    cells = [(i, k) for i, k in full if instance.eligibility[i, k]] if sparsify else full
    fixed: tuple[str, ...] = ()
    if instance.level == "level1":
        if not sparsify:
            fixed = tuple(
                variable_name(bvar, i, k) for i, k in full if not instance.eligibility[i, k]
            )
        head = ref_assignment_rows(n, set(cells), bvar)
    else:
        head = ref_family_rows(ref_product_families(instance), set(cells), bvar)
    binaries = tuple(variable_name(bvar, i, k) for i, k in cells)
    return ref_model(
        instance.level, binaries, fixed, head, cells,
        instance.flow, instance.exposure, n,
    )


def reference_integrated_model(
    exposures, matrices, eligibility, catalog, graph, sparsify: bool
) -> LinearModel:
    """The integrated model, built wholly by the reference functions."""
    cat_axis, loc_axis = matrices.cat_axis, exposures.loc_axis
    m, n = len(cat_axis), len(matrices.sub_axis)
    cat_elig = _eligibility_matrix(cat_axis, loc_axis, eligibility)
    sub_index = {pid: i for i, pid in enumerate(matrices.sub_axis)}
    slot_index = {pid: k for k, pid in enumerate(exposures.sub_axis)}
    members = {
        ci: tuple(sub_index[s] for s in catalog.subcategories_of(cid))
        for ci, cid in enumerate(cat_axis)
    }
    slots = {
        ki: (slot_index[kid],)
        if kid in ("entrance", "exit")
        else tuple(slot_index[s] for s in graph.location_by_id(kid).sublocation_ids)
        for ki, kid in enumerate(loc_axis)
    }
    full_sub = [(i, k) for i in range(n) for k in range(n)]
    full_x = [(i, k) for i in range(m) for k in range(m)]
    if sparsify:
        sub_ok = np.zeros((n, n), dtype=bool)
        for ci in range(m):
            for ki in range(m):
                if cat_elig[ci, ki]:
                    sub_ok[np.ix_(members[ci], slots[ki])] = True
        cells = [(i, k) for i, k in full_sub if sub_ok[i, k]]
        x_cells = [(i, k) for i, k in full_x if cat_elig[i, k]]
        fixed: tuple[str, ...] = ()
    else:
        cells, x_cells = full_sub, full_x
        fixed = tuple(variable_name("x", i, k) for i, k in full_x if not cat_elig[i, k])
    head = ref_assignment_rows(m, set(x_cells), "x")
    head += ref_coupled_family_rows(members, slots, set(cells), set(x_cells))
    binaries = tuple(variable_name("x", i, k) for i, k in x_cells) + tuple(
        variable_name("z", i, k) for i, k in cells
    )
    return ref_model(
        "integrated", binaries, fixed, head, cells,
        matrices.sub_transitions, exposures.sub_exposure, n,
    )


def assert_matches_reference(model: LinearModel, ref: LinearModel, tmp_path: Path) -> None:
    for field in dataclasses.fields(LinearModel):
        if field.name not in ("constraints", "objective"):
            mine = getattr(model, field.name)
            if isinstance(mine, ProductNames):  # a view, equal to no tuple
                mine = tuple(mine)
            assert mine == getattr(ref, field.name), field.name
    assert len(model.constraints) == len(ref.constraints)
    assert expanded_rows(model) == list(ref.constraints)
    # the reference's (name, coeff) list, with the same float64 bits, as
    # Python floats
    terms = list(_objective_terms(model))
    assert terms == list(ref.objective)
    assert all(type(c) is float for _, c in terms)
    assert [c.hex() for _, c in terms] == [c.hex() for _, c in ref.objective]
    mine, theirs = tmp_path / "model.lp", tmp_path / "reference.lp"
    write_lp(model, str(mine))
    ref_write_lp(ref, str(theirs))
    assert mine.read_bytes() == theirs.read_bytes()


def assert_level_model_matches(instance: QapInstance, sparsify: bool, tmp_path: Path) -> None:
    model = linearize(instance, sparsify=sparsify)
    assert_matches_reference(model, reference_model(instance, sparsify), tmp_path)


def assert_integrated_model_matches(pieces, eligibility, sparsify: bool, tmp_path: Path) -> None:
    graph, catalog, matrices, exposures = pieces
    args = (exposures, matrices, eligibility, catalog, graph)
    model = linearize_integrated(*args, sparsify=sparsify)
    assert_matches_reference(model, reference_integrated_model(*args, sparsify), tmp_path)


def random_integrated_pieces(
    rng: Random, group_sizes: tuple[int, ...], location_sizes: tuple[int, ...] | None = None
):
    """Random baskets over ``catalog_for(group_sizes)`` on a corridor store
    whose locations have ``location_sizes`` sublocations (default: the
    category sizes)."""
    sizes = location_sizes or group_sizes
    graph = line_store(sum(sizes), sizes)
    catalog = catalog_for(group_sizes)
    sub_ids = [s.subcategory_id for s in catalog.subcategories]
    records = [
        (f"t{t}", sid)
        for t in range(6)
        for sid in rng.sample(sub_ids, rng.randint(1, len(sub_ids)))
    ]
    matrices = expected_transitions(load_transactions(records, catalog), catalog)
    return graph, catalog, matrices, build_exposure_matrices(graph)


def signed_level1_instance(rng: Random) -> QapInstance:
    """Flows of both signs, with exact +-1 and -0.0 entries and values that
    need twelve significant digits."""
    inst = random_level1_instance(rng, 3, full_eligibility=True)
    choices = [-1.0, 1.0, -0.0, 0.0, 0.1 + 0.2, -2.5, 1e-13, -123456789.123456, 7.0]
    flow = np.array([[rng.choice(choices) for _ in range(inst.n)] for _ in range(inst.n)])
    return dataclasses.replace(inst, flow=flow)


class TestProductLayerMatchesReference:
    @pytest.mark.parametrize("sparsify", [False, True])
    def test_random_level1(self, tmp_path, sparsify):
        rng = Random(211)
        for trial in range(6):
            inst = random_level1_instance(rng, rng.randint(2, 4), full_eligibility=trial % 3 == 0)
            assert_level_model_matches(inst, sparsify, tmp_path)

    @pytest.mark.parametrize("sparsify", [False, True])
    def test_random_level2_with_blocks(self, tmp_path, sparsify):
        rng = Random(223)
        for sizes in ((2, 1), (2, 2), (3, 1, 2), (1, 1, 1), (1,), (1, 1), (1, 1, 1, 1)):
            assert_level_model_matches(random_level2_instance(rng, sizes), sparsify, tmp_path)

    def test_family_rows_on_any_cell_subset(self):
        # a valid tactical instance always has its matched cells; an empty
        # cell set per family pair shows that an empty row with right-hand
        # side 1 is kept and one with right-hand side 0 is dropped
        rng = Random(251)
        for sizes in ((1, 1, 1), (2, 1), (3, 2, 2)):
            n = sum(sizes)
            fams, start = [], 0
            for size in sizes:
                span = tuple(range(start, start + size))
                fams.append((span, tuple(rng.sample(span, size))))
                start += size
            full = [(i, k) for i in range(n) for k in range(n)]
            for keep in (0.0, 0.3, 0.7, 1.0):
                cells = [c for c in full if rng.random() < keep]
                rows = _family_rows(
                    [mem for mem, _ in fams],
                    [slt for _, slt in fams],
                    {c: variable_name("z", *c) for c in cells},
                    lambda fi, fk: (None, 1 if fi == fk else 0),
                )
                assert [
                    as_constraint((name, unit_terms(plus), minus, rhs))
                    for name, plus, minus, rhs in rows
                ] == ref_family_rows(fams, set(cells), "z")
                if not cells:
                    assert len(rows) == 2 * n and all(rhs == 1 for *_, rhs in rows)

    @pytest.mark.parametrize("sparsify", [False, True])
    def test_integrated(self, tmp_path, sparsify):
        rng = Random(227)
        for sizes in ((2, 1), (2, 2), (1, 3, 2)):
            pieces = random_integrated_pieces(rng, sizes)
            assert_integrated_model_matches(pieces, None, sparsify, tmp_path)
        # restricted eligibility, and locations whose sizes differ from the
        # category sizes, so some families are coupled across a mismatch
        for cat_sizes, loc_sizes, eligibility in (
            ((2, 1), (2, 1), {"C2": ["L1"]}),
            ((1, 1, 1), (1, 1, 1), {"C1": ["L2", "L3"], "C3": ["L1"]}),
            ((2, 2, 1), (2, 2, 1), {"C2": ["L1", "L2"], "C3": ["L3"]}),
            ((2, 1), (1, 2), None),
            ((3, 1), (2, 2), None),
            ((1, 1, 2), (2, 1, 1), {"C1": ["L1"], "C2": ["L2"]}),
        ):
            pieces = random_integrated_pieces(rng, cat_sizes, loc_sizes)
            assert_integrated_model_matches(pieces, eligibility, sparsify, tmp_path)

    def test_zero_flow_has_empty_objective(self, tmp_path):
        inst = QapInstance(
            level="level1",
            product_ids=("a", "b", "c"),
            position_ids=("k1", "k2", "k3"),
            flow=np.zeros((3, 3)),
            exposure=np.ones((3, 3)),
            eligibility=np.ones((3, 3), dtype=bool),
        )
        assert list(_objective_terms(linearize(inst))) == []
        assert_level_model_matches(inst, False, tmp_path)

    def test_signed_and_fractional_coefficients(self, tmp_path):
        rng = Random(229)
        for _ in range(4):
            inst = signed_level1_instance(rng)
            assert any(c < 0 for _, c in _objective_terms(linearize(inst)))
            assert_level_model_matches(inst, False, tmp_path)

    def test_rows_longer_than_one_line(self, tmp_path):
        rng = Random(233)
        inst = random_level1_instance(rng, 5, full_eligibility=True)
        model = linearize(inst)
        assert max(len(terms) for _, terms, _ in lp_rows(model)) > 6
        assert len(list(_objective_terms(model))) > 6
        assert_level_model_matches(inst, False, tmp_path)


class TestNameAgreement:
    def test_model_names_equal_variable_name(self):
        rng = Random(239)
        graph, catalog, matrices, exposures = random_integrated_pieces(rng, (2, 1))
        models = [
            linearize(random_level1_instance(rng, 3)),
            linearize(random_level2_instance(rng, (2, 2)), sparsify=True),
            linearize_integrated(exposures, matrices, None, catalog, graph),
        ]
        for model in models:
            for name in (*model.binary_names, *model.continuous_names):
                prefix, indices = decode_variable(name)
                assert variable_name(prefix, *indices) == name

    def test_cell_names_table(self):
        cells = [(0, 0), (0, 12), (3, 1), (11, 2)]
        names = _cell_names(cells, "z", "y")
        for a, (i1, k1) in enumerate(cells):
            for b, (i2, k2) in enumerate(cells):
                want = variable_name("z", i1, k1) if a == b else variable_name("y", i1, k1, i2, k2)
                assert names[a][b] == want

    def test_continuous_names_view_matches_the_oracle(self):
        # the view spells the oracle table's names off its diagonal, in
        # row-major order; the binaries are the lead binaries, then the
        # table's diagonal, as the reference builds them
        for model, ref in view_cases():
            table = name_table(model)
            want = tuple(
                itertools.chain.from_iterable(row[:a] + row[a + 1 :] for a, row in enumerate(table))
            )
            names = model.continuous_names
            assert tuple(names) == want == ref.continuous_names
            assert len(names) == len(want)
            assert [names[j] for j in range(len(want))] == list(want)
            assert [names[j] for j in range(-len(want), 0)] == list(want)
            for outside in (len(want), -len(want) - 1):
                with pytest.raises(IndexError):
                    names[outside]
            lead = model.binary_names[: len(model.binary_names) - len(table)]
            diagonal = tuple(row[a] for a, row in enumerate(table))
            assert model.binary_names == lead + diagonal == ref.binary_names
            assert (*model.binary_names, *names) == ref.binary_names + want


ROW_PREFIXES = ("asg_p_", "asg_k_", "grp_p_", "grp_k_", "li_", "lk_", "sym_")


def view_cases():
    """(model, reference) pairs over all three models, full and sparsified,
    with singleton families: dummies, and blocks or categories of size 1."""
    rng = Random(257)
    for sparsify in (False, True):
        inst = random_level1_instance(rng, 3)
        yield linearize(inst, sparsify=sparsify), reference_model(inst, sparsify)
        for sizes in ((2, 1), (1, 1, 1)):
            inst = random_level2_instance(rng, sizes)
            yield linearize(inst, sparsify=sparsify), reference_model(inst, sparsify)
        for sizes in ((2, 1), (1, 1)):
            graph, catalog, matrices, exposures = random_integrated_pieces(rng, sizes)
            args = (exposures, matrices, None, catalog, graph)
            yield (
                linearize_integrated(*args, sparsify=sparsify),
                reference_integrated_model(*args, sparsify),
            )


def constructor_calls(run) -> Counter:
    """Python-level constructor calls (``__init__``, ``__new__``,
    ``__post_init__``) made while ``run()`` runs, by code location."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in ("__init__", "__new__", "__post_init__"):
            calls[f"{code.co_filename}:{code.co_firstlineno}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


class TestObjectiveTable:
    def test_table_is_aligned_with_the_name_table(self):
        # entry b of row a is the coefficient of names[a][b]: the nonzeros
        # in row-major order are the reference's (name, coeff) list
        tags = set()
        for model, ref in view_cases():
            cells, names = model.constraints.cells, name_table(model)
            assert len(model.objective) == len(cells) == len(names)
            terms = []
            for row, row_names in zip(model.objective, names):
                assert isinstance(row, np.ndarray) and row.dtype == np.float64
                assert row.shape == (len(cells),)
                terms += [(row_names[b], row[b]) for b in np.flatnonzero(row)]
            assert terms == list(ref.objective)
            tags.add(model.tag)
        assert tags == {"level1", "level2", "integrated"}


def assert_rows_are_the_oracle_table(model: LinearModel, flow: np.ndarray, expo: np.ndarray):
    """Every row of ``model.objective``, iterated or indexed from either
    end, has the bytes of the oracle table's row; an index past either end
    raises IndexError."""
    table = objective_table(model.constraints.cells, flow, expo)
    rows = model.objective
    assert isinstance(rows, ObjectiveRows) and len(rows) == len(table)
    count = 0
    for a, (row, want) in enumerate(zip(rows, table)):
        assert row.dtype == want.dtype == np.float64 and row.shape == want.shape
        assert row.tobytes() == want.tobytes()
        assert rows[a].tobytes() == rows[a - len(rows)].tobytes() == want.tobytes()
        count += 1
    assert count == len(table)
    for outside in (len(table), -len(table) - 1):
        with pytest.raises(IndexError):
            rows[outside]


class TestObjectiveRows:
    def test_level_models_match_the_oracle(self):
        rng = Random(311)
        for sparsify in (False, True):
            for inst in (
                random_level1_instance(rng, 3),
                random_level1_instance(rng, 4, full_eligibility=True),
                random_level2_instance(rng, (2, 1)),
                random_level2_instance(rng, (1, 1, 1)),
                signed_level1_instance(rng),
            ):
                model = linearize(inst, sparsify=sparsify)
                assert_rows_are_the_oracle_table(model, inst.flow, inst.exposure)

    @pytest.mark.parametrize("sparsify", [False, True], ids=["full", "sparsified"])
    def test_integrated_rows_match_the_oracle(self, sparsify):
        graph, catalog, matrices, exposures = TestIntegratedModel.pieces((3, 2, 1))
        model = linearize_integrated(exposures, matrices, None, catalog, graph, sparsify=sparsify)
        assert_rows_are_the_oracle_table(model, matrices.sub_transitions, exposures.sub_exposure)

    def test_bundled_models_match_the_oracle(self, bundled_inputs, bundled_integrated_model):
        doc, exposures, matrices = bundled_inputs
        eligibility = capacity_eligibility(doc.eligibility, doc.catalog, doc.graph)
        level1 = build_level1_instance(exposures, matrices, eligibility)
        baseline = read_plan(str(FIXTURES / "current_layout.json")).level1_assignment()
        level2 = build_level2_instance(exposures, matrices, baseline, doc.catalog, doc.graph)
        for inst in (level1, level2):
            model = linearize(inst, sparsify=True)
            assert_rows_are_the_oracle_table(model, inst.flow, inst.exposure)
        assert_rows_are_the_oracle_table(
            bundled_integrated_model, matrices.sub_transitions, exposures.sub_exposure
        )

    def test_writer_reads_each_row_once(self, tmp_path, monkeypatch):
        # write_lp takes every term off one pass over the rows, with no
        # whole-table test for a nonzero term before it writes; in one
        # process, so the spy sees the whole writer
        force_workers(monkeypatch, 1)
        rng = Random(307)
        model = linearize(random_level1_instance(rng, 4, full_eligibility=True))
        for rows in (model.objective, np.zeros((len(model.objective),) * 2)):
            reads = Counter()

            class Counted:
                def __len__(self):
                    return len(rows)

                def __getitem__(self, index):
                    reads[index] += 1
                    return rows[index]

                def __iter__(self):
                    for a, row in enumerate(rows):
                        reads[a] += 1
                        yield row

            text = written(dataclasses.replace(model, objective=Counted()), tmp_path / "a.lp")
            assert reads == Counter(range(len(rows)))
            assert text == written(dataclasses.replace(model, objective=rows), tmp_path / "b.lp")
        assert objective_line(text) == f" obj: 0 {model.binary_names[0]}"


class TestConstraintView:
    def test_length_and_counts(self):
        for model, ref in view_cases():
            assert len(model.constraints) == len(ref.constraints)
            for prefix in ROW_PREFIXES:
                written = sum(1 for c in ref.constraints if c.name.startswith(prefix) and c.coeffs)
                assert row_count(model, prefix) == written, prefix

    def test_empty_rows_are_counted_but_not_written(self, tmp_path):
        empties_seen = 0
        for model, _ in view_cases():
            path = tmp_path / "model.lp"
            write_lp(model, str(path))
            text = path.read_text(encoding="utf-8")
            written = {line.split(":")[0].strip() for line in text.splitlines() if ":" in line}
            rows = expanded_rows(model)
            assert len(rows) == len(model.constraints)
            empty = {c.name for c in rows if not c.coeffs}
            full = {c.name for c in rows if c.coeffs}
            assert full <= written and not empty & written
            empties_seen += len(empty)
        # a sparsified dummy is the only cell at its position and of its
        # product, so its own li and lk rows have no terms
        assert empties_seen > 0

    def test_export_builds_no_product_constraint(self, tmp_path, monkeypatch):
        # neither writing nor validating an integrated model runs a
        # constructor per row: the rows are plain tuples of a stream; in one
        # process, so the profiler sees the rows section too
        force_workers(monkeypatch, 1)
        graph, catalog, matrices, exposures = TestIntegratedModel.pieces((2, 2, 1))
        model = linearize_integrated(exposures, matrices, None, catalog, graph, sparsify=True)
        head = len(model.constraints.head)
        assert head < len(model.constraints) - head
        written = constructor_calls(lambda: write_lp(model, str(tmp_path / "model.lp")))
        assert sum(written.values()) < head
        # no binary is active, so validation never reads the instance
        instance = toy_2x2()
        zeros = ExternalSolution(dict.fromkeys(model.binary_names, 0.0), None)
        reports = []
        validated = constructor_calls(
            lambda: reports.append(validate_solution(instance, model, zeros))
        )
        assert sum(validated.values()) < head
        assert reports[0].assignment is None and not reports[0].feasible
        # the probe sees a row object built per row
        built = constructor_calls(lambda: expanded_rows(model))
        assert max(built.values()) == len(model.constraints)


# -- the writer's text against the piece layout it replaced ---------------------------
#
# write_lp used to render every +1 term as a "+ 1 <name>" piece (a second
# table the shape of the name table), add "- 1 <name>", and lay the pieces out
# with _layout; the objective went through _pieces, which formatted every
# term's coefficient. The writer now formats rows from the names and each
# distinct coefficient once; its text must be these functions' text.


def old_pieces(terms) -> list[str]:
    """Each (name, coeff) term as ``+ c name`` or ``- c name``."""
    return [
        f"{'- ' if coeff < 0 else '+ '}"
        f"{'1' if coeff in (1.0, -1.0) else f'{abs(coeff):.12g}'} {name}"
        for name, coeff in terms
    ]


def old_layout(pieces, indent: str) -> str:
    """Pieces six per line, continuation lines indented, the first piece's
    sign folded into ``c name`` or ``-c name``."""
    if len(pieces) <= 6:
        text = " ".join(pieces)
    else:
        text = ("\n" + indent).join(
            map(" ".join, (pieces[start : start + 6] for start in range(0, len(pieces), 6)))
        )
    return text[2:] if text[0] == "+" else "-" + text[2:]


# +1 term counts around each line break, each with and without a -1 term
ROW_LENGTHS = (1, 2, 6, 7, 12, 13)


def head_only_model(rows: list) -> tuple[LinearModel, LinearModel]:
    """A model of the head rows ``rows`` alone, and its reference twin."""
    binaries = tuple(dict.fromkeys(
        name for _, plus, minus, _ in rows for name in (*plus, minus) if name is not None
    ))
    empty = dict(binary_names=binaries, fixed_zero=(), continuous_names=())
    model = LinearModel(
        tag="level2", objective=np.zeros((0, 0)),
        constraints=ModelRows(tuple(rows), [], []), **empty,
    )
    ref = LinearModel(
        tag="level2", objective=(),
        constraints=tuple(as_constraint((n, unit_terms(p), m, r)) for n, p, m, r in rows),
        **empty,
    )
    return model, ref


def written(model: LinearModel, path: Path) -> str:
    write_lp(model, str(path))
    return path.read_text(encoding="utf-8")


def objective_line(text: str) -> str:
    """The objective's text in an LP file, continuation lines included."""
    return text[text.index(" obj: ") : text.index("\nSubject To\n")]


class TestWriterText:
    def test_row_text_matches_old_layout(self):
        for count in ROW_LENGTHS:
            plus = tuple(f"y_{j}_{count}_{j + 1}_0" for j in range(count))
            for minus in (None, f"z_{count}_9"):
                pieces = ["+ 1 " + name for name in plus]
                if minus is not None:
                    pieces.append("- 1 " + minus)
                want = old_layout(pieces, "  ")
                assert linearize_module._terms_text(plus, minus) == want, (count, minus)
        assert linearize_module._terms_text((), "z_0_0") == old_layout(["- 1 z_0_0"], "  ")

    def test_rows_match_reference_writer(self, tmp_path):
        rows = [("minus_only", (), "z_0_0", 0), ("rhs_one", ("z_0_1",), None, 1)]
        for count in ROW_LENGTHS:
            plus = tuple(f"y_{j}_{count}" for j in range(count))
            rows.append((f"plus_{count}", plus, None, count % 2))
            rows.append((f"both_{count}", plus, f"z_{count}_9", 0))
        model, ref = head_only_model(rows)
        text = written(model, tmp_path / "rows.lp")
        ref_write_lp(ref, str(tmp_path / "reference.lp"))
        assert text == (tmp_path / "reference.lp").read_text(encoding="utf-8")
        assert " minus_only: -1 z_0_0 = 0\n" in text
        six = " + 1 ".join(f"y_{j}_6" for j in range(6))
        assert f" both_6: 1 {six}\n  - 1 z_6_9 = 0\n" in text

    def test_objective_matches_old_pieces_and_reference_writer(self, tmp_path):
        # repeated, negative and unit coefficients, and two floats of
        # different bits that print the same at 12 digits
        twins = (0.1 + 0.2, 0.3)
        assert twins[0] != twins[1] and f"{twins[0]:.12g}" == f"{twins[1]:.12g}"
        palette = (1.0, -1.0, 2.5, -2.5, *twins, 1e-7, -123456.789012345, 1e15, 7.0)
        rng = Random(271)
        inst = random_level1_instance(rng, 3, full_eligibility=True)
        model, ref = linearize(inst), reference_model(inst, False)
        names = name_table(model)
        seen = Counter()
        for trial in range(60):
            density = rng.choice((0.004, 0.02, 0.1, 0.5, 1.0))
            table = np.array([
                [rng.choice(palette) if rng.random() < density else 0.0 for _ in row]
                for row in names
            ])
            if not table.any():
                continue
            terms = [(names[a][b], float(table[a, b])) for a, b in zip(*np.nonzero(table))]
            mine = dataclasses.replace(model, objective=table)
            theirs = dataclasses.replace(ref, objective=tuple(terms))
            text = written(mine, tmp_path / "objective.lp")
            ref_write_lp(theirs, str(tmp_path / "reference.lp"))
            assert text == (tmp_path / "reference.lp").read_text(encoding="utf-8")
            assert objective_line(text) == " obj: " + old_layout(old_pieces(terms), " ")
            coeffs = [c for _, c in terms]
            seen["negative first"] += coeffs[0] < 0
            seen["whole lines"] += len(terms) % 6 == 0 and len(terms) > 6
            seen["one line"] += len(terms) <= 6
            seen["twins"] += all(t in coeffs for t in twins)
            seen["units"] += 1.0 in coeffs and -1.0 in coeffs
            seen["repeats"] += len(set(coeffs)) < len(coeffs)
        assert len(seen) == 6 and min(seen.values()) > 0, seen

    def name_table_case(self) -> tuple[tuple, int]:
        """The integrated model's arguments, and the size of its name table."""
        graph, catalog, matrices, exposures = TestIntegratedModel.pieces((3, 3, 2, 2))
        args = (exposures, matrices, None, catalog, graph)
        names = name_table(linearize_integrated(*args, sparsify=True))
        table = sys.getsizeof(names) + sum(
            sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in names
        )
        return args, table

    def test_export_holds_less_than_the_name_table(self, tmp_path, monkeypatch):
        # building and writing a model spells its names from the cells'
        # keys: the name table the package used to build, and the tuple of
        # continuous names beside it, would each take more than half its
        # size (sys.getsizeof counts its lists and strings). In one process,
        # so the trace sees the whole writer
        force_workers(monkeypatch, 1)
        args, table = self.name_table_case()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_lp(linearize_integrated(*args, sparsify=True), str(tmp_path / "model.lp"))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < table / 2, (peak, table)

    def test_split_write_streams_the_rows_back(self, tmp_path, monkeypatch):
        # with the rows written by a forked worker, this process writes the
        # objective and appends the worker's part file a buffer at a time:
        # its own peak stays under the same bound as the whole writer's
        force_workers(monkeypatch, 2)
        made = part_files(monkeypatch)
        args, table = self.name_table_case()
        path = tmp_path / "model.lp"
        # a first write imports multiprocessing, outside the trace
        write_lp(linearize_integrated(*args, sparsify=True), str(path))
        want = path.read_bytes()
        assert len(want) > table  # a file read whole would break the bound
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_lp(linearize_integrated(*args, sparsify=True), str(path))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(made) == 2
        assert path.read_bytes() == want
        assert peak < table / 2, (peak, table)

    @pytest.mark.parametrize("sparsify", [False, True], ids=["full", "sparsified"])
    def test_export_holds_less_than_the_objective_table(self, sparsify, tmp_path, monkeypatch):
        # building and writing a model computes the objective's rows as it
        # reads them: the (N, N) float64 coefficient table the package used
        # to build, with a second one as a temporary, came to four times
        # this bound. In one process, so the trace sees the whole writer
        force_workers(monkeypatch, 1)
        graph, catalog, matrices, exposures = TestIntegratedModel.pieces((5, 5, 4, 4, 3, 3))
        args = (exposures, matrices, None, catalog, graph)
        cells = len(linearize_integrated(*args, sparsify=sparsify).constraints.cells)
        table = cells * cells * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model = linearize_integrated(*args, sparsify=sparsify)
            write_lp(model, str(tmp_path / "model.lp"))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(model.objective) == cells > 500
        assert peak < table / 2, (peak, table)


# -- the product layer's column blocks against the row tuples they replaced -----------


def ref_product_rows(cells, names, plus):
    """The product layer's rows as tuples (name, +1 terms, -1 term or None,
    0), one list per block, as ``_product_rows`` gave them before it gave
    column blocks. ``plus`` is any per-cell-pair table on ``names``."""
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


def old_row_text(name: str, plus, minus, rhs: int) -> str:
    """A row's LP line(s) in the piece layout."""
    pieces = ["+ 1 " + term for term in plus] + ([f"- 1 {minus}"] if minus is not None else [])
    return f" {name}: {old_layout(pieces, '  ')} = {rhs}\n"


def group_sizes(cells) -> set[int]:
    """The member counts of the li and lk groups over ``cells``."""
    return set(Counter(k for _, k in cells).values()) | set(Counter(i for i, _ in cells).values())


def block_cases():
    """Models of all three kinds, full and sparsified, whose li and lk groups
    have 1, 6, 7 and 13 members among others: an own row with no term, and
    regular rows on one line, across one line break and across two."""
    rng = Random(281)
    for n_real, full in ((3, False), (6, True), (7, True), (13, True)):
        yield linearize(random_level1_instance(rng, n_real, full_eligibility=full), sparsify=True)
    for n_real in (2, 4, 5):
        yield linearize(random_level1_instance(rng, n_real), sparsify=False)
    yield linearize(random_level2_instance(rng, (1, 6, 7, 13)), sparsify=True)
    yield linearize(random_level2_instance(rng, (2, 3)), sparsify=False)
    for sizes, sparsify in (((1, 6), True), ((7, 2), True), ((2, 3), False)):
        graph, catalog, matrices, exposures = random_integrated_pieces(rng, sizes)
        yield linearize_integrated(exposures, matrices, None, catalog, graph, sparsify=sparsify)


class TestProductBlocks:
    def test_blocks_expand_to_the_reference_rows(self, tmp_path):
        sizes, tags = set(), set()
        for model in block_cases():
            rows = model.constraints
            table = name_table(model)
            blocks = list(_product_rows(rows.cells, rows.keys))
            ref = list(ref_product_rows(rows.cells, table, table))
            assert len(blocks) == len(ref)
            for block, ref_block in zip(blocks, ref):
                assert expand_block(block, rows.keys, table) == ref_block
            # every written row is the piece layout of its reference tuple
            text = written(model, tmp_path / "model.lp")
            body = text[text.index("Subject To\n") + 11 : text.index("Bounds\n")]
            ref_rows = itertools.chain(rows.head, *ref)
            assert body == "".join(
                old_row_text(*row) for row in ref_rows if row[1] or row[2] is not None
            )
            sizes |= group_sizes(rows.cells)
            tags.add(model.tag)
        assert {1, 6, 7, 13} <= sizes, sizes
        assert tags == {"level1", "level2", "integrated"}


# -- validate_solution against the Constraint-loop validator ---------------------------


def reference_validate_solution(
    instance: QapInstance,
    model: LinearModel,
    solution: ExternalSolution,
    tolerance: float = 1e-6,
) -> SolutionReport:
    """validate_solution as it was when every row was a Constraint: ``model``
    is a reference model, its rows a tuple of Constraints."""
    values = solution.values
    missing = [name for name in model.binary_names if name not in values]
    if missing:
        raise ValidationError(
            f"solution is missing {len(missing)} binary variables, first: {missing[0]}"
        )
    violations: list[str] = []
    worst = 0.0

    def note(amount: float, message: str) -> None:
        # a NaN amount fails every comparison: it is a violation, and never
        # the worst amount
        nonlocal worst
        worst = max(worst, amount)
        if not amount <= tolerance:
            violations.append(message)

    def fmt(value: float) -> str:
        return format(value, ".12g")

    for name in model.binary_names:
        v = values[name]
        # round() rejects NaN and the infinities; neither is near an integer
        off = abs(v - round(v)) if math.isfinite(v) else math.nan
        note(off, f"binary {name} = {fmt(v)} is not integral")
    for name in model.fixed_zero:
        v = values.get(name, 0.0)
        note(abs(v), f"fixed variable {name} = {fmt(v)} violates its zero bound")
    for name in model.continuous_names:
        v = values.get(name, 0.0)
        note(-v, f"continuous {name} = {fmt(v)} is negative")
    for con in model.constraints:
        total = sum(coeff * values.get(name, 0.0) for name, coeff in con.coeffs)
        note(abs(total - con.rhs), f"constraint {con.name} residual {fmt(total - con.rhs)}")

    assignment_prefix = "x" if model.tag == "level1" else "z"
    mapping: dict[str, str] = {}
    duplicates = False
    for name in model.binary_names:
        prefix, idx = decode_variable(name)
        if prefix != assignment_prefix:
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

    linear = float(sum(coeff * values.get(name, 0.0) for name, coeff in model.objective))
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


ROW_BREAKS = ("asg_", "grp_", "li_", "lk_", "sym_")
PERTURBATIONS = ROW_BREAKS + (
    "fractional binary", "negative product", "fixed-zero binary set",
    "non-finite product", "non-finite cell binary",
)
NON_FINITE = (math.nan, math.inf, -math.inf)


def perturbed(rng: Random, kind: str, model: LinearModel, ref: LinearModel, base: dict):
    """``base`` perturbed one way, and the row the perturbation must break
    (None when it targets a bound); None when ``model`` has nothing to
    perturb that way."""
    values = dict(base)
    broken = None
    if kind in ROW_BREAKS:
        rows = [c for c in ref.constraints if c.name.startswith(kind) and c.coeffs]
        if not rows:
            return None
        broken = rng.choice(rows)
        name, _ = rng.choice(broken.coeffs)
        values[name] = values.get(name, 0.0) + rng.choice((0.5, -0.25, 0.1 + 0.2, 3.0, 1e-3))
    elif kind == "fractional binary":
        values[rng.choice(model.binary_names)] = rng.choice((0.4, 0.5, 1e-7, 0.999))
    elif kind == "negative product":
        if not model.continuous_names:
            return None
        values[rng.choice(model.continuous_names)] = -rng.choice((0.3, 1.0, 1e-9))
    elif kind == "non-finite product":
        if not model.continuous_names:
            return None
        values[rng.choice(model.continuous_names)] = rng.choice(NON_FINITE)
    elif kind == "non-finite cell binary":
        # a cell's own li and lk rows leave its binary out
        names = name_table(model)
        a = rng.randrange(len(names))
        values[names[a][a]] = rng.choice(NON_FINITE)
    else:
        if not model.fixed_zero:
            return None
        values[rng.choice(model.fixed_zero)] = 1.0
    if rng.random() < 0.5:
        # noise below the tolerance, so residuals are inexact sums
        values = {name: v + rng.uniform(-1e-9, 1e-9) for name, v in values.items()}
    return values, broken


def compensated_sum(iterable, start=0):
    """sum() as Python 3.12 and later add floats: Neumaier's compensated
    summation, so the result depends on which terms are summed together,
    not only on their order. Items with no exact float among them (start
    included) are added by the builtin."""
    items = list(iterable)
    if not any(type(x) is float for x in (start, *items)):
        return builtins.sum(items, start)
    total, c = float(start), 0.0
    for x in map(float, items):
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    # an infinite or NaN compensation is dropped, as CPython drops it
    return total + c if c and math.isfinite(c) else total


def report_fields(report: SolutionReport) -> list:
    """The report's fields, each float as its bits, so that NaN matches
    NaN."""
    fields = (getattr(report, field.name) for field in dataclasses.fields(report))
    return [v.hex() if type(v) is float else v for v in fields]


class TestValidateSolutionMatchesReference:
    """The column-block validator returns the Constraint-loop validator's
    report: the same violations in the same order, the same bits."""

    def assert_same_reports(self, instance: QapInstance, rng: Random, seen: Counter) -> None:
        for sparsify in (False, True):
            model = linearize(instance, sparsify=sparsify)
            ref = reference_model(instance, sparsify)
            perm = rng.choice(list(feasible_perms(instance)))
            base = product_solution(model, perm)
            for kind in PERTURBATIONS:
                case = perturbed(rng, kind, model, ref, base)
                if case is None:
                    continue
                values, broken = case
                solution = ExternalSolution(values, rng.choice((None, 1.5)))
                want = reference_validate_solution(instance, ref, solution)
                got = validate_solution(instance, model, solution)
                assert report_fields(got) == report_fields(want), kind
                for field in ("max_constraint_violation", "linear_objective"):
                    assert type(getattr(got, field)) is float
                if broken is not None:
                    assert any(v.startswith(f"constraint {broken.name} ") for v in want.violations)
                seen[kind] += 1

    def test_random_level1(self):
        rng, seen = Random(263), Counter()
        for trial in range(12):
            inst = random_level1_instance(rng, rng.randint(2, 4), full_eligibility=trial % 4 == 0)
            self.assert_same_reports(inst, rng, seen)
        assert set(seen) == set(PERTURBATIONS) - {"grp_"}

    def test_random_level2(self):
        rng, seen = Random(269), Counter()
        for sizes in ((2, 1), (2, 2), (3, 1), (1, 1, 1), (1, 2, 1)):
            self.assert_same_reports(random_level2_instance(rng, sizes), rng, seen)
        assert set(seen) == set(PERTURBATIONS) - {"asg_", "fixed-zero binary set"}

    def test_compensated_sum_keeps_the_reference_bits(self, monkeypatch):
        # from Python 3.12 sum() of floats is compensated, so a residual has
        # the reference's bits on every version only if it is, as there, one
        # Python sum over the row's terms; adding columns as arrays is not
        monkeypatch.setattr(linearize_module, "sum", compensated_sum, raising=False)
        monkeypatch.setitem(globals(), "sum", compensated_sum)
        rng, seen = Random(271), Counter()
        for trial in range(8):
            inst = random_level1_instance(rng, rng.randint(2, 4), full_eligibility=trial % 4 == 0)
            self.assert_same_reports(inst, rng, seen)
        for sizes in ((2, 2), (1, 2, 1), (3, 1)):
            self.assert_same_reports(random_level2_instance(rng, sizes), rng, seen)
        assert set(seen) == set(PERTURBATIONS)
        assert compensated_sum([-0.3, 1.0, -1.0]) != (-0.3 + 1.0) - 1.0

    @pytest.mark.parametrize("sparsify", [False, True])
    def test_feasible_integrated_witness_formats_nothing(self, monkeypatch, sparsify):
        # no amount passes the tolerance, so no message is formatted; the
        # report is still the reference validator's, bit for bit
        graph, catalog, matrices, exposures = TestIntegratedModel.pieces((2, 2))
        args = (exposures, matrices, None, catalog, graph)
        model = linearize_integrated(*args, sparsify=sparsify)
        ref = reference_integrated_model(*args, sparsify)
        cat_perm = (0, 2, 1, 3)
        values, _ = TestIntegratedModel.integrated_witness(
            model, catalog, graph, matrices, exposures, cat_perm, {"C1": (1, 0)}
        )
        layout = dict(zip(matrices.cat_axis, (exposures.loc_axis[k] for k in cat_perm)))
        instance = build_level2_instance(
            exposures, matrices, Assignment.from_mapping(layout), catalog, graph
        )
        fmt, calls = linearize_module._fmt, []
        monkeypatch.setattr(linearize_module, "_fmt", lambda v: calls.append(v) or fmt(v))
        solution = ExternalSolution(values, 2.5)
        got = validate_solution(instance, model, solution)
        assert calls == []
        assert got.feasible and got.quadratic_objective is not None
        assert got.objective_gap <= 1e-9
        want = reference_validate_solution(instance, ref, solution)
        assert got == want
        for field in ("max_constraint_violation", "linear_objective"):
            assert getattr(got, field).hex() == getattr(want, field).hex(), field
        # a violation is still described, through the same formatter
        values[model.binary_names[0]] = 0.5
        assert not validate_solution(instance, model, solution).feasible
        assert calls

    def test_empty_rows_with_right_hand_side_one(self):
        # family rows over no cells: each matched pair's rows are empty with
        # right-hand side 1, so each residual is -1 and the worst one is 1.0
        fams = [((0, 1), (1, 0)), ((2,), (2,))]
        members, slots = [mem for mem, _ in fams], [slt for _, slt in fams]
        head = _family_rows(members, slots, {}, lambda fi, fk: (None, 1 if fi == fk else 0))
        empty = dict(binary_names=(), fixed_zero=(), continuous_names=())
        model = LinearModel(
            tag="level2", objective=np.zeros((0, 0)),
            constraints=ModelRows(tuple(head), [], []), **empty,
        )
        ref_rows = tuple(ref_family_rows(fams, set(), "z"))
        ref = LinearModel(tag="level2", objective=(), constraints=ref_rows, **empty)
        solution = ExternalSolution({}, None)
        got = validate_solution(toy_2x2(), model, solution)
        want = reference_validate_solution(toy_2x2(), ref, solution)
        assert got == want and len(got.violations) == 6
        worst = got.max_constraint_violation
        assert worst.hex() == want.max_constraint_violation.hex() == (1.0).hex()


    def test_head_row_sums_its_minus_term_with_the_rest(self, monkeypatch):
        # under a compensated sum, 1e16 + 1 - 1e16 is 1 only when the -1
        # term is summed with the +1 terms rather than subtracted after
        monkeypatch.setattr(linearize_module, "sum", compensated_sum, raising=False)
        monkeypatch.setitem(globals(), "sum", compensated_sum)
        empty = dict(binary_names=(), fixed_zero=(), continuous_names=())
        model = LinearModel(
            tag="level2", objective=np.zeros((0, 0)),
            constraints=ModelRows((("grp_t", ("a", "b"), "m", 0),), [], []), **empty,
        )
        coeffs = (("a", 1.0), ("b", 1.0), ("m", -1.0))
        ref_rows = (Constraint("grp_t", coeffs, "=", 0),)
        ref = LinearModel(tag="level2", objective=(), constraints=ref_rows, **empty)
        solution = ExternalSolution({"a": 1e16, "b": 1.0, "m": 1e16}, None)
        got = validate_solution(toy_2x2(), model, solution)
        want = reference_validate_solution(toy_2x2(), ref, solution)
        assert report_fields(got) == report_fields(want)
        assert got.max_constraint_violation == 1.0


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BUNDLED_LP_SHA256 = {
    "model_level1.lp": "653c2384c7d45adab021ede02b8b577c24d469b4e06f476a8f065eb2a1b85a53",
    "model_level2.lp": "9edc15b9d9166b2b228564452ccc63127aba1c53c1f73bd2189c9c486d383f2a",
    "model_integrated.lp": "77ee7f02caf7716b1f31fc194102d5c347504b2a08ec0007068eda66ba70352f",
}


def export_all_argv(out: Path) -> list[str]:
    """export-lp --mode all on the bundled store, as-is plan as baseline."""
    return [
        "export-lp",
        "--store", str(FIXTURES / "synthetic_store.json"),
        "--transactions", str(FIXTURES / "synthetic_transactions.csv"),
        "--out", str(out),
        "--mode", "all",
        "--baseline", str(FIXTURES / "current_layout.json"),
    ]


def part_files(monkeypatch) -> list[str]:
    """Record the path of every part file write_lp makes from now on."""
    made = []
    mkstemp = tempfile.mkstemp

    def recorded(*args, **kwargs):
        fd, path = mkstemp(*args, **kwargs)
        made.append(path)
        return fd, path

    monkeypatch.setattr(linearize_module.tempfile, "mkstemp", recorded)
    return made


@pytest.mark.parametrize("workers", [1, 2])
def test_bundled_store_lp_files_are_pinned(workers, tmp_path, monkeypatch):
    """export-lp --mode all on the bundled store writes the same three files,
    byte for byte, as the dict-and-join construction did, in one process
    and with each file's rows written by a forked worker; only those three
    files are left."""
    force_workers(monkeypatch, workers)
    made = part_files(monkeypatch)
    out = tmp_path / "lp"
    assert main(export_all_argv(out)) == 0
    for name, digest in BUNDLED_LP_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert sorted(p.name for p in out.iterdir()) == sorted(BUNDLED_LP_SHA256)
    assert len(made) == (0 if workers == 1 else 3)


def split_write_cases():
    """Random strategic models, tactical models with blocks and integrated
    models, each full and sparsified, and a zero-flow model."""
    rng = Random(419)
    for sparsify in (False, True):
        for trial in range(4):
            inst = random_level1_instance(rng, rng.randint(2, 5), full_eligibility=trial % 2 == 0)
            yield linearize(inst, sparsify=sparsify)
        for sizes in ((2, 1), (3, 1, 2), (1, 1, 1), (1,), (2, 2, 1)):
            yield linearize(random_level2_instance(rng, sizes), sparsify=sparsify)
        for sizes in ((2, 1), (1, 3, 2), (2, 2, 1)):
            graph, catalog, matrices, exposures = random_integrated_pieces(rng, sizes)
            yield linearize_integrated(exposures, matrices, None, catalog, graph, sparsify=sparsify)
    zero = random_level1_instance(rng, 3)
    yield linearize(dataclasses.replace(zero, flow=np.zeros_like(zero.flow)))


class TestSplitWrite:
    """write_lp writes the objective here and the rows in a forked worker,
    or both here on one usable CPU: the same bytes either way, no part file
    left behind, and no part file made where nothing forks."""

    def test_split_write_equals_one_process_write(self, tmp_path, monkeypatch):
        made = part_files(monkeypatch)
        zero_objectives = 0
        for case, model in enumerate(split_write_cases()):
            files = []
            for workers in (1, 2):
                force_workers(monkeypatch, workers)
                path = tmp_path / f"{case}-{workers}.lp"
                write_lp(model, str(path))
                files.append(path.read_bytes())
            assert files[0] == files[1], model.tag
            zero_objectives += f" obj: 0 {model.binary_names[0]}\n".encode() in files[0]
        assert zero_objectives == 1
        assert len(made) == case + 1  # one part file per two-process write
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{c}-{w}.lp" for c in range(case + 1) for w in (1, 2)
        )

    def test_one_cpu_forks_nothing(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 1)
        made = part_files(monkeypatch)

        def no_fork():
            raise AssertionError("write_lp forked on one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / "model.lp"
        write_lp(linearize(random_level1_instance(Random(421), 4)), str(path))
        assert path.read_bytes().endswith(b"End\n")
        assert made == [] and list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_failed_section_leaves_no_file(self, where, tmp_path, monkeypatch, capsys):
        # the integrated model's section fails, in the forked worker (its
        # rows) or here (its objective), after the level1 and level2 files
        # are complete: export-lp fails and leaves no file of any kind
        force_workers(monkeypatch, 2)
        made = part_files(monkeypatch)
        caller = os.getpid()
        section = "_write_rows" if where == "worker" else "_write_head"
        write = getattr(linearize_module, section)

        def failing(out, model):
            if model.tag == "integrated" and (os.getpid() == caller) == (where == "caller"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write(out, model)

        monkeypatch.setattr(linearize_module, section, failing)
        out = tmp_path / "lp"
        assert main(export_all_argv(out)) == 2
        assert capsys.readouterr().err == f"error: {os.strerror(errno.ENOSPC)}\n"
        assert len(made) == 3
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def bundled_inputs():
    """The bundled store document, its exposure matrices and the expected
    transitions of the bundled baskets, as export-lp reads them."""
    doc = load_store(str(FIXTURES / "synthetic_store.json"))
    baskets = read_transactions_csv(str(FIXTURES / "synthetic_transactions.csv"), doc.catalog)
    return doc, build_exposure_matrices(doc.graph), expected_transitions(baskets, doc.catalog)


@pytest.fixture(scope="module")
def bundled_integrated_model(bundled_inputs) -> LinearModel:
    """The sparsified integrated model of the bundled store and baskets, as
    export-lp builds it."""
    doc, exposures, matrices = bundled_inputs
    return linearize_integrated(
        exposures,
        matrices,
        capacity_eligibility(doc.eligibility, doc.catalog, doc.graph),
        doc.catalog,
        doc.graph,
        sparsify=True,
    )


def test_objective_value_keeps_the_term_by_term_bits(bundled_integrated_model):
    # one running sum over every term in row-major order; a subtotal per
    # table row rounds differently
    model = bundled_integrated_model
    names = (*model.binary_names, *model.continuous_names)
    rng = Random(283)
    regrouped = 0
    for _ in range(2):
        values = {name: rng.uniform(-1.0, 1.0) for name in names if rng.random() < 0.9}
        terms = [coeff * values.get(name, 0.0) for name, coeff in _objective_terms(model)]
        want = sum(coeff * values.get(name, 0.0) for name, coeff in _objective_terms(model))
        got = _objective_value(model, _value_table(model, values))
        assert type(got) is float and got.hex() == want.hex()
        by_row = np.count_nonzero(model.objective, axis=1).cumsum().tolist()
        subtotals = sum(sum(terms[a:b]) for a, b in zip([0, *by_row], by_row))
        regrouped += subtotals.hex() != want.hex()
    assert len(terms) > 300_000 and regrouped


def oracle_objective(model: LinearModel, values: dict[str, float]) -> float:
    """The objective as one running sum over the oracle's terms, in order."""
    return sum(coeff * values.get(name, 0.0) for name, coeff in _objective_terms(model))


def test_objective_value_has_the_oracle_bits(bundled_integrated_model):
    # the package reads the objective off its value table; each term's value
    # must sit in the table cell of that term's name, the diagonal included
    rng = Random(293)
    for model, _ in view_cases():
        names = (*model.binary_names, *model.continuous_names)
        full = {name: rng.uniform(-1.0, 1.0) for name in names}
        partial = {name: value for name, value in full.items() if rng.random() < 0.9}
        for values in (full, partial):
            got = _objective_value(model, _value_table(model, values))
            assert type(got) is float and got.hex() == oracle_objective(model, values).hex()
    # no binary is active at zero or at noise, so validation never reads the
    # instance
    model = bundled_integrated_model
    names = (*model.binary_names, *model.continuous_names)
    for values in (
        dict.fromkeys(names, 0.0),
        {name: rng.uniform(-1e-9, 1e-9) for name in names},
    ):
        report = validate_solution(toy_2x2(), model, ExternalSolution(values, None))
        assert report.assignment is None
        assert report.linear_objective.hex() == oracle_objective(model, values).hex()


def test_validation_holds_less_than_two_value_tables(bundled_integrated_model):
    # validate_solution reads the product layer's values into one (N, N)
    # table and checks the continuous bounds one table row at a time; a mask
    # of the diagonal and a copy of the values off it, with their negation,
    # would come to more than three tables
    model = bundled_integrated_model
    cells = len(model.constraints.cells)
    table = cells * cells * np.dtype(np.float64).itemsize
    zeros = ExternalSolution(dict.fromkeys(model.binary_names, 0.0), None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = validate_solution(toy_2x2(), model, zeros)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert cells == 898 and report.assignment is None and not report.feasible
    assert peak < 2 * table, (peak, table)


PACKAGE =Path(__file__).resolve().parent.parent / "src" / "storelayout"
PRODUCT_ROW_PREFIX = re.compile(r"(?<![A-Za-z0-9_])(li|lk|sym)_")


def test_product_row_names_are_spelled_in_one_function():
    """The li_, lk_ and sym_ row-name prefixes occur in one function of the
    package, ``_product_rows``, so the writer and the validator can hold no
    second description of the product layer. Docstrings do not count."""
    spelled: dict[str, set[str]] = {}

    def visit(node: ast.AST, path: Path, scope: str) -> None:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return  # a docstring
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for prefix in PRODUCT_ROW_PREFIX.findall(node.value):
                spelled.setdefault(prefix, set()).add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    assert spelled == dict.fromkeys(("li", "lk", "sym"), {"linearize._product_rows"})


class TestSolutionFileParsing:
    def test_parse_values_and_objective(self, tmp_path):
        path = tmp_path / "sol.txt"
        path.write_text(
            "# Objective value = 42.5\n"
            "# solver: external\n"
            "\n"
            "x_0_0 1\n"
            "w_0_0_1_1 0.25\n",
            encoding="utf-8",
        )
        sol = parse_solution_file(str(path))
        assert sol.reported_objective == 42.5
        assert sol.values == {"x_0_0": 1.0, "w_0_0_1_1": 0.25}

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "sol.txt"
        path.write_text("x_0_0 1 extra\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_solution_file(str(path))
        assert ":1:" in str(err.value)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "sol.txt"
        path.write_text("x_0_0 one\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_solution_file(str(path))

    def test_bad_objective_header(self, tmp_path):
        path = tmp_path / "sol.txt"
        path.write_text("# Objective value = soon\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_solution_file(str(path))

    def test_variable_listed_twice(self, tmp_path):
        # a second value would silently replace the first
        path = tmp_path / "sol.txt"
        path.write_text(
            "# Objective value = 1\nx_0_0 1\nw_0_0_1_1 0.25\n\nx_0_0 0\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as err:
            parse_solution_file(str(path))
        assert err.value.line == 5
        assert "'x_0_0' is listed twice, on lines 2 and 5" in str(err.value)

    def test_byte_order_mark_is_no_part_of_the_first_name(self, tmp_path):
        # a "UTF-8 with BOM" save: read as utf-8 the first name would start
        # with U+FEFF and its variable would read as missing
        path = tmp_path / "sol.txt"
        path.write_text("x_0_0 1\nw_0_0_1_1 0.25\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        sol = parse_solution_file(str(path))
        assert sol.values == {"x_0_0": 1.0, "w_0_0_1_1": 0.25}

    def test_byte_order_mark_keeps_the_duplicate_line_numbers(self, tmp_path):
        path = tmp_path / "sol.txt"
        path.write_text("x_0_0 1\nw_0_0_1_1 0.25\nx_0_0 0\n", encoding="utf-8-sig")
        with pytest.raises(ParseError) as err:
            parse_solution_file(str(path))
        assert err.value.line == 3
        assert "'x_0_0' is listed twice, on lines 1 and 3" in str(err.value)

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "sol.txt"
        path.write_bytes(b"x_0_0 1\nw_0_0_1_\xff 0.25\n")
        with pytest.raises(ParseError) as err:
            parse_solution_file(str(path))
        assert err.value.path == str(path) and err.value.line is None
        assert str(err.value).startswith(f"{path}: not UTF-8 text (")


class TestValidateSolution:
    def setup_model(self):
        rng = Random(137)
        inst = random_level1_instance(rng, 3, full_eligibility=True)
        model = linearize(inst)
        perm = next(iter(feasible_perms(inst)))
        return inst, model, perm

    def test_exact_witness_reports_feasible_zero_gap(self):
        inst, model, perm = self.setup_model()
        values = product_solution(model, perm)
        report = validate_solution(inst, model, ExternalSolution(values, None))
        assert report.feasible
        assert report.violations == ()
        assert report.objective_gap == pytest.approx(0.0, abs=1e-9)
        assert report.max_constraint_violation <= 1e-9
        assert report.assignment is not None
        assert report.quadratic_objective == pytest.approx(
            objective_of_permutation(inst, perm)
        )

    def test_missing_binary_raises(self):
        inst, model, perm = self.setup_model()
        values = product_solution(model, perm)
        del values[model.binary_names[0]]
        with pytest.raises(ValidationError):
            validate_solution(inst, model, ExternalSolution(values, None))

    def test_fractional_binary_flagged(self):
        inst, model, perm = self.setup_model()
        values = product_solution(model, perm)
        values[model.binary_names[0]] = 0.4
        report = validate_solution(inst, model, ExternalSolution(values, None))
        assert not report.feasible
        assert any("not integral" in v for v in report.violations)
        assert report.max_constraint_violation >= 0.4

    def test_constraint_residual_flagged(self):
        inst, model, perm = self.setup_model()
        values = product_solution(model, perm)
        wname = model.continuous_names[0]
        values[wname] = values[wname] + 0.5
        report = validate_solution(inst, model, ExternalSolution(values, None))
        assert not report.feasible
        assert any("residual" in v for v in report.violations)

    def test_doubled_position_reported(self):
        inst, model, perm = self.setup_model()
        # send two products to the same position
        bad = perm.copy()
        bad[1] = bad[0]
        values = product_solution(model, bad)
        report = validate_solution(inst, model, ExternalSolution(values, None))
        assert not report.feasible
        assert any("multiple" in v or "unassigned" in v for v in report.violations)

    def test_fixed_zero_violation_flagged(self):
        inst = toy_2x2()
        model = linearize(inst)
        values = product_solution(model, np.array([0, 1]))
        values["x_0_1"] = 1.0
        values["x_0_0"] = 0.0
        report = validate_solution(inst, model, ExternalSolution(values, None))
        assert not report.feasible
        assert any("zero bound" in v for v in report.violations)

    def test_negative_continuous_flagged(self):
        inst, model, perm = self.setup_model()
        values = product_solution(model, perm)
        # keep sums intact is impossible with one edit; just verify the check
        values[model.continuous_names[0]] -= 2.0
        report = validate_solution(inst, model, ExternalSolution(values, None))
        assert not report.feasible

    def test_tolerance_forgives_noise(self):
        inst, model, perm = self.setup_model()
        values = {k: v + 1e-9 for k, v in product_solution(model, perm).items()}
        report = validate_solution(inst, model, ExternalSolution(values, None))
        assert report.feasible

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_flagged(self, bad):
        # NaN fails every comparison, so an amount counts as a violation
        # unless it is within the tolerance; the worst amount is never NaN
        inst, model, perm = self.setup_model()
        values = product_solution(model, perm)
        binary, product = model.binary_names[0], model.continuous_names[0]
        values[binary] = values[product] = float(bad)
        report = validate_solution(inst, model, ExternalSolution(values, None))
        assert not report.feasible
        assert f"binary {binary} = {bad} is not integral" in report.violations
        negative = f"continuous {product} = {bad} is negative" in report.violations
        assert negative == (bad != "inf")
        assert any(v.startswith("constraint ") for v in report.violations)
        assert report.max_constraint_violation == report.max_constraint_violation
