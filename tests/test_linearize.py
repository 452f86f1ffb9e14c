"""Linearized MILP emission: exactness against the quadratic objective,
constraint-count closed forms, LP text format, and solution validation."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from pathlib import Path
from random import Random

import numpy as np
import pytest

from conftest import (
    catalog_for,
    line_store,
    random_level1_instance,
    random_level2_instance,
)
from storelayout.cli import main
from storelayout.demand import expected_transitions, load_transactions
from storelayout.errors import InputError, ParseError, ValidationError
from storelayout.linearize import (
    Constraint,
    ExternalSolution,
    LinearModel,
    _cell_names,
    decode_variable,
    evaluate_linear_objective,
    linearize,
    linearize_integrated,
    parse_solution_file,
    validate_solution,
    variable_name,
    write_lp,
)
from storelayout.qap import QapInstance, objective_of_permutation
from storelayout.store import build_exposure_matrices


def feasible_perms(instance: QapInstance):
    for perm in itertools.permutations(range(instance.n)):
        if all(instance.eligibility[i, perm[i]] for i in range(instance.n)):
            yield np.array(perm, dtype=np.int64)


def product_solution(model: LinearModel, perm) -> dict[str, float]:
    """Exact witness: binaries from the permutation, products for the
    continuous layer."""
    bvar = model.assignment_prefix
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


def residuals(model: LinearModel, values: dict[str, float]) -> float:
    worst = 0.0
    for con in model.constraints:
        total = sum(c * values.get(name, 0.0) for name, c in con.coeffs)
        worst = max(worst, abs(total - con.rhs))
    return worst


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
        name="toy-2x2",
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
                    got = evaluate_linear_objective(model, values)
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
                    got = evaluate_linear_objective(model, values)
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
        byname = dict(model.objective)
        assert byname.get("x_0_0") == 2.0  # flow[0,0] * exposure[0,0]
        assert byname.get("x_1_1") == 5.0
        perm = np.array([0, 1])
        values = product_solution(model, perm)
        assert evaluate_linear_objective(model, values) == pytest.approx(
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
        assert model.constraint_count("li_") == n ** 3
        assert model.constraint_count("lk_") == n ** 3
        assert model.constraint_count("sym_") == (n * n) * (n * n - 1) // 2
        assert model.constraint_count("asg_p_") == n
        assert model.constraint_count("asg_k_") == n

    def test_sparsify_shrinks_restricted_models(self):
        rng = Random(109)
        inst = random_level2_instance(rng, (2, 2))
        full = linearize(inst, sparsify=False)
        sparse = linearize(inst, sparsify=True)
        assert len(sparse.binary_names) < len(full.binary_names)
        assert len(sparse.continuous_names) < len(full.continuous_names)
        assert len(sparse.constraints) < len(full.constraints)
        assert sparse.sparsified and not full.sparsified
        assert sparse.fixed_zero == ()

    def test_integrated_rejected_by_single_level_entry(self):
        rng = Random(113)
        inst = random_level1_instance(rng, 3)
        object.__setattr__(inst, "level", "integrated")
        with pytest.raises(InputError):
            linearize(inst)


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
        # equal block sizes so every category order is assignable
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
                    got = evaluate_linear_objective(model, values)
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
        assert model.objective == ()
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


# -- reference product layer and LP writer -------------------------------------------
#
# The construction that the one-name-table product layer and the streaming
# writer replaced: linking rows summed into a dict per row, the objective as a
# double loop over cells, and the LP text joined into one string. The library
# must reproduce its models field for field and its files byte for byte.


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


def reference_model(model: LinearModel, flow: np.ndarray, expo: np.ndarray) -> LinearModel:
    """``model`` with its product layer rebuilt by the reference functions.

    The cells are read back from the model's assignment binaries. The
    assignment and family rows ahead of the linking rows, the binaries and the
    fixed bounds come from code the reference does not replace, so they are
    taken from ``model`` as built."""
    bvar = model.assignment_prefix
    wvar = "w" if bvar == "x" else "y"
    cells = [
        decode_variable(name)[1] for name in model.binary_names if name.startswith(bvar + "_")
    ]
    linking = ref_linking_constraints(cells, set(cells), model.n, bvar, wvar)
    head = model.constraints[: len(model.constraints) - len(linking)]
    assert not any(c.name.startswith(("li_", "lk_", "sym_")) for c in head)
    return dataclasses.replace(
        model,
        continuous_names=tuple(
            variable_name(wvar, i1, k1, i2, k2)
            for i1, k1 in cells
            for i2, k2 in cells
            if (i1, k1) != (i2, k2)
        ),
        objective=tuple(ref_objective_terms(cells, flow, expo, bvar, wvar)),
        constraints=head + tuple(linking),
    )


def assert_matches_reference(model: LinearModel, flow, expo, tmp_path: Path) -> None:
    ref = reference_model(model, flow, expo)
    for field in dataclasses.fields(LinearModel):
        assert getattr(model, field.name) == getattr(ref, field.name), field.name
    # same float64 bits, as Python floats
    assert all(type(c) is float for _, c in model.objective)
    assert [c.hex() for _, c in model.objective] == [c.hex() for _, c in ref.objective]
    mine, theirs = tmp_path / "model.lp", tmp_path / "reference.lp"
    write_lp(model, str(mine))
    ref_write_lp(ref, str(theirs))
    assert mine.read_bytes() == theirs.read_bytes()


def random_integrated_pieces(rng: Random, group_sizes: tuple[int, ...]):
    graph = line_store(sum(group_sizes), group_sizes)
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
            model = linearize(inst, sparsify=sparsify)
            assert_matches_reference(model, inst.flow, inst.exposure, tmp_path)

    @pytest.mark.parametrize("sparsify", [False, True])
    def test_random_level2_with_blocks(self, tmp_path, sparsify):
        rng = Random(223)
        for sizes in ((2, 1), (2, 2), (3, 1, 2), (1, 1, 1)):
            inst = random_level2_instance(rng, sizes)
            model = linearize(inst, sparsify=sparsify)
            assert_matches_reference(model, inst.flow, inst.exposure, tmp_path)

    @pytest.mark.parametrize("sparsify", [False, True])
    def test_integrated(self, tmp_path, sparsify):
        rng = Random(227)
        for sizes in ((2, 1), (2, 2), (1, 3, 2)):
            graph, catalog, matrices, exposures = random_integrated_pieces(rng, sizes)
            model = linearize_integrated(
                exposures, matrices, None, catalog, graph, sparsify=sparsify
            )
            assert_matches_reference(
                model, matrices.sub_transitions, exposures.sub_exposure, tmp_path
            )

    def test_zero_flow_has_empty_objective(self, tmp_path):
        inst = QapInstance(
            level="level1",
            product_ids=("a", "b", "c"),
            position_ids=("k1", "k2", "k3"),
            flow=np.zeros((3, 3)),
            exposure=np.ones((3, 3)),
            eligibility=np.ones((3, 3), dtype=bool),
        )
        model = linearize(inst)
        assert model.objective == ()
        assert_matches_reference(model, inst.flow, inst.exposure, tmp_path)

    def test_signed_and_fractional_coefficients(self, tmp_path):
        rng = Random(229)
        for _ in range(4):
            inst = signed_level1_instance(rng)
            model = linearize(inst)
            assert any(c < 0 for _, c in model.objective)
            assert_matches_reference(model, inst.flow, inst.exposure, tmp_path)

    def test_rows_longer_than_one_line(self, tmp_path):
        rng = Random(233)
        inst = random_level1_instance(rng, 5, full_eligibility=True)
        model = linearize(inst)
        assert max(len(c.coeffs) for c in model.constraints) > 6
        assert len(model.objective) > 6
        assert_matches_reference(model, inst.flow, inst.exposure, tmp_path)


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
            for name in model.binary_names + model.continuous_names:
                prefix, indices = decode_variable(name)
                assert variable_name(prefix, *indices) == name

    def test_cell_names_table(self):
        cells = [(0, 0), (0, 12), (3, 1), (11, 2)]
        names = _cell_names(cells, "z", "y")
        for a, (i1, k1) in enumerate(cells):
            for b, (i2, k2) in enumerate(cells):
                want = variable_name("z", i1, k1) if a == b else variable_name("y", i1, k1, i2, k2)
                assert names[a][b] == want


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BUNDLED_LP_SHA256 = {
    "model_level1.lp": "653c2384c7d45adab021ede02b8b577c24d469b4e06f476a8f065eb2a1b85a53",
    "model_level2.lp": "9edc15b9d9166b2b228564452ccc63127aba1c53c1f73bd2189c9c486d383f2a",
    "model_integrated.lp": "77ee7f02caf7716b1f31fc194102d5c347504b2a08ec0007068eda66ba70352f",
}


def test_bundled_store_lp_files_are_pinned(tmp_path):
    """export-lp --mode all on the bundled store writes the same three files,
    byte for byte, as the dict-and-join construction did."""
    out = tmp_path / "lp"
    argv = [
        "export-lp",
        "--store", str(FIXTURES / "synthetic_store.json"),
        "--transactions", str(FIXTURES / "synthetic_transactions.csv"),
        "--out", str(out),
        "--mode", "all",
        "--baseline", str(FIXTURES / "current_layout.json"),
    ]
    assert main(argv) == 0
    for name, digest in BUNDLED_LP_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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
        report = validate_solution(inst, model, ExternalSolution(values, None), tolerance=1e-6)
        assert report.feasible
