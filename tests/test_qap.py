"""Restricted-assignment QAP core: objective, deltas, feasibility,
builders, serialization, and the solution pool."""

from __future__ import annotations

import itertools
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    catalog_for,
    enumerate_optimum,
    line_store,
    random_level1_instance,
    random_level2_instance,
)
from storelayout.demand import CHECK_IN, CHECK_OUT, expected_transitions, load_transactions
from storelayout.errors import InputError, ModelError, ValidationError
from storelayout.qap import (
    Assignment,
    Block,
    QapInstance,
    SolutionPool,
    SwapScan,
    build_level1_instance,
    build_level2_instance,
    check_feasible,
    eligibility_from_blocks,
    objective,
    objective_of_permutation,
    swap_candidate_pairs,
    swap_delta,
    swap_delta_matrix,
    swap_delta_perm,
)
from storelayout.solvers import random_assignment
from storelayout.store import ENTRANCE_POS, EXIT_POS, build_exposure_matrices


def loop_objective(instance: QapInstance, perm) -> float:
    """Independent O(n^2) reference: no vectorization, no shared code."""
    total = 0.0
    for i1 in range(instance.n):
        for i2 in range(instance.n):
            total += instance.flow[i1, i2] * instance.exposure[perm[i1], perm[i2]]
    return total


def feasible_perms(instance: QapInstance):
    n = instance.n
    for perm in itertools.permutations(range(n)):
        if all(instance.eligibility[i, perm[i]] for i in range(n)):
            yield np.array(perm, dtype=np.int64)


def simple_instance(n: int = 4, seed: int = 0) -> QapInstance:
    rng = Random(seed)
    flow = np.array([[rng.uniform(0, 5) for _ in range(n)] for _ in range(n)])
    expo = np.array([[rng.uniform(0, 5) for _ in range(n)] for _ in range(n)])
    return QapInstance(
        level="level1",
        product_ids=tuple(f"p{i}" for i in range(n)),
        position_ids=tuple(f"q{k}" for k in range(n)),
        flow=flow,
        exposure=expo,
        eligibility=np.ones((n, n), dtype=bool),
    )


class TestObjective:
    def test_matches_loop_oracle(self):
        rng = Random(7)
        for trial in range(25):
            inst = random_level1_instance(rng, rng.randint(2, 5))
            for perm in feasible_perms(inst):
                got = objective_of_permutation(inst, perm)
                assert got == pytest.approx(loop_objective(inst, perm), rel=1e-12)

    def test_assignment_form_agrees(self):
        inst = simple_instance(4)
        perm = np.array([2, 0, 3, 1])
        asg = inst.assignment_from_permutation(perm)
        assert objective(inst, asg) == objective_of_permutation(inst, perm)

    def test_infeasible_assignment_rejected(self):
        rng = Random(3)
        inst = random_level2_instance(rng, (2, 2))
        bad = dict(inst.assignment_from_permutation(np.arange(inst.n)).mapping)
        # cross two products between blocks
        ids = [p for p in inst.product_ids if p not in (CHECK_IN, CHECK_OUT)]
        bad[ids[0]], bad[ids[-1]] = bad[ids[-1]], bad[ids[0]]
        with pytest.raises(ValidationError):
            objective(inst, Assignment.from_mapping(bad))


class TestSwapDelta:
    def test_matches_recompute(self):
        rng = Random(11)
        for trial in range(40):
            inst = random_level1_instance(rng, rng.randint(2, 6), full_eligibility=True)
            perms = list(feasible_perms(inst))
            perm = perms[rng.randrange(len(perms))]
            asg = inst.assignment_from_permutation(perm)
            a, b = rng.sample(range(inst.n), 2)
            if not (inst.eligibility[a, perm[b]] and inst.eligibility[b, perm[a]]):
                continue
            base = objective_of_permutation(inst, perm)
            swapped = perm.copy()
            swapped[a], swapped[b] = swapped[b], swapped[a]
            want = objective_of_permutation(inst, swapped) - base
            got = swap_delta(inst, asg, inst.product_ids[a], inst.product_ids[b])
            assert got == pytest.approx(want, abs=1e-9)

    def test_same_product_is_zero(self):
        inst = simple_instance(3)
        asg = inst.assignment_from_permutation(np.arange(3))
        assert swap_delta(inst, asg, "p1", "p1") == 0.0

    def test_ineligible_swap_returns_none(self):
        rng = Random(2)
        inst = random_level2_instance(rng, (2, 2))
        perm = np.arange(inst.n)
        asg = inst.assignment_from_permutation(perm)
        ids = [p for p in inst.product_ids if p not in (CHECK_IN, CHECK_OUT)]
        # products from different blocks cannot trade slots
        assert swap_delta(inst, asg, ids[0], ids[-1]) is None

    def test_unassigned_product_rejected(self):
        inst = simple_instance(3)
        asg = Assignment.from_mapping({"p0": "q0", "p1": "q1", "p2": "q2"})
        with pytest.raises(InputError):
            swap_delta(inst, asg, "p0", "missing")

    def test_matrix_matches_scalar_everywhere(self):
        rng = Random(23)
        for trial in range(10):
            n = rng.randint(2, 7)
            flow = np.array([[rng.uniform(-2, 5) for _ in range(n)] for _ in range(n)])
            expo = np.array([[rng.uniform(-2, 5) for _ in range(n)] for _ in range(n)])
            perm = np.array(rng.sample(range(n), n))
            mat = swap_delta_matrix(flow, expo, perm)
            for a in range(n):
                for b in range(n):
                    want = swap_delta_perm(flow, expo, perm, a, b)
                    assert mat[a, b] == pytest.approx(want, abs=1e-9)

    def test_matrix_is_symmetric(self):
        rng = Random(5)
        inst = random_level1_instance(rng, 5)
        perm = next(iter(feasible_perms(inst)))
        mat = swap_delta_matrix(inst.flow, inst.exposure, perm)
        assert np.allclose(mat, mat.T)


def signed_values(instance: QapInstance, rng: Random) -> QapInstance:
    """Same eligibility and blocks, asymmetric real-valued flow and exposure
    with negative entries."""
    n = instance.n
    return QapInstance(
        level=instance.level,
        product_ids=instance.product_ids,
        position_ids=instance.position_ids,
        flow=np.array([[rng.uniform(-3, 5) for _ in range(n)] for _ in range(n)]),
        exposure=np.array([[rng.uniform(-3, 5) for _ in range(n)] for _ in range(n)]),
        eligibility=instance.eligibility,
        blocks=instance.blocks,
    )


class TestSwapScan:
    def instances(self, seed: int):
        rng = Random(seed)
        for trial in range(30):
            if trial % 2 == 0:
                inst = random_level1_instance(rng, rng.randint(2, 6))
            else:
                sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
                inst = random_level2_instance(rng, sizes)
            yield rng, signed_values(inst, rng)

    def test_matches_scalar_kernel_and_recompute(self):
        for rng, inst in self.instances(29):
            perm = random_assignment(inst, rng)
            a, b = np.nonzero(np.triu(np.ones((inst.n, inst.n), dtype=bool), k=1))
            got = SwapScan(inst.flow, inst.exposure, perm[None], a, b).deltas()[0]
            base = objective_of_permutation(inst, perm)
            scale = float((np.abs(inst.flow) * np.abs(inst.exposure[np.ix_(perm, perm)])).sum())
            for p, (x, y) in enumerate(zip(a, b)):
                swapped = perm.copy()
                swapped[x], swapped[y] = swapped[y], swapped[x]
                for want in (
                    swap_delta_perm(inst.flow, inst.exposure, perm, x, y),
                    objective_of_permutation(inst, swapped) - base,
                ):
                    assert abs(got[p] - want) <= 1e-9 * scale

    def test_agrees_with_matrix_reference(self):
        for rng, inst in self.instances(31):
            perm = random_assignment(inst, rng)
            a, b = swap_candidate_pairs(inst.eligibility)
            got = SwapScan(inst.flow, inst.exposure, perm[None], a, b).deltas()[0]
            want = swap_delta_matrix(inst.flow, inst.exposure, perm)[a, b]
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_swaps_keep_permuted_exposure_exact(self):
        rng = Random(37)
        n = 9
        flow = np.array([[rng.uniform(-3, 5) for _ in range(n)] for _ in range(n)])
        expo = np.array([[rng.uniform(-3, 5) for _ in range(n)] for _ in range(n)])
        perm = np.array(rng.sample(range(n), n))
        a, b = np.nonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
        scan = SwapScan(flow, expo, perm[None], a, b)
        for _ in range(500):
            x, y = rng.sample(range(n), 2)
            perm[x], perm[y] = perm[y], perm[x]
            scan.swap(x, y, 0)
        assert np.array_equal(scan.h[0], expo[np.ix_(perm, perm)])
        # the transposed copy stayed in step too: deltas equal a fresh scan's
        fresh = SwapScan(flow, expo, perm[None], a, b)
        assert np.array_equal(scan.deltas(), fresh.deltas())


class TestSwapScanLanes:
    """A scan over L lanes gives each lane the bits of a one-lane scan of
    its permutation, whatever L, the pair count and the swaps so far."""

    def test_lane_deltas_bit_equal_to_one_lane_scans(self):
        rng = np.random.default_rng(47)
        for trial in range(60):
            n = int(rng.integers(2, 40))
            lanes = int(rng.integers(1, 7))
            flow = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
            expo = rng.standard_normal((n, n))
            upper = np.triu(np.ones((n, n), dtype=bool), k=1)
            # pair counts 1-3 go through a different small-size BLAS path
            count = min(int(upper.sum()), (1, 2, 3, 5, 48)[trial % 5])
            keep = rng.permutation(int(upper.sum()))[:count]
            a, b = (axis[np.sort(keep)] for axis in np.nonzero(upper))
            perms = np.stack([rng.permutation(n) for _ in range(lanes)])
            scan = SwapScan(flow, expo, perms.copy(), a, b)
            for _ in range(15):
                got = scan.deltas()
                assert got.shape == (lanes, len(a))
                for lane, perm in enumerate(perms):
                    want = SwapScan(flow, expo, perm[None].copy(), a, b).deltas()[0]
                    assert got[lane].tobytes() == want.tobytes()
                for lane, perm in enumerate(perms):
                    x, y = (int(v) for v in rng.choice(n, 2, replace=False))
                    perm[x], perm[y] = perm[y], perm[x]
                    scan.swap(x, y, lane)
            assert np.array_equal(scan.h, expo[perms[:, :, None], perms[:, None, :]])


class TestStackedObjective:
    """objective_of_permutation over an (L, n) stack: entry l has the bits
    of the call on row l alone, so lanes rescore exactly as one walk does."""

    def test_rows_bit_equal_to_single_calls(self):
        rng = np.random.default_rng(53)
        for n in range(2, 131):
            density = (0.05, 0.3, 1.0)[n % 3]
            flow = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
            expo = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-2, 3, size=(n, n))
            inst = QapInstance(
                level="level1",
                product_ids=tuple(f"p{i}" for i in range(n)),
                position_ids=tuple(f"q{k}" for k in range(n)),
                flow=flow,
                exposure=expo,
                eligibility=np.ones((n, n), dtype=bool),
            )
            perms = np.stack([rng.permutation(n) for _ in range(int(rng.integers(1, 7)))])
            got = objective_of_permutation(inst, perms)
            assert got.shape == (len(perms),)
            want = [objective_of_permutation(inst, perm) for perm in perms]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


class TestSwapCandidatePairs:
    def test_cover_every_allowed_swap(self):
        rng = Random(41)
        for trial in range(20):
            if trial % 2 == 0:
                inst = random_level1_instance(rng, rng.randint(2, 5))
            else:
                inst = random_level2_instance(rng, (rng.randint(1, 3), rng.randint(1, 3)))
            a, b = swap_candidate_pairs(inst.eligibility)
            pairs = set(zip(a.tolist(), b.tolist()))
            elig = inst.eligibility
            allowed = {
                (x, y)
                for perm in feasible_perms(inst)
                for x in range(inst.n)
                for y in range(x + 1, inst.n)
                if elig[x, perm[y]] and elig[y, perm[x]]
            }
            assert allowed <= pairs

    def test_row_major_and_masked(self):
        inst = random_level2_instance(Random(43), (3, 2))
        a, b = swap_candidate_pairs(inst.eligibility)
        assert list(zip(a, b)) == sorted(zip(a, b))
        assert all(x < y for x, y in zip(a, b))
        # pinned dummies and cross-block pairs never appear
        assert set(zip(a.tolist(), b.tolist())) == {(1, 2), (1, 3), (2, 3), (4, 5)}
        # products pinned to one position each, as block_descent's fallback
        # pins those outside its block, pair with no product
        elig = inst.eligibility.copy()
        elig[[1, 2, 3]] = np.eye(inst.n, dtype=bool)[[1, 2, 3]]
        a, b = swap_candidate_pairs(elig)
        assert list(zip(a.tolist(), b.tolist())) == [(4, 5)]


class TestDoorPins:
    def test_pinned_fills_only_absent_doors(self):
        assert Assignment.pinned({"a": "k1"}).mapping == {
            "a": "k1", CHECK_IN: ENTRANCE_POS, CHECK_OUT: EXIT_POS,
        }
        kept = Assignment.pinned({"a": "k1", CHECK_IN: "k2"})
        assert kept.mapping == {"a": "k1", CHECK_IN: "k2", CHECK_OUT: EXIT_POS}

    def test_shelf_mapping_drops_doors_in_pair_order(self):
        asg = Assignment.pinned({"b": "k1", "a": "k2"})
        assert list(asg.shelf_mapping.items()) == [("a", "k2"), ("b", "k1")]
        assert Assignment.pinned(asg.shelf_mapping) == asg


class TestFeasibility:
    def test_clean_assignment_passes(self):
        inst = simple_instance(3)
        report = check_feasible(inst, inst.assignment_from_permutation(np.array([1, 2, 0])))
        assert report.ok and report.violations == ()

    def test_every_violation_reported(self):
        inst = simple_instance(3)
        report = check_feasible(
            inst,
            Assignment.from_mapping({"p0": "q0", "ghost": "q9", "p1": "q0"}),
        )
        assert not report.ok
        text = "\n".join(report.violations)
        assert "ghost" in text
        assert "q9" in text
        assert "multiple" in text
        assert "p2" in text  # unassigned

    def test_block_violation_names_the_block(self):
        rng = Random(1)
        inst = random_level2_instance(rng, (2, 2))
        bad = dict(inst.assignment_from_permutation(np.arange(inst.n)).mapping)
        ids = [p for p in inst.product_ids if p not in (CHECK_IN, CHECK_OUT)]
        bad[ids[0]], bad[ids[-1]] = bad[ids[-1]], bad[ids[0]]
        report = check_feasible(inst, Assignment.from_mapping(bad))
        assert not report.ok
        assert any("block" in v for v in report.violations)


class TestInstanceValidation:
    def test_dummy_product_must_sit_first(self):
        with pytest.raises(InputError):
            QapInstance(
                level="level1",
                product_ids=("a", CHECK_IN),
                position_ids=(ENTRANCE_POS, "k"),
                flow=np.zeros((2, 2)),
                exposure=np.zeros((2, 2)),
                eligibility=np.ones((2, 2), dtype=bool),
            )

    def test_check_in_pinned_to_entrance_only(self):
        elig = np.ones((3, 3), dtype=bool)
        with pytest.raises(InputError):
            QapInstance(
                level="level1",
                product_ids=(CHECK_IN, "a", CHECK_OUT),
                position_ids=(ENTRANCE_POS, "k", EXIT_POS),
                flow=np.zeros((3, 3)),
                exposure=np.zeros((3, 3)),
                eligibility=elig,
            )

    def test_pinned_dummies_accepted(self):
        elig = np.zeros((3, 3), dtype=bool)
        elig[0, 0] = elig[2, 2] = True
        elig[1, 1] = True
        inst = QapInstance(
            level="level1",
            product_ids=(CHECK_IN, "a", CHECK_OUT),
            position_ids=(ENTRANCE_POS, "k", EXIT_POS),
            flow=np.zeros((3, 3)),
            exposure=np.zeros((3, 3)),
            eligibility=elig,
        )
        assert inst.free_product_count() == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            QapInstance(
                level="level1",
                product_ids=("a", "b"),
                position_ids=("k1", "k2"),
                flow=np.zeros((3, 3)),
                exposure=np.zeros((2, 2)),
                eligibility=np.ones((2, 2), dtype=bool),
            )

    def test_non_finite_flow_rejected(self):
        flow = np.zeros((2, 2))
        flow[0, 1] = np.inf
        with pytest.raises(InputError):
            QapInstance(
                level="level1",
                product_ids=("a", "b"),
                position_ids=("k1", "k2"),
                flow=flow,
                exposure=np.zeros((2, 2)),
                eligibility=np.ones((2, 2), dtype=bool),
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            QapInstance(
                level="level1",
                product_ids=("a", "a"),
                position_ids=("k1", "k2"),
                flow=np.zeros((2, 2)),
                exposure=np.zeros((2, 2)),
                eligibility=np.ones((2, 2), dtype=bool),
            )

    def test_empty_eligibility_row_is_model_error(self):
        elig = np.ones((2, 2), dtype=bool)
        elig[1, :] = False
        with pytest.raises(ModelError) as err:
            QapInstance(
                level="level1",
                product_ids=("a", "b"),
                position_ids=("k1", "k2"),
                flow=np.zeros((2, 2)),
                exposure=np.zeros((2, 2)),
                eligibility=elig,
            )
        assert "b" in str(err.value)

    def test_hall_violation_is_model_error(self):
        # three products squeezed into two positions
        elig = np.zeros((3, 3), dtype=bool)
        elig[:, 0] = elig[:, 1] = True
        elig[2, 2] = False
        elig[0, 2] = False
        elig[1, 2] = False
        elig[2, 0] = True
        with pytest.raises(ModelError):
            QapInstance(
                level="level1",
                product_ids=("a", "b", "c"),
                position_ids=("k1", "k2", "k3"),
                flow=np.zeros((3, 3)),
                exposure=np.zeros((3, 3)),
                eligibility=elig,
            )

    def test_level2_requires_blocks(self):
        with pytest.raises(InputError):
            QapInstance(
                level="level2",
                product_ids=("a", "b"),
                position_ids=("k1", "k2"),
                flow=np.zeros((2, 2)),
                exposure=np.zeros((2, 2)),
                eligibility=np.ones((2, 2), dtype=bool),
            )

    def test_level1_rejects_blocks(self):
        blk = Block("c", "l", ("a",), ("k1",))
        with pytest.raises(InputError):
            QapInstance(
                level="level1",
                product_ids=("a",),
                position_ids=("k1",),
                flow=np.zeros((1, 1)),
                exposure=np.zeros((1, 1)),
                eligibility=np.ones((1, 1), dtype=bool),
                blocks=(blk,),
            )

    def test_block_size_mismatch_is_model_error(self):
        blocks = (Block("c", "l", ("a", "b"), ("k1",)),)
        elig = np.ones((2, 2), dtype=bool)
        with pytest.raises(ModelError):
            QapInstance(
                level="level2",
                product_ids=("a", "b"),
                position_ids=("k1", "k2"),
                flow=np.zeros((2, 2)),
                exposure=np.zeros((2, 2)),
                eligibility=elig,
                blocks=blocks,
            )

    def test_uncovered_product_rejected(self):
        blocks = (Block("c", "l", ("a",), ("k1",)),)
        elig = eligibility_from_blocks(("a", "b"), ("k1", "k2"), blocks)
        elig[1, 1] = True
        with pytest.raises(InputError):
            QapInstance(
                level="level2",
                product_ids=("a", "b"),
                position_ids=("k1", "k2"),
                flow=np.zeros((2, 2)),
                exposure=np.zeros((2, 2)),
                eligibility=elig,
                blocks=blocks,
            )

    def test_eligibility_must_match_blocks(self):
        blocks = (
            Block("c1", "l1", ("a",), ("k1",)),
            Block("c2", "l2", ("b",), ("k2",)),
        )
        elig = np.ones((2, 2), dtype=bool)
        with pytest.raises(InputError):
            QapInstance(
                level="level2",
                product_ids=("a", "b"),
                position_ids=("k1", "k2"),
                flow=np.zeros((2, 2)),
                exposure=np.zeros((2, 2)),
                eligibility=elig,
                blocks=blocks,
            )


class TestBuilders:
    @staticmethod
    def fixture_pieces(group_sizes=(2, 1)):
        graph = line_store(sum(group_sizes), group_sizes)
        catalog = catalog_for(group_sizes)
        sub_ids = [s.subcategory_id for s in catalog.subcategories]
        txns = load_transactions([("t1", sid) for sid in sub_ids], catalog)
        matrices = expected_transitions(txns, catalog)
        exposures = build_exposure_matrices(graph)
        return graph, catalog, matrices, exposures

    def test_level1_axes_and_pinning(self):
        graph, catalog, matrices, exposures = self.fixture_pieces()
        inst = build_level1_instance(exposures, matrices)
        assert inst.product_ids[0] == CHECK_IN and inst.product_ids[-1] == CHECK_OUT
        assert inst.position_ids[0] == ENTRANCE_POS and inst.position_ids[-1] == EXIT_POS
        assert inst.eligibility[0].sum() == 1 and inst.eligibility[-1].sum() == 1
        # real categories may take any real location when unrestricted
        assert inst.eligibility[1:-1, 1:-1].all()
        assert not inst.eligibility[1:-1, 0].any()

    def test_level1_eligibility_restriction(self):
        graph, catalog, matrices, exposures = self.fixture_pieces()
        inst = build_level1_instance(
            exposures, matrices, eligibility={"C1": ["L1"], "C2": ["L2"]}
        )
        assert inst.free_product_count() == 0
        assert objective_of_permutation(inst, np.arange(inst.n)) >= 0

    def test_level1_rejects_dummy_position_grant(self):
        graph, catalog, matrices, exposures = self.fixture_pieces()
        with pytest.raises(InputError):
            build_level1_instance(exposures, matrices, eligibility={"C1": [ENTRANCE_POS]})

    def test_level1_rejects_unknown_position(self):
        graph, catalog, matrices, exposures = self.fixture_pieces()
        with pytest.raises(InputError):
            build_level1_instance(exposures, matrices, eligibility={"C1": ["nowhere"]})

    def test_level2_block_structure(self):
        graph, catalog, matrices, exposures = self.fixture_pieces((2, 1))
        l1 = Assignment.from_mapping({"C1": "L1", "C2": "L2"})
        inst = build_level2_instance(exposures, matrices, l1, catalog, graph)
        assert inst.level == "level2"
        assert len(inst.blocks) == 2
        blk = inst.blocks[0]
        assert blk.category_id == "C1" and blk.location_id == "L1"
        assert set(blk.product_ids) == {"u1", "u2"}

    def test_level2_swapped_anchor_changes_blocks(self):
        graph, catalog, matrices, exposures = self.fixture_pieces((2, 2))
        a = build_level2_instance(
            exposures, matrices, Assignment.from_mapping({"C1": "L1", "C2": "L2"}), catalog, graph
        )
        b = build_level2_instance(
            exposures, matrices, Assignment.from_mapping({"C1": "L2", "C2": "L1"}), catalog, graph
        )
        assert not np.array_equal(a.eligibility, b.eligibility)

    def test_level2_missing_category(self):
        graph, catalog, matrices, exposures = self.fixture_pieces()
        with pytest.raises(ValidationError):
            build_level2_instance(
                exposures, matrices, Assignment.from_mapping({"C1": "L1"}), catalog, graph
            )

    def test_level2_reused_location(self):
        graph, catalog, matrices, exposures = self.fixture_pieces()
        with pytest.raises(ValidationError):
            build_level2_instance(
                exposures,
                matrices,
                Assignment.from_mapping({"C1": "L1", "C2": "L1"}),
                catalog,
                graph,
            )

    def test_level2_capacity_mismatch_is_model_error(self):
        graph, catalog, matrices, exposures = self.fixture_pieces((2, 1))
        with pytest.raises(ModelError):
            build_level2_instance(
                exposures,
                matrices,
                Assignment.from_mapping({"C1": "L2", "C2": "L1"}),
                catalog,
                graph,
            )


def held(pool: SolutionPool) -> list[tuple[float, tuple[int, ...]]]:
    """The pool's entries as (objective, permutation) pairs, best first."""
    return [
        (e.objective, tuple(pool.instance.permutation_of(e.assignment).tolist()))
        for e in pool.entries
    ]


class TestSolutionPool:
    def test_orders_by_objective_then_permutation(self):
        inst = simple_instance(3)
        pool = SolutionPool(inst, capacity=5, gap=0.9)
        pool.offer(np.array([0, 1, 2]), 10.0)
        pool.offer(np.array([2, 1, 0]), 12.0)
        pool.offer(np.array([1, 0, 2]), 12.0)
        objs = [e.objective for e in pool.entries]
        assert objs == [12.0, 12.0, 10.0]
        # tie broken toward the lexicographically smaller permutation
        assert held(pool)[0] == (12.0, (1, 0, 2))

    def test_deduplicates_by_assignment(self):
        inst = simple_instance(3)
        pool = SolutionPool(inst, capacity=5, gap=0.5)
        assert pool.offer(np.array([0, 1, 2]), 10.0)
        assert not pool.offer(np.array([0, 1, 2]), 10.0)
        assert len(pool) == 1

    def test_gap_filter(self):
        inst = simple_instance(3)
        pool = SolutionPool(inst, capacity=10, gap=0.1)
        pool.offer(np.array([0, 1, 2]), 100.0)
        assert not pool.offer(np.array([1, 0, 2]), 89.0)  # below 90
        assert pool.offer(np.array([2, 1, 0]), 91.0)
        assert len(pool) == 2

    def test_better_arrival_evicts_stale_tail(self):
        inst = simple_instance(3)
        pool = SolutionPool(inst, capacity=10, gap=0.1)
        pool.offer(np.array([0, 1, 2]), 91.0)
        pool.offer(np.array([1, 0, 2]), 100.0)
        pool.offer(np.array([2, 1, 0]), 120.0)  # pushes cut to 108
        assert [e.objective for e in pool.entries] == [120.0]

    def test_capacity_cap(self):
        inst = simple_instance(4)
        pool = SolutionPool(inst, capacity=2, gap=0.9)
        pool.offer(np.array([0, 1, 2, 3]), 5.0)
        pool.offer(np.array([1, 0, 2, 3]), 6.0)
        pool.offer(np.array([2, 1, 0, 3]), 7.0)
        assert len(pool) == 2
        assert [e.objective for e in pool.entries] == [7.0, 6.0]

    def test_order_independence(self):
        inst = simple_instance(4)
        rng = Random(31)
        offers = []
        for perm in itertools.permutations(range(4)):
            offers.append((np.array(perm), float(rng.randint(0, 30))))
        final_states = []
        for trial in range(6):
            shuffled = offers[:]
            Random(trial).shuffle(shuffled)
            pool = SolutionPool(inst, capacity=4, gap=0.25)
            for perm, val in shuffled:
                pool.offer(perm, val)
            final_states.append(held(pool))
        assert all(state == final_states[0] for state in final_states)

    def test_small_capacity_prefix_of_large(self):
        inst = simple_instance(4)
        rng = Random(37)
        offers = [
            (np.array(perm), float(rng.randint(0, 30)))
            for perm in itertools.permutations(range(4))
        ]
        big = SolutionPool(inst, capacity=10, gap=0.3)
        small = SolutionPool(inst, capacity=1, gap=0.3)
        for perm, val in offers:
            big.offer(perm, val)
            small.offer(perm, val)
        assert held(small)[0] == held(big)[0]

    def test_early_rejections_change_nothing(self):
        # reference: every offer is inserted, sorted and cut; the pool's
        # early exits must give the same answers and the same contents
        inst = simple_instance(4)
        perms = list(itertools.permutations(range(4)))
        for trial in range(20):
            rng = Random(trial)
            capacity, gap = rng.randint(1, 5), rng.choice([0.0, 0.05, 0.3])
            pool = SolutionPool(inst, capacity=capacity, gap=gap)
            ref: list[tuple[float, tuple[int, ...]]] = []
            for _ in range(60):
                key = perms[rng.randrange(len(perms))]
                value = float(rng.randint(80, 100))
                if any(k == key for _, k in ref):
                    want = False
                else:
                    ref = sorted(ref + [(value, key)], key=lambda e: (-e[0], e[1]))
                    cut = ref[0][0] - gap * abs(ref[0][0])
                    ref = [e for e in ref if e[0] >= cut][:capacity]
                    want = any(k == key for _, k in ref)
                assert pool.offer(np.array(key), value) == want
                assert held(pool) == ref

    def test_empty_pool_best_raises(self):
        inst = simple_instance(3)
        pool = SolutionPool(inst)
        with pytest.raises(ModelError):
            pool.best_objective

    def test_bad_parameters(self):
        inst = simple_instance(3)
        with pytest.raises(InputError):
            SolutionPool(inst, capacity=0)
        with pytest.raises(InputError):
            SolutionPool(inst, gap=1.0)


_POOL_KEYS = list(itertools.permutations(range(4)))


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.sampled_from([-3.0, 0.0, 10.0, 10.5, 11.0, 12.0, 100.0]),
        min_size=len(_POOL_KEYS),
        max_size=len(_POOL_KEYS),
    ),
    picks=st.lists(st.integers(0, len(_POOL_KEYS) - 1), min_size=1, max_size=40),
    capacity=st.integers(1, 5),
    gap=st.sampled_from([0.0, 0.05, 0.2, 0.9]),
    order=st.randoms(use_true_random=False),
)
def test_pool_contents_do_not_depend_on_offer_order(values, picks, capacity, gap, order):
    # lockstep tabu lanes interleave their offers to one shared pool, so
    # what the pool holds must be a function of the set of offers: repeats
    # (an assignment always carries one objective), ties, the gap cut and
    # the capacity cut included
    inst = simple_instance(4)
    offers = [(_POOL_KEYS[i], values[i]) for i in picks]
    shuffled = offers[:]
    order.shuffle(shuffled)

    def contents(seq):
        pool = SolutionPool(inst, capacity=capacity, gap=gap)
        for key, value in seq:
            pool.offer(np.array(key), value)
        return held(pool)

    distinct = sorted({(value, key) for key, value in offers}, key=lambda e: (-e[0], e[1]))
    best = distinct[0][0]
    want = [e for e in distinct if e[0] >= best - gap * abs(best)][:capacity]
    assert contents(offers) == want
    assert contents(shuffled) == want


class TestAssignment:
    def test_mapping_round_trip(self):
        asg = Assignment.from_mapping({"b": "k2", "a": "k1"})
        assert asg.mapping == {"a": "k1", "b": "k2"}
        assert asg.mapping.get("a") == "k1"
        assert asg.mapping.get("zz") is None

    def test_pairs_are_sorted(self):
        asg = Assignment.from_mapping({"b": "k2", "a": "k1"})
        assert asg.pairs == (("a", "k1"), ("b", "k2"))

    def test_permutation_round_trip(self):
        rng = Random(41)
        inst = random_level1_instance(rng, 5)
        for perm in itertools.islice(feasible_perms(inst), 20):
            asg = inst.assignment_from_permutation(perm)
            assert np.array_equal(inst.permutation_of(asg), perm)


class TestEnumerationOracleAgreement:
    def test_enumerate_optimum_attainable(self):
        rng = Random(43)
        for trial in range(10):
            inst = random_level1_instance(rng, rng.randint(2, 5))
            best = enumerate_optimum(inst)
            vals = [objective_of_permutation(inst, p) for p in feasible_perms(inst)]
            assert best == pytest.approx(max(vals), rel=1e-12)
