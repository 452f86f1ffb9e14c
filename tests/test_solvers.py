"""Solver correctness against enumeration, determinism, and the
hierarchical driver's pooling behavior."""

from __future__ import annotations

import itertools
from dataclasses import replace
from pathlib import Path
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
from storelayout import solvers
from storelayout.demand import expected_transitions, load_transactions, read_transactions_csv
from storelayout.errors import InputError, ModelError, ValidationError
from storelayout.qap import (
    Assignment,
    Block,
    QapInstance,
    SolutionPool,
    build_level1_instance,
    build_level2_instance,
    check_feasible,
    eligibility_from_blocks,
    objective,
    objective_of_permutation,
    swap_candidate_pairs,
    swap_delta_matrix,
)
from storelayout.solvers import (
    BRUTE_FORCE_CAP,
    SolverConfig,
    _better,
    _mix_seed,
    _tabu_lanes,
    block_descent,
    branch_and_bound,
    brute_force,
    evaluate_layout,
    greedy_assignment,
    induced_level1_assignment,
    random_assignment,
    solve_hierarchical,
    solve_level1,
    solve_level2,
    tabu_search,
)
from storelayout.store import build_exposure_matrices
from storelayout.storefile import load_store

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def small_fixture(group_sizes=(2, 2), records=None):
    graph = line_store(sum(group_sizes), group_sizes)
    catalog = catalog_for(group_sizes)
    if records is None:
        sub_ids = [s.subcategory_id for s in catalog.subcategories]
        records = [("t1", sid) for sid in sub_ids]
        records += [("t2", sub_ids[0]), ("t2", sub_ids[-1])]
    txns = load_transactions(records, catalog)
    matrices = expected_transitions(txns, catalog)
    exposures = build_exposure_matrices(graph)
    return graph, catalog, matrices, exposures


class TestBruteForce:
    def test_matches_enumeration_oracle(self):
        rng = Random(211)
        for trial in range(20):
            if trial % 2 == 0:
                inst = random_level1_instance(rng, rng.randint(2, 5))
            else:
                inst = random_level2_instance(rng, (rng.randint(1, 3), rng.randint(1, 3)))
            result = brute_force(inst)
            assert result.objective == pytest.approx(enumerate_optimum(inst), rel=1e-12)
            assert result.certified and result.gap == 0.0
            assert check_feasible(inst, result.assignment).ok

    def test_cap_refuses_large_instances(self):
        rng = Random(223)
        inst = random_level1_instance(rng, 10, full_eligibility=True)
        assert inst.free_product_count() > BRUTE_FORCE_CAP
        with pytest.raises(ModelError, match="brute-force cap"):
            brute_force(inst)

    def test_single_node_instance(self):
        inst = random_level2_instance(Random(2), (1,))
        result = brute_force(inst)
        assert result.objective == pytest.approx(enumerate_optimum(inst))


class TestBranchAndBound:
    def test_agrees_with_brute_force_exactly(self):
        rng = Random(227)
        for trial in range(30):
            if trial % 2 == 0:
                inst = random_level1_instance(rng, rng.randint(2, 5))
            else:
                inst = random_level2_instance(rng, (rng.randint(1, 3), rng.randint(1, 3)))
            exact = brute_force(inst)
            bnb = branch_and_bound(inst)
            assert bnb.objective == exact.objective  # bit-equal, same evaluator
            assert bnb.certified
            assert bnb.bound is not None and bnb.bound >= bnb.objective - 1e-9

    def test_prunes_against_enumeration_node_count(self):
        rng = Random(229)
        inst = random_level1_instance(rng, 5, full_eligibility=True)
        exact = brute_force(inst)
        bnb = branch_and_bound(inst)
        assert bnb.objective == exact.objective
        assert bnb.nodes > 0

    def test_node_limit_downgrades_certification(self, monkeypatch):
        rng = Random(233)
        inst = random_level1_instance(rng, 5, full_eligibility=True)
        monkeypatch.setattr(solvers, "NODE_LIMIT", 40)
        result = branch_and_bound(inst)
        if not result.certified:
            assert result.bound is not None and result.bound >= result.objective
            assert result.gap is not None and result.gap >= 0.0
            assert any("node limit" in note for note in result.notes)

    def test_collects_pool_within_gap(self):
        from storelayout.qap import SolutionPool

        rng = Random(239)
        inst = random_level1_instance(rng, 4, full_eligibility=True)
        pool = SolutionPool(inst, capacity=50, gap=0.05)
        branch_and_bound(inst, pool=pool)
        best = pool.best_objective
        for entry in pool.entries:
            assert entry.objective >= best - 0.05 * abs(best) - 1e-9


class TestTabuSearch:
    def test_deterministic_per_seed(self, monkeypatch):
        rng = Random(241)
        inst = random_level1_instance(rng, 6, full_eligibility=True)
        monkeypatch.setattr(solvers, "RESTARTS", 2)
        cfg = SolverConfig(seed=3, iteration_limit=300)
        a = tabu_search(inst, cfg)
        b = tabu_search(inst, cfg)
        assert a.objective == b.objective
        assert a.assignment == b.assignment

    def test_never_worse_than_initial(self, monkeypatch):
        rng = Random(251)
        monkeypatch.setattr(solvers, "RESTARTS", 1)
        for trial in range(10):
            inst = random_level1_instance(rng, 5, full_eligibility=True)
            start = inst.assignment_from_permutation(random_assignment(inst, Random(trial)))
            start_obj = objective_of_permutation(inst, inst.permutation_of(start))
            result = tabu_search(
                inst, SolverConfig(seed=trial, iteration_limit=100), initial=start
            )
            assert result.objective >= start_obj - 1e-12

    def test_usually_finds_small_optimum(self, monkeypatch):
        rng = Random(257)
        monkeypatch.setattr(solvers, "RESTARTS", 3)
        hits = 0
        trials = 20
        for trial in range(trials):
            inst = random_level1_instance(rng, 5, full_eligibility=True)
            exact = brute_force(inst)
            got = tabu_search(inst, SolverConfig(seed=trial, iteration_limit=400))
            if got.objective >= exact.objective - 1e-9:
                hits += 1
        assert hits >= int(0.95 * trials)

    def test_respects_eligibility(self, monkeypatch):
        rng = Random(263)
        inst = random_level1_instance(rng, 6)
        monkeypatch.setattr(solvers, "RESTARTS", 2)
        result = tabu_search(inst, SolverConfig(seed=0, iteration_limit=200))
        assert check_feasible(inst, result.assignment).ok


def full_scan_tabu_run(instance, start, iterations, tenure_range, rng, pool, move_mask=None):
    """The tabu run as it was before the pair scan: every iteration builds
    the whole n x n delta matrix and masks it. Kept as the oracle the pair
    scan must reproduce move for move. Its aspiration margin is the one
    _tabu_lanes uses: without it, whether a tabu move back to the incumbent
    "beats" it is decided by the round-off of each delta kernel."""
    flow, expo, elig = instance.flow, instance.exposure, instance.eligibility
    n = instance.n
    perm = start.copy()
    cur = objective_of_permutation(instance, perm)
    best_obj = cur
    best_perm = perm.copy()
    if pool is not None:
        pool.offer(perm.copy(), cur)
    lo = max(1, round(tenure_range[0] * n))
    hi = max(lo, round(tenure_range[1] * n))
    tabu_until = np.zeros((n, n), dtype=np.int64)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    if move_mask is not None:
        upper = upper & move_mask
    done = 0
    for it in range(1, iterations + 1):
        done = it
        e1 = elig[:, perm]
        allowed = e1 & e1.T & upper
        if not allowed.any():
            break
        delta = swap_delta_matrix(flow, expo, perm)
        t1 = tabu_until[:, perm] >= it
        tabu_move = t1 & t1.T
        aspire = best_obj + 1e-9 * max(1.0, abs(best_obj))
        admissible = allowed & (~tabu_move | (cur + delta > aspire))
        if not admissible.any():
            admissible = allowed
        scores = np.where(admissible, delta, -np.inf)
        a, b = divmod(int(np.argmax(scores)), n)
        tenure = rng.randint(lo, hi)
        tabu_until[a, perm[a]] = it + tenure
        tabu_until[b, perm[b]] = it + tenure
        perm[a], perm[b] = perm[b], perm[a]
        cur += float(delta[a, b])
        margin = 1e-6 * max(1.0, abs(best_obj))
        if pool is not None:
            margin += pool.gap * abs(best_obj)
        if cur >= best_obj - margin:
            canon = objective_of_permutation(instance, perm)
            cur = canon
            if pool is not None:
                pool.offer(perm.copy(), canon)
            if _better(canon, perm, best_obj, best_perm):
                best_obj = canon
                best_perm = perm.copy()
    return best_obj, best_perm, done


def equivalence_cases(seed: int, count: int = 20):
    """Random strategic instances (restricted eligibility) alternating with
    tactical ones (several blocks), each with a random feasible start."""
    rng = Random(seed)
    for trial in range(count):
        if trial % 2 == 0:
            inst = random_level1_instance(rng, rng.randint(4, 10))
        else:
            sizes = tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 4)))
            inst = random_level2_instance(rng, sizes)
        yield trial, inst, random_assignment(inst, Random(trial))


def block_mask(n: int, rows) -> np.ndarray:
    """The move mask the block_descent fallback once passed the tabu run:
    only pairs of two products in ``rows`` may swap."""
    mask = np.zeros((n, n), dtype=bool)
    mask[np.ix_(rows, rows)] = True
    return mask


def pin_outside(eligibility: np.ndarray, rows, perm) -> np.ndarray:
    """``eligibility`` with every product outside ``rows`` pinned to its
    position in ``perm``: the fallback's eligibility in place of the mask."""
    pinned = np.zeros_like(eligibility)
    pinned[np.arange(len(perm)), perm] = True
    pinned[rows] = eligibility[rows]
    return pinned


def one_lane(inst, start, iterations, rng, pool, eligibility=None):
    """A single tabu walk through _tabu_lanes, under the instance's own
    eligibility unless another is given."""
    elig = inst.eligibility if eligibility is None else eligibility
    return _tabu_lanes(inst, elig[None], [start], [rng], iterations, pool, None)[0]


class TestPairScanMatchesFullScan:
    """The pair scan must take the full scan's moves: same result, same
    iteration count and the same pool offers."""

    def assert_same(self, inst, start, trial, block_rows=None, with_pool=True):
        # with block_rows, the oracle masks the moves and the scan under
        # test pins every other product instead
        pools = [SolutionPool(inst, capacity=5, gap=0.02) if with_pool else None for _ in range(2)]
        mask = elig = None
        if block_rows is not None:
            mask = block_mask(inst.n, block_rows)
            elig = pin_outside(inst.eligibility, block_rows, start)
        want = full_scan_tabu_run(inst, start, 300, (0.1, 0.5), Random(trial), pools[0], mask)
        got = one_lane(inst, start, 300, Random(trial), pools[1], elig)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        if with_pool:
            assert [(e.objective, e.assignment) for e in pools[1].entries] == [
                (e.objective, e.assignment) for e in pools[0].entries
            ]

    def test_with_pool(self):
        for trial, inst, start in equivalence_cases(401):
            self.assert_same(inst, start, trial)

    def test_without_pool(self):
        for trial, inst, start in equivalence_cases(409):
            self.assert_same(inst, start, trial, with_pool=False)

    def test_block_move_mask(self):
        # the block_descent fallback: moves restricted to one block's rows
        rng = Random(419)
        for trial in range(20):
            sizes = tuple(rng.randint(2, 5) for _ in range(rng.randint(2, 4)))
            inst = random_level2_instance(rng, sizes)
            blk = inst.blocks[rng.randrange(len(inst.blocks))]
            rows = [inst.product_index(p) for p in blk.product_ids]
            start = random_assignment(inst, Random(trial))
            self.assert_same(inst, start, trial, block_rows=rows, with_pool=False)

    def test_ties_break_on_lowest_pair(self):
        # zero flow makes every delta exactly 0: each move is decided by
        # the tie-break alone, which must stay the full scan's row-major one
        rng = Random(433)
        for trial in range(5):
            base = random_level1_instance(rng, rng.randint(4, 8), full_eligibility=True)
            inst = replace(base, flow=np.zeros_like(base.flow))
            start = random_assignment(inst, Random(trial))
            self.assert_same(inst, start, trial)

    def test_no_movable_pair_stops_after_one_iteration(self):
        inst = random_level2_instance(Random(421), (1, 1, 1))
        start = random_assignment(inst, Random(0))
        obj, perm, done = one_lane(inst, start, 50, Random(0), None)
        assert done == 1
        assert np.array_equal(perm, start)
        assert obj == objective_of_permutation(inst, start)


class SerialSwapScan:
    """The one-permutation pair scan that lanes replaced, kept as the
    reference the lane axis must reproduce bit for bit."""

    def __init__(self, flow, exposure, perm, a, b):
        n = len(perm)
        self.n = n
        h = exposure[np.ix_(perm, perm)]
        self._hh = np.hstack([h, h.T])
        self._a, self._b = a, b
        self._dflow = np.hstack([flow[a] - flow[b], (flow[:, a] - flow[:, b]).T])
        self._s = flow[a, a] + flow[b, b] - flow[a, b] - flow[b, a]
        w = 2 * n
        self._corners = np.stack([a * w + a, b * w + b, a * w + b, b * w + a])
        self._signs = np.array([1.0, 1.0, -1.0, -1.0])

    def deltas(self):
        hh = self._hh
        dots = np.einsum("pk,pk->p", self._dflow, hh[self._b] - hh[self._a])
        return dots + self._s * (self._signs @ hh.take(self._corners))

    def swap(self, a, b):
        hh = self._hh
        row = hh[a].copy()
        hh[a] = hh[b]
        hh[b] = row
        for x, y in ((a, b), (self.n + a, self.n + b)):
            col = hh[:, x].copy()
            hh[:, x] = hh[:, y]
            hh[:, y] = col


def serial_tabu_run(instance, start, iterations, tenure_range, rng, pool, move_mask=None):
    """One tabu walk on its own, as it ran before lanes: the reference each
    lane of a lockstep call must follow move for move."""
    elig = instance.eligibility
    n = instance.n
    perm = start.copy()
    cur = objective_of_permutation(instance, perm)
    best_obj = cur
    best_perm = perm.copy()
    if pool is not None:
        pool.offer(perm.copy(), cur)
    lo = max(1, round(tenure_range[0] * n))
    hi = max(lo, round(tenure_range[1] * n))
    tabu_until = np.zeros((n, n), dtype=np.int64)
    pa, pb = swap_candidate_pairs(elig)
    if move_mask is not None:
        keep = move_mask[pa, pb]
        pa, pb = pa[keep], pb[keep]
    scan = SerialSwapScan(instance.flow, instance.exposure, perm, pa, pb)
    done = 0
    for it in range(1, iterations + 1):
        done = it
        ka, kb = perm[pa], perm[pb]
        allowed = elig[pa, kb] & elig[pb, ka]
        if not allowed.any():
            break
        delta = scan.deltas()
        tabu_move = (tabu_until[pa, kb] >= it) & (tabu_until[pb, ka] >= it)
        aspire = best_obj + 1e-9 * max(1.0, abs(best_obj))
        admissible = allowed & (~tabu_move | (cur + delta > aspire))
        if not admissible.any():
            admissible = allowed
        p = int(np.argmax(np.where(admissible, delta, -np.inf)))
        a, b = int(pa[p]), int(pb[p])
        tenure = rng.randint(lo, hi)
        tabu_until[a, perm[a]] = it + tenure
        tabu_until[b, perm[b]] = it + tenure
        perm[a], perm[b] = perm[b], perm[a]
        scan.swap(a, b)
        cur += float(delta[p])
        margin = 1e-6 * max(1.0, abs(best_obj))
        if pool is not None:
            margin += pool.gap * abs(best_obj)
        if cur >= best_obj - margin:
            canon = objective_of_permutation(instance, perm)
            cur = canon
            if pool is not None:
                pool.offer(perm.copy(), canon)
            if _better(canon, perm, best_obj, best_perm):
                best_obj = canon
                best_perm = perm.copy()
    return best_obj, best_perm, done


def block_variants(rng: Random, base: QapInstance, count: int) -> list[QapInstance]:
    """Tactical instances sharing ``base``'s flow and exposure whose blocks
    take the slot groups of equally sized blocks in shuffled order: each is
    the instance another strategic layout would induce."""
    out = []
    for _ in range(count):
        slots = {}
        for blk in base.blocks:
            slots.setdefault(len(blk.position_ids), []).append(blk.position_ids)
        for group in slots.values():
            rng.shuffle(group)
        blocks = tuple(
            Block(blk.category_id, blk.location_id, blk.product_ids,
                  slots[len(blk.position_ids)].pop())
            for blk in base.blocks
        )
        elig = eligibility_from_blocks(base.product_ids, base.position_ids, blocks)
        out.append(replace(base, blocks=blocks, eligibility=elig))
    return out


def eligibility_variants(rng: Random, base: QapInstance, count: int) -> list[QapInstance]:
    """Strategic instances sharing ``base``'s flow and exposure with their
    own random eligibility, so their swap-pair lists differ; some admit a
    single assignment and have no pair at all."""
    n = base.n
    out = []
    while len(out) < count:
        elig = np.zeros((n, n), dtype=bool)
        elig[0, 0] = elig[-1, -1] = True
        if rng.random() < 0.25:
            inner = list(range(1, n - 1))
            rng.shuffle(inner)
            elig[range(1, n - 1), inner] = True
        else:
            for i in range(1, n - 1):
                elig[i, [k for k in range(1, n - 1) if rng.random() < 0.5]] = True
        try:
            out.append(replace(base, eligibility=elig))
        except (InputError, ModelError):
            continue
    return out


class TestLanesMatchSerialRuns:
    """L walks in lockstep must each take the moves of the same walk run on
    its own: the same best-objective bits, best permutation and iteration
    count, and a shared pool ending with the entries the walks leave when
    they offer one after another."""

    def assert_lanes(self, instances, seed, iterations=200, with_pool=True, block_rows=None):
        # with block_rows, the serial runs mask the moves and each lane
        # pins every other product at its start instead
        seeds = [seed * 31 + lane for lane in range(len(instances))]
        starts = [random_assignment(inst, Random(s)) for inst, s in zip(instances, seeds)]
        pools = [
            SolutionPool(instances[0], capacity=6, gap=0.02) if with_pool else None
            for _ in range(2)
        ]
        mask = None if block_rows is None else block_mask(instances[0].n, block_rows)
        want = [
            serial_tabu_run(inst, start, iterations, (0.1, 0.5), Random(s), pools[0], mask)
            for inst, start, s in zip(instances, starts, seeds)
        ]
        elig = np.stack([
            inst.eligibility if block_rows is None
            else pin_outside(inst.eligibility, block_rows, start)
            for inst, start in zip(instances, starts)
        ])
        got = _tabu_lanes(
            instances[0], elig, starts, [Random(s) for s in seeds], iterations, pools[1], None
        )
        assert len(got) == len(want)
        for (g_obj, g_perm, g_done), (w_obj, w_perm, w_done) in zip(got, want):
            assert float(g_obj).hex() == float(w_obj).hex()
            assert np.array_equal(g_perm, w_perm)
            assert g_done == w_done
        if with_pool:
            held = [[(e.objective, e.assignment) for e in pool.entries] for pool in pools]
            assert held[1] == held[0]
        return got

    def test_strategic_restarts(self):
        rng = Random(601)
        for trial in range(12):
            inst = random_level1_instance(rng, rng.randint(4, 10))
            self.assert_lanes([inst] * (trial % 6 + 1), trial)

    def test_tactical_candidates(self):
        rng = Random(607)
        for trial in range(12):
            sizes = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(3, 6)))
            base = random_level2_instance(rng, sizes)
            lanes = block_variants(rng, base, trial % 6 + 1)
            self.assert_lanes(lanes, trial, with_pool=trial % 2 == 0)

    def test_lanes_with_different_pair_lists(self):
        # pairs are the union over lanes; a lane never moves a pair its own
        # eligibility rules out, and a lane with none stops alone at once
        rng = Random(613)
        stopped_early = 0
        for trial in range(12):
            base = random_level1_instance(rng, rng.randint(4, 8))
            lanes = eligibility_variants(rng, base, trial % 5 + 2)
            got = self.assert_lanes(lanes, trial)
            stopped_early += sum(done == 1 for _, _, done in got)
        assert stopped_early > 0

    def test_block_move_mask(self):
        rng = Random(617)
        for trial in range(8):
            base = random_level2_instance(rng, (3, 3, 2, 2))
            blk = base.blocks[rng.randrange(len(base.blocks))]
            rows = [base.product_index(p) for p in blk.product_ids]
            lanes = block_variants(rng, base, trial % 4 + 1)
            self.assert_lanes(lanes, trial, with_pool=False, block_rows=rows)

    def test_no_pairs_at_several_lanes(self):
        base = random_level2_instance(Random(619), (1, 1, 1, 1))
        lanes = block_variants(Random(0), base, 4)
        got = self.assert_lanes(lanes, 0)
        assert [done for _, _, done in got] == [1, 1, 1, 1]

    def test_zero_flow_ties(self):
        # every delta is exactly 0, so each move is decided by the
        # row-major tie-break and the rng alone
        rng = Random(631)
        for trial in range(6):
            base = random_level1_instance(rng, rng.randint(4, 8), full_eligibility=True)
            inst = replace(base, flow=np.zeros_like(base.flow))
            self.assert_lanes([inst] * (trial + 1), trial)


class TestTimeLimit:
    def test_tiny_limit_feasible_and_never_worse(self, monkeypatch):
        # whatever the clock allows, the answer is feasible, no worse than
        # its start, and every lane ran as many iterations as the others
        rng = Random(653)
        for restarts in (1, 3, 4):
            monkeypatch.setattr(solvers, "RESTARTS", restarts)
            inst = random_level1_instance(rng, 30)
            start = inst.assignment_from_permutation(random_assignment(inst, Random(restarts)))
            for limit in (1e-9, 0.02):
                cfg = SolverConfig(seed=restarts, time_limit=limit)
                result = tabu_search(inst, cfg, initial=start)
                assert check_feasible(inst, result.assignment).ok
                assert result.objective >= objective(inst, start)
                assert result.iterations % restarts == 0


def level2_path_oracle(instance: QapInstance, config: SolverConfig):
    """The command line's level2 path before solve_level2: block descent,
    tabu_search from the descent's layout, and the better of the two."""
    descended = block_descent(instance, config)
    refined = tabu_search(instance, config, initial=descended.assignment)
    return refined if refined.objective >= descended.objective else descended


def tactical_stage_oracle(instances, seeds, config: SolverConfig):
    """solve_hierarchical's tactical stage before solve_level2: a descent per
    candidate, one lockstep lane per candidate from its descent, and the
    better of the two; (objective, assignment, iterations) per candidate."""
    descents = [block_descent(inst, replace(config, seed=s)) for inst, s in zip(instances, seeds)]
    refined = _tabu_lanes(
        instances[0],
        np.stack([inst.eligibility for inst in instances]),
        [inst.permutation_of(d.assignment) for inst, d in zip(instances, descents)],
        [Random(_mix_seed(s, 0)) for s in seeds],
        config.iteration_limit,
        None,
        None,
    )
    out = []
    for inst, descended, (obj, perm, done) in zip(instances, descents, refined):
        if obj >= descended.objective:
            assignment = inst.assignment_from_permutation(perm)
        else:
            obj, assignment = descended.objective, descended.assignment
        out.append((obj, assignment, descended.iterations + done))
    return out


def tactical_case(rng: Random, trial: int, patch, zero_flow: bool = False):
    """(instances, seeds, config): 1-4 tactical instances sharing one flow
    and exposure; at even trials one block is above the exhaustive cap,
    which ``patch`` (a pytest MonkeyPatch) sets to 4 along with the fallback
    budget, so the descents fall back to tabu and write notes. Short walks
    keep the answer dependent on where each walk starts and on its tenure
    draws."""
    sizes = tuple(rng.choice((1, 2, 3, 4)) for _ in range(rng.randint(2, 5)))
    if trial % 2 == 0:
        sizes += (rng.choice((5, 6)),)
    base = random_level2_instance(rng, sizes)
    if zero_flow:
        base = replace(base, flow=np.zeros_like(base.flow))
    instances = block_variants(rng, base, trial % 4 + 1)
    seeds = [rng.randrange(10**6) for _ in instances]
    config = SolverConfig(seed=seeds[0], iteration_limit=rng.choice((3, 8, 40)))
    patch.setattr(solvers, "BLOCK_EXHAUSTIVE_CAP", 4)
    patch.setattr(solvers, "BLOCK_TABU_ITERATIONS", rng.choice((2, 30)))
    return instances, seeds, config


class TestSolveLevel2:
    """solve_level2 takes the lanes of both compositions it replaced and
    gives their answers bit for bit; the better-of-two step they ended in
    never picked the descent."""

    def assert_level2_path(self, rng, monkeypatch, zero_flow=False):
        noted = 0
        for trial in range(10):
            instances, seeds, config = tactical_case(rng, trial, monkeypatch, zero_flow)
            restarts = trial % 5 + 1
            got = solve_level2(instances, seeds, config, restarts)
            # the oracle's tabu_search runs RESTARTS restarts
            monkeypatch.setattr(solvers, "RESTARTS", restarts)
            for inst, seed, (descended, refined) in zip(instances, seeds, got):
                want = level2_path_oracle(inst, replace(config, seed=seed))
                assert want.solver == refined.solver == "tabu"
                assert refined.objective.hex() == want.objective.hex()
                assert refined.assignment == want.assignment
                assert refined.iterations == want.iterations
                assert refined.restarts == restarts
                assert refined.notes == descended.notes
                noted += bool(refined.notes)
        assert noted > 0

    def test_matches_level2_path(self, monkeypatch):
        self.assert_level2_path(Random(701), monkeypatch)

    def test_matches_level2_path_zero_flow_ties(self, monkeypatch):
        self.assert_level2_path(Random(709), monkeypatch, zero_flow=True)

    @pytest.mark.parametrize("zero_flow", [False, True], ids=["flow", "zero-flow"])
    def test_matches_tactical_stage(self, zero_flow, monkeypatch):
        rng = Random(719)
        for trial in range(10):
            instances, seeds, config = tactical_case(rng, trial, monkeypatch, zero_flow)
            got = solve_level2(instances, seeds, config, restarts=1)
            want = tactical_stage_oracle(instances, seeds, config)
            for (descended, refined), (w_obj, w_assignment, w_iterations) in zip(got, want):
                assert refined.objective.hex() == w_obj.hex()
                assert refined.assignment == w_assignment
                assert descended.iterations + refined.iterations == w_iterations

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.integers(0, 10**6),
        restarts=st.integers(1, 5),
        time_limit=st.sampled_from([None, 1e-9]),
    )
    def test_refined_never_below_descent(self, case, restarts, time_limit):
        with pytest.MonkeyPatch.context() as patch:
            instances, seeds, config = tactical_case(Random(case), case, patch)
            config = replace(config, time_limit=time_limit)
            for inst, (descended, refined) in zip(
                instances, solve_level2(instances, seeds, config, restarts)
            ):
                assert refined.objective >= descended.objective
                assert check_feasible(inst, refined.assignment).ok


class TestBlockDescent:
    def test_requires_level2(self):
        rng = Random(269)
        inst = random_level1_instance(rng, 4)
        with pytest.raises(InputError):
            block_descent(inst)

    def test_single_block_reaches_optimum(self):
        rng = Random(271)
        inst = random_level2_instance(rng, (4,))
        result = block_descent(inst)
        assert result.objective == pytest.approx(brute_force(inst).objective, rel=1e-12)

    def test_monotone_from_any_start(self):
        rng = Random(277)
        inst = random_level2_instance(rng, (3, 2, 2))
        for trial in range(5):
            start_perm = random_assignment(inst, Random(trial))
            start = inst.assignment_from_permutation(start_perm)
            start_obj = objective_of_permutation(inst, start_perm)
            result = block_descent(inst, initial=start)
            assert result.objective >= start_obj - 1e-12
            assert check_feasible(inst, result.assignment).ok

    def test_all_singletons_returns_start(self):
        rng = Random(281)
        inst = random_level2_instance(rng, (1, 1, 1))
        result = block_descent(inst)
        assert result.iterations == 1  # one cycle, nothing movable

    def test_oversized_block_falls_back_to_tabu(self, monkeypatch):
        rng = Random(283)
        inst = random_level2_instance(rng, (4,))
        monkeypatch.setattr(solvers, "BLOCK_EXHAUSTIVE_CAP", 2)
        monkeypatch.setattr(solvers, "BLOCK_TABU_ITERATIONS", 300)
        result = block_descent(inst)
        assert any("tabu fallback" in note for note in result.notes)
        exact = brute_force(inst)
        assert result.objective <= exact.objective + 1e-9


def masked_block_descent(
    instance: QapInstance, config: SolverConfig, cap: int, fallback_iterations: int, initial=None
):
    """block_descent as it was while its oversized-block fallback limited
    the tabu run to the block's pairs with a move mask, kept as the oracle
    for the fallback that pins every other product through eligibility.
    Blocks above ``cap`` products fall back to a masked tabu run of
    ``fallback_iterations``. The masked run is serial_tabu_run, the walk a
    one-lane _tabu_lanes call takes move for move; there is no time limit.
    Returns (objective, permutation, cycles, notes)."""
    perm = instance.permutation_of(initial) if initial is not None else greedy_assignment(instance)
    cur = objective_of_permutation(instance, perm)
    notes: list[str] = []
    fallback_blocks = set()
    block_rows = [
        np.array([instance.product_index(p) for p in blk.product_ids], dtype=np.int64)
        for blk in instance.blocks
    ]
    cycles = 0
    improved = True
    while improved:
        improved = False
        cycles += 1
        for bi, blk in enumerate(instance.blocks):
            rows = block_rows[bi]
            if len(rows) == 1:
                continue
            if len(rows) <= cap:
                slots = perm[rows]
                best_local = cur
                best_order = None
                for cand in itertools.permutations(slots.tolist()):
                    perm[rows] = cand
                    obj = objective_of_permutation(instance, perm)
                    if obj > best_local:
                        best_local = obj
                        best_order = cand
                if best_order is not None:
                    perm[rows] = best_order
                    cur = best_local
                    improved = True
                else:
                    perm[rows] = slots
            else:
                if blk.category_id not in fallback_blocks:
                    fallback_blocks.add(blk.category_id)
                    notes.append(
                        f"block {blk.category_id!r} above exhaustive cap; tabu fallback"
                    )
                rng = Random(_mix_seed(config.seed, 7_919 * (bi + 1) + cycles))
                obj, new_perm, _ = serial_tabu_run(
                    instance, perm, fallback_iterations, (0.1, 0.5), rng,
                    None, block_mask(instance.n, rows),
                )
                if obj > cur:
                    perm = new_perm
                    cur = obj
                    improved = True
    return cur, perm, cycles, tuple(notes)


class TestBlockFallbackMatchesMask:
    def test_pinned_fallback_matches_masked_one(self, monkeypatch):
        # every instance has a block above the cap, so each descent falls
        # back to tabu at least once
        rng = Random(887)
        for trial in range(24):
            cap = 2 + trial % 2
            sizes = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 4)))
            if max(sizes) <= cap:
                sizes += (cap + 1 + rng.randrange(3),)
            inst = random_level2_instance(rng, sizes)
            cfg = SolverConfig(seed=rng.randrange(10**6))
            iterations = rng.choice((5, 40, 200))
            monkeypatch.setattr(solvers, "BLOCK_EXHAUSTIVE_CAP", cap)
            monkeypatch.setattr(solvers, "BLOCK_TABU_ITERATIONS", iterations)
            initial = None
            if trial % 3:
                initial = inst.assignment_from_permutation(random_assignment(inst, Random(trial)))
            want_obj, want_perm, want_cycles, want_notes = masked_block_descent(
                inst, cfg, cap, iterations, initial
            )
            got = block_descent(inst, cfg, initial)
            assert got.objective.hex() == want_obj.hex()
            assert got.assignment == inst.assignment_from_permutation(want_perm)
            assert got.iterations == want_cycles
            assert got.notes == want_notes
            assert "tabu fallback" in want_notes[0]


class TestStartingAssignments:
    def test_greedy_feasible_on_restricted_instances(self):
        rng = Random(293)
        for trial in range(15):
            inst = random_level1_instance(rng, rng.randint(2, 6))
            perm = greedy_assignment(inst)
            assert all(inst.eligibility[i, perm[i]] for i in range(inst.n))
            assert sorted(perm.tolist()) == list(range(inst.n))

    def test_random_feasible_and_seed_deterministic(self):
        rng = Random(307)
        for trial in range(15):
            inst = random_level2_instance(rng, (rng.randint(1, 3), rng.randint(1, 3)))
            a = random_assignment(inst, Random(trial))
            b = random_assignment(inst, Random(trial))
            assert np.array_equal(a, b)
            assert all(inst.eligibility[i, a[i]] for i in range(inst.n))


class TestSolveLevel1:
    def test_pool_head_is_certified_optimum(self):
        rng = Random(311)
        graph, catalog, matrices, exposures = small_fixture((2, 2))
        inst = build_level1_instance(exposures, matrices)
        pool = solve_level1(inst, SolverConfig(pool_capacity=5, pool_gap=0.2))
        exact = brute_force(inst)
        assert pool.best_objective == exact.objective
        objs = [e.objective for e in pool.entries]
        assert objs == sorted(objs, reverse=True)

    def test_large_free_count_uses_tabu(self, monkeypatch):
        rng = Random(313)
        inst = random_level1_instance(rng, 6, full_eligibility=True)
        monkeypatch.setattr(solvers, "EXACT_FREE_LIMIT", 2)
        monkeypatch.setattr(solvers, "RESTARTS", 2)
        pool = solve_level1(inst, SolverConfig(iteration_limit=200))
        assert len(pool) >= 1


class TestHierarchical:
    def test_pool_growth_never_hurts(self):
        graph, catalog, matrices, exposures = small_fixture((2, 2))
        base = SolverConfig(seed=5, iteration_limit=300, pool_gap=0.25)
        small = solve_hierarchical(
            exposures, matrices, None, catalog, graph,
            config=SolverConfig(**{**base.__dict__, "pool_capacity": 1}),
        )
        large = solve_hierarchical(
            exposures, matrices, None, catalog, graph,
            config=SolverConfig(**{**base.__dict__, "pool_capacity": 10}),
        )
        assert large.objective >= small.objective - 1e-12
        assert len(large.candidates) >= len(small.candidates)

    def test_result_shape(self):
        graph, catalog, matrices, exposures = small_fixture((2, 1))
        result = solve_hierarchical(
            exposures, matrices, None, catalog, graph,
            config=SolverConfig(seed=1, pool_capacity=3),
        )
        assert result.solver == "hierarchical"
        assert result.level1_assignment is not None
        assert result.level1_objective is not None
        assert result.candidates
        for idx, l1_obj, l2_obj in result.candidates:
            assert isinstance(idx, int)
        # final assignment is consistent with the winning strategic layout
        induced = induced_level1_assignment(result.assignment, catalog, graph)
        assert induced == result.level1_assignment

    def test_beats_or_matches_tactical_exhaustion_of_identity_anchor(self):
        # the driver may pick a different strategic layout, never a worse one
        graph, catalog, matrices, exposures = small_fixture((2, 2))
        result = solve_hierarchical(
            exposures, matrices, None, catalog, graph,
            config=SolverConfig(seed=0, pool_capacity=10, pool_gap=0.5),
        )
        anchor = Assignment.from_mapping({"C1": "L1", "C2": "L2"})
        inst = build_level2_instance(exposures, matrices, anchor, catalog, graph)
        assert result.objective >= brute_force(inst).objective - 1e-9


class TestBundledStoreAnchor:
    def test_seed_413_objectives_at_3000_iterations(self):
        # the benchmark's tabu budget; pins both levels to the values the
        # full-matrix scan reached, so a faster scan cannot drift silently
        doc = load_store(str(FIXTURES / "synthetic_store.json"))
        txns = read_transactions_csv(str(FIXTURES / "synthetic_transactions.csv"), doc.catalog)
        result = solve_hierarchical(
            build_exposure_matrices(doc.graph),
            expected_transitions(txns, doc.catalog),
            doc.eligibility,
            doc.catalog,
            doc.graph,
            SolverConfig(seed=413, iteration_limit=3000),
        )
        assert result.level1_objective == 21218.598809523806
        assert result.objective == 17340.644047619047


class TestLayoutEvaluation:
    def test_identity_baseline_means_zero_delta(self):
        graph, catalog, matrices, exposures = small_fixture((2, 1))
        layout = Assignment.from_mapping({"u1": "s1", "u2": "s2", "u3": "s3"})
        report = evaluate_layout(layout, exposures, matrices, catalog, graph, baseline=layout)
        assert report.exposure_delta_pct == pytest.approx(0.0, abs=1e-12)
        assert report.distance_delta_pct == pytest.approx(0.0, abs=1e-12)
        assert report.baseline_objective == report.objective

    def test_objective_matches_instance_evaluation(self):
        graph, catalog, matrices, exposures = small_fixture((2, 1))
        layout = Assignment.from_mapping({"u1": "s2", "u2": "s1", "u3": "s3"})
        report = evaluate_layout(layout, exposures, matrices, catalog, graph)
        anchor = induced_level1_assignment(layout, catalog, graph)
        inst = build_level2_instance(exposures, matrices, anchor, catalog, graph)
        pinned = Assignment.from_mapping(
            {**layout.mapping, "check-in": "entrance", "check-out": "exit"}
        )
        want = objective_of_permutation(inst, inst.permutation_of(pinned))
        assert report.objective == pytest.approx(want, rel=1e-12)
        assert report.transaction_count == matrices.transaction_count
        assert report.travel_distance > 0

    def test_door_pins_may_be_left_out(self):
        # a layout that omits one door placement or both gets them added
        graph, catalog, matrices, exposures = small_fixture((2, 1))
        shelves = {"u1": "s2", "u2": "s1", "u3": "s3"}

        def metrics(mapping):
            report = evaluate_layout(
                Assignment.from_mapping(mapping), exposures, matrices, catalog, graph
            )
            return report.objective.hex(), report.travel_distance.hex()

        full = metrics({**shelves, "check-in": "entrance", "check-out": "exit"})
        assert metrics(shelves) == full
        assert metrics({**shelves, "check-in": "entrance"}) == full
        assert metrics({**shelves, "check-out": "exit"}) == full

    def test_check_in_off_the_entrance_is_infeasible(self):
        graph, catalog, matrices, exposures = small_fixture((2, 1))
        layout = Assignment.from_mapping({"u1": "s2", "u2": "s1", "u3": "s3", "check-in": "s3"})
        with pytest.raises(ValidationError, match="infeasible layout"):
            evaluate_layout(layout, exposures, matrices, catalog, graph)

    def test_split_category_rejected(self):
        graph, catalog, matrices, exposures = small_fixture((2, 2))
        # u1 and u2 belong to C1 but sit in different locations
        layout = Assignment.from_mapping(
            {"u1": "s1", "u2": "s3", "u3": "s2", "u4": "s4"}
        )
        with pytest.raises(ValidationError):
            evaluate_layout(layout, exposures, matrices, catalog, graph)

    def test_unknown_sublocation_rejected(self):
        graph, catalog, matrices, exposures = small_fixture((2, 1))
        layout = Assignment.from_mapping({"u1": "s1", "u2": "s2", "u3": "nowhere"})
        with pytest.raises(ValidationError):
            evaluate_layout(layout, exposures, matrices, catalog, graph)


class TestInducedLevel1:
    def test_round_trip_from_level2_instance(self):
        graph, catalog, matrices, exposures = small_fixture((2, 1))
        anchor = Assignment.from_mapping({"C1": "L1", "C2": "L2"})
        inst = build_level2_instance(exposures, matrices, anchor, catalog, graph)
        layout = inst.assignment_from_permutation(np.arange(inst.n))
        induced = induced_level1_assignment(layout, catalog, graph)
        got = {k: v for k, v in induced.pairs if not k.startswith("check")}
        assert got == anchor.mapping
