"""Solver correctness against enumeration, determinism, and the
hierarchical driver's pooling behavior."""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from dataclasses import replace
from pathlib import Path
from random import Random
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from conftest import (
    catalog_for,
    criterion_1_instances,
    enumerate_optimum,
    line_store,
    random_level1_instance,
    random_level2_instance,
)
from storelayout import qap, solvers
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
    objective_of_permutation,
    swap_candidate_pairs,
    swap_delta_matrix,
)
from storelayout.report import solve_report_text
from storelayout.solvers import (
    BRUTE_FORCE_CAP,
    SolverConfig,
    _better,
    _mix_seed,
    _tabu_lanes,
    block_descent,
    branch_and_bound,
    brute_force,
    capacity_eligibility,
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
        # restart 0 starts where the greedy construction puts it; patched,
        # the construction hands it an arbitrary feasible start
        rng = Random(251)
        monkeypatch.setattr(solvers, "RESTARTS", 1)
        for trial in range(10):
            inst = random_level1_instance(rng, 5, full_eligibility=True)
            start = random_assignment(inst, Random(trial))
            monkeypatch.setattr(solvers, "greedy_assignment", lambda _: start.copy())
            result = tabu_search(inst, SolverConfig(seed=trial, iteration_limit=100))
            assert result.objective >= objective_of_permutation(inst, start) - 1e-12

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


def full_scan_tabu_run(instance, start, iterations, tenure_range, rng, pool):
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


def one_lane(inst, start, iterations, rng, pool, stall=None):
    """A single tabu walk through _tabu_lanes under the instance's own
    eligibility."""
    lanes, _ = _tabu_lanes([inst], 1, lambda _: start, [rng], iterations, pool, None, stall)
    return lanes[0]


class TestPairScanMatchesFullScan:
    """The pair scan must take the full scan's moves: same result, same
    iteration count and the same pool offers."""

    def assert_same(self, inst, start, trial, with_pool=True):
        pools = [SolutionPool(inst, capacity=5, gap=0.02) if with_pool else None for _ in range(2)]
        want = full_scan_tabu_run(inst, start, 300, (0.1, 0.5), Random(trial), pools[0])
        got = one_lane(inst, start, 300, Random(trial), pools[1])
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


def serial_tabu_run(instance, start, iterations, tenure_range, rng, pool, stall=None, hits=None):
    """One tabu walk on its own, as it ran before lanes: the reference each
    lane of a lockstep call must follow move for move. With ``stall`` it
    stops ``stall`` iterations after its last new best; ``hits``, if given,
    collects the iteration of each new best."""
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
    scan = SerialSwapScan(instance.flow, instance.exposure, perm, pa, pb)
    done = 0
    improved = 0
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
                improved = it
                if hits is not None:
                    hits.append(it)
        if stall is not None and it - improved >= stall:
            break
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
    they offer one after another. Each case runs again with a stall, under
    which both sides stop a walk that many iterations after its last new
    best."""

    STALLS = (1, 3, 10, 30)

    def assert_lanes(self, instances, seed, iterations=200, with_pool=True, stall=None):
        seeds = [seed * 31 + lane for lane in range(len(instances))]
        starts = [random_assignment(inst, Random(s)) for inst, s in zip(instances, seeds)]
        pools = [
            SolutionPool(instances[0], capacity=6, gap=0.02) if with_pool else None
            for _ in range(2)
        ]
        want = [
            serial_tabu_run(inst, start, iterations, (0.1, 0.5), Random(s), pools[0], stall)
            for inst, start, s in zip(instances, starts, seeds)
        ]
        got, cut = _tabu_lanes(
            instances, 1, lambda j: starts[j], [Random(s) for s in seeds], iterations,
            pools[1], None, stall,
        )
        assert not cut
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
        stopped = 0
        for trial in range(12):
            inst = random_level1_instance(rng, rng.randint(4, 10))
            self.assert_lanes([inst] * (trial % 6 + 1), trial)
            got = self.assert_lanes([inst] * (trial % 6 + 1), trial, stall=self.STALLS[trial % 4])
            stopped += sum(done < 200 for _, _, done in got)
        assert stopped > 0

    def test_tactical_candidates(self):
        rng = Random(607)
        for trial in range(12):
            sizes = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(3, 6)))
            base = random_level2_instance(rng, sizes)
            lanes = block_variants(rng, base, trial % 6 + 1)
            for stall in (None, self.STALLS[trial % 4]):
                self.assert_lanes(lanes, trial, with_pool=trial % 2 == 0, stall=stall)

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
            for stall in (None, self.STALLS[trial % 4]):
                self.assert_lanes([inst] * (trial + 1), trial, stall=stall)

    def test_stall_counts_from_the_last_tie_move(self):
        # zero flow ties every state, so each new best is a move to a
        # lexicographically smaller permutation; each one must restart the
        # count, and the lane must retire exactly ``stall`` iterations after
        # the last new best before the first gap of more than ``stall``
        rng = Random(1637)
        extended = 0
        for trial in range(12):
            base = random_level1_instance(rng, rng.randint(5, 9), full_eligibility=True)
            inst = replace(base, flow=np.zeros_like(base.flow))
            start = random_assignment(inst, Random(trial))
            hits = []
            serial_tabu_run(inst, start, 400, (0.1, 0.5), Random(trial), None, hits=hits)
            stall = self.STALLS[trial % 4]
            last = 0
            for hit in hits:
                if hit - last > stall:
                    break
                last = hit
            obj, perm, done = one_lane(inst, start, 400, Random(trial), None, stall)
            assert done == min(last + stall, 400)
            assert obj == 0.0
            assert tuple(perm) <= tuple(start)
            extended += last > 0
        assert extended > 0


def force_workers(monkeypatch, workers: int) -> None:
    """Make every lane call split its lanes over ``workers`` processes (at
    most one per lane), whatever the CPU count: the lane split sees
    ``workers`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(workers)), raising=False)


class TestLaneSplit:
    """A lane call split over 1, 2, 3 or L processes gives, per lane, the
    same best-objective bits, permutation and iteration count, and ends
    with the same pool entries, with or without a stall."""

    def run(self, monkeypatch, workers, instances, seed, iterations, capacity, stall):
        force_workers(monkeypatch, workers)
        seeds = [seed * 37 + lane for lane in range(len(instances))]
        starts = [random_assignment(inst, Random(s)) for inst, s in zip(instances, seeds)]
        rngs = [Random(s) for s in seeds]
        pool = None if capacity is None else SolutionPool(instances[0], capacity=capacity, gap=0.02)
        lanes, _ = _tabu_lanes(
            instances, 1, lambda j: starts[j], rngs, iterations, pool, None, stall
        )
        return (
            [(float(obj).hex(), perm.tolist(), done) for obj, perm, done in lanes],
            None if pool is None else pool.ranked,
        )

    def assert_split_exact(self, monkeypatch, instances, seed, capacity, iterations=200, stall=None):
        lanes = len(instances)
        want = self.run(monkeypatch, 1, instances, seed, iterations, capacity, stall)
        for workers in sorted({2, 3, lanes}):
            got = self.run(monkeypatch, workers, instances, seed, iterations, capacity, stall)
            assert got == want, f"{workers} workers"
        return want

    @pytest.mark.parametrize("capacity", [1, 6])
    def test_strategic_lanes_with_pool(self, capacity, monkeypatch):
        rng = Random(811)
        stopped = 0
        for trial in range(6):
            inst = random_level1_instance(rng, rng.randint(6, 10))
            for stall in (None, trial % 3 + 2):
                lanes, _ = self.assert_split_exact(
                    monkeypatch, [inst] * (trial % 3 + 4), trial, capacity, stall=stall
                )
            stopped += sum(done < 200 for _, _, done in lanes)
        assert stopped > 0

    def test_tactical_lanes_without_pool(self, monkeypatch):
        rng = Random(821)
        for trial in range(6):
            sizes = tuple(rng.choice((1, 2, 3, 4)) for _ in range(rng.randint(3, 6)))
            base = random_level2_instance(rng, sizes)
            lanes = block_variants(rng, base, trial % 4 + 4)
            for stall in (None, trial % 3 + 2):
                self.assert_split_exact(monkeypatch, lanes, trial, None, stall=stall)


def result_bits(result) -> tuple:
    return (result.objective.hex(), result.assignment, result.iterations, result.notes)


class TestStartsBuiltWhereWalked:
    """Each lane chunk builds its own lanes' starts: the descents and greedy
    starts of the restart-0 lanes it holds and the random starts of the
    others. Split over 1, 2, 3 or L processes, with an instance's restarts
    often in different chunks, a solve gives the same results bit for
    bit."""

    def assert_split_exact(self, monkeypatch, lanes: int, solve) -> None:
        want = None
        for workers in sorted({1, 2, 3, lanes}):
            force_workers(monkeypatch, workers)
            got = solve()
            if want is None:
                want = got
            assert got == want, f"{workers} workers"

    def test_level2(self, monkeypatch):
        rng = Random(839)
        default_stall = solvers.STALL
        parted = 0
        for trial in range(10):
            instances, seeds, config = tactical_case(rng, trial, monkeypatch)
            restarts = trial % 5 + 1
            descents = []

            def counted(instance):
                descents.append(instance)
                return block_descent(instance)

            def solve():
                descents.clear()
                return [result_bits(r) for r in solve_level2(instances, seeds, config, restarts)]

            monkeypatch.setattr(solvers, "block_descent", counted)
            # at the default stall and at one below the walks' budgets, which
            # retires lanes at different iterations in whichever process
            # walks them
            for stall in (default_stall, trial % 3 + 1):
                monkeypatch.setattr(solvers, "STALL", stall)
                self.assert_split_exact(monkeypatch, len(instances) * restarts, solve)
            # the last solve ran one lane per process: this one ran only
            # the first instance's descent, each worker its own instance's
            assert len(descents) == 1 and descents[0] is instances[0]
            # the two chunks of a 2-process split part an instance's restarts
            parted += len(instances) * restarts // 2 % restarts != 0
        assert parted > 0

    @pytest.mark.parametrize("start", ["greedy", "initial"])
    def test_tabu_search(self, start, monkeypatch):
        # "initial": the construction, patched, starts restart 0 elsewhere
        rng = Random(853)
        for trial in range(6):
            restarts = trial % 5 + 1
            monkeypatch.setattr(solvers, "RESTARTS", restarts)
            inst = random_level1_instance(rng, rng.randint(6, 10))
            if start == "initial":
                initial = random_assignment(inst, Random(trial))
                monkeypatch.setattr(solvers, "greedy_assignment", lambda _: initial.copy())
            config = SolverConfig(seed=trial, iteration_limit=rng.choice((5, 60)))

            def solve():
                pool = SolutionPool(inst, capacity=4, gap=0.02)
                result = tabu_search(inst, config, pool=pool)
                return result_bits(result), pool.ranked

            self.assert_split_exact(monkeypatch, restarts, solve)


class TestRescoreMemo:
    """A lane remembers the objectives of the permutations it rescored, so
    a revisit costs no objective call and no pool offer, and it still takes
    the moves and fills the pool of the walk that rescores every visit."""

    @pytest.mark.parametrize("memo", [None, 16], ids=["default", "small"])
    def test_plateau_memo_stays_within_its_bound(self, memo, monkeypatch):
        # zero flow ties every state with the best, so each lane rescores
        # after every move; the objective rows scored must be exactly the
        # misses of a memo that forgets everything when it is full
        force_workers(monkeypatch, 1)  # the spies count in this process
        if memo is not None:
            monkeypatch.setattr(solvers, "RESCORE_MEMO", memo)
        cap = solvers.RESCORE_MEMO
        rng = Random(641)
        base = random_level1_instance(rng, 20, full_eligibility=True)
        inst = replace(base, flow=np.zeros_like(base.flow))
        seeds = [3, 5, 8]
        starts = [random_assignment(inst, Random(s)) for s in seeds]

        visits = []
        canonical = objective_of_permutation

        def recorded(instance, perm):
            visits[-1].append(perm.tobytes())
            return canonical(instance, perm)

        monkeypatch.setattr(sys.modules[__name__], "objective_of_permutation", recorded)
        want = []
        for start, s in zip(starts, seeds):
            visits.append([])
            want.append(serial_tabu_run(inst, start, 5000, (0.1, 0.5), Random(s), None))
        monkeypatch.setattr(sys.modules[__name__], "objective_of_permutation", canonical)

        scored = [0]

        def counted(instance, perm):
            scored[0] += len(perm)
            return canonical(instance, perm)

        monkeypatch.setattr(solvers, "objective_of_permutation", counted)
        got, _ = _tabu_lanes(
            [inst] * 3, 1, lambda j: starts[j], [Random(s) for s in seeds], 5000, None, None
        )
        assert [(g[0].hex(), g[1].tolist(), g[2]) for g in got] == [
            (w[0].hex(), w[1].tolist(), w[2]) for w in want
        ]
        misses = 0
        for lane_visits in visits:
            assert len(lane_visits) == 5001  # the start, then every move
            held = {lane_visits[0]}
            for key in lane_visits[1:]:
                if key not in held:
                    misses += 1
                    if len(held) == cap:
                        held.clear()
                    held.add(key)
            assert len(set(lane_visits)) > cap  # the memo filled and was cleared
        assert scored[0] == len(seeds) + misses

    def test_each_lane_offers_each_permutation_once(self, monkeypatch):
        # the serial walk offers every rescored permutation, revisits
        # included; a lane offers each one once and fills the same pool
        force_workers(monkeypatch, 1)  # the spy records in this process
        offers = []
        offer = SolutionPool.offer

        def spied(pool, perm, objective_value):
            offers.append((id(pool), np.asarray(perm).tobytes()))
            return offer(pool, perm, objective_value)

        monkeypatch.setattr(SolutionPool, "offer", spied)
        rng = Random(643)
        repeated = 0
        for trial in range(6):
            inst = random_level1_instance(rng, rng.randint(6, 10))
            seeds = [trial * 41 + lane for lane in range(trial % 3 + 2)]
            starts = [random_assignment(inst, Random(s)) for s in seeds]
            pools = [SolutionPool(inst, capacity=6, gap=0.02) for _ in range(2)]
            offers.clear()
            for start, s in zip(starts, seeds):
                serial_tabu_run(inst, start, 2000, (0.1, 0.5), Random(s), pools[0])
            repeated += len(offers) - len(set(offers))
            offers.clear()
            _tabu_lanes(
                [inst] * len(seeds), 1, lambda j: starts[j], [Random(s) for s in seeds], 2000,
                pools[1], None,
            )
            lane_offers = [o for o in offers if o[0] != id(pools[1])]
            assert len(lane_offers) == len(set(lane_offers))
            assert pools[1].ranked == pools[0].ranked
        assert repeated > 0


class TestLaneWorkers:
    """Forked lane workers: an exception in any chunk surfaces in the
    caller, and no worker process outlives the call."""

    def fail_chunks(self, monkeypatch, in_caller: bool, exc: Exception):
        """Make the lane chunks of the caller, or else of the workers, raise
        ``exc``; the call splits five restarts over two processes."""
        force_workers(monkeypatch, 2)
        caller = os.getpid()
        walk = solvers._walk_lanes

        def failing(*args):
            if (os.getpid() == caller) == in_caller:
                raise exc
            return walk(*args)

        monkeypatch.setattr(solvers, "_walk_lanes", failing)
        inst = random_level1_instance(Random(827), 8)
        return lambda: tabu_search(inst, SolverConfig(seed=1, iteration_limit=50))

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_chunk_exception_is_raised_in_caller(self, where, monkeypatch):
        solve = self.fail_chunks(monkeypatch, where == "caller", ModelError(f"failed in {where}"))
        with pytest.raises(ModelError, match=f"failed in {where}"):
            solve()
        assert multiprocessing.active_children() == []

    def test_worker_exception_that_does_not_pickle(self, monkeypatch):
        class Local(Exception):
            """pickle cannot find a class defined in a function"""

        solve = self.fail_chunks(monkeypatch, False, Local("lost"))
        with pytest.raises(RuntimeError, match="worker exited with code 1"):
            solve()
        assert multiprocessing.active_children() == []

    def count_splits(self, monkeypatch) -> list[int]:
        """Split every lane call over two processes, and record the number
        of outputs, one per lane range, of each split."""
        force_workers(monkeypatch, 2)
        splits = []
        split = solvers._split_lanes

        def counted(*args):
            outputs = split(*args)
            splits.append(len(outputs))
            return outputs

        monkeypatch.setattr(solvers, "_split_lanes", counted)
        return splits

    def test_no_worker_left_after_pool_solve(self, monkeypatch):
        splits = self.count_splits(monkeypatch)
        result = solve_bundled(SolverConfig(seed=413, iteration_limit=100, pool_capacity=10))
        assert len(result.candidates) == 10
        assert splits == [2, 2]  # the strategic restarts and the tactical lanes
        assert multiprocessing.active_children() == []

    def test_lanes_split_under_a_deadline(self, monkeypatch):
        # every process stops at the same absolute deadline, so lanes under
        # one fork like any others, and a run it does not cut gives the
        # answer of the run with no limit, bit for bit
        config = SolverConfig(seed=413, iteration_limit=100, pool_capacity=10)
        want = solve_bundled(config)
        splits = self.count_splits(monkeypatch)
        got = solve_bundled(replace(config, time_limit=60))
        assert splits == [2, 2]  # the strategic restarts and the tactical lanes
        assert multiprocessing.active_children() == []
        assert hierarchical_bits(got) == hierarchical_bits(want)
        assert got.notes == ()

    def test_worker_descent_exception_is_raised_in_caller(self, monkeypatch):
        # the second instance's descent runs in the forked worker, and fails
        force_workers(monkeypatch, 2)
        caller = os.getpid()
        descend = solvers.block_descent

        def failing(instance):
            if os.getpid() != caller:
                raise ModelError("descent failed in worker")
            return descend(instance)

        monkeypatch.setattr(solvers, "block_descent", failing)
        instances, seeds, config = tactical_case(Random(859), 1, monkeypatch)
        instances, seeds = instances[:1] * 2, seeds[:1] * 2
        with pytest.raises(ModelError, match="descent failed in worker"):
            solve_level2(instances, seeds, config, 1)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("why", ["no-fork", "thread"])
    def test_lanes_stay_in_process(self, why, monkeypatch):
        inst = random_level1_instance(Random(829), 8)
        config = SolverConfig(seed=2, iteration_limit=50)
        want = tabu_search(inst, config)
        force_workers(monkeypatch, 2)
        if why == "no-fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(solvers, "_lane_worker", None)  # a forked worker would fail
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(30,))
        if why == "thread":
            other.start()
        try:
            got = tabu_search(inst, config)
        finally:
            stop.set()
            if why == "thread":
                other.join(30)
        assert not other.is_alive()
        assert (got.objective, got.assignment, got.iterations) == (
            want.objective, want.assignment, want.iterations,
        )


class TestTimeLimit:
    def test_tiny_limit_feasible_and_never_worse(self, monkeypatch):
        # whatever the clock allows, the answer is feasible, no worse than
        # its start, and every lane ran as many iterations as the others in
        # its process, which all stop together at the deadline
        force_workers(monkeypatch, 2)
        chunks = []
        split = solvers._split_lanes

        def recorded(*args):
            out = split(*args)
            chunks.extend(out)
            return out

        monkeypatch.setattr(solvers, "_split_lanes", recorded)
        rng = Random(653)
        for restarts in (1, 3, 4):
            monkeypatch.setattr(solvers, "RESTARTS", restarts)
            inst = random_level1_instance(rng, 30)
            start = random_assignment(inst, Random(restarts))
            monkeypatch.setattr(solvers, "greedy_assignment", lambda _: start.copy())
            for limit in (1e-9, 0.02):
                chunks.clear()
                cfg = SolverConfig(seed=restarts, time_limit=limit)
                result = tabu_search(inst, cfg)
                assert check_feasible(inst, result.assignment).ok
                assert result.objective >= objective_of_permutation(inst, start)
                assert len(chunks) == min(restarts, 2)  # one lane runs in one process
                for lanes, _, _ in chunks:
                    assert len({done for _, _, done in lanes}) == 1

    def test_stopped_lanes_write_one_note(self):
        # a deadline already past at the first iteration stops every lane
        inst = random_level1_instance(Random(659), 12)
        stopped = tabu_search(inst, SolverConfig(seed=1, time_limit=1e-9))
        assert stopped.notes == ("time limit 1e-09s reached",)
        finished = tabu_search(inst, SolverConfig(seed=1, iteration_limit=20, time_limit=60))
        assert finished.iterations == 20 * solvers.RESTARTS
        assert finished.notes == ()

    def test_lanes_report_the_deadline(self):
        inst = random_level1_instance(Random(661), 10)
        starts = [random_assignment(inst, Random(s)) for s in range(3)]

        def cut(deadline):
            return _tabu_lanes(
                [inst] * 3, 1, lambda j: starts[j], [Random(s) for s in range(3)], 20, None,
                deadline,
            )[1]

        assert cut(perf_counter()) is True  # past by the first iteration
        assert cut(perf_counter() + 60) is False
        assert cut(None) is False

    def test_refined_carries_the_lanes_time_limit_note(self):
        # no block is within the descent's cap, so only the lanes meet the
        # deadline: the refined result carries their note, once
        inst = random_level2_instance(Random(733), (1, solvers.BLOCK_EXHAUSTIVE_CAP + 1))
        config = SolverConfig(seed=3, time_limit=1e-9)
        for restarts in (1, 3):
            [refined] = solve_level2([inst], [3], config, restarts)
            assert refined.notes == ("time limit 1e-09s reached",)

    @pytest.mark.parametrize("limit", ["deadline", "nodes"])
    def test_branch_and_bound_stopped_before_a_leaf_answers_greedy(self, limit, monkeypatch):
        # an exact search stopped before its first leaf answers with the
        # greedy layout, uncertified, and offers it to the pool
        inst = random_level1_instance(Random(5), 8)
        config, note = SolverConfig(time_limit=1e-9), "time limit 1e-09s reached"
        if limit == "nodes":
            monkeypatch.setattr(solvers, "NODE_LIMIT", 1)
            config, note = SolverConfig(), "node limit 1 reached"
        pool = SolutionPool(inst, capacity=config.pool_capacity, gap=config.pool_gap)
        result = branch_and_bound(inst, config, pool=pool)
        greedy = greedy_assignment(inst)
        assert result.assignment == inst.assignment_from_permutation(greedy)
        assert result.objective == objective_of_permutation(inst, greedy)
        assert not result.certified and result.notes == (note,)
        assert result.bound >= result.objective
        assert result.gap == solvers._gap_of(result.bound, result.objective)
        assert [e.objective for e in pool.entries] == [result.objective]
        assert solve_level1(inst, config).best_objective == result.objective

    def test_cut_strategic_stage_is_reported(self, monkeypatch):
        # the strategic lanes spend the whole limit, so the tactical lanes
        # start past the run's one deadline, walk no iteration and report it
        lane_call, calls = solvers._tabu_lanes, []

        def recorded(*args):
            calls.append(lane_call(*args))
            return calls[-1]

        monkeypatch.setattr(solvers, "_tabu_lanes", recorded)
        result = solve_bundled(SolverConfig(time_limit=0.1))
        assert result.notes == ("time limit 0.1s reached",)
        [(_, strategic_cut), (tactical, tactical_cut)] = calls
        assert strategic_cut
        assert tactical_cut and [done for _, _, done in tactical] == [0] * len(tactical)
        assert len(tactical) == len(result.candidates) > 1

    def searches_deadlines(self, monkeypatch, solve) -> list[tuple[str, float | None]]:
        """(search, deadline) of every branch-and-bound call and lane call
        ``solve`` makes."""
        seen = []
        walk, exact = solvers._walk_lanes, solvers.branch_and_bound

        def walked(*args):
            seen.append(("lanes", args[6]))
            return walk(*args)

        def bounded(*args, **kwargs):
            seen.append(("branch-and-bound", kwargs["deadline"]))
            return exact(*args, **kwargs)

        monkeypatch.setattr(solvers, "_walk_lanes", walked)
        monkeypatch.setattr(solvers, "branch_and_bound", bounded)
        solve()
        return seen

    @pytest.mark.parametrize("store", ["bundled", "small"])
    def test_one_deadline_per_run(self, store, monkeypatch):
        config = SolverConfig(seed=5, iteration_limit=100, pool_capacity=3, time_limit=60)
        if store == "bundled":
            searches = ["lanes", "lanes"]  # strategic tabu, then tactical
            seen = self.searches_deadlines(monkeypatch, lambda: solve_bundled(config))
        else:
            searches = ["branch-and-bound", "lanes"]
            graph, catalog, matrices, exposures = small_fixture((2, 2))
            seen = self.searches_deadlines(
                monkeypatch,
                lambda: solve_hierarchical(exposures, matrices, None, catalog, graph, config),
            )
        assert [search for search, _ in seen] == searches
        deadlines = {deadline for _, deadline in seen}
        assert len(deadlines) == 1 and None not in deadlines


def level2_path_oracle(instance: QapInstance, config: SolverConfig, restarts: int):
    """The command line's level2 path before solve_level2: block descent,
    tabu_search's restarts from the descent's layout, and the better of the
    two."""
    descended = block_descent(instance)
    start = instance.permutation_of(descended.assignment)
    lanes, _ = _tabu_lanes(
        [instance], restarts, lambda _: start,
        [Random(_mix_seed(config.seed, r)) for r in range(restarts)],
        config.iteration_limit, None, None,
    )
    refined = solvers._best_lane(instance, lanes, 0.0)
    return refined if refined.objective >= descended.objective else descended


def tactical_stage_oracle(instances, seeds, config: SolverConfig):
    """solve_hierarchical's tactical stage before solve_level2: a descent per
    candidate, one lockstep lane per candidate from its descent, and the
    better of the two; (objective, assignment, lane iterations) per
    candidate."""
    descents = [block_descent(inst) for inst in instances]
    refined, _ = _tabu_lanes(
        instances,
        1,
        lambda j: instances[j].permutation_of(descents[j].assignment),
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
        out.append((obj, assignment, done))
    return out


def tactical_case(rng: Random, trial: int, patch, zero_flow: bool = False):
    """(instances, seeds, config): 1-4 tactical instances sharing one flow
    and exposure; at even trials one block is above the exhaustive cap,
    which ``patch`` (a pytest MonkeyPatch) sets to 4, so the descents skip
    it and only the tabu lanes order it. Short walks keep the answer
    dependent on where each walk starts and on its tenure draws."""
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
    return instances, seeds, config


class TestSolveLevel2:
    """solve_level2 takes the lanes of both compositions it replaced and
    gives their answers bit for bit; the better-of-two step they ended in
    never picked the descent."""

    def assert_level2_path(self, rng, monkeypatch, zero_flow=False):
        for trial in range(10):
            instances, seeds, config = tactical_case(rng, trial, monkeypatch, zero_flow)
            restarts = trial % 5 + 1
            got = solve_level2(instances, seeds, config, restarts)
            for inst, seed, refined in zip(instances, seeds, got):
                want = level2_path_oracle(inst, replace(config, seed=seed), restarts)
                assert want.solver == refined.solver == "tabu"
                assert refined.objective.hex() == want.objective.hex()
                assert refined.assignment == want.assignment
                assert refined.iterations == want.iterations
                assert refined.restarts == restarts
                assert refined.notes == ()

    def test_matches_level2_path(self, monkeypatch):
        self.assert_level2_path(Random(701), monkeypatch)

    def test_matches_level2_path_zero_flow_ties(self, monkeypatch):
        self.assert_level2_path(Random(709), monkeypatch, zero_flow=True)

    def test_a_deadline_never_cuts_the_descent(self, monkeypatch):
        # a deadline already past when the descent visits its first block
        # still lets it finish, and stops the lanes after it at their starts:
        # the answer is the best start, the whole descent's layout when it
        # is the only one
        rng = Random(727)
        moved = 0
        for trial in range(6):
            instances, seeds, config = tactical_case(rng, trial, monkeypatch)
            config = replace(config, time_limit=1e-9)
            restarts = trial % 3 + 1
            for inst, refined in zip(instances, solve_level2(instances, seeds, config, restarts)):
                descended = block_descent(inst)
                assert refined.objective >= descended.objective
                if restarts == 1:
                    assert refined.objective.hex() == descended.objective.hex()
                    assert refined.assignment == descended.assignment
                assert refined.iterations == 0
                assert refined.notes == ("time limit 1e-09s reached",)
                moved += descended.objective > objective_of_permutation(
                    inst, greedy_assignment(inst)
                )
        assert moved > 0  # the descents a deadline would cut do work

    @pytest.mark.parametrize("zero_flow", [False, True], ids=["flow", "zero-flow"])
    def test_matches_tactical_stage(self, zero_flow, monkeypatch):
        rng = Random(719)
        for trial in range(10):
            instances, seeds, config = tactical_case(rng, trial, monkeypatch, zero_flow)
            got = solve_level2(instances, seeds, config, restarts=1)
            want = tactical_stage_oracle(instances, seeds, config)
            for refined, (w_obj, w_assignment, w_iterations) in zip(got, want):
                assert refined.objective.hex() == w_obj.hex()
                assert refined.assignment == w_assignment
                assert refined.iterations == w_iterations

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.integers(0, 10**6),
        restarts=st.integers(1, 5),
        time_limit=st.sampled_from([None, 1e-9]),
        stall=st.sampled_from([None, 1, 2, 5]),
    )
    def test_refined_never_below_descent(self, case, restarts, time_limit, stall):
        # a lane stopped by the deadline, or retired by a stall long before
        # the iteration cap, still ends at or above its start
        with pytest.MonkeyPatch.context() as patch:
            instances, seeds, config = tactical_case(Random(case), case, patch)
            config = replace(config, time_limit=time_limit)
            if stall is not None:
                patch.setattr(solvers, "STALL", stall)
            for inst, refined in zip(instances, solve_level2(instances, seeds, config, restarts)):
                assert refined.objective >= block_descent(inst).objective
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

    def test_monotone_from_any_start(self, monkeypatch):
        # the descent starts where the greedy construction puts it; patched,
        # the construction hands it an arbitrary feasible start
        rng = Random(277)
        inst = random_level2_instance(rng, (3, 2, 2))
        for trial in range(5):
            start = random_assignment(inst, Random(trial))
            monkeypatch.setattr(solvers, "greedy_assignment", lambda _: start.copy())
            result = block_descent(inst)
            assert result.objective >= objective_of_permutation(inst, start) - 1e-12
            assert check_feasible(inst, result.assignment).ok

    def test_all_singletons_returns_start(self):
        rng = Random(281)
        inst = random_level2_instance(rng, (1, 1, 1))
        result = block_descent(inst)
        assert result.iterations == 1  # one cycle, nothing movable

    def test_wide_block_is_left_to_the_lanes(self, monkeypatch):
        # the descent leaves a block above the cap at its greedy positions,
        # short of the optimum; solve_level2's lanes, which search the whole
        # instance, order it
        monkeypatch.setattr(solvers, "BLOCK_EXHAUSTIVE_CAP", 4)
        for s in range(20):
            inst = random_level2_instance(Random(1000 + s), (3, 6))
            optimum = brute_force(inst).objective
            rows = [inst.product_index(p) for p in inst.blocks[1].product_ids]
            descended = block_descent(inst)
            perm = inst.permutation_of(descended.assignment)
            assert np.array_equal(perm[rows], greedy_assignment(inst)[rows])
            assert descended.objective < optimum
            config = SolverConfig(seed=s, iteration_limit=300)
            [refined] = solve_level2([inst], [s], config, 1)
            assert refined.objective == pytest.approx(optimum, rel=1e-12)


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


def matchable(elig: np.ndarray, rows: list[int], cols: list[int]) -> bool:
    """The construction's former completability check, the slow oracle: a
    fresh scipy matching on the sub-matrix of the rest for every trial."""
    if not rows:
        return True
    sub = elig[np.ix_(rows, cols)]
    if sub.shape[0] != sub.shape[1]:
        return False
    matching = maximum_bipartite_matching(csr_matrix(sub), perm_type="column")
    return bool((matching >= 0).all())


def oracle_construct(instance: QapInstance, order: list[int], rank, rejected: list) -> np.ndarray:
    """The construction as it was before the matching was repaired in place:
    each trial placement asks ``matchable`` about the whole rest."""
    n = instance.n
    elig = instance.eligibility
    perm = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    for step, i in enumerate(order):
        rest = order[step + 1 :]
        for k in rank(i, np.flatnonzero(elig[i] & ~used), perm, order[:step]):
            used[k] = True
            if matchable(elig, rest, list(np.flatnonzero(~used))):
                perm[i] = k
                break
            used[k] = False
            rejected.append((i, int(k)))
        else:
            raise ModelError("oracle construction could not complete an assignment")
    return perm


@pytest.fixture(scope="module")
def bundled_instances():
    """The bundled store's strategic instance (capacity eligibility) and the
    tactical instances of its greedy layout and of three random layouts."""
    doc = load_store(str(FIXTURES / "synthetic_store.json"))
    txns = read_transactions_csv(str(FIXTURES / "synthetic_transactions.csv"), doc.catalog)
    exposures = build_exposure_matrices(doc.graph)
    matrices = expected_transitions(txns, doc.catalog)
    level1 = build_level1_instance(
        exposures, matrices, capacity_eligibility(doc.eligibility, doc.catalog, doc.graph)
    )
    layouts = [greedy_assignment(level1)] + [
        random_assignment(level1, Random(seed)) for seed in range(3)
    ]
    level2 = [
        build_level2_instance(
            exposures, matrices, level1.assignment_from_permutation(perm), doc.catalog, doc.graph
        )
        for perm in layouts
    ]
    return [level1, *level2]


class TestConstructionMatchesMatchableOracle:
    """greedy_assignment and random_assignment give the same permutations,
    and draw the same random numbers, whether each trial placement repairs
    the kept matching or asks the scipy oracle about the whole rest."""

    def assert_same(self, instances, monkeypatch, seeds=range(3)) -> int:
        rejected: list = []
        for inst in instances:
            fast = [greedy_assignment(inst)]
            fast_rngs = [Random(seed) for seed in seeds]
            fast += [random_assignment(inst, rng) for rng in fast_rngs]
            with monkeypatch.context() as m:
                m.setattr(
                    solvers,
                    "_construct",
                    lambda instance, order, rank: oracle_construct(instance, order, rank, rejected),
                )
                slow = [greedy_assignment(inst)]
                slow_rngs = [Random(seed) for seed in seeds]
                slow += [random_assignment(inst, rng) for rng in slow_rngs]
            for got, want in zip(fast, slow):
                assert got.tolist() == want.tolist(), inst.name
            assert [r.getstate() for r in fast_rngs] == [r.getstate() for r in slow_rngs]
        return len(rejected)

    def test_bundled_instances(self, bundled_instances, monkeypatch):
        self.assert_same(bundled_instances, monkeypatch)

    def test_exact_gate_instances(self, monkeypatch):
        # criterion 1's restricted strategic instances reject trial placements,
        # so the repair's failure path is exercised, not only its successes
        assert self.assert_same(list(criterion_1_instances()), monkeypatch) > 0


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


def hierarchical_bits(result) -> tuple:
    """Everything a hierarchical result holds but its wall time."""
    return (
        *result_bits(result), result.restarts, result.level1_assignment,
        result.level1_objective.hex(), result.candidates,
    )


def solve_bundled(config: SolverConfig):
    """solve_hierarchical on the bundled store and baskets."""
    doc = load_store(str(FIXTURES / "synthetic_store.json"))
    txns = read_transactions_csv(str(FIXTURES / "synthetic_transactions.csv"), doc.catalog)
    return solve_hierarchical(
        build_exposure_matrices(doc.graph),
        expected_transitions(txns, doc.catalog),
        doc.eligibility,
        doc.catalog,
        doc.graph,
        config,
    )


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

    def test_strategic_notes_reach_the_answer(self, monkeypatch):
        # a branch and bound stopped by its node limit leaves its note on
        # the pool, and the answer lists it before the candidates' notes
        monkeypatch.setattr(solvers, "NODE_LIMIT", 1)
        graph, catalog, matrices, exposures = small_fixture((2, 2))
        result = solve_hierarchical(exposures, matrices, None, catalog, graph, SolverConfig())
        assert result.notes == ("node limit 1 reached",)

    @pytest.mark.parametrize(
        "pool_capacity, iterations", [(10, 5000), (1, 500)], ids=["k10", "k1"]
    )
    def test_trace_counts_the_tactical_lanes(self, pool_capacity, iterations):
        # the strategic tabu walks solvers.RESTARTS lanes of its own; the
        # trace line counts the tactical stage only: one lane per candidate,
        # each retired STALL iterations after its last new best
        config = SolverConfig(seed=413, iteration_limit=3000, pool_capacity=pool_capacity)
        result = solve_bundled(config)
        assert len(result.candidates) == pool_capacity
        assert (result.iterations, result.restarts) == (iterations, pool_capacity)
        trace = f"trace: iterations={iterations} restarts={pool_capacity} nodes=0\n"
        assert trace in solve_report_text(result, "config")

    def test_each_note_once(self, monkeypatch):
        # every candidate's lanes write the same note; the result keeps one
        best_lane = solvers._best_lane

        def noted_lanes(*args):
            return replace(best_lane(*args), notes=("same note",))

        monkeypatch.setattr(solvers, "_best_lane", noted_lanes)
        result = solve_bundled(SolverConfig(pool_capacity=3, iteration_limit=300))
        assert len(result.candidates) == 3
        assert result.notes == ("same note",)


class TestBundledStoreAnchor:
    def test_seed_413_objectives_at_3000_iterations(self):
        # the benchmark's tabu budget; pins both levels to the values the
        # full-matrix scan reached, so a faster scan cannot drift silently
        result = solve_bundled(SolverConfig(seed=413, iteration_limit=3000))
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

    def test_layout_is_checked_once(self, monkeypatch):
        graph, catalog, matrices, exposures = small_fixture((2, 1))
        layout = Assignment.from_mapping({"u1": "s2", "u2": "s1", "u3": "s3"})
        calls = []

        def counted(instance, assignment):
            calls.append(assignment)
            return check_feasible(instance, assignment)

        monkeypatch.setattr(solvers, "check_feasible", counted)
        monkeypatch.setattr(qap, "check_feasible", counted)
        evaluate_layout(layout, exposures, matrices, catalog, graph)
        assert len(calls) == 1

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
