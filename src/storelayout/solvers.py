"""Exact and heuristic solvers for restricted QAP instances.

All solvers maximize, respect eligibility, and evaluate candidates through
the one canonical objective routine in qap, so identical assignments always
score bit-identically. Everything is deterministic given (seed, config):
independent tabu walks run side by side as lanes of one process, never in
threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from random import Random
from time import perf_counter

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .demand import Catalog, TransitionMatrices
from .errors import InputError, ModelError, ValidationError
from .qap import (
    Assignment,
    QapInstance,
    SolutionPool,
    SwapScan,
    build_level1_instance,
    build_level2_instance,
    check_feasible,
    objective_of_permutation,
    swap_candidate_pairs,
    swap_delta_matrix,  # noqa: F401 -- perfbench/spans.py counts calls under this name
)
from .store import ExposureMatrices, StoreGraph

# Cost sentinel marking ineligible cells in bound matrices; any assignment
# forced onto one signals an infeasible completion.
_FORBIDDEN = -1e15

# Search policy, sized for supermarket-scale stores (tens of positions).
# Tabu restarts of a strategic solve and of a single tactical solve.
RESTARTS = 5
# A move stays tabu for a uniform draw from this fraction range of n iterations.
TENURE_RANGE = (0.1, 0.5)
# Branch-and-bound nodes before the search stops and gives up its certificate.
NODE_LIMIT = 10_000_000
# Most free products brute_force enumerates (9! = 362,880 leaves).
BRUTE_FORCE_CAP = 9
# Largest block block_descent orders exhaustively (7! = 5,040 orders).
BLOCK_EXHAUSTIVE_CAP = 7
# Tabu iterations of block_descent's fallback on a larger block.
BLOCK_TABU_ITERATIONS = 2_000
# Most free products solve_level1 hands to branch and bound instead of tabu.
EXACT_FREE_LIMIT = 11


@dataclass(frozen=True)
class SolverConfig:
    """The solver settings a run chooses: seed, budgets and pool shape."""

    seed: int = 0
    time_limit: float | None = None
    iteration_limit: int = 50_000
    pool_capacity: int = 10
    pool_gap: float = 0.001

    def __post_init__(self):
        if self.pool_capacity < 1:
            raise InputError("pool capacity must be >= 1")
        if not (0 <= self.pool_gap < 1):
            raise InputError("pool gap must be in [0, 1)")
        if self.iteration_limit < 1:
            raise InputError("iteration_limit must be positive")
        if self.time_limit is not None and self.time_limit <= 0:
            raise InputError("time_limit must be positive")


@dataclass
class SolveResult:
    """Outcome of one solver run: best assignment plus trace fields mirroring
    the usual reporting columns (objective, gap, time)."""

    assignment: Assignment
    objective: float
    bound: float | None = None
    gap: float | None = None
    wall_time: float = 0.0
    iterations: int = 0
    restarts: int = 0
    nodes: int = 0
    certified: bool = False
    solver: str = ""
    notes: tuple[str, ...] = ()


@dataclass
class HierarchicalResult(SolveResult):
    """Final tactical result plus the strategic assignment that induced it
    and the per-pool-candidate trace."""

    level1_assignment: Assignment | None = None
    level1_objective: float = 0.0
    # (pool index, strategic objective, tactical objective) per candidate
    candidates: tuple[tuple[int, float, float], ...] = ()


@dataclass
class ExposureReport:
    """Evaluation of one tactical layout: exposure objective and expected
    travel distance, with percentage deltas when a baseline is given."""

    objective: float
    travel_distance: float
    transaction_count: int
    baseline_objective: float | None = None
    baseline_distance: float | None = None
    exposure_delta_pct: float | None = None
    distance_delta_pct: float | None = None


def _mix_seed(seed: int, salt: int) -> int:
    return (seed * 1_000_003 + salt) % (2**63)


def _gap_of(bound: float | None, best: float) -> float | None:
    if bound is None:
        return None
    if bound == 0:
        return 0.0 if best == 0 else None
    return max(0.0, (bound - best) / abs(bound))


def _better(obj: float, perm: np.ndarray, best_obj: float, best_perm: np.ndarray | None) -> bool:
    """Deterministic incumbent ranking: objective first, then lexicographic
    product-to-position order."""
    if best_perm is None or obj > best_obj:
        return True
    return obj == best_obj and tuple(perm) < tuple(best_perm)


# -- initial assignments ----------------------------------------------------------


def _matchable(elig: np.ndarray, rows: list[int], cols: list[int]) -> bool:
    """True when the remaining eligibility subgraph still has a perfect
    matching, so a partial assignment can be completed."""
    if not rows:
        return True
    sub = elig[np.ix_(rows, cols)]
    if sub.shape[0] != sub.shape[1]:
        return False
    matching = maximum_bipartite_matching(csr_matrix(sub), perm_type="column")
    return bool((matching >= 0).all())


def _construct(instance: QapInstance, order: list[int], rank, kind: str) -> np.ndarray:
    """Places the products in ``order``, each on the first position of
    ``rank(i, free, perm, placed)``, its eligible free positions ranked,
    that still leaves the rest completable."""
    n = instance.n
    elig = instance.eligibility
    perm = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    for step, i in enumerate(order):
        rest = order[step + 1 :]
        for k in rank(i, np.flatnonzero(elig[i] & ~used), perm, order[:step]):
            used[k] = True
            if _matchable(elig, rest, list(np.flatnonzero(~used))):
                perm[i] = k
                break
            used[k] = False
        else:
            raise ModelError(f"{kind} construction could not complete an assignment")
    return perm


def greedy_assignment(instance: QapInstance) -> np.ndarray:
    """Deterministic construction: place heavy-flow products first, each on
    the eligible free position with the best immediate objective gain that
    still leaves the rest completable."""
    flow, expo, elig = instance.flow, instance.exposure, instance.eligibility
    weight = flow.sum(axis=0) + flow.sum(axis=1)
    order = sorted(range(instance.n), key=lambda i: (int(elig[i].sum()), -weight[i], i))

    def by_gain(i, free, perm, placed):
        gains = []
        for k in free:
            gain = flow[i, i] * expo[k, k]
            for j in placed:
                gain += flow[i, j] * expo[k, perm[j]] + flow[j, i] * expo[perm[j], k]
            gains.append((-gain, int(k)))
        return [k for _, k in sorted(gains)]

    return _construct(instance, order, by_gain, "greedy")


def random_assignment(instance: QapInstance, rng: Random) -> np.ndarray:
    """Random feasible permutation: random product order, random eligible
    position that keeps the remainder completable. Deterministic given rng."""
    order = list(range(instance.n))
    rng.shuffle(order)

    def shuffled(i, free, perm, placed):
        candidates = free.tolist()
        rng.shuffle(candidates)
        return candidates

    return _construct(instance, order, shuffled, "random")


# -- brute force ----------------------------------------------------------------


def brute_force(instance: QapInstance) -> SolveResult:
    """Exhaustive enumeration of eligible bijections; the verification
    oracle. Refuses instances with more free products than the cap."""
    free = instance.free_product_count()
    if free > BRUTE_FORCE_CAP:
        raise ModelError(
            f"instance has {free} free products, above the brute-force cap {BRUTE_FORCE_CAP}"
        )
    t0 = perf_counter()
    n = instance.n
    elig = instance.eligibility
    order = sorted(range(n), key=lambda i: (int(elig[i].sum()), i))
    perm = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    best_obj = float("-inf")
    best_perm: np.ndarray | None = None
    leaves = 0

    def descend(depth: int) -> None:
        nonlocal best_obj, best_perm, leaves
        if depth == n:
            leaves += 1
            obj = objective_of_permutation(instance, perm)
            if _better(obj, perm, best_obj, best_perm):
                best_obj = obj
                best_perm = perm.copy()
            return
        i = order[depth]
        for k in np.flatnonzero(elig[i] & ~used):
            perm[i] = k
            used[k] = True
            descend(depth + 1)
            used[k] = False
            perm[i] = -1

    descend(0)
    if best_perm is None:
        raise ModelError("no feasible assignment found by enumeration")
    return SolveResult(
        assignment=instance.assignment_from_permutation(best_perm),
        objective=best_obj,
        bound=best_obj,
        gap=0.0,
        wall_time=perf_counter() - t0,
        iterations=leaves,
        certified=True,
        solver="brute-force",
    )


# -- branch and bound --------------------------------------------------------------


def _node_bound(instance: QapInstance, order: list[int], depth: int, perm: np.ndarray,
                used: np.ndarray) -> float:
    """Upper bound on the best completion of a partial assignment.

    Exact fixed-fixed interaction plus a maximization linear-assignment
    relaxation over free products and positions. The per-cell optimistic
    cost couples interaction-with-fixed and self terms (exact given the
    cell) with sorted-dot-product bounds on free-free interactions; free-free
    totals are halved because each ordered pair is bounded once from its
    source row and once from its target column.
    """
    flow, expo, elig = instance.flow, instance.exposure, instance.eligibility
    fixed = order[:depth]
    free = order[depth:]
    pf = perm[fixed]
    if not free:
        return float((flow[np.ix_(fixed, fixed)] * expo[np.ix_(pf, pf)]).sum())
    slots = np.flatnonzero(~used)
    ff = float((flow[np.ix_(fixed, fixed)] * expo[np.ix_(pf, pf)]).sum())
    r = len(free)

    cost = np.outer(np.diag(flow)[free], np.diag(expo)[slots])
    if fixed:
        cost += flow[np.ix_(free, fixed)] @ expo[np.ix_(slots, pf)].T
        cost += flow[np.ix_(fixed, free)].T @ expo[np.ix_(pf, slots)]
    if r > 1:
        off = ~np.eye(r, dtype=bool)
        f_sub = flow[np.ix_(free, free)]
        e_sub = expo[np.ix_(slots, slots)]
        f_out = np.sort(f_sub[off].reshape(r, r - 1), axis=1)
        f_in = np.sort(f_sub.T[off].reshape(r, r - 1), axis=1)
        e_out = np.sort(e_sub[off].reshape(r, r - 1), axis=1)
        e_in = np.sort(e_sub.T[off].reshape(r, r - 1), axis=1)
        cost += 0.5 * (f_out @ e_out.T + f_in @ e_in.T)

    cost = np.where(elig[np.ix_(free, slots)], cost, _FORBIDDEN)
    rows, cols = linear_sum_assignment(cost, maximize=True)
    lap = float(cost[rows, cols].sum())
    if lap < _FORBIDDEN / 10:
        return float("-inf")
    return ff + lap


def branch_and_bound(
    instance: QapInstance,
    config: SolverConfig | None = None,
    pool: SolutionPool | None = None,
) -> SolveResult:
    """Depth-first exact search with bound-based pruning.

    Products are assigned in static fewest-eligible-first order. A node is
    pruned when its bound cannot beat the incumbent (minus the pool gap when
    collecting a pool, so near-optimal leaves survive). Exhausting the tree
    certifies optimality; hitting node/time limits downgrades to the root
    bound as the gap reference.
    """
    cfg = config or SolverConfig()
    t0 = perf_counter()
    deadline = t0 + cfg.time_limit if cfg.time_limit else None
    n = instance.n
    elig = instance.eligibility
    order = sorted(range(n), key=lambda i: (int(elig[i].sum()), i))
    perm = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    best_obj = float("-inf")
    best_perm: np.ndarray | None = None
    nodes = 0
    limit_hit = False
    notes: list[str] = []
    gap_margin = pool.gap if pool is not None else 0.0

    root_bound = _node_bound(instance, order, 0, perm, used)

    def prune_ref() -> float:
        if best_perm is None:
            return float("-inf")
        tol = 1e-9 * max(1.0, abs(best_obj))
        return best_obj - gap_margin * abs(best_obj) - tol

    def descend(depth: int) -> None:
        nonlocal nodes, best_obj, best_perm, limit_hit
        if limit_hit:
            return
        nodes += 1
        if nodes > NODE_LIMIT:
            limit_hit = True
            notes.append(f"node limit {NODE_LIMIT} reached")
            return
        if deadline is not None and perf_counter() > deadline:
            limit_hit = True
            notes.append(f"time limit {cfg.time_limit}s reached")
            return
        if depth == n:
            obj = objective_of_permutation(instance, perm)
            if pool is not None:
                pool.offer(perm.copy(), obj)
            if _better(obj, perm, best_obj, best_perm):
                best_obj = obj
                best_perm = perm.copy()
            return
        i = order[depth]
        for k in np.flatnonzero(elig[i] & ~used):
            perm[i] = k
            used[k] = True
            if depth + 1 == n:
                descend(depth + 1)
            else:
                bound = _node_bound(instance, order, depth + 1, perm, used)
                if bound > prune_ref():
                    descend(depth + 1)
            used[k] = False
            perm[i] = -1
            if limit_hit:
                return

    descend(0)
    if best_perm is None:
        if limit_hit:
            raise ModelError("search limits hit before any feasible assignment was found")
        raise ModelError("no feasible assignment found")
    certified = not limit_hit
    bound = best_obj if certified else max(root_bound, best_obj)
    return SolveResult(
        assignment=instance.assignment_from_permutation(best_perm),
        objective=best_obj,
        bound=bound,
        gap=_gap_of(bound, best_obj),
        wall_time=perf_counter() - t0,
        nodes=nodes,
        certified=certified,
        solver="branch-and-bound",
        notes=tuple(notes),
    )


# -- tabu search -------------------------------------------------------------------


def _tabu_lanes(
    instance: QapInstance,
    eligibility: np.ndarray,
    starts: list[np.ndarray],
    rngs: list[Random],
    iterations: int,
    pool: SolutionPool | None,
    deadline: float | None,
) -> list[tuple[float, np.ndarray, int]]:
    """Tabu runs from L feasible permutations ("lanes") in lockstep; returns
    (best objective, best permutation, iterations executed) per lane.

    Every lane scores with the flow and exposure matrices of ``instance``;
    lane l moves under ``eligibility[l]`` of a C-contiguous bool (L, n, n)
    stack, which takes the place of the instance's own. Each lane keeps its
    own permutation, tabu table, rng, current and best objective, and takes
    exactly the moves it would take alone, while each iteration makes one
    set of NumPy calls for all lanes. A shared pool receives the offers of
    all lanes, interleaved; its contents depend only on the set of offers.

    Each iteration scores the swap pairs eligibility can ever allow in any
    lane (one a lane's own eligibility rules out is never allowed there),
    listed once in row-major order so ties break on the lowest (a, b);
    deltas read permuted exposure matrices kept in step by swapping two rows
    and two columns per move (Taillard 1991). A move is tabu only when BOTH
    products would return to recently held positions, and aspiration admits
    any move that beats the lane's best by more than round-off, so a tabu
    move back to the incumbent is never let through by float noise. All
    lanes stop at the deadline; a lane with no allowed move stops alone."""
    lanes, n = len(starts), instance.n
    perms = np.array(starts, dtype=np.int64)
    cur = objective_of_permutation(instance, perms).tolist()
    cur_col = np.array(cur)[:, None]
    best_obj = list(cur)
    best_perm = [perm.copy() for perm in perms]
    if pool is not None:
        for perm, obj in zip(perms, cur):
            pool.offer(perm.copy(), obj)
    lo = max(1, round(TENURE_RANGE[0] * n))
    hi = max(lo, round(TENURE_RANGE[1] * n))
    # a lane's aspiration level and rescoring threshold move with its best
    aspire = np.empty((lanes, 1))
    rescore_at = [0.0] * lanes

    def track(lane: int) -> None:
        best = best_obj[lane]
        aspire[lane, 0] = best + 1e-9 * max(1.0, abs(best))
        margin = 1e-6 * max(1.0, abs(best))
        if pool is not None:
            margin += pool.gap * abs(best)
        rescore_at[lane] = best - margin

    for lane in range(lanes):
        track(lane)
    tabu_until = np.zeros((lanes, n, n), dtype=np.int64)
    pa, pb = swap_candidate_pairs(eligibility)
    scan = SwapScan(instance.flow, instance.exposure, perms, pa, pb)
    # flat offsets of rows (lane, pa) and (lane, pb) of the (L, n, n) tables
    lane_rows = np.arange(lanes)[:, None] * n
    row_a, row_b = (lane_rows + pa) * n, (lane_rows + pb) * n
    elig_flat, tabu_flat = eligibility.reshape(-1), tabu_until.reshape(-1)
    pair_a, pair_b = pa.tolist(), pb.tolist()
    live = list(range(lanes))
    done = [0] * lanes
    last = 0
    for it in range(1, iterations + 1):
        if deadline is not None and perf_counter() > deadline:
            break
        last = it
        if not pair_a:  # nothing can ever move: every lane stops now
            done, live = [it] * lanes, []
            break
        at_ab = row_a + perms.take(pb, axis=1)
        at_ba = row_b + perms.take(pa, axis=1)
        allowed = elig_flat.take(at_ab) & elig_flat.take(at_ba)
        delta = scan.deltas()
        tabu_move = (tabu_flat.take(at_ab) >= it) & (tabu_flat.take(at_ba) >= it)
        admissible = allowed & (~tabu_move | (cur_col + delta > aspire))
        picks = np.where(admissible, delta, -np.inf).argmax(axis=1).tolist()
        stuck = []
        rescore = []
        for lane in live:
            p = picks[lane]
            if not admissible[lane, p]:
                # no admissible move: any allowed one will do, and a lane
                # with none stops here
                if not allowed[lane].any():
                    done[lane] = it
                    stuck.append(lane)
                    continue
                p = int(np.argmax(np.where(allowed[lane], delta[lane], -np.inf)))
            a, b = pair_a[p], pair_b[p]
            until = it + rngs[lane].randint(lo, hi)
            perm = perms[lane]
            ka, kb = perm[a], perm[b]
            tabu_until[lane, a, ka] = until
            tabu_until[lane, b, kb] = until
            perm[a], perm[b] = kb, ka
            scan.swap(a, b, lane)
            cur[lane] += float(delta[lane, p])
            cur_col[lane, 0] = cur[lane]
            if cur[lane] >= rescore_at[lane]:
                rescore.append(lane)
        if stuck:
            live = [lane for lane in live if lane not in stuck]
            if not live:
                break
        if rescore:
            canon = objective_of_permutation(instance, perms[rescore]).tolist()
            for lane, obj in zip(rescore, canon):
                cur[lane] = obj
                cur_col[lane, 0] = obj
                perm = perms[lane]
                if pool is not None:
                    pool.offer(perm.copy(), obj)
                if _better(obj, perm, best_obj[lane], best_perm[lane]):
                    best_obj[lane] = obj
                    best_perm[lane] = perm.copy()
                    track(lane)
    for lane in live:
        done[lane] = last
    return list(zip(best_obj, best_perm, done))


def tabu_search(
    instance: QapInstance,
    config: SolverConfig | None = None,
    initial: Assignment | None = None,
    pool: SolutionPool | None = None,
) -> SolveResult:
    """Multi-restart tabu search, the restarts run as lanes of one lockstep
    call. Restart 0 starts from the given assignment (or the deterministic
    greedy construction); later restarts start from seeded random feasible
    assignments. Never returns a worse objective than its starting
    assignment."""
    cfg = config or SolverConfig()
    t0 = perf_counter()
    deadline = t0 + cfg.time_limit if cfg.time_limit else None
    start0 = instance.permutation_of(initial) if initial is not None else greedy_assignment(instance)
    starts, rngs = _restart_lanes(instance, start0, cfg.seed, RESTARTS)
    lanes = _tabu_lanes(
        instance, np.stack([instance.eligibility] * RESTARTS), starts, rngs,
        cfg.iteration_limit, pool, deadline,
    )
    return _best_lane(instance, lanes, t0)


def _restart_lanes(
    instance: QapInstance, start0: np.ndarray, seed: int, restarts: int
) -> tuple[list[np.ndarray], list[Random]]:
    """Starts and rngs of one instance's tabu restarts: restart r draws from
    Random(_mix_seed(seed, r)); restart 0 starts from start0, later ones from
    a random feasible assignment drawn from their own rng."""
    rngs = [Random(_mix_seed(seed, r)) for r in range(restarts)]
    return [start0] + [random_assignment(instance, rng) for rng in rngs[1:]], rngs


def _best_lane(
    instance: QapInstance,
    lanes: list[tuple[float, np.ndarray, int]],
    t0: float,
    notes: tuple[str, ...] = (),
) -> SolveResult:
    """The best of one instance's tabu lanes, with their iterations summed."""
    best_obj = float("-inf")
    best_perm: np.ndarray | None = None
    for obj, perm, _ in lanes:
        if _better(obj, perm, best_obj, best_perm):
            best_obj = obj
            best_perm = perm
    return SolveResult(
        assignment=instance.assignment_from_permutation(best_perm),
        objective=best_obj,
        wall_time=perf_counter() - t0,
        iterations=sum(done for _, _, done in lanes),
        restarts=len(lanes),
        solver="tabu",
        notes=notes,
    )


# -- block coordinate descent -------------------------------------------------------


def block_descent(
    instance: QapInstance,
    config: SolverConfig | None = None,
    initial: Assignment | None = None,
) -> SolveResult:
    """Cyclic within-block optimization for tactical instances.

    Visits category blocks in fixed order; small blocks are optimized
    exhaustively over within-block permutations, oversized ones fall back to
    a tabu run under eligibility that pins every other product where it is.
    Stops when a full cycle brings no strict improvement, so the objective
    trace is non-decreasing and finite.
    """
    if instance.level != "level2" or not instance.blocks:
        raise InputError("block_descent requires a level2 instance with blocks")
    cfg = config or SolverConfig()
    t0 = perf_counter()
    deadline = t0 + cfg.time_limit if cfg.time_limit else None
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
            if deadline is not None and perf_counter() > deadline:
                notes.append(f"time limit {cfg.time_limit}s reached")
                improved = False
                break
            if len(rows) <= BLOCK_EXHAUSTIVE_CAP:
                slots = perm[rows]
                best_local = cur
                best_order: tuple[int, ...] | None = None
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
                # a pinned product has one eligible position, so it pairs
                # with no other: only the block's products can swap
                elig = np.zeros((1, instance.n, instance.n), dtype=bool)
                elig[0, np.arange(instance.n), perm] = True
                elig[0, rows] = instance.eligibility[rows]
                rng = Random(_mix_seed(cfg.seed, 7_919 * (bi + 1) + cycles))
                obj, new_perm, _ = _tabu_lanes(
                    instance, elig, [perm], [rng], BLOCK_TABU_ITERATIONS, None, deadline
                )[0]
                if obj > cur:
                    perm = new_perm
                    cur = obj
                    improved = True
    return SolveResult(
        assignment=instance.assignment_from_permutation(perm),
        objective=cur,
        wall_time=perf_counter() - t0,
        iterations=cycles,
        solver="block-descent",
        notes=tuple(notes),
    )


# -- pooled strategic solve and the two-level driver ----------------------------------


def solve_level1(instance: QapInstance, config: SolverConfig | None = None) -> SolutionPool:
    """Pool of near-optimal strategic assignments: exact branch-and-bound
    when the free-product count is small enough to certify, tabu restarts
    otherwise."""
    cfg = config or SolverConfig()
    pool = SolutionPool(instance, capacity=cfg.pool_capacity, gap=cfg.pool_gap)
    if instance.free_product_count() <= EXACT_FREE_LIMIT:
        branch_and_bound(instance, cfg, pool=pool)
    else:
        tabu_search(instance, cfg, pool=pool)
    if len(pool) == 0:
        raise ModelError("strategic solve produced an empty solution pool")
    return pool


def solve_level2(
    instances: list[QapInstance],
    seeds: list[int],
    config: SolverConfig,
    restarts: int,
) -> list[tuple[SolveResult, SolveResult]]:
    """Tactical solve of each instance: block descent seeded by the
    instance's seed, then `restarts` tabu restarts from it, the restarts of
    all instances run as the lanes of one lockstep call.

    Each instance's restarts are seeded as tabu_search seeds its own, with
    restart 0 starting from the descent's layout; a lane never ends below
    its start, so the refined objective is never below the descent's. The
    instances must share one flow and one exposure matrix. Returns
    (descent, refined) per instance; the refined result carries the
    descent's notes."""
    t0 = perf_counter()
    descents = [
        block_descent(inst, replace(config, seed=seed)) for inst, seed in zip(instances, seeds)
    ]
    deadline = perf_counter() + config.time_limit if config.time_limit else None
    starts: list[np.ndarray] = []
    rngs: list[Random] = []
    for inst, seed, descended in zip(instances, seeds, descents):
        start0 = inst.permutation_of(descended.assignment)
        inst_starts, inst_rngs = _restart_lanes(inst, start0, seed, restarts)
        starts += inst_starts
        rngs += inst_rngs
    eligibility = np.stack([inst.eligibility for inst in instances for _ in range(restarts)])
    lanes = _tabu_lanes(
        instances[0], eligibility, starts, rngs, config.iteration_limit, None, deadline
    )
    return [
        (d, _best_lane(inst, lanes[i * restarts : (i + 1) * restarts], t0, d.notes))
        for i, (inst, d) in enumerate(zip(instances, descents))
    ]


def capacity_eligibility(eligibility, catalog: Catalog, graph: StoreGraph):
    """Strategic eligibility restricted to locations with exactly as many
    sublocations as the category has subcategories. Any strategic layout
    must induce a buildable tactical instance, so size-mismatched pairs are
    excluded up front rather than discovered mid-refinement."""
    by_size: dict[int, list[str]] = {}
    for loc in graph.locations:
        by_size.setdefault(len(loc.sublocation_ids), []).append(loc.location_id)
    out: dict[str, list[str]] = {}
    for cat in catalog.categories:
        cid = cat.category_id
        fitting = by_size.get(len(catalog.subcategories_of(cid)), [])
        allowed = fitting if eligibility is None or cid not in eligibility else [
            lid for lid in eligibility[cid] if lid in fitting
        ]
        if not allowed:
            raise ModelError(
                f"category {cid!r} has no location with "
                f"{len(catalog.subcategories_of(cid))} sublocations"
            )
        out[cid] = allowed
    return out


def solve_hierarchical(
    exposures: ExposureMatrices,
    transitions: TransitionMatrices,
    eligibility,
    catalog: Catalog,
    graph: StoreGraph,
    config: SolverConfig | None = None,
) -> HierarchicalResult:
    """Two-level sequential driver.

    Solves the strategic problem for a pool of near-optimal category
    layouts, then solves the induced tactical problem for each pool member
    (solve_level2 with one tabu restart) and keeps the best final layout.
    Each candidate gets an identical, pool-size-independent budget seeded by
    its pool index, so growing the pool can only improve the final
    objective.
    """
    cfg = config or SolverConfig()
    t0 = perf_counter()
    effective = capacity_eligibility(eligibility, catalog, graph)
    l1_instance = build_level1_instance(exposures, transitions, effective)
    pool = solve_level1(l1_instance, cfg)

    entries = pool.entries
    seeds = [_mix_seed(cfg.seed, 100_003 + idx) for idx in range(len(entries))]
    instances = [
        build_level2_instance(exposures, transitions, entry.assignment, catalog, graph)
        for entry in entries
    ]
    solved = solve_level2(instances, seeds, cfg, restarts=1)

    best_obj = float("-inf")
    best_assignment = best_entry = None
    candidates: list[tuple[int, float, float]] = []
    notes: list[str] = []
    iterations = 0
    for idx, (entry, (descended, refined)) in enumerate(zip(entries, solved)):
        notes.extend(refined.notes)
        iterations += descended.iterations + refined.iterations
        candidates.append((idx, entry.objective, refined.objective))
        if best_entry is None or refined.objective > best_obj:
            best_obj, best_assignment, best_entry = refined.objective, refined.assignment, entry
    return HierarchicalResult(
        assignment=best_assignment,
        objective=best_obj,
        wall_time=perf_counter() - t0,
        iterations=iterations,
        restarts=RESTARTS,
        solver="hierarchical",
        notes=tuple(notes),
        level1_assignment=best_entry.assignment,
        level1_objective=best_entry.objective,
        candidates=tuple(candidates),
    )


# -- layout evaluation ------------------------------------------------------------


def induced_level1_assignment(
    assignment: Assignment, catalog: Catalog, graph: StoreGraph
) -> Assignment:
    """Category-to-location map implied by a subcategory-to-sublocation map;
    rejects layouts that scatter one category over several locations."""
    parent_loc = {s.sublocation_id: s.parent_location_id for s in graph.sublocations}
    induced: dict[str, str] = {}
    for sid, kid in assignment.shelf_mapping.items():
        cid = catalog.category_of(sid)
        if kid not in parent_loc:
            raise ValidationError(f"unknown sublocation {kid!r} in layout")
        lid = parent_loc[kid]
        if induced.setdefault(cid, lid) != lid:
            raise ValidationError(
                f"category {cid!r} is split across locations {induced[cid]!r} and {lid!r}"
            )
    return Assignment.pinned(induced)


def _layout_metrics(
    assignment: Assignment,
    exposures: ExposureMatrices,
    transitions: TransitionMatrices,
    catalog: Catalog,
    graph: StoreGraph,
) -> tuple[float, float]:
    l1 = induced_level1_assignment(assignment, catalog, graph)
    instance = build_level2_instance(exposures, transitions, l1, catalog, graph)
    # door placements are forced, so accept layouts that omit them
    assignment = Assignment.pinned(assignment.mapping)
    report = check_feasible(instance, assignment)
    if not report.ok:
        raise ValidationError("infeasible layout: " + "; ".join(report.violations))
    perm = instance.permutation_of(assignment)
    exposure_total = objective_of_permutation(instance, perm)
    distance_total = float(
        (transitions.sub_transitions * exposures.sub_distance[np.ix_(perm, perm)]).sum()
    )
    return exposure_total, distance_total


def evaluate_layout(
    assignment: Assignment,
    exposures: ExposureMatrices,
    transitions: TransitionMatrices,
    catalog: Catalog,
    graph: StoreGraph,
    baseline: Assignment | None = None,
) -> ExposureReport:
    """Total exposure and flow-weighted travel distance of a tactical
    layout, with percentage deltas against an optional baseline layout."""
    objective_value, distance = _layout_metrics(assignment, exposures, transitions, catalog, graph)
    report = ExposureReport(
        objective=objective_value,
        travel_distance=distance,
        transaction_count=transitions.transaction_count,
    )
    if baseline is not None:
        base_obj, base_dist = _layout_metrics(baseline, exposures, transitions, catalog, graph)
        report.baseline_objective = base_obj
        report.baseline_distance = base_dist
        report.exposure_delta_pct = 100.0 * (objective_value - base_obj) / base_obj if base_obj else None
        report.distance_delta_pct = 100.0 * (distance - base_dist) / base_dist if base_dist else None
    return report
