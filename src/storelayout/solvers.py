"""Exact and heuristic solvers for restricted QAP instances.

All solvers maximize, respect eligibility, and evaluate candidates through
the one canonical objective routine in qap, so identical assignments always
score bit-identically. Everything is deterministic given (seed, config):
independent tabu walks run side by side as lanes, split over forked worker
processes where that cannot change a bit, never in threads.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from random import Random
from time import perf_counter

import numpy as np

from .demand import Catalog, TransitionMatrices
from .errors import InputError, ModelError, ValidationError
from .forking import split_ranges, usable_parts
from .qap import (
    Assignment,
    QapInstance,
    SolutionPool,
    SwapScan,
    augment,
    build_level1_instance,
    build_level2_instance,
    check_feasible,
    complete_matching,
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
# Largest block block_descent orders exhaustively (7! = 5,040 orders); the
# tabu lanes after it search larger blocks with the rest of the instance.
BLOCK_EXHAUSTIVE_CAP = 7
# Most free products solve_level1 hands to branch and bound instead of tabu.
EXACT_FREE_LIMIT = 11
# Permutations a tabu lane remembers the objective of. On the bundled store a
# strategic lane rescores 10 to 76 distinct ones before it retires. Lanes that
# never consult the memo made `storelayout solve` 5-6% slower at pool size 1
# and 1-4% slower at pool size 10 (benchmark medians, seeds 413 and 7).
RESCORE_MEMO = 256
# Iterations a tabu lane, strategic or tactical, walks past its last new best
# before it retires. On the bundled store at six basket sets, 27 of 30 unstopped
# strategic lanes found no new best after iteration 236; three went 1,330,
# 17,661 and 21,629 iterations between new bests, and the stop loses what the
# second found: solve-l1 at basket seed 1 gives 20,533.468, not 20,535.292. No
# tactical lane found a new best after iteration 3; on small random tactical
# instances 2 walks in 150 went over 200 iterations between them, 1 over 500.
STALL = 500


@dataclass(frozen=True)
class SolverConfig:
    """The solver settings a run chooses: seed, budgets and pool shape;
    ``iteration_limit`` caps each tabu lane, which retires sooner (STALL)."""

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
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise InputError("time_limit must be finite and positive")


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
    and the per-pool-candidate trace. ``iterations`` and ``restarts`` count
    the tactical lanes' iterations and the lanes themselves, over every
    candidate."""

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


def _gap_of(bound: float, best: float) -> float | None:
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


def _construct(instance: QapInstance, order: list[int], rank) -> np.ndarray:
    """Places the products in ``order``, each on the first position of
    ``rank(i, free, perm, placed)``, its eligible free positions ranked,
    that still leaves the rest completable.

    ``owner`` (position -> product) keeps a complete matching of the
    unplaced products to the free positions. Trying i on k gives k to i;
    the rest stays completable exactly when k's old holder finds an
    augmenting path that avoids the placed positions and k, which can only
    end on the position i left. A failed trial undoes the two entries. The
    instance admits a complete matching, so i's own matched position always
    succeeds and every product is placed.
    """
    n = instance.n
    elig = instance.eligibility
    adj = [np.flatnonzero(row).tolist() for row in elig]
    owner = complete_matching(elig)
    perm = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    for step, i in enumerate(order):
        home = owner.index(i)
        for k in rank(i, np.flatnonzero(elig[i] & ~used), perm, order[:step]):
            holder = owner[k]
            if k != home:
                owner[k], owner[home] = i, -1
                seen = used.tolist()
                seen[k] = True
                if not augment(adj, owner, holder, seen):
                    owner[k], owner[home] = holder, i
                    continue
            perm[i] = k
            used[k] = True
            break
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

    return _construct(instance, order, by_gain)


def random_assignment(instance: QapInstance, rng: Random) -> np.ndarray:
    """Random feasible permutation: random product order, random eligible
    position that keeps the remainder completable. Deterministic given rng."""
    order = list(range(instance.n))
    rng.shuffle(order)

    def shuffled(i, free, perm, placed):
        candidates = free.tolist()
        rng.shuffle(candidates)
        return candidates

    return _construct(instance, order, shuffled)


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
    """Upper bound on the best completion of a partial assignment that
    leaves at least one product free.

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

    # imported here: only exact search on small instances needs scipy
    from scipy.optimize import linear_sum_assignment

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
    *,
    deadline: float | None = None,
) -> SolveResult:
    """Depth-first exact search with bound-based pruning.

    Products are assigned in static fewest-eligible-first order. A node is
    pruned when its bound cannot beat the incumbent (minus the pool gap when
    collecting a pool, so near-optimal leaves survive). Exhausting the tree
    certifies optimality. Hitting the node limit or the deadline (see
    _deadline) downgrades to the root bound as the gap reference, and
    before the first leaf it answers with, and offers, the greedy layout.
    """
    cfg = config or SolverConfig()
    t0 = perf_counter()
    deadline = _deadline(cfg, deadline)
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
            notes.append(_time_limit_note(cfg))
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
        if not limit_hit:
            raise ModelError("no feasible assignment found")
        best_perm = greedy_assignment(instance)
        best_obj = objective_of_permutation(instance, best_perm)
        if pool is not None:
            pool.offer(best_perm, best_obj)
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
    instances: list[QapInstance],
    restarts: int,
    first: Callable[[int], np.ndarray],
    rngs: list[Random],
    iterations: int,
    pool: SolutionPool | None,
    deadline: float | None,
) -> tuple[list[tuple[float, np.ndarray, int]], bool]:
    """Tabu runs of ``restarts`` lanes per instance; returns (best
    objective, best permutation, iterations executed) per lane, and whether
    the deadline stopped any lane.

    Lane l walks instance l // restarts as restart l % restarts, drawing
    from ``rngs[l]``. Restart 0 starts from the permutation ``first(j)``
    returns for instance j; a later restart starts from a random feasible
    assignment drawn from its own rng. Every lane scores with the flow and
    exposure matrices of ``instances[0]``, which all instances share, and
    moves under its own instance's eligibility: the tactical instances of
    one solve_level2 call share their matrices but not their blocks.

    A lane's walk depends on nothing outside the lane, so the lanes are
    split into contiguous chunks, one per usable CPU (``split_ranges``): the
    first runs in this process, each other one in a forked worker. A chunk
    builds the starts of its own lanes, calling ``first`` once for each
    instance whose restart-0 lane it holds, then walks them; the results
    come back in lane order. Every chunk builds its starts whatever the
    clock says, then stops its lanes at the one absolute ``deadline``:
    perf_counter is a monotonic clock that a forked worker shares. Each lane retires STALL iterations
    after its last new best (see _walk_lanes), so ``iterations`` is a cap.

    With a pool, each lane offers to a pool of its own (same capacity and
    gap), and at the end every lane pool's entries are offered to ``pool``.
    A pool's contents depend only on the set of its offers, and whatever
    enters the merged pool also ranks within its own lane's pool, so
    ``pool`` ends as if every lane had offered to it directly."""
    lanes = len(rngs)
    shape = None if pool is None else (pool.capacity, pool.gap)

    def walk(lo: int, hi: int):
        starts = [
            first(lane // restarts) if lane % restarts == 0
            else random_assignment(instances[lane // restarts], rngs[lane])
            for lane in range(lo, hi)
        ]
        eligibility = np.stack([instances[lane // restarts].eligibility for lane in range(lo, hi)])
        return _walk_lanes(
            instances[0], eligibility, starts, rngs[lo:hi], iterations, shape, deadline
        )

    chunks = split_ranges(walk, lanes, usable_parts(lanes))
    results = []
    for chunk_results, ranked, _ in chunks:
        results += chunk_results
        for lane_ranked in ranked:
            for obj, key in lane_ranked:
                pool.offer(np.array(key), obj)
    return results, any(cut for _, _, cut in chunks)


def _walk_lanes(
    instance: QapInstance,
    eligibility: np.ndarray,
    starts: list[np.ndarray],
    rngs: list[Random],
    iterations: int,
    pool_shape: tuple[int, float] | None,
    deadline: float | None,
) -> tuple[
    list[tuple[float, np.ndarray, int]], list[list[tuple[float, tuple[int, ...]]]], bool
]:
    """The lanes of one process in lockstep: (best objective, best
    permutation, iterations executed) per lane, per lane the ranked entries
    of its own pool of shape (capacity, gap), if any, and whether the
    deadline stopped them.

    Each lane keeps its own permutation, tabu table, rng, current and best
    objective and pool, and takes exactly the moves it would take alone,
    while each iteration scores the moves of all lanes in one set of NumPy
    calls.

    Each iteration scores the swap pairs eligibility can ever allow in any
    lane (one a lane's own eligibility rules out is never allowed there),
    listed once in row-major order so ties break on the lowest (a, b);
    deltas read permuted exposure matrices kept in step by swapping two rows
    and two columns per move (Taillard 1991). A move is tabu only when BOTH
    products would return to recently held positions, and aspiration admits
    any move that beats the lane's best by more than round-off, so a tabu
    move back to the incumbent is never let through by float noise. All
    lanes stop at the deadline; a lane with no allowed move stops alone,
    and so does one whose best last changed STALL iterations ago (Battiti &
    Tecchiolli 1994; a move to an equal objective at a lexicographically
    smaller permutation changes it too). The call ends when no lane is left.

    A lane rescores its running objective only when it may reach its best
    or its pool's admission bar, less round-off. It remembers the canonical
    objective of up to RESCORE_MEMO permutations it has scored, its start
    among them, forgetting them all when full: a remembered one is taken
    back as the running objective and nothing else, since its offer, its
    ranking against the best and the bars it set have all been made and
    cannot change (a pool's contents depend only on the set of its offers,
    and its best and bar only rise). A lane that misses the memo rescores
    its own permutation at once, then offers it, ranks it against its best
    and moves its thresholds."""
    lanes, n = len(starts), instance.n
    perms = np.array(starts, dtype=np.int64)
    cur = [objective_of_permutation(instance, perm) for perm in perms]
    cur_col = np.array(cur)[:, None]
    scored = [{perm.tobytes(): obj} for perm, obj in zip(perms, cur)]
    best_obj = list(cur)
    best_perm = [perm.copy() for perm in perms]
    pools = []
    if pool_shape is not None:
        pools = [SolutionPool(instance, *pool_shape) for _ in range(lanes)]
        for lane_pool, perm, obj in zip(pools, perms, cur):
            lane_pool.offer(perm, obj)
    lo = max(1, round(TENURE_RANGE[0] * n))
    hi = max(lo, round(TENURE_RANGE[1] * n))
    # a lane's aspiration level moves with its best, its rescoring threshold
    # with its best and its pool; a lane's pool holds its best on top, so
    # the pool's admission bar is never above it
    aspire = np.empty((lanes, 1))
    rescore_at = [0.0] * lanes

    def track(lane: int) -> None:
        best = best_obj[lane]
        aspire[lane, 0] = best + 1e-9 * max(1.0, abs(best))
        bar = pools[lane].admission_bar() if pools else best
        rescore_at[lane] = bar - 1e-6 * max(1.0, abs(best))

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
    # the iteration of each lane's last new best, its start at 0
    improved = [0] * lanes
    last = 0
    cut = False
    for it in range(1, iterations + 1):
        if deadline is not None and perf_counter() > deadline:
            cut = True
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
        ending = []  # the lanes that stop at this iteration
        for lane in live:
            p = picks[lane]
            if not admissible[lane, p]:
                # no admissible move: any allowed one will do, and a lane
                # with none stops here
                if not allowed[lane].any():
                    ending.append(lane)
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
            if cur[lane] >= rescore_at[lane]:
                key = perm.tobytes()
                known = scored[lane].get(key)
                if known is None:
                    known = objective_of_permutation(instance, perm)
                    if len(scored[lane]) == RESCORE_MEMO:
                        scored[lane].clear()
                    scored[lane][key] = known
                    if pools:
                        pools[lane].offer(perm, known)
                    better = _better(known, perm, best_obj[lane], best_perm[lane])
                    if better:
                        best_obj[lane] = known
                        best_perm[lane] = perm.copy()
                        improved[lane] = it
                    if better or pools:
                        track(lane)
                cur[lane] = known
            cur_col[lane, 0] = cur[lane]
        ending += [lane for lane in live if it - improved[lane] >= STALL]
        if ending:
            for lane in ending:
                done[lane] = it
            live = [lane for lane in live if lane not in ending]
            if not live:
                break
    for lane in live:
        done[lane] = last
    return list(zip(best_obj, best_perm, done)), [lane_pool.ranked for lane_pool in pools], cut


def tabu_search(
    instance: QapInstance,
    config: SolverConfig | None = None,
    pool: SolutionPool | None = None,
    *,
    deadline: float | None = None,
) -> SolveResult:
    """Multi-restart tabu search, the restarts run as lanes of one lockstep
    call, each retired STALL iterations past its last new best. Restart r
    draws from Random(_mix_seed(seed, r)). Restart 0 starts from the
    deterministic greedy construction, later restarts from random feasible
    assignments drawn from their own rngs, each built by the process that
    walks it. Never returns a worse objective than the greedy construction.
    A run the deadline (see _deadline) stopped carries the time-limit note."""
    cfg = config or SolverConfig()
    t0 = perf_counter()
    rngs = [Random(_mix_seed(cfg.seed, r)) for r in range(RESTARTS)]
    lanes, cut = _tabu_lanes(
        [instance], RESTARTS, lambda _: greedy_assignment(instance), rngs, cfg.iteration_limit,
        pool, _deadline(cfg, deadline),
    )
    return _best_lane(instance, lanes, t0, (_time_limit_note(cfg),) if cut else ())


def _deadline(config: SolverConfig, deadline: float | None) -> float | None:
    """The absolute perf_counter time a search stops at: ``deadline`` when
    the caller gives one, so every search of a run stops at the same time,
    else the config's time limit from now, or None without a limit."""
    if deadline is not None or config.time_limit is None:
        return deadline
    return perf_counter() + config.time_limit


def _time_limit_note(config: SolverConfig) -> str:
    """The note of a solver call that its deadline stopped."""
    return f"time limit {config.time_limit}s reached"


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


def block_descent(instance: QapInstance) -> SolveResult:
    """Cyclic within-block optimization for tactical instances, from the
    greedy construction.

    Visits category blocks in fixed order and orders each block of 2 to
    BLOCK_EXHAUSTIVE_CAP products exhaustively over its within-block
    permutations; any larger block is left where it is, for the tabu lanes
    solve_level2 runs next over the whole instance. Stops when a full cycle
    brings no strict improvement, so the objective trace is non-decreasing
    and finite. Deterministic: the search draws no random numbers and reads
    no clock, so no deadline cuts it.
    """
    if instance.level != "level2" or not instance.blocks:
        raise InputError("block_descent requires a level2 instance with blocks")
    perm = greedy_assignment(instance)
    cur = objective_of_permutation(instance, perm)
    block_rows = [
        np.array([instance.product_index(p) for p in blk.product_ids], dtype=np.int64)
        for blk in instance.blocks
        if 2 <= len(blk.product_ids) <= BLOCK_EXHAUSTIVE_CAP
    ]
    cycles = 0
    improved = True
    while improved:
        improved = False
        cycles += 1
        for rows in block_rows:
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
    return SolveResult(
        assignment=instance.assignment_from_permutation(perm),
        objective=cur,
        iterations=cycles,
        solver="block-descent",
    )


# -- pooled strategic solve and the two-level driver ----------------------------------


def solve_level1(instance: QapInstance, config: SolverConfig | None = None, *,
                 deadline: float | None = None) -> SolutionPool:
    """Pool of near-optimal strategic assignments: exact branch-and-bound
    when the free-product count is small enough to certify, tabu restarts
    otherwise, either stopping at the deadline (see _deadline). The pool
    carries the search's notes, such as a node or time limit it hit."""
    cfg = config or SolverConfig()
    deadline = _deadline(cfg, deadline)
    pool = SolutionPool(instance, capacity=cfg.pool_capacity, gap=cfg.pool_gap)
    if instance.free_product_count() <= EXACT_FREE_LIMIT:
        result = branch_and_bound(instance, cfg, pool=pool, deadline=deadline)
    else:
        result = tabu_search(instance, cfg, pool=pool, deadline=deadline)
    pool.notes = result.notes
    if len(pool) == 0:
        raise ModelError("strategic solve produced an empty solution pool")
    return pool


def solve_level2(
    instances: list[QapInstance],
    seeds: list[int],
    config: SolverConfig,
    restarts: int,
    *,
    deadline: float | None = None,
) -> list[SolveResult]:
    """Tactical solve of each instance: block descent, then `restarts` tabu
    restarts from it, the restarts of all instances run as the lanes of one
    lockstep call. The lanes are the only tabu search of a tactical instance:
    they also search the blocks too large for the descent. Each lane retires
    as a strategic restart does, STALL iterations after its last new best;
    the config's iteration limit is a cap.

    Each instance's restarts are seeded by the instance's seed as
    tabu_search seeds its own, with restart 0 starting from the descent's
    layout; a lane never ends below its start, so the result is never below
    the descent's. Each descent runs once, in the process that walks its
    instance's restart 0, and always to its end: the deadline (see
    _deadline) stops only the lanes. The instances must share one flow and
    one exposure matrix. Returns the best lane per instance, its iterations
    those of the instance's lanes; when the deadline stopped the lanes, each
    result carries the time-limit note."""
    t0 = perf_counter()
    deadline = _deadline(config, deadline)

    def descend(j):
        return instances[j].permutation_of(block_descent(instances[j]).assignment)

    rngs = [Random(_mix_seed(seed, r)) for seed in seeds for r in range(restarts)]
    lanes, cut = _tabu_lanes(
        instances, restarts, descend, rngs, config.iteration_limit, None, deadline
    )
    notes = (_time_limit_note(config),) if cut else ()
    return [
        _best_lane(inst, lanes[i * restarts : (i + 1) * restarts], t0, notes)
        for i, inst in enumerate(instances)
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
    its pool index, so growing the pool can only improve the final objective
    of a run no deadline cuts. Every search of the run stops at one deadline
    (see _deadline); a strategic stage whose lanes have not retired by then
    leaves the tactical lanes none, and their note reports the cut. The
    result keeps each distinct note once, the strategic search's first, then
    the candidates' in the order first seen.
    """
    cfg = config or SolverConfig()
    t0 = perf_counter()
    deadline = _deadline(cfg, None)
    effective = capacity_eligibility(eligibility, catalog, graph)
    l1_instance = build_level1_instance(exposures, transitions, effective)
    pool = solve_level1(l1_instance, cfg, deadline=deadline)

    entries = pool.entries
    seeds = [_mix_seed(cfg.seed, 100_003 + idx) for idx in range(len(entries))]
    instances = [
        build_level2_instance(exposures, transitions, entry.assignment, catalog, graph)
        for entry in entries
    ]
    solved = solve_level2(instances, seeds, cfg, restarts=1, deadline=deadline)

    best_obj = float("-inf")
    best_assignment = best_entry = None
    candidates: list[tuple[int, float, float]] = []
    notes = list(pool.notes)
    for idx, (entry, refined) in enumerate(zip(entries, solved)):
        notes.extend(refined.notes)
        candidates.append((idx, entry.objective, refined.objective))
        if best_entry is None or refined.objective > best_obj:
            best_obj, best_assignment, best_entry = refined.objective, refined.assignment, entry
    return HierarchicalResult(
        assignment=best_assignment,
        objective=best_obj,
        wall_time=perf_counter() - t0,
        iterations=sum(r.iterations for r in solved),
        restarts=sum(r.restarts for r in solved),
        solver="hierarchical",
        notes=tuple(dict.fromkeys(notes)),
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


def layout_instance(
    assignment: Assignment,
    exposures: ExposureMatrices,
    transitions: TransitionMatrices,
    catalog: Catalog,
    graph: StoreGraph,
) -> tuple[QapInstance, np.ndarray]:
    """The tactical instance of a subcategory layout, under the strategic
    layout it induces, and the layout's permutation on that instance;
    rejects an infeasible layout."""
    l1 = induced_level1_assignment(assignment, catalog, graph)
    instance = build_level2_instance(exposures, transitions, l1, catalog, graph)
    # door placements are forced, so accept layouts that omit them
    assignment = Assignment.pinned(assignment.mapping)
    report = check_feasible(instance, assignment)
    if not report.ok:
        raise ValidationError("infeasible layout: " + "; ".join(report.violations))
    return instance, instance._permutation(assignment)


def _layout_metrics(
    assignment: Assignment,
    exposures: ExposureMatrices,
    transitions: TransitionMatrices,
    catalog: Catalog,
    graph: StoreGraph,
) -> tuple[float, float]:
    instance, perm = layout_instance(assignment, exposures, transitions, catalog, graph)
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
