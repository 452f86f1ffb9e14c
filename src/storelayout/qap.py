"""Restricted quadratic assignment instances and shared evaluation kernels.

An instance pairs a product-to-product flow matrix with a position-to-position
exposure matrix and a binary eligibility matrix restricting which product may
occupy which position. The objective, maximized by every solver, is

    sum over product pairs (i1, i2) of flow[i1][i2] * exposure[pos(i1)][pos(i2)]

for a bijective, eligibility-respecting assignment pos(). Tactical instances
additionally carry block structure: each category's subcategories may only
permute within the sublocations of the location the category was given.

Eligibility is the only placement rule. The door products are part of it:
check-in may only take the entrance and check-out only the exit, at both
levels. DOOR_PINS states that once; ``Assignment.pinned`` adds the door
placements a shelf layout leaves out, and ``Assignment.shelf_mapping``
drops them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .demand import CHECK_IN, CHECK_OUT, Catalog, TransitionMatrices
from .errors import InputError, ModelError, ValidationError
from .store import ENTRANCE_POS, EXIT_POS, ExposureMatrices, StoreGraph

LEVEL1 = "level1"
LEVEL2 = "level2"
_LEVELS = (LEVEL1, LEVEL2)

# door product -> the one position it may take, at either level
DOOR_PINS = {CHECK_IN: ENTRANCE_POS, CHECK_OUT: EXIT_POS}


@dataclass(frozen=True)
class Block:
    """One category's slice of a tactical instance: its subcategories and the
    sublocations of its fixed location, mutually exchangeable."""

    category_id: str
    location_id: str
    product_ids: tuple[str, ...]
    position_ids: tuple[str, ...]


@dataclass(frozen=True)
class Assignment:
    """Product-to-position map, normalized to sorted pairs so equal mappings
    compare and hash equal."""

    pairs: tuple[tuple[str, str], ...]

    @classmethod
    def from_mapping(cls, mapping) -> "Assignment":
        return cls(pairs=tuple(sorted(mapping.items())))

    @classmethod
    def pinned(cls, mapping) -> "Assignment":
        """``mapping`` with each door product it leaves out placed at its
        door; a door placement the mapping names is kept as it is."""
        return cls.from_mapping({**DOOR_PINS, **mapping})

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    @property
    def shelf_mapping(self) -> dict[str, str]:
        """The mapping without the door products, in pair order."""
        return {pid: pos for pid, pos in self.pairs if pid not in DOOR_PINS}


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple[str, ...]


def _check_ids(ids, kind: str) -> None:
    if len(set(ids)) != len(ids):
        raise InputError(f"duplicate {kind} ids")
    for pid in ids:
        if not pid or any(c.isspace() for c in pid):
            raise InputError(f"{kind} id {pid!r} is empty or contains whitespace")


@dataclass
class QapInstance:
    """Immutable restricted QAP. Validated on construction; rejected early if
    the eligibility matrix admits no perfect matching."""

    level: str
    product_ids: tuple[str, ...]
    position_ids: tuple[str, ...]
    flow: np.ndarray
    exposure: np.ndarray
    eligibility: np.ndarray
    blocks: tuple[Block, ...] | None = None

    _product_index: dict[str, int] = field(init=False, repr=False)
    _position_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.level not in _LEVELS:
            raise InputError(f"unknown level tag {self.level!r}")
        _check_ids(self.product_ids, "product")
        _check_ids(self.position_ids, "position")
        n = len(self.product_ids)
        if n != len(self.position_ids):
            raise InputError(
                f"product count {n} != position count {len(self.position_ids)}"
            )
        if n == 0:
            raise InputError("instance must have at least one product")

        self.flow = np.asarray(self.flow, dtype=np.float64)
        self.exposure = np.asarray(self.exposure, dtype=np.float64)
        self.eligibility = np.asarray(self.eligibility, dtype=bool)
        for label, mat in (("flow", self.flow), ("exposure", self.exposure)):
            if mat.shape != (n, n):
                raise InputError(f"{label} matrix shape {mat.shape} does not match n={n}")
            if not np.isfinite(mat).all():
                raise InputError(f"{label} matrix contains non-finite entries")
        if self.eligibility.shape != (n, n):
            raise InputError(
                f"eligibility matrix shape {self.eligibility.shape} does not match n={n}"
            )

        self._product_index = {pid: i for i, pid in enumerate(self.product_ids)}
        self._position_index = {pid: i for i, pid in enumerate(self.position_ids)}

        # Door products/positions, when present, sit at the axis ends and
        # are pinned to each other; solvers never special-case them.
        doors = tuple(zip(DOOR_PINS.items(), (0, n - 1)))
        for (pid, _), want in doors:
            if pid in self._product_index and self._product_index[pid] != want:
                raise InputError(f"product {pid!r} must be at axis index {want}")
        for (_, pos), want in doors:
            if pos in self._position_index and self._position_index[pos] != want:
                raise InputError(f"position {pos!r} must be at axis index {want}")
        for (pid, pos), i in doors:
            if pid in self._product_index:
                if pos not in self._position_index:
                    raise InputError(f"{pid} product requires an {pos} position")
                row = self.eligibility[i]
                if not (row[i] and row.sum() == 1):
                    raise InputError(f"{pid} must be eligible exactly for the {pos} position")

        empty_rows = [self.product_ids[i] for i in np.flatnonzero(~self.eligibility.any(axis=1))]
        empty_cols = [self.position_ids[k] for k in np.flatnonzero(~self.eligibility.any(axis=0))]
        if empty_rows or empty_cols:
            raise ModelError(
                "infeasible instance: "
                + "; ".join(
                    msg
                    for msg in (
                        f"products with no eligible position: {empty_rows}" if empty_rows else "",
                        f"positions with no eligible product: {empty_cols}" if empty_cols else "",
                    )
                    if msg
                )
            )

        if self.level == LEVEL2:
            if not self.blocks:
                raise InputError("level2 instance requires block structure")
            self._validate_blocks()
        elif self.blocks:
            raise InputError(f"blocks are only meaningful for level2, not {self.level!r}")

        if complete_matching(self.eligibility) is None:
            raise ModelError("infeasible instance: eligibility admits no complete assignment")

    def _validate_blocks(self) -> None:
        dummies_p = DOOR_PINS.keys() & set(self.product_ids)
        dummies_k = set(DOOR_PINS.values()) & set(self.position_ids)
        seen_p: set[str] = set()
        seen_k: set[str] = set()
        for blk in self.blocks:
            if len(blk.product_ids) != len(blk.position_ids):
                raise ModelError(
                    f"block {blk.category_id!r}: {len(blk.product_ids)} subcategories "
                    f"but {len(blk.position_ids)} sublocations"
                )
            for pid in blk.product_ids:
                if pid not in self._product_index:
                    raise InputError(f"block {blk.category_id!r} lists unknown product {pid!r}")
                if pid in seen_p:
                    raise InputError(f"product {pid!r} appears in two blocks")
                seen_p.add(pid)
            for pos in blk.position_ids:
                if pos not in self._position_index:
                    raise InputError(f"block {blk.category_id!r} lists unknown position {pos!r}")
                if pos in seen_k:
                    raise InputError(f"position {pos!r} appears in two blocks")
                seen_k.add(pos)
        if seen_p != set(self.product_ids) - dummies_p:
            missing = sorted(set(self.product_ids) - dummies_p - seen_p)
            raise InputError(f"products not covered by any block: {missing}")
        if seen_k != set(self.position_ids) - dummies_k:
            missing = sorted(set(self.position_ids) - dummies_k - seen_k)
            raise InputError(f"positions not covered by any block: {missing}")
        expected = eligibility_from_blocks(self.product_ids, self.position_ids, self.blocks)
        if not np.array_equal(self.eligibility, expected):
            raise InputError("level2 eligibility matrix is not block-diagonal over the blocks")

    # -- lookups and conversions ----------------------------------------------

    @property
    def n(self) -> int:
        return len(self.product_ids)

    def product_index(self, product_id: str) -> int:
        try:
            return self._product_index[product_id]
        except KeyError:
            raise InputError(f"unknown product id {product_id!r}") from None

    def position_index(self, position_id: str) -> int:
        try:
            return self._position_index[position_id]
        except KeyError:
            raise InputError(f"unknown position id {position_id!r}") from None

    def free_product_count(self) -> int:
        """Products with more than one eligible position."""
        return int((self.eligibility.sum(axis=1) > 1).sum())

    def permutation_of(self, assignment: Assignment) -> np.ndarray:
        """Position index per product index; raises if not a complete
        feasible bijection."""
        report = check_feasible(self, assignment)
        if not report.ok:
            raise ValidationError("infeasible assignment: " + "; ".join(report.violations))
        return self._permutation(assignment)

    def _permutation(self, assignment: Assignment) -> np.ndarray:
        """Position index per product index of an assignment that
        ``check_feasible`` has passed."""
        perm = np.empty(self.n, dtype=np.int64)
        for pid, pos in assignment.pairs:
            perm[self._product_index[pid]] = self._position_index[pos]
        return perm

    def assignment_from_permutation(self, perm: np.ndarray) -> Assignment:
        return Assignment.from_mapping(
            {self.product_ids[i]: self.position_ids[int(k)] for i, k in enumerate(perm)}
        )


def eligibility_from_blocks(
    product_ids: tuple[str, ...], position_ids: tuple[str, ...], blocks: tuple[Block, ...]
) -> np.ndarray:
    """Block-diagonal eligibility: members may occupy exactly their block's
    slots; dummy products stay pinned to entrance/exit."""
    n = len(product_ids)
    pidx = {pid: i for i, pid in enumerate(product_ids)}
    kidx = {pos: k for k, pos in enumerate(position_ids)}
    elig = np.zeros((n, len(position_ids)), dtype=bool)
    for blk in blocks:
        rows = [pidx[p] for p in blk.product_ids]
        cols = [kidx[k] for k in blk.position_ids]
        elig[np.ix_(rows, cols)] = True
    for pid, pos in DOOR_PINS.items():
        if pid in pidx and pos in kidx:
            elig[pidx[pid], kidx[pos]] = True
    return elig


# -- eligibility matching ------------------------------------------------------


def augment(adj: list[list[int]], owner: list[int], row: int, seen: list[bool]) -> bool:
    """One augmenting-path step of Kuhn's matching: True when ``row`` gets
    a column through an alternating path over columns not yet ``seen``, with
    ``owner`` (column -> row, -1 when free) updated along the path. On False
    ``owner`` is unchanged. A column marked seen beforehand is blocked.

    ``adj[row]`` lists the row's eligible columns. The recursion is one call
    per row on the path, so at most one per row."""
    for col in adj[row]:
        if not seen[col]:
            seen[col] = True
            if owner[col] < 0 or augment(adj, owner, owner[col], seen):
                owner[col] = row
                return True
    return False


def complete_matching(elig: np.ndarray) -> list[int] | None:
    """A perfect matching of the bool eligibility matrix as ``owner[column]
    = row``, or None when it has none (always for a non-square matrix)."""
    rows, cols = elig.shape
    if rows != cols:
        return None
    adj = [np.flatnonzero(line).tolist() for line in elig]
    owner = [-1] * cols
    for row in range(rows):
        if not augment(adj, owner, row, [False] * cols):
            return None
    return owner


# -- objective and delta evaluation -------------------------------------------


def objective_of_permutation(instance: QapInstance, perm: np.ndarray) -> float:
    """Canonical objective of one permutation. Every solver scores candidates
    through this one routine so equal assignments produce bit-equal
    objectives."""
    sub = instance.exposure.take(perm, axis=0).take(perm, axis=1)
    return float((instance.flow * sub).sum())


def objective(instance: QapInstance, assignment: Assignment) -> float:
    """Objective of a complete feasible assignment (validated)."""
    return objective_of_permutation(instance, instance.permutation_of(assignment))


def check_feasible(instance: QapInstance, assignment: Assignment) -> FeasibilityReport:
    """Bijectivity, eligibility, and block-membership check; lists every
    violation instead of stopping at the first."""
    violations: list[str] = []
    mapping = assignment.mapping
    for pid in mapping:
        if pid not in instance._product_index:
            violations.append(f"unknown product {pid!r}")
    used: dict[str, list[str]] = {}
    for pid, pos in mapping.items():
        if pos not in instance._position_index:
            violations.append(f"product {pid!r} assigned to unknown position {pos!r}")
            continue
        used.setdefault(pos, []).append(pid)
    for pos, pids in sorted(used.items()):
        if len(pids) > 1:
            violations.append(f"position {pos!r} assigned to multiple products {sorted(pids)}")
    missing = [pid for pid in instance.product_ids if pid not in mapping]
    if missing:
        violations.append(f"unassigned products: {missing}")

    block_of: dict[str, Block] = {}
    if instance.blocks:
        for blk in instance.blocks:
            for pid in blk.product_ids:
                block_of[pid] = blk
    for pid, pos in sorted(mapping.items()):
        i = instance._product_index.get(pid)
        k = instance._position_index.get(pos)
        if i is None or k is None or instance.eligibility[i, k]:
            continue
        blk = block_of.get(pid)
        if blk is not None:
            violations.append(
                f"product {pid!r} at {pos!r} is outside its category block "
                f"({blk.category_id!r} holds sublocations of {blk.location_id!r})"
            )
        else:
            violations.append(f"product {pid!r} is not eligible for position {pos!r}")
    return FeasibilityReport(ok=not violations, violations=tuple(violations))


def swap_delta(
    instance: QapInstance, assignment: Assignment, product_a: str, product_b: str
) -> float | None:
    """Objective change from swapping two products' positions, in O(n).

    Returns None (an infeasible-move signal, not an error) when the swapped
    positions are not mutually eligible.
    """
    ia = instance.product_index(product_a)
    ib = instance.product_index(product_b)
    mapping = assignment.mapping
    for pid in (product_a, product_b):
        if pid not in mapping:
            raise ValidationError(f"product {pid!r} is not assigned")
    if ia == ib:
        return 0.0
    perm = instance.permutation_of(assignment)
    if not (instance.eligibility[ia, perm[ib]] and instance.eligibility[ib, perm[ia]]):
        return None
    return swap_delta_perm(instance.flow, instance.exposure, perm, ia, ib)


def swap_delta_perm(
    flow: np.ndarray, exposure: np.ndarray, perm: np.ndarray, a: int, b: int
) -> float:
    """Delta of swapping products a and b under permutation ``perm``; O(n)."""
    if a == b:
        return 0.0
    pa, pb = perm[a], perm[b]
    drow_f = flow[a, :] - flow[b, :]
    drow_e = exposure[pb, perm] - exposure[pa, perm]
    s_row = float(drow_f @ drow_e)
    s_row -= (flow[a, a] - flow[b, a]) * (exposure[pb, pa] - exposure[pa, pa])
    s_row -= (flow[a, b] - flow[b, b]) * (exposure[pb, pb] - exposure[pa, pb])
    dcol_f = flow[:, a] - flow[:, b]
    dcol_e = exposure[perm, pb] - exposure[perm, pa]
    s_col = float(dcol_f @ dcol_e)
    s_col -= (flow[a, a] - flow[a, b]) * (exposure[pa, pb] - exposure[pa, pa])
    s_col -= (flow[b, a] - flow[b, b]) * (exposure[pb, pb] - exposure[pb, pa])
    cross = (flow[a, a] - flow[b, b]) * (exposure[pb, pb] - exposure[pa, pa])
    cross += (flow[a, b] - flow[b, a]) * (exposure[pb, pa] - exposure[pa, pb])
    return s_row + s_col + cross


def swap_delta_matrix(flow: np.ndarray, exposure: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Deltas for every product pair at once; entry [a, b] equals
    swap_delta_perm(..., a, b) up to float round-off. Two matrix products
    plus broadcasting, so scanning the whole neighborhood costs O(n^2)
    amortized per entry pair."""
    g = flow
    h = exposure[np.ix_(perm, perm)]
    gd = np.diag(g).copy()
    hd = np.diag(h).copy()

    m1 = g @ h.T
    d1 = np.diag(m1)
    row_all = m1 + m1.T - d1[:, None] - d1[None, :]
    row_corr = (gd[:, None] - g.T) * (h.T - hd[:, None])
    row_corr += (g - gd[None, :]) * (hd[None, :] - h)

    m2 = g.T @ h
    d2 = np.diag(m2)
    col_all = m2 + m2.T - d2[:, None] - d2[None, :]
    col_corr = (gd[:, None] - g) * (h - hd[:, None])
    col_corr += (g.T - gd[None, :]) * (hd[None, :] - h.T)

    cross = (gd[:, None] - gd[None, :]) * (hd[None, :] - hd[:, None])
    cross += (g - g.T) * (h.T - h)

    delta = row_all - row_corr + col_all - col_corr + cross
    np.fill_diagonal(delta, 0.0)
    return delta


def swap_candidate_pairs(eligibility: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product pairs (a, b), a < b, that some feasible permutation may swap,
    in row-major order. A swap needs both products eligible at both of the
    positions involved, so the two eligibility rows must share at least two
    positions; a product pinned to one position is in no pair. A stack of
    eligibility matrices, shape (L, n, n), gives the pairs any one of them
    may swap."""
    e = eligibility.astype(np.int64)
    shared = (e @ np.swapaxes(e, -1, -2)) >= 2
    if shared.ndim == 3:
        shared = shared.any(axis=0)
    return np.nonzero(np.triu(shared, k=1))


class SwapScan:
    """Deltas of a fixed list of product swaps (a[p], b[p]) under L changing
    permutations ("lanes") that share one flow and one exposure matrix, in
    O(L * len(a) * n) per scan (Taillard 1991).

    Each lane holds its permuted exposure matrix h = exposure[np.ix_(perm,
    perm)] beside its transpose, so one row gather per pair end reads both
    the row and the column terms of every delta; whatever depends only on
    the flow matrix is computed once for all lanes. Entry [l, p] of
    ``deltas()`` equals swap_delta_perm(flow, exposure, perms[l], a[p], b[p])
    up to round-off, and has the same bits whatever the number of lanes.
    """

    def __init__(
        self,
        flow: np.ndarray,
        exposure: np.ndarray,
        perms: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
    ):
        lanes, n = perms.shape
        self.n = n
        self._hh = np.empty((lanes, n, 2 * n))
        for hh, perm in zip(self._hh, perms):
            h = exposure[np.ix_(perm, perm)]
            hh[:, :n] = h
            hh[:, n:] = h.T
        self._a, self._b = a, b
        self._dflow = np.hstack([flow[a] - flow[b], (flow[:, a] - flow[:, b]).T])
        # The row and column dot products count the 2x2 block of a and b
        # twice; its net correction is s * (h[a,a] + h[b,b] - h[a,b] - h[b,a]).
        self._s = flow[a, a] + flow[b, b] - flow[a, b] - flow[b, a]
        w = 2 * n
        corners = np.stack([a * w + a, b * w + b, a * w + b, b * w + a])
        # lane l's corners are one contiguous (4, P) block, so the batched
        # product below makes, per lane, the very BLAS call one lane makes
        self._corners = corners + np.arange(lanes)[:, None, None] * (n * w)
        self._signs = np.array([1.0, 1.0, -1.0, -1.0])
        # gathers go into buffers allocated once, not fresh temporaries;
        # take(mode="clip") writes into them directly ("raise" buffers out)
        self._rows_a = np.empty((lanes, len(a), w))
        self._rows_b = np.empty((lanes, len(a), w))
        self._corner_vals = np.empty(self._corners.shape)
        self._dots = np.empty((lanes, len(a)))
        self._corner_sums = np.empty((lanes, len(a)))

    def deltas(self) -> np.ndarray:
        hh, rows_a, rows_b = self._hh, self._rows_a, self._rows_b
        np.take(hh, self._b, axis=1, out=rows_b, mode="clip")
        np.take(hh, self._a, axis=1, out=rows_a, mode="clip")
        np.subtract(rows_b, rows_a, out=rows_b)
        dots = np.einsum("pk,lpk->lp", self._dflow, rows_b, out=self._dots)
        np.take(hh, self._corners, out=self._corner_vals, mode="clip")
        sums = np.matmul(self._signs, self._corner_vals, out=self._corner_sums)
        return dots + self._s * sums

    def swap(self, a: int, b: int, lane: int) -> None:
        """Follow the exchange of perms[lane][a] and perms[lane][b]: swap
        rows a, b and columns a, b of that lane's h (and of its transpose)
        in place, O(n) instead of re-gathering all n^2 entries."""
        hh = self._hh[lane]
        row = hh[a].copy()
        hh[a] = hh[b]
        hh[b] = row
        for x, y in ((a, b), (self.n + a, self.n + b)):
            col = hh[:, x].copy()
            hh[:, x] = hh[:, y]
            hh[:, y] = col


# -- instance builders ---------------------------------------------------------


def build_level1_instance(
    exposures: ExposureMatrices,
    transitions: TransitionMatrices,
    eligibility=None,
) -> QapInstance:
    """Strategic instance: categories to locations, flow from category-level
    transitions, exposure from whole-location counting.

    ``eligibility`` maps category ids to allowed location ids; None allows
    every real location. Dummies are forced to entrance/exit either way.
    """
    products = transitions.cat_axis
    positions = exposures.loc_axis
    if len(products) != len(positions):
        raise InputError(
            f"category axis has {len(products)} entries but location axis has {len(positions)}"
        )
    elig = _eligibility_matrix(products, positions, eligibility)
    return QapInstance(
        level=LEVEL1,
        product_ids=products,
        position_ids=positions,
        flow=transitions.cat_transitions,
        exposure=exposures.loc_exposure,
        eligibility=elig,
    )


def _eligibility_matrix(products, positions, allowed) -> np.ndarray:
    n = len(products)
    kidx = {pos: k for k, pos in enumerate(positions)}
    doors = set(DOOR_PINS.values())
    real_positions = [p for p in positions if p not in doors]
    elig = np.zeros((n, len(positions)), dtype=bool)
    for i, pid in enumerate(products):
        if pid in DOOR_PINS:
            elig[i, kidx[DOOR_PINS[pid]]] = True
            continue
        if allowed is None or pid not in allowed:
            cols = real_positions
        else:
            cols = list(allowed[pid])
        for pos in cols:
            if pos in doors:
                raise InputError(f"product {pid!r} may not be eligible for {pos!r}")
            if pos not in kidx:
                raise InputError(f"eligibility for {pid!r} names unknown position {pos!r}")
            elig[i, kidx[pos]] = True
    return elig


def build_level2_instance(
    exposures: ExposureMatrices,
    transitions: TransitionMatrices,
    level1_assignment: Assignment,
    catalog: Catalog,
    graph: StoreGraph,
) -> QapInstance:
    """Tactical instance induced by a fixed category-to-location assignment:
    each category's subcategories may only permute within that location's
    sublocations."""
    mapping = level1_assignment.shelf_mapping
    real_cats = [c.category_id for c in catalog.categories]
    missing = [c for c in real_cats if c not in mapping]
    if missing:
        raise ValidationError(f"level1 assignment misses categories: {missing}")
    extra = sorted(set(mapping) - set(real_cats))
    if extra:
        raise ValidationError(f"level1 assignment names unknown categories: {extra}")
    locs = list(mapping.values())
    if len(set(locs)) != len(locs):
        raise ValidationError("level1 assignment reuses a location")

    blocks = []
    for cid in real_cats:
        lid = mapping[cid]
        loc = graph.location_by_id(lid)
        subs = catalog.subcategories_of(cid)
        if len(subs) != len(loc.sublocation_ids):
            raise ModelError(
                f"category {cid!r} has {len(subs)} subcategories but location "
                f"{lid!r} has {len(loc.sublocation_ids)} sublocations"
            )
        blocks.append(
            Block(
                category_id=cid,
                location_id=lid,
                product_ids=subs,
                position_ids=loc.sublocation_ids,
            )
        )

    products = transitions.sub_axis
    positions = exposures.sub_axis
    if len(products) != len(positions):
        raise InputError(
            f"subcategory axis has {len(products)} entries but sublocation axis has {len(positions)}"
        )
    elig = eligibility_from_blocks(products, positions, tuple(blocks))
    return QapInstance(
        level=LEVEL2,
        product_ids=products,
        position_ids=positions,
        flow=transitions.sub_transitions,
        exposure=exposures.sub_exposure,
        eligibility=elig,
        blocks=tuple(blocks),
    )


# -- solution pool ----------------------------------------------------------------


@dataclass(frozen=True)
class PoolEntry:
    assignment: Assignment
    objective: float


class SolutionPool:
    """Top-K distinct assignments within a relative gap of the best.

    Ordering is objective-descending with lexicographic permutation
    tie-break. An offer of a permutation not yet held is inserted, then the
    entries are sorted and cut to the first ``capacity`` within the gap of
    the best, so the contents depend only on the set of offers.
    De-duplication is by exact assignment, not objective, so
    alternative optima coexist. ``notes`` holds what the search that
    filled the pool reported, such as a limit it hit.
    """

    def __init__(self, instance: QapInstance, capacity: int = 10, gap: float = 0.001):
        if capacity < 1:
            raise InputError("pool capacity must be >= 1")
        if not (0 <= gap < 1):
            raise InputError("pool gap must be in [0, 1)")
        self.instance = instance
        self.capacity = capacity
        self.gap = gap
        self._entries: list[tuple[float, tuple[int, ...]]] = []
        self.notes: tuple[str, ...] = ()

    def _threshold(self, best: float) -> float:
        return best - self.gap * abs(best)

    def offer(self, perm: np.ndarray, objective_value: float) -> bool:
        """Consider one candidate; returns True if it entered the pool."""
        key = tuple(np.asarray(perm).tolist())
        if any(k == key for _, k in self._entries):
            return False
        entries = sorted(self._entries + [(objective_value, key)], key=lambda e: (-e[0], e[1]))
        cut = self._threshold(entries[0][0])
        self._entries = [e for e in entries if e[0] >= cut][: self.capacity]
        return any(k == key for _, k in self._entries)

    def admission_bar(self) -> float:
        """The objective below which no offer can enter: the gap threshold
        under the best entry, raised to the last entry's objective once the
        pool is full. The pool must not be empty."""
        bar = self._threshold(self._entries[0][0])
        if len(self._entries) == self.capacity:
            bar = max(bar, self._entries[-1][0])
        return bar

    @property
    def ranked(self) -> list[tuple[float, tuple[int, ...]]]:
        """(objective, permutation) per entry, best first."""
        return list(self._entries)

    @property
    def best_objective(self) -> float:
        if not self._entries:
            raise ModelError("empty solution pool")
        return self._entries[0][0]

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[PoolEntry]:
        return [
            PoolEntry(
                assignment=self.instance.assignment_from_permutation(np.array(key)),
                objective=obj,
            )
            for obj, key in self._entries
        ]
