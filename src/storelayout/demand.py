"""Catalog, transactions, and walk-transition matrices.

Shoppers are assumed to visit the categories in their basket in uniformly
random order, picking every purchased subcategory of a category (again in
uniformly random order) before moving on. Walks start at check-in and end at
check-out. Transition matrices count, per ordered product pair, how many
times a shopper walks from one to the other, either in exact expectation over
all visit orders or as one seeded sample. Both modes count the subcategory
legs and merge them by category pair into the category counts.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from .errors import InputError, ParseError, ValidationError
from .store import MODE_SUBLOCATION, StoreGraph, shortest_path

# Reserved ids for the dummy products that bracket every product axis.
CHECK_IN = "check-in"
CHECK_OUT = "check-out"

MODE_EXPECTED = "expected"
MODE_SAMPLED = "sampled"


@dataclass(frozen=True)
class Category:
    category_id: str
    name: str


@dataclass(frozen=True)
class Subcategory:
    subcategory_id: str
    name: str
    parent_category_id: str


@dataclass
class Catalog:
    """Product hierarchy. Dummy products check-in/check-out are implicit
    members, always first and last on both axes."""

    categories: tuple[Category, ...]
    subcategories: tuple[Subcategory, ...]

    def __post_init__(self):
        cat_ids = [c.category_id for c in self.categories]
        if len(set(cat_ids)) != len(cat_ids):
            raise InputError("duplicate category ids in catalog")
        sub_ids = [s.subcategory_id for s in self.subcategories]
        if len(set(sub_ids)) != len(sub_ids):
            raise InputError("duplicate subcategory ids in catalog")
        reserved = {CHECK_IN, CHECK_OUT}
        clashes = sorted(reserved & (set(cat_ids) | set(sub_ids)))
        if clashes:
            raise InputError(f"ids {clashes} are reserved for the dummy products")
        known_cats = set(cat_ids)
        self._parent: dict[str, str] = {}
        members: dict[str, list[str]] = {cid: [] for cid in cat_ids}
        for s in self.subcategories:
            if s.parent_category_id not in known_cats:
                raise InputError(
                    f"subcategory {s.subcategory_id} has unknown parent {s.parent_category_id!r}"
                )
            self._parent[s.subcategory_id] = s.parent_category_id
            members[s.parent_category_id].append(s.subcategory_id)
        empty = sorted(cid for cid, subs in members.items() if not subs)
        if empty:
            raise InputError(f"categories without subcategories: {empty}")
        self._members = {cid: tuple(subs) for cid, subs in members.items()}

    @property
    def category_axis(self) -> tuple[str, ...]:
        return (CHECK_IN, *(c.category_id for c in self.categories), CHECK_OUT)

    @property
    def subcategory_axis(self) -> tuple[str, ...]:
        return (CHECK_IN, *(s.subcategory_id for s in self.subcategories), CHECK_OUT)

    def category_of(self, subcategory_id: str) -> str:
        if subcategory_id in (CHECK_IN, CHECK_OUT):
            return subcategory_id
        try:
            return self._parent[subcategory_id]
        except KeyError:
            raise InputError(f"unknown subcategory id {subcategory_id!r}") from None

    def subcategories_of(self, category_id: str) -> tuple[str, ...]:
        if category_id in (CHECK_IN, CHECK_OUT):
            return (category_id,)
        try:
            return self._members[category_id]
        except KeyError:
            raise InputError(f"unknown category id {category_id!r}") from None

    def has_subcategory(self, subcategory_id: str) -> bool:
        return subcategory_id in self._parent


@dataclass(frozen=True)
class Transaction:
    """One basket: distinct purchased subcategories, stored in catalog order."""

    transaction_id: str
    subcategory_ids: tuple[str, ...]


@dataclass
class TransitionMatrices:
    """Walk counts at both product granularities.

    ``cat_transitions[i1, i2]`` counts walks from category ``cat_axis[i1]``
    to ``cat_axis[i2]``; same for subcategories. In expected mode the float
    entries are correctly rounded from exact rational accumulators, which are
    kept (``cat_exact`` / ``sub_exact``, index-pair keyed) so exact identities
    such as mass conservation stay checkable.
    """

    cat_axis: tuple[str, ...]
    sub_axis: tuple[str, ...]
    cat_transitions: np.ndarray
    sub_transitions: np.ndarray
    mode: str
    seed: int | None
    transaction_count: int
    cat_exact: dict[tuple[int, int], Fraction] | None = None
    sub_exact: dict[tuple[int, int], Fraction] | None = None

    def exact_mass(self, level: str) -> Fraction:
        """Total transition mass as an exact rational (sampled mode counts
        are integers, so exactness is free there)."""
        if level == "category":
            exact, dense = self.cat_exact, self.cat_transitions
        elif level == "subcategory":
            exact, dense = self.sub_exact, self.sub_transitions
        else:
            raise InputError(f"unknown level {level!r}")
        if exact is not None:
            return sum(exact.values(), Fraction(0))
        return Fraction(int(round(dense.sum())))


def load_transactions(records: Iterable[tuple[str, str]], catalog: Catalog) -> list[Transaction]:
    """Group (transaction_id, subcategory_id) records into transactions.

    Transactions keep first-appearance order; items are canonicalized to
    catalog order with duplicates collapsed. Unknown subcategories and dummy
    products are rejected in one pass, listing every offender.
    """
    groups: dict[str, set[str]] = {}
    order: list[str] = []
    unknown: set[str] = set()
    for tid, sid in records:
        if sid in (CHECK_IN, CHECK_OUT) or not catalog.has_subcategory(sid):
            unknown.add(sid)
            continue
        if tid not in groups:
            groups[tid] = set()
            order.append(tid)
        groups[tid].add(sid)
    if unknown:
        raise ValidationError(f"unknown subcategory ids in transactions: {sorted(unknown)}")
    rank = {sid: i for i, sid in enumerate(catalog.subcategory_axis)}
    out = []
    for tid in order:
        items = tuple(sorted(groups[tid], key=rank.__getitem__))
        out.append(Transaction(transaction_id=tid, subcategory_ids=items))
    return out


def read_transactions_csv(path: str, catalog: Catalog) -> list[Transaction]:
    """Read transactions from delimiter-separated text with header
    ``transaction_id,subcategory_id``, one purchased item per row."""
    records: list[tuple[str, str]] = []
    try:
        # utf-8-sig drops the byte-order mark of a spreadsheet "CSV UTF-8" export
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("empty transactions file", path=path, line=1) from None
            if [h.strip() for h in header] != ["transaction_id", "subcategory_id"]:
                raise ParseError(
                    "expected header 'transaction_id,subcategory_id', got "
                    + ",".join(header),
                    path=path,
                    line=1,
                )
            # a quoted field may span lines, so a row's number is the
            # reader's count of lines read: the row's last line
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ParseError(
                        f"expected 2 fields, got {len(row)}", path=path, line=reader.line_num
                    )
                tid, sid = row[0].strip(), row[1].strip()
                if not tid or not sid:
                    raise ParseError(
                        "empty transaction or subcategory id", path=path, line=reader.line_num
                    )
                records.append((tid, sid))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    return load_transactions(records, catalog)


def _basket_blocks(items: tuple[str, ...], catalog: Catalog) -> list[tuple[str, list[str]]]:
    """A basket's purchased subcategories grouped by parent category, catalog
    order."""
    by_cat: dict[str, list[str]] = {}
    cat_order: list[str] = []
    for sid in items:
        cid = catalog.category_of(sid)
        if cid not in by_cat:
            by_cat[cid] = []
            cat_order.append(cid)
        by_cat[cid].append(sid)
    return [(cid, by_cat[cid]) for cid in cat_order]


def _coded_baskets(
    transactions: list[Transaction], catalog: Catalog, code: Mapping[str, object]
) -> dict[tuple[str, ...], tuple[tuple, ...]]:
    """Each distinct basket, in order of first appearance, grouped once into
    its blocks (``_basket_blocks``) with every product replaced by its
    ``code``. A transaction that holds products with no code is rejected."""
    baskets: dict[tuple[str, ...], tuple[tuple, ...]] = {}
    for txn in transactions:
        items = txn.subcategory_ids
        if items not in baskets:
            blocks = _basket_blocks(items, catalog)
            missing = [sid for sid in items if sid not in code]
            if missing:
                raise ValidationError(
                    f"transaction {txn.transaction_id}: no assigned position for {missing}"
                )
            baskets[items] = tuple(tuple(code[sid] for sid in subs) for _, subs in blocks)
    return baskets


def _category_legs(
    sub_legs: Mapping[tuple[int, int], int], catalog: Catalog
) -> dict[tuple[int, int], int]:
    """Category-level counts from subcategory-level ones, both keyed by axis
    index pairs. The category walk is the subcategory walk with each block
    merged into its category, so a leg that changes category counts for its
    category pair. Pairs keep the order of their first leg."""
    cat_index = {pid: i for i, pid in enumerate(catalog.category_axis)}
    cat_of = [cat_index[catalog.category_of(sid)] for sid in catalog.subcategory_axis]
    merged: dict[tuple[int, int], int] = {}
    for (a, b), count in sub_legs.items():
        pair = cat_of[a], cat_of[b]
        if pair[0] != pair[1]:
            merged[pair] = merged.get(pair, 0) + count
    return merged


def _dense(entries: Mapping[tuple[int, int], int | Fraction], size: int) -> np.ndarray:
    """(size, size) float matrix of entries keyed by index pairs, each
    correctly rounded, zero elsewhere."""
    dense = np.zeros((size, size), dtype=np.float64)
    for key, value in entries.items():
        dense[key] = float(value)
    return dense


def _leg_template(shape: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Exact expected legs of any basket whose m blocks hold g1, ..., gm
    products, as slot pairs ``(a, b, d)`` that each add weight ``1/d``.

    Slot 0 is check-in, slots 1..n the basket's products block by block and
    slot n + 1 check-out. Within a block, ordered pairs are adjacent with
    probability 1/g. A cross-block leg s1→s2 needs the second category to
    directly follow the first (1/m), s1 to be picked last in its block
    (1/g1) and s2 first in its (1/g2).
    """
    m = len(shape)
    out = sum(shape) + 1
    blocks = []
    start = 1
    for g in shape:
        blocks.append(range(start, start + g))
        start += g
    legs = []
    for slots in blocks:
        g = len(slots)
        for s in slots:
            legs += ((0, s, m * g), (s, out, m * g))
        legs += ((s1, s2, g) for s1 in slots for s2 in slots if s1 != s2)
    for slots1 in blocks:
        for slots2 in blocks:
            if slots1 is not slots2:
                d = m * len(slots1) * len(slots2)
                legs += ((s1, s2, d) for s1 in slots1 for s2 in slots2)
    return legs


def _expected_numerators(
    baskets: Mapping[tuple[tuple[int, ...], ...], int], size: int
) -> tuple[dict[tuple[int, int], int], int]:
    """Expected legs summed exactly over distinct baskets, as integer
    numerators over one common denominator, which is returned with them.

    ``baskets`` maps each distinct basket, as its blocks of product indices,
    to the number of transactions that hold it. Its legs come from the
    template of its block shape, and the denominator is the least common
    multiple of every template's ``d``. Pairs keep the order in which they
    were first contributed.
    """
    templates = {shape: _leg_template(shape) for shape in {tuple(map(len, b)) for b in baskets}}
    common = math.lcm(*(d for legs in templates.values() for _, _, d in legs))
    scaled = {
        shape: [(a, b, common // d) for a, b, d in legs] for shape, legs in templates.items()
    }
    numerators: dict[int, int] = {}
    get = numerators.get
    for basket, count in baskets.items():
        ends = (0, *(i for block in basket for i in block), size - 1)
        rows = [i * size for i in ends]
        for a, b, k in scaled[tuple(map(len, basket))]:
            key = rows[a] + ends[b]
            numerators[key] = get(key, 0) + count * k
    return {divmod(key, size): num for key, num in numerators.items()}, common


def expected_transitions(transactions: list[Transaction], catalog: Catalog) -> TransitionMatrices:
    """Both transition matrices in exact-expectation mode (seed-free). Each
    distinct basket is grouped once and its subcategory legs counted once,
    weighted by the number of transactions that hold it. The category counts
    are those legs merged by category pair, as in sampled mode."""
    cat_axis = catalog.category_axis
    sub_axis = catalog.subcategory_axis
    counts = Counter(t.subcategory_ids for t in transactions)
    baskets = _coded_baskets(transactions, catalog, {pid: i for i, pid in enumerate(sub_axis)})
    sub_legs, common = _expected_numerators(
        {basket: counts[items] for items, basket in baskets.items()}, len(sub_axis)
    )
    cat_exact = {
        pair: Fraction(num, common) for pair, num in _category_legs(sub_legs, catalog).items()
    }
    sub_exact = {pair: Fraction(num, common) for pair, num in sub_legs.items()}
    return TransitionMatrices(
        cat_axis=cat_axis,
        sub_axis=sub_axis,
        cat_transitions=_dense(cat_exact, len(cat_axis)),
        sub_transitions=_dense(sub_exact, len(sub_axis)),
        mode=MODE_EXPECTED,
        seed=None,
        transaction_count=len(transactions),
        cat_exact=cat_exact,
        sub_exact=sub_exact,
    )


def _visit_order(blocks: tuple[tuple, ...], rng: Random) -> list:
    """One sampled visit order of a basket's blocks of products: the blocks
    shuffled, then each block's products (Fisher-Yates both times via
    Random.shuffle, which draws nothing for a single element). The walk
    visits the blocks in order, so each category is one contiguous stretch
    of it."""
    if len(blocks) > 1:
        blocks = list(blocks)
        rng.shuffle(blocks)
    visits: list = []
    for products in blocks:
        if len(products) > 1:
            products = list(products)
            rng.shuffle(products)
        visits += products
    return visits


def sampled_transitions(
    transactions: list[Transaction], catalog: Catalog, seed: int
) -> TransitionMatrices:
    """One seeded realization of every basket's visit order, counted at both
    granularities. Bit-reproducible for a fixed seed and transaction order.

    Each distinct basket is grouped once per call. Only the subcategory legs
    are counted; the category counts are those legs merged by category pair,
    as in expected mode.
    """
    rng = Random(seed)
    cat_axis = catalog.category_axis
    sub_axis = catalog.subcategory_axis
    baskets = _coded_baskets(transactions, catalog, {pid: i for i, pid in enumerate(sub_axis)})
    last = len(sub_axis) - 1
    sub_legs: Counter = Counter()
    for txn in transactions:
        walk = [0, *_visit_order(baskets[txn.subcategory_ids], rng), last]
        sub_legs.update(zip(walk, walk[1:]))
    return TransitionMatrices(
        cat_axis=cat_axis,
        sub_axis=sub_axis,
        cat_transitions=_dense(_category_legs(sub_legs, catalog), len(cat_axis)),
        sub_transitions=_dense(sub_legs, len(sub_axis)),
        mode=MODE_SAMPLED,
        seed=seed,
        transaction_count=len(transactions),
    )


def replay_paths(
    transactions: list[Transaction],
    assignment: Mapping[str, str],
    graph: StoreGraph,
    catalog: Catalog,
    seed: int,
) -> list[list[str]]:
    """Replay every basket as a node walk through the store.

    ``assignment`` maps subcategory ids to sublocation ids. Each basket gets
    one sampled visit order; the walk concatenates shortest paths entrance →
    picked sublocation centers → exit, sharing junction nodes. Within one
    call, each distinct basket is grouped once, with its products coded as
    their center nodes, and each distinct leg's path is asked of
    ``shortest_path`` once.
    """
    rng = Random(seed)
    center_of = {
        sid: graph.position_center(pos, MODE_SUBLOCATION) for sid, pos in assignment.items()
    }
    baskets = _coded_baskets(transactions, catalog, center_of)
    tails: dict[tuple[str, str], list[str]] = {}
    paths: list[list[str]] = []
    for txn in transactions:
        visits = _visit_order(baskets[txn.subcategory_ids], rng)
        stops = [graph.entrance_node, *visits, graph.exit_node]
        walk: list[str] = [stops[0]]
        for leg in zip(stops, stops[1:]):
            tail = tails.get(leg)
            if tail is None:
                tail = tails[leg] = shortest_path(graph, *leg)[1:]
            walk += tail
        paths.append(walk)
    return paths
