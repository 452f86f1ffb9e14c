"""Catalog, transactions, and walk-transition matrices.

Shoppers are assumed to visit the categories in their basket in uniformly
random order, picking every purchased subcategory of a category (again in
uniformly random order) before moving on. Walks start at check-in and end at
check-out. Transition matrices count, per ordered product pair, how many
times a shopper walks from one to the other, either in exact expectation over
all visit orders or as one seeded sample.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ParseError(f"expected 2 fields, got {len(row)}", path=path, line=lineno)
                tid, sid = row[0].strip(), row[1].strip()
                if not tid or not sid:
                    raise ParseError("empty transaction or subcategory id", path=path, line=lineno)
                records.append((tid, sid))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    return load_transactions(records, catalog)


def _basket_blocks(txn: Transaction, catalog: Catalog) -> list[tuple[str, list[str]]]:
    """Purchased subcategories grouped by parent category, catalog order."""
    by_cat: dict[str, list[str]] = {}
    cat_order: list[str] = []
    for sid in txn.subcategory_ids:
        cid = catalog.category_of(sid)
        if cid not in by_cat:
            by_cat[cid] = []
            cat_order.append(cid)
        by_cat[cid].append(sid)
    return [(cid, by_cat[cid]) for cid in cat_order]


def _block_contributions(blocks: list[tuple[str, Sequence[str]]]):
    """Exact expected transition counts for one basket, as ``(leg, d)`` pairs
    that each add weight ``1/d``.

    ``blocks`` are the basket's m categories, each with the g products
    visited inside it. Within a block, ordered pairs are adjacent with
    probability 1/g. A cross-block leg s1→s2 needs the second category to
    directly follow the first (1/m), s1 to be picked last in its block
    (1/g1) and s2 first in its (1/g2). With every block a single product
    named by its category (g = 1), these are the category-level counts.
    """
    m = len(blocks)
    for _, subs in blocks:
        g = len(subs)
        d_edge = m * g
        for sid in subs:
            yield (CHECK_IN, sid), d_edge
            yield (sid, CHECK_OUT), d_edge
        for s1 in subs:
            for s2 in subs:
                if s1 != s2:
                    yield (s1, s2), g
    for c1, subs1 in blocks:
        for c2, subs2 in blocks:
            if c1 == c2:
                continue
            d = m * len(subs1) * len(subs2)
            for s1 in subs1:
                for s2 in subs2:
                    yield (s1, s2), d


def _accumulate(
    counts: Counter, axis: tuple[str, ...]
) -> tuple[np.ndarray, dict[tuple[int, int], Fraction]]:
    """Sum unit-fraction contributions exactly, one ``Fraction`` per pair.

    ``counts`` holds the number of contributions per (leg, denominator);
    each pair's weight is then ``sum(count / d)`` over a common denominator.
    Pairs keep the order in which they were first contributed.
    """
    index = {pid: i for i, pid in enumerate(axis)}
    terms: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ((a, b), d), count in counts.items():
        terms.setdefault((index[a], index[b]), []).append((d, count))
    exact: dict[tuple[int, int], Fraction] = {}
    dense = np.zeros((len(axis), len(axis)), dtype=np.float64)
    for key, counts in terms.items():
        common = math.lcm(*(d for d, _ in counts))
        w = Fraction(sum(c * (common // d) for d, c in counts), common)
        exact[key] = w
        dense[key] = float(w)
    return dense, exact


def expected_transitions(transactions: list[Transaction], catalog: Catalog) -> TransitionMatrices:
    """Both transition matrices in exact-expectation mode (seed-free). Each
    basket is grouped once and counted at both granularities."""
    cat_counts: Counter = Counter()
    sub_counts: Counter = Counter()
    for txn in transactions:
        blocks = _basket_blocks(txn, catalog)
        cat_counts.update(_block_contributions([(cid, (cid,)) for cid, _ in blocks]))
        sub_counts.update(_block_contributions(blocks))
    cat_dense, cat_exact = _accumulate(cat_counts, catalog.category_axis)
    sub_dense, sub_exact = _accumulate(sub_counts, catalog.subcategory_axis)
    return TransitionMatrices(
        cat_axis=catalog.category_axis,
        sub_axis=catalog.subcategory_axis,
        cat_transitions=cat_dense,
        sub_transitions=sub_dense,
        mode=MODE_EXPECTED,
        seed=None,
        transaction_count=len(transactions),
        cat_exact=cat_exact,
        sub_exact=sub_exact,
    )


def _realized_blocks(
    txn: Transaction, catalog: Catalog, rng: Random
) -> list[tuple[str, list[str]]]:
    """One sampled visit order as its (category, subcategories) blocks: the
    blocks shuffled, then each block's subcategories shuffled in place
    (Fisher-Yates both times via Random.shuffle). The walk visits the blocks
    in order, so each category is one contiguous stretch of it."""
    blocks = _basket_blocks(txn, catalog)
    rng.shuffle(blocks)
    for _, subs in blocks:
        rng.shuffle(subs)
    return blocks


def sampled_transitions(
    transactions: list[Transaction], catalog: Catalog, seed: int
) -> TransitionMatrices:
    """One seeded realization of every basket's visit order, counted at both
    granularities. Bit-reproducible for a fixed seed and transaction order."""
    rng = Random(seed)
    cat_axis = catalog.category_axis
    sub_axis = catalog.subcategory_axis
    cat_idx = {pid: i for i, pid in enumerate(cat_axis)}
    sub_idx = {pid: i for i, pid in enumerate(sub_axis)}
    cat_counts = np.zeros((len(cat_axis), len(cat_axis)), dtype=np.int64)
    sub_counts = np.zeros((len(sub_axis), len(sub_axis)), dtype=np.int64)
    for txn in transactions:
        blocks = _realized_blocks(txn, catalog, rng)
        walk = [CHECK_IN, *chain.from_iterable(subs for _, subs in blocks), CHECK_OUT]
        for a, b in zip(walk, walk[1:]):
            sub_counts[sub_idx[a], sub_idx[b]] += 1
        cat_walk = [CHECK_IN, *(cid for cid, _ in blocks), CHECK_OUT]
        for a, b in zip(cat_walk, cat_walk[1:]):
            cat_counts[cat_idx[a], cat_idx[b]] += 1
    return TransitionMatrices(
        cat_axis=cat_axis,
        sub_axis=sub_axis,
        cat_transitions=cat_counts.astype(np.float64),
        sub_transitions=sub_counts.astype(np.float64),
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
    picked sublocation centers → exit, sharing junction nodes.
    """
    rng = Random(seed)
    paths: list[list[str]] = []
    for txn in transactions:
        missing = [sid for sid in txn.subcategory_ids if sid not in assignment]
        if missing:
            raise ValidationError(
                f"transaction {txn.transaction_id}: no assigned position for {missing}"
            )
        stops = [graph.entrance_node]
        for _, subs in _realized_blocks(txn, catalog, rng):
            for sid in subs:
                stops.append(graph.position_center(assignment[sid], MODE_SUBLOCATION))
        stops.append(graph.exit_node)
        walk: list[str] = [stops[0]]
        for a, b in zip(stops, stops[1:]):
            walk.extend(shortest_path(graph, a, b)[1:])
        paths.append(walk)
    return paths
