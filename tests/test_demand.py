"""Transaction ingestion and the transition model, checked against
exhaustive enumeration of orderings."""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    catalog_for,
    line_store,
    oracle_category_transitions,
    oracle_subcategory_transitions,
)
from storelayout import demand
from storelayout.demand import (
    CHECK_IN,
    CHECK_OUT,
    Catalog,
    Category,
    Subcategory,
    Transaction,
    _basket_blocks,
    _leg_template,
    expected_transitions,
    load_transactions,
    read_transactions_csv,
    replay_paths,
    sampled_transitions,
)
from storelayout.errors import InputError, ParseError, ValidationError
from storelayout.store import Edge, StoreGraph, _single_source_paths, shortest_path
from storelayout.storefile import load_store

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def single_basket(catalog: Catalog, sub_ids: list[str]):
    records = [("t1", sid) for sid in sub_ids]
    return load_transactions(records, catalog)


# shapes: per-category item counts for one basket
SMALL_SHAPES = [
    (1,),
    (2,),
    (1, 1),
    (3,),
    (2, 1),
    (1, 1, 1),
    (4,),
    (3, 1),
    (2, 2),
    (2, 1, 1),
    (1, 1, 1, 1),
    (3, 2),
]


class TestCatalog:
    def test_axes_have_dummies_first_and_last(self):
        cat = catalog_for((2, 1))
        assert cat.category_axis[0] == CHECK_IN and cat.category_axis[-1] == CHECK_OUT
        assert cat.subcategory_axis[0] == CHECK_IN and cat.subcategory_axis[-1] == CHECK_OUT
        assert len(cat.subcategory_axis) == 5

    def test_reserved_ids_rejected(self):
        with pytest.raises(InputError):
            Catalog(
                categories=(Category(CHECK_IN, "bad"),),
                subcategories=(Subcategory("s", "s", CHECK_IN),),
            )

    def test_unknown_parent_rejected(self):
        with pytest.raises(InputError):
            Catalog(
                categories=(Category("C1", "c"),),
                subcategories=(Subcategory("s", "s", "C9"),),
            )

    def test_empty_category_rejected(self):
        with pytest.raises(InputError):
            Catalog(
                categories=(Category("C1", "c"), Category("C2", "empty")),
                subcategories=(Subcategory("s", "s", "C1"),),
            )


class TestLoadTransactions:
    def test_groups_by_transaction_and_collapses_duplicates(self):
        cat = catalog_for((2, 1))
        txns = load_transactions(
            [("t1", "u1"), ("t2", "u3"), ("t1", "u2"), ("t1", "u1")], cat
        )
        assert [t.transaction_id for t in txns] == ["t1", "t2"]
        assert txns[0].subcategory_ids == ("u1", "u2")
        assert txns[1].subcategory_ids == ("u3",)

    def test_unknown_subcategories_all_reported(self):
        cat = catalog_for((1,))
        with pytest.raises(ValidationError) as err:
            load_transactions([("t1", "zz"), ("t2", "yy"), ("t3", "u1")], cat)
        assert "zz" in str(err.value) and "yy" in str(err.value)

    def test_dummy_ids_rejected(self):
        cat = catalog_for((1,))
        with pytest.raises(ValidationError):
            load_transactions([("t1", CHECK_IN)], cat)

    def test_csv_round_trip(self, tmp_path):
        cat = catalog_for((2, 1))
        path = tmp_path / "tx.csv"
        path.write_text(
            "transaction_id,subcategory_id\nt1,u1\nt1,u3\n\nt2,u2\n", encoding="utf-8"
        )
        txns = read_transactions_csv(str(path), cat)
        assert [t.subcategory_ids for t in txns] == [("u1", "u3"), ("u2",)]

    def test_csv_bad_header(self, tmp_path):
        cat = catalog_for((1,))
        path = tmp_path / "tx.csv"
        path.write_text("foo,bar\na,b\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_transactions_csv(str(path), cat)
        assert str(path) in str(err.value)

    def test_csv_wrong_field_count_carries_line(self, tmp_path):
        cat = catalog_for((1,))
        path = tmp_path / "tx.csv"
        path.write_text("transaction_id,subcategory_id\nt1,u1,extra\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_transactions_csv(str(path), cat)
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize(
        "body, message",
        [
            ('"t\n1",u1\nt2,u1,extra\n', "expected 2 fields, got 3"),
            ("t1,u1\n\nt2,u1,extra\n", "expected 2 fields, got 3"),
            ("t1,u1\n\nt2, \n", "empty transaction or subcategory id"),
        ],
        ids=["after-a-quoted-line-break", "after-a-blank-line", "empty-id"],
    )
    def test_csv_error_names_the_physical_line(self, tmp_path, body, message):
        # a quoted id spanning lines 2-3, or a blank line 3, puts the bad row
        # on line 4 of the file, though it is the file's third record
        cat = catalog_for((1,))
        path = tmp_path / "tx.csv"
        path.write_text("transaction_id,subcategory_id\n" + body, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_transactions_csv(str(path), cat)
        assert err.value.line == 4
        assert str(err.value) == f"{path}:4: {message}"


class TestExpectedTransitions:
    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    def test_matches_ordering_enumeration(self, shape):
        catalog = catalog_for(shape)
        sub_ids = [s.subcategory_id for s in catalog.subcategories]
        txns = single_basket(catalog, sub_ids)
        got = expected_transitions(txns, catalog)

        cat_oracle = oracle_category_transitions(shape)
        m = len(shape)
        for a in range(m + 2):
            for b in range(m + 2):
                want = cat_oracle.get((a, b), Fraction(0))
                assert abs(got.cat_transitions[a, b] - float(want)) <= 1e-12
                assert got.cat_exact.get((a, b), Fraction(0)) == want

        sub_oracle = oracle_subcategory_transitions(shape)
        s = sum(shape)
        for a in range(s + 2):
            for b in range(s + 2):
                want = sub_oracle.get((a, b), Fraction(0))
                assert abs(got.sub_transitions[a, b] - float(want)) <= 1e-12
                assert got.sub_exact.get((a, b), Fraction(0)) == want

    def test_category_level_ignores_block_contents(self):
        # P-bar depends only on the number of distinct categories.
        a = catalog_for((4, 1))
        b = catalog_for((2, 3))
        ta = single_basket(a, [s.subcategory_id for s in a.subcategories])
        tb = single_basket(b, [s.subcategory_id for s in b.subcategories])
        ga = expected_transitions(ta, a)
        gb = expected_transitions(tb, b)
        assert np.allclose(ga.cat_transitions, gb.cat_transitions)

    def test_transactions_are_additive(self):
        catalog = catalog_for((2, 2))
        both = load_transactions(
            [("t1", "u1"), ("t1", "u3"), ("t2", "u2"), ("t2", "u4"), ("t2", "u1")],
            catalog,
        )
        first = load_transactions([("t1", "u1"), ("t1", "u3")], catalog)
        second = load_transactions([("t2", "u2"), ("t2", "u4"), ("t2", "u1")], catalog)
        total = expected_transitions(both, catalog)
        f = expected_transitions(first, catalog)
        s = expected_transitions(second, catalog)
        assert np.allclose(total.sub_transitions, f.sub_transitions + s.sub_transitions)

    def test_mass_conservation_exact(self):
        catalog = catalog_for((3, 2, 1))
        sub_ids = [s.subcategory_id for s in catalog.subcategories]
        txns = single_basket(catalog, sub_ids)
        got = expected_transitions(txns, catalog)
        # one transaction with 3 categories and 6 subcategories
        assert got.exact_mass("category") == Fraction(4)
        assert got.exact_mass("subcategory") == Fraction(7)

    def test_mass_additivity_over_transactions(self):
        catalog = catalog_for((2, 1))
        txns = load_transactions(
            [("t1", "u1"), ("t1", "u3"), ("t2", "u2")], catalog
        )
        got = expected_transitions(txns, catalog)
        # t1: 2 cats, 2 subs; t2: 1 cat, 1 sub
        assert got.exact_mass("category") == Fraction(3 + 2)
        assert got.exact_mass("subcategory") == Fraction(3 + 2)
        assert got.transaction_count == 2

    def test_check_in_row_and_check_out_column_only(self):
        catalog = catalog_for((2, 2))
        txns = single_basket(catalog, ["u1", "u3"])
        got = expected_transitions(txns, catalog)
        assert got.cat_transitions[:, 0].sum() == 0.0
        assert got.cat_transitions[-1, :].sum() == 0.0
        assert got.sub_transitions[:, 0].sum() == 0.0
        assert got.sub_transitions[-1, :].sum() == 0.0


class TestSampledTransitions:
    def test_deterministic_per_seed(self):
        catalog = catalog_for((2, 2, 1))
        sub_ids = [s.subcategory_id for s in catalog.subcategories]
        txns = single_basket(catalog, sub_ids)
        a = sampled_transitions(txns, catalog, seed=42)
        b = sampled_transitions(txns, catalog, seed=42)
        assert np.array_equal(a.sub_transitions, b.sub_transitions)
        assert np.array_equal(a.cat_transitions, b.cat_transitions)
        assert a.seed == 42 and a.mode == "sampled"

    def test_mass_exact_per_transaction(self):
        catalog = catalog_for((3, 1))
        txns = load_transactions(
            [("t1", "u1"), ("t1", "u2"), ("t1", "u4"), ("t2", "u3")], catalog
        )
        got = sampled_transitions(txns, catalog, seed=5)
        # t1 has 2 categories/3 subs, t2 has 1/1: masses 3+2 and 4+2
        assert got.cat_transitions.sum() == 5.0
        assert got.sub_transitions.sum() == 6.0

    def test_average_approaches_expected(self):
        catalog = catalog_for((2, 1))
        sub_ids = [s.subcategory_id for s in catalog.subcategories]
        txns = single_basket(catalog, sub_ids)
        expected = expected_transitions(txns, catalog)
        acc = np.zeros_like(expected.sub_transitions)
        trials = 4000
        for seed in range(trials):
            acc += sampled_transitions(txns, catalog, seed=seed).sub_transitions
        acc /= trials
        assert np.abs(acc - expected.sub_transitions).max() < 0.05

    def test_counts_are_integers(self):
        catalog = catalog_for((2, 2))
        txns = single_basket(catalog, ["u1", "u2", "u3"])
        got = sampled_transitions(txns, catalog, seed=1)
        assert np.array_equal(got.sub_transitions, np.round(got.sub_transitions))


class TestReplayPaths:
    def test_walks_start_and_end_at_doors(self):
        graph = line_store(3)
        catalog = catalog_for((2, 1))
        txns = load_transactions(
            [("t1", "u1"), ("t1", "u2"), ("t1", "u3"), ("t2", "u2")], catalog
        )
        assignment = {"u1": "s1", "u2": "s2", "u3": "s3"}
        walks = replay_paths(txns, assignment, graph, catalog, seed=3)
        assert len(walks) == 2
        for walk in walks:
            assert walk[0] == graph.entrance_node
            assert walk[-1] == graph.exit_node

    def test_walk_passes_through_assigned_centers(self):
        graph = line_store(2)
        catalog = catalog_for((1, 1))
        txns = load_transactions([("t1", "u1"), ("t1", "u2")], catalog)
        walks = replay_paths(txns, {"u1": "s2", "u2": "s1"}, graph, catalog, seed=0)
        assert set(walks[0]) >= {"n01", "n02"}

    def test_missing_assignment_rejected(self):
        graph = line_store(3)
        catalog = catalog_for((2, 1))
        txns = load_transactions([("t1", "u1"), ("t2", "u2"), ("t2", "u3")], catalog)
        message = "transaction t2: no assigned position for ['u2', 'u3']"
        with pytest.raises(ValidationError, match=re.escape(message)):
            replay_paths(txns, {"u1": "s1"}, graph, catalog, seed=0)

    def test_deterministic_per_seed(self):
        graph = line_store(3)
        catalog = catalog_for((2, 1))
        txns = load_transactions(
            [("t1", "u1"), ("t1", "u2"), ("t1", "u3")], catalog
        )
        assignment = {"u1": "s3", "u2": "s1", "u3": "s2"}
        a = replay_paths(txns, assignment, graph, catalog, seed=9)
        b = replay_paths(txns, assignment, graph, catalog, seed=9)
        assert a == b


class TestTransactionCanonicalization:
    def test_subcategories_stored_in_catalog_order(self):
        catalog = catalog_for((2, 2))
        txns = load_transactions(
            [("t1", "u4"), ("t1", "u1"), ("t1", "u3")], catalog
        )
        assert txns[0].subcategory_ids == ("u1", "u3", "u4")

    def test_transaction_is_frozen(self):
        txn = Transaction("t", ("u1",))
        with pytest.raises(AttributeError):
            txn.transaction_id = "other"


# -- reference implementations ---------------------------------------------------------
#
# The exact accumulation as first written: every leg weight a product of
# Fractions, summed into one Fraction per index pair. The counting code in
# demand.py must give the same dicts (values and key order) and the same
# dense bits.


def _reference_category_contributions(txn, catalog):
    cats = [cid for cid, _ in _basket_blocks(txn.subcategory_ids, catalog)]
    m = len(cats)
    w = Fraction(1, m)
    for cid in cats:
        yield (CHECK_IN, cid), w
        yield (cid, CHECK_OUT), w
    for c1 in cats:
        for c2 in cats:
            if c1 != c2:
                yield (c1, c2), w


def _reference_subcategory_contributions(txn, catalog):
    blocks = _basket_blocks(txn.subcategory_ids, catalog)
    m = len(blocks)
    for cid, subs in blocks:
        g = len(subs)
        w_edge = Fraction(1, m) * Fraction(1, g)
        for sid in subs:
            yield (CHECK_IN, sid), w_edge
            yield (sid, CHECK_OUT), w_edge
        w_within = Fraction(1, g)
        for s1 in subs:
            for s2 in subs:
                if s1 != s2:
                    yield (s1, s2), w_within
    for c1, subs1 in blocks:
        for c2, subs2 in blocks:
            if c1 == c2:
                continue
            for s1 in subs1:
                for s2 in subs2:
                    w = Fraction(1, m) * Fraction(1, len(subs1)) * Fraction(1, len(subs2))
                    yield (s1, s2), w


def _reference_accumulate(contribs, axis):
    index = {pid: i for i, pid in enumerate(axis)}
    exact = {}
    for (a, b), w in contribs:
        key = (index[a], index[b])
        exact[key] = exact.get(key, Fraction(0)) + w
    dense = np.zeros((len(axis), len(axis)), dtype=np.float64)
    for (i, j), w in exact.items():
        dense[i, j] = float(w)
    return dense, exact


def reference_expected(transactions, catalog):
    cat = _reference_accumulate(
        (c for t in transactions for c in _reference_category_contributions(t, catalog)),
        catalog.category_axis,
    )
    sub = _reference_accumulate(
        (c for t in transactions for c in _reference_subcategory_contributions(t, catalog)),
        catalog.subcategory_axis,
    )
    return cat, sub


def random_baskets(rng: Random, catalog: Catalog, count: int, max_categories: int = 10):
    """Baskets of 1..max_categories distinct categories, each with a random
    non-empty subset of its subcategories."""
    cats = [c.category_id for c in catalog.categories]
    records = []
    for t in range(count):
        k = rng.randint(1, min(max_categories, len(cats)))
        for cid in rng.sample(cats, k):
            subs = catalog.subcategories_of(cid)
            for sid in rng.sample(subs, rng.randint(1, len(subs))):
                records.append((f"t{t}", sid))
    return load_transactions(records, catalog)


def repeated_baskets(rng: Random, catalog: Catalog, distinct: int, count: int):
    """``count`` transactions that hold at most ``distinct`` different
    baskets, each drawn at random, so the repeats of one basket interleave
    with the others."""
    pool = [t.subcategory_ids for t in random_baskets(rng, catalog, distinct)]
    return [Transaction(f"r{t}", rng.choice(pool)) for t in range(count)]


def assert_matches_reference(transactions, catalog):
    got = expected_transitions(transactions, catalog)
    (cat_dense, cat_exact), (sub_dense, sub_exact) = reference_expected(transactions, catalog)
    assert got.cat_transitions.tobytes() == cat_dense.tobytes()
    assert got.sub_transitions.tobytes() == sub_dense.tobytes()
    assert list(got.cat_exact.items()) == list(cat_exact.items())
    assert list(got.sub_exact.items()) == list(sub_exact.items())


class TestExactTransitionsMatchReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_catalogs(self, seed):
        rng = Random(seed)
        n_cats = rng.randint(1, 12)
        sizes = [rng.randint(1, 7) for _ in range(n_cats)]
        sizes[rng.randrange(n_cats)] = rng.randint(5, 8)
        catalog = catalog_for(tuple(sizes))
        assert_matches_reference(random_baskets(rng, catalog, 150), catalog)

    def test_ten_category_baskets_of_large_categories(self):
        rng = Random(2024)
        catalog = catalog_for((5, 6, 7, 5, 8, 5, 6, 5, 7, 9, 1, 2))
        txns = random_baskets(rng, catalog, 60)
        ten = {f"C{i}" for i in range(1, 11)}
        whole = [s.subcategory_id for s in catalog.subcategories if s.parent_category_id in ten]
        txns += load_transactions([("whole", sid) for sid in whole], catalog)
        assert max(len({catalog.category_of(s) for s in t.subcategory_ids}) for t in txns) == 10
        assert_matches_reference(txns, catalog)

    def test_single_basket_shapes(self):
        for shape in SMALL_SHAPES:
            catalog = catalog_for(shape)
            txns = single_basket(catalog, [s.subcategory_id for s in catalog.subcategories])
            assert_matches_reference(txns, catalog)

    def test_bundled_baskets(self):
        doc = load_store(str(FIXTURES / "synthetic_store.json"))
        txns = read_transactions_csv(str(FIXTURES / "synthetic_transactions.csv"), doc.catalog)
        assert_matches_reference(txns, doc.catalog)

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_heavy_interleaved_baskets(self, seed):
        rng = Random(100 + seed)
        sizes = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 9)))
        catalog = catalog_for(sizes)
        txns = repeated_baskets(rng, catalog, rng.randint(1, 12), 300)
        assert_matches_reference(txns, catalog)

    def test_one_basket_many_times(self):
        catalog = catalog_for((3, 2, 4))
        txns = single_basket(catalog, ["u1", "u3", "u5", "u6", "u9"]) * 7
        txns += single_basket(catalog, ["u2"]) + txns
        assert_matches_reference(txns, catalog)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5))
def test_repeating_every_transaction_scales_exact_values(seed, k):
    # in place (t1 t1 t2 t2) or as a whole (t1 t2 t1 t2), k copies of every
    # transaction multiply each exact value by k and keep the pair order
    rng = Random(seed)
    catalog = catalog_for(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6))))
    txns = random_baskets(rng, catalog, rng.randint(1, 20))
    once = expected_transitions(txns, catalog)
    for repeated in ([t for t in txns for _ in range(k)], txns * k):
        got = expected_transitions(repeated, catalog)
        assert list(got.cat_exact.items()) == [(key, k * w) for key, w in once.cat_exact.items()]
        assert list(got.sub_exact.items()) == [(key, k * w) for key, w in once.sub_exact.items()]


def merged_by_category(sub_entries, catalog):
    """Subcategory entries keyed by index pairs, summed by category pair in
    order of first entry, dropping the pairs within one category."""
    cat_index = {cid: i for i, cid in enumerate(catalog.category_axis)}
    cat_of = [cat_index[catalog.category_of(sid)] for sid in catalog.subcategory_axis]
    merged = {}
    for (a, b), w in sub_entries:
        if cat_of[a] != cat_of[b]:
            key = (cat_of[a], cat_of[b])
            merged[key] = merged.get(key, 0) + w
    return merged


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_category_counts_are_subcategory_counts_merged(seed):
    # in both modes the category walk is the subcategory walk with each
    # category's stretch merged into one stop
    rng = Random(seed)
    catalog = catalog_for(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 7))))
    txns = random_baskets(rng, catalog, rng.randint(0, 40))
    exact = expected_transitions(txns, catalog)
    merged = merged_by_category(exact.sub_exact.items(), catalog)
    assert list(exact.cat_exact.items()) == list(merged.items())
    sampled = sampled_transitions(txns, catalog, seed=seed)
    dense = np.zeros_like(sampled.cat_transitions)
    nonzero = zip(*np.nonzero(sampled.sub_transitions))
    for key, count in merged_by_category(
        (((a, b), sampled.sub_transitions[a, b]) for a, b in nonzero), catalog
    ).items():
        dense[key] = count
    assert sampled.cat_transitions.tobytes() == dense.tobytes()


def block_contributions(blocks):
    """Exact expected transition counts for one basket, as ``(leg, d)`` pairs
    that each add weight ``1/d``: the per-basket generator the leg templates
    replaced, kept as their oracle.

    ``blocks`` are the basket's m categories, each with the g products
    visited inside it. Within a block, ordered pairs are adjacent with
    probability 1/g. A cross-block leg s1→s2 needs the second category to
    directly follow the first (1/m), s1 to be picked last in its block
    (1/g1) and s2 first in its (1/g2).
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


class TestLegTemplate:
    @pytest.mark.parametrize("shape", [*SMALL_SHAPES, (1,) * 7, (8, 1, 3), (2,) * 5])
    def test_lists_the_block_contributions_in_order(self, shape):
        blocks = []
        start = 1
        for k, g in enumerate(shape):
            blocks.append((k, tuple(range(start, start + g))))
            start += g
        slot = {CHECK_IN: 0, CHECK_OUT: start}
        want = [
            (slot.get(a, a), slot.get(b, b), d) for (a, b), d in block_contributions(blocks)
        ]
        assert _leg_template(shape) == want


def reference_sequence(txn, catalog, rng):
    """One sampled visit order as a flat list of subcategories: the category
    blocks shuffled, then a shuffled copy of each block appended."""
    blocks = _basket_blocks(txn.subcategory_ids, catalog)
    rng.shuffle(blocks)
    sequence = []
    for _, subs in blocks:
        picks = list(subs)
        rng.shuffle(picks)
        sequence.extend(picks)
    return sequence


def reference_sampled(transactions, catalog, seed):
    """Sampled counts of both levels, the category walk regrouped item by
    item from each flat visit order."""
    rng = Random(seed)
    cat_idx = {pid: i for i, pid in enumerate(catalog.category_axis)}
    sub_idx = {pid: i for i, pid in enumerate(catalog.subcategory_axis)}
    cat = np.zeros((len(cat_idx), len(cat_idx)))
    sub = np.zeros((len(sub_idx), len(sub_idx)))
    for txn in transactions:
        walk = [CHECK_IN, *reference_sequence(txn, catalog, rng), CHECK_OUT]
        cat_walk = []
        for sid in walk:
            cid = catalog.category_of(sid)
            if not cat_walk or cid != cat_walk[-1]:
                cat_walk.append(cid)
        for a, b in zip(walk, walk[1:]):
            sub[sub_idx[a], sub_idx[b]] += 1
        for a, b in zip(cat_walk, cat_walk[1:]):
            cat[cat_idx[a], cat_idx[b]] += 1
    return cat, sub


class TestSampledMatchesPerItemReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_catalogs(self, seed):
        rng = Random(seed)
        sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 8)))
        catalog = catalog_for(sizes)
        txns = random_baskets(rng, catalog, 200)
        got = sampled_transitions(txns, catalog, seed=seed)
        cat, sub = reference_sampled(txns, catalog, seed)
        assert got.cat_transitions.tobytes() == cat.tobytes()
        assert got.sub_transitions.tobytes() == sub.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_heavy_interleaved_baskets(self, seed):
        rng = Random(200 + seed)
        catalog = catalog_for(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 8))))
        txns = repeated_baskets(rng, catalog, rng.randint(1, 10), 300)
        got = sampled_transitions(txns, catalog, seed=seed)
        cat, sub = reference_sampled(txns, catalog, seed)
        assert got.cat_transitions.tobytes() == cat.tobytes()
        assert got.sub_transitions.tobytes() == sub.tobytes()

    def test_no_transactions(self):
        catalog = catalog_for((2, 1))
        got = sampled_transitions([], catalog, seed=0)
        assert not got.cat_transitions.any() and not got.sub_transitions.any()
        assert got.cat_transitions.shape == (4, 4) and got.sub_transitions.shape == (5, 5)


def reference_stops(transactions, assignment, graph, catalog, seed):
    """The node stops of every replayed walk: entrance, the centers in one
    sampled visit order, exit."""
    centers = {s.sublocation_id: s.center_node for s in graph.sublocations}
    rng = Random(seed)
    for txn in transactions:
        sequence = reference_sequence(txn, catalog, rng)
        yield [graph.entrance_node, *(centers[assignment[sid]] for sid in sequence), graph.exit_node]


def reference_replay(transactions, assignment, graph, catalog, seed):
    """Walk replay with a fresh Dijkstra for every leg."""
    paths = []
    for stops in reference_stops(transactions, assignment, graph, catalog, seed):
        walk = [stops[0]]
        for a, b in zip(stops, stops[1:]):
            walk.extend(_single_source_paths(graph, a)[b][1][1:])
        paths.append(walk)
    return paths


def random_walk_store(rng: Random, group_sizes: tuple[int, ...]) -> StoreGraph:
    """The corridor store with random chords and small integer lengths, so
    many shortest paths tie and the tie-break decides."""
    base = line_store(sum(group_sizes), group_sizes)
    ids = [n.node_id for n in base.nodes]
    edges = [Edge(e.node_a, e.node_b, float(rng.randint(1, 3))) for e in base.edges]
    pairs = {frozenset((e.node_a, e.node_b)) for e in edges}
    for _ in range(len(ids)):
        a, b = rng.sample(ids, 2)
        if frozenset((a, b)) not in pairs:
            pairs.add(frozenset((a, b)))
            edges.append(Edge(a, b, float(rng.randint(1, 4))))
    return StoreGraph(
        nodes=base.nodes,
        edges=tuple(edges),
        entrance_node=base.entrance_node,
        exit_node=base.exit_node,
        locations=base.locations,
        sublocations=base.sublocations,
    )


class TestReplayMatchesPerLegReference:
    def test_line_store(self):
        graph = line_store(5, (2, 3))
        catalog = catalog_for((2, 3))
        txns = random_baskets(Random(1), catalog, 40)
        assignment = {"u1": "s4", "u2": "s1", "u3": "s5", "u4": "s2", "u5": "s3"}
        for seed in (0, 9):
            got = replay_paths(txns, assignment, graph, catalog, seed=seed)
            assert got == reference_replay(txns, assignment, graph, catalog, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_stores(self, seed):
        rng = Random(seed)
        sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 5)))
        graph = random_walk_store(rng, sizes)
        catalog = catalog_for(sizes)
        slots = [s.sublocation_id for s in graph.sublocations]
        rng.shuffle(slots)
        assignment = {s.subcategory_id: k for s, k in zip(catalog.subcategories, slots)}
        txns = random_baskets(rng, catalog, 60)
        got = replay_paths(txns, assignment, graph, catalog, seed=seed)
        assert got == reference_replay(txns, assignment, graph, catalog, seed)
        # a second replay reads the memo filled by the first
        again = replay_paths(txns, assignment, graph, catalog, seed=seed)
        assert again == got

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_heavy_baskets_ask_once_per_distinct_leg(self, seed, monkeypatch):
        rng = Random(300 + seed)
        sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 5)))
        graph = random_walk_store(rng, sizes)
        catalog = catalog_for(sizes)
        slots = [s.sublocation_id for s in graph.sublocations]
        rng.shuffle(slots)
        assignment = {s.subcategory_id: k for s, k in zip(catalog.subcategories, slots)}
        txns = repeated_baskets(rng, catalog, rng.randint(1, 8), 200)
        asked = []

        def counted(graph, a, b):
            asked.append((a, b))
            return shortest_path(graph, a, b)

        monkeypatch.setattr(demand, "shortest_path", counted)
        got = replay_paths(txns, assignment, graph, catalog, seed=seed)
        assert got == reference_replay(txns, assignment, graph, catalog, seed)
        stops = reference_stops(txns, assignment, graph, catalog, seed)
        legs = {leg for walk in stops for leg in zip(walk, walk[1:])}
        assert sorted(asked) == sorted(legs)
        # the walks share no list, so changing one leaves the others as they were
        got[0].append("extra")
        assert got[1:] == reference_replay(txns, assignment, graph, catalog, seed)[1:]
