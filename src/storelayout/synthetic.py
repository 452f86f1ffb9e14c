"""Bundled synthetic store: a racetrack walkway around four double-sided
grid aisles, with peripheral wall shelving, endcaps and aisle shelving.

The geometry, catalog and transactions here are entirely synthetic but
shaped like a medium grocery store: 20 locations carrying 48 sublocations
(4 peripheral locations of four sublocations, 8 single-sublocation
endcaps, 8 aisle sides of three sublocations), one entrance stub at the
front-left and one exit stub at the front-right. Transaction baskets are
drawn from a seeded rank-weighted popularity profile so demand is skewed
the way real baskets are.

Running ``python -m storelayout.synthetic OUTDIR`` regenerates the three
fixture files; generation is deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import csv
import os
from random import Random

from .demand import (
    Catalog,
    Category,
    Subcategory,
    expected_transitions,
    load_transactions,
)
from .qap import Assignment, build_level1_instance, objective
from .report import LayoutPlan, config_hash, write_plan
from .solvers import evaluate_layout, induced_level1_assignment
from .store import (
    Edge,
    Location,
    Node,
    StoreGraph,
    Sublocation,
    build_exposure_matrices,
)
from .storefile import StoreDocument, save_store

STORE_NAME = "synthetic-midsize-grocery"
DEFAULT_SEED = 413
DEFAULT_TRANSACTIONS = 600
# Pinned creation stamp for committed fixture files.
FIXTURE_CREATED = "2024-06-13T00:00:00Z"

_FRONT_Y = 4
_BACK_Y = 24
_CORRIDOR_X = (2, 6, 14, 22, 30, 38)
_UNIT_X = (10, 18, 26, 34)
_SIDE_Y = (8, 12, 16, 20)
_AISLE_Y = (8, 12, 16)

_CATEGORIES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Fruits", ("Bananas", "Citrus", "Stone Fruit", "Berries")),
    ("Vegetables", ("Root Vegetables", "Leafy Greens", "Salad Mixes", "Fresh Herbs")),
    ("Frozen Foods", ("Frozen Vegetables", "Frozen Meals", "Frozen Pizza", "Ice Cream")),
    ("Bakery", ("Fresh Bread", "Packaged Bread", "Pastries", "Flatbreads")),
    ("Dairy Specials", ("Dairy Specials",)),
    ("Deli Corner", ("Deli Corner",)),
    ("Seasonal Goods", ("Seasonal Goods",)),
    ("Candy Display", ("Candy Display",)),
    ("Dairy Drinks", ("Dairy Drinks",)),
    ("Nut Stand", ("Nut Stand",)),
    ("Household Picks", ("Household Picks",)),
    ("Holiday Sweets", ("Holiday Sweets",)),
    ("Appetizers", ("Dips", "Olives", "Seafood Bites")),
    ("Condiments", ("Sauces", "Dressings", "Pickles")),
    ("Canned Goods", ("Canned Vegetables", "Canned Meats", "Soups")),
    ("Snacks", ("Chips", "Crackers", "Popcorn")),
    ("Beer", ("Lager", "Ale", "Craft Beer")),
    ("Sports Drinks", ("Energy Drinks", "Flavored Water", "Still Water")),
    ("Soft Drinks", ("Cola", "Lemonade", "Iced Tea")),
    ("Breakfast Pantry", ("Cereal", "Oats", "Breakfast Bars")),
)


def _nid(x: int, y: int) -> str:
    return f"n-{x:02d}-{y:02d}"


def build_synthetic_graph() -> StoreGraph:
    nodes: list[Node] = [Node(_nid(2, 0), 2.0, 0.0), Node(_nid(38, 0), 38.0, 0.0)]
    xs = sorted(set(_CORRIDOR_X) | set(_UNIT_X))
    for x in xs:
        nodes.append(Node(_nid(x, _FRONT_Y), float(x), float(_FRONT_Y)))
        nodes.append(Node(_nid(x, _BACK_Y), float(x), float(_BACK_Y)))
    for x in _CORRIDOR_X:
        for y in _SIDE_Y:
            nodes.append(Node(_nid(x, y), float(x), float(y)))

    edges: list[Edge] = [
        Edge(_nid(2, 0), _nid(2, _FRONT_Y), 4.0),
        Edge(_nid(38, 0), _nid(38, _FRONT_Y), 4.0),
    ]
    for a, b in zip(xs, xs[1:]):
        edges.append(Edge(_nid(a, _FRONT_Y), _nid(b, _FRONT_Y), float(b - a)))
        edges.append(Edge(_nid(a, _BACK_Y), _nid(b, _BACK_Y), float(b - a)))
    for x in _CORRIDOR_X:
        rail = (_FRONT_Y, *(_SIDE_Y), _BACK_Y)
        for a, b in zip(rail, rail[1:]):
            edges.append(Edge(_nid(x, a), _nid(x, b), float(b - a)))

    locations: list[Location] = []
    sublocations: list[Sublocation] = []
    pos_counter = 0

    def add_location(fixture: str, facings: list[str], center: str) -> None:
        nonlocal pos_counter
        lid = f"loc-{len(locations) + 1:02d}"
        sub_ids = []
        for node_id in facings:
            pos_counter += 1
            sid = f"pos-{pos_counter:02d}"
            sub_ids.append(sid)
            sublocations.append(
                Sublocation(
                    sublocation_id=sid,
                    parent_location_id=lid,
                    center_node=node_id,
                    facing_nodes=frozenset({node_id}),
                )
            )
        locations.append(
            Location(
                location_id=lid,
                fixture_type=fixture,
                center_node=center,
                sublocation_ids=tuple(sub_ids),
            )
        )

    # Peripheral wall shelving: west wall, back wall in two halves, east wall.
    add_location("peripheral", [_nid(2, y) for y in _SIDE_Y], _nid(2, 12))
    add_location("peripheral", [_nid(x, _BACK_Y) for x in (6, 10, 14, 18)], _nid(10, _BACK_Y))
    add_location("peripheral", [_nid(x, _BACK_Y) for x in (22, 26, 30, 34)], _nid(26, _BACK_Y))
    add_location("peripheral", [_nid(38, y) for y in _SIDE_Y], _nid(38, 12))
    # Endcaps at the front and back ends of each aisle unit.
    for x in _UNIT_X:
        add_location("endcap", [_nid(x, _FRONT_Y)], _nid(x, _FRONT_Y))
        add_location("endcap", [_nid(x, _BACK_Y)], _nid(x, _BACK_Y))
    # Aisle shelving: each unit has a west-facing and an east-facing side.
    for x in _UNIT_X:
        add_location("aisle", [_nid(x - 4, y) for y in _AISLE_Y], _nid(x - 4, 12))
        add_location("aisle", [_nid(x + 4, y) for y in _AISLE_Y], _nid(x + 4, 12))

    return StoreGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        sublocations=tuple(sublocations),
        locations=tuple(locations),
        entrance_node=_nid(2, 0),
        exit_node=_nid(38, 0),
    )


def build_synthetic_catalog() -> Catalog:
    categories: list[Category] = []
    subcategories: list[Subcategory] = []
    sub_counter = 0
    for idx, (cname, subs) in enumerate(_CATEGORIES, start=1):
        cid = f"cat-{idx:02d}"
        categories.append(Category(category_id=cid, name=cname))
        for sname in subs:
            sub_counter += 1
            subcategories.append(
                Subcategory(
                    subcategory_id=f"sub-{sub_counter:02d}",
                    name=sname,
                    parent_category_id=cid,
                )
            )
    return Catalog(categories=tuple(categories), subcategories=tuple(subcategories))


def build_synthetic_eligibility(graph: StoreGraph, catalog: Catalog) -> dict[str, tuple[str, ...]]:
    """Fixture-class matching: categories may only move among locations of
    their own shelf type, which also keeps block sizes compatible."""
    by_type: dict[str, list[str]] = {}
    for loc in graph.locations:
        by_type.setdefault(loc.fixture_type, []).append(loc.location_id)
    sizes = {c.category_id: len(catalog.subcategories_of(c.category_id)) for c in catalog.categories}
    fixture_of_size = {4: "peripheral", 1: "endcap", 3: "aisle"}
    return {
        cid: tuple(by_type[fixture_of_size[size]]) for cid, size in sizes.items()
    }


def build_synthetic_document() -> StoreDocument:
    graph = build_synthetic_graph()
    catalog = build_synthetic_catalog()
    return StoreDocument(
        name=STORE_NAME,
        graph=graph,
        catalog=catalog,
        eligibility=build_synthetic_eligibility(graph, catalog),
    )


def build_synthetic_transactions(
    catalog: Catalog,
    count: int = DEFAULT_TRANSACTIONS,
    seed: int = DEFAULT_SEED,
) -> list[tuple[str, str]]:
    """Seeded basket records: popularity follows a shuffled harmonic rank
    profile, basket sizes a truncated geometric, items drawn without
    replacement."""
    rng = Random(seed)
    subs = [s.subcategory_id for s in catalog.subcategories]
    ranks = list(range(len(subs)))
    rng.shuffle(ranks)
    weights = {sid: 1.0 / (1 + rank) for sid, rank in zip(subs, ranks)}
    records: list[tuple[str, str]] = []
    for t in range(1, count + 1):
        size = 1
        while size < 8 and rng.random() < 0.55:
            size += 1
        remaining = dict(weights)
        tid = f"t{t:04d}"
        for _ in range(min(size, len(subs))):
            total = sum(remaining.values())
            pick = rng.random() * total
            acc = 0.0
            chosen = None
            for sid in subs:
                if sid not in remaining:
                    continue
                acc += remaining[sid]
                if pick <= acc:
                    chosen = sid
                    break
            if chosen is None:
                chosen = next(s for s in reversed(subs) if s in remaining)
            records.append((tid, chosen))
            del remaining[chosen]
    return records


def build_current_layout(doc: StoreDocument) -> Assignment:
    """The as-is layout: categories in location order, subcategories in
    sublocation order within each location."""
    mapping: dict[str, str] = {}
    subs = [s.subcategory_id for s in doc.catalog.subcategories]
    slots = [sid for loc in doc.graph.locations for sid in loc.sublocation_ids]
    for sid, slot in zip(subs, slots):
        mapping[sid] = slot
    return Assignment.from_mapping(mapping)


def current_layout_plan(doc: StoreDocument, transactions_path_records) -> LayoutPlan:
    transactions = load_transactions(transactions_path_records, doc.catalog)
    matrices = expected_transitions(transactions, doc.catalog)
    exposures = build_exposure_matrices(doc.graph)
    layout = build_current_layout(doc)
    level1 = induced_level1_assignment(layout, doc.catalog, doc.graph)
    l1_instance = build_level1_instance(
        exposures, matrices, build_synthetic_eligibility(doc.graph, doc.catalog)
    )
    evaluation = evaluate_layout(layout, exposures, matrices, doc.catalog, doc.graph)
    run_hash = config_hash(
        {"generator": "synthetic", "seed": DEFAULT_SEED, "transactions": DEFAULT_TRANSACTIONS}
    )
    return LayoutPlan(
        store_name=doc.name,
        category_to_location=level1.shelf_mapping,
        subcategory_to_sublocation=layout.mapping,
        level1_objective=objective(l1_instance, level1),
        level2_objective=evaluation.objective,
        metadata={
            "config_hash": run_hash,
            "seed": str(DEFAULT_SEED),
            "created": FIXTURE_CREATED,
            "tool_version": "fixture",
            "generator": "synthetic current layout",
        },
    )


def write_fixtures(outdir: str, seed: int = DEFAULT_SEED, count: int = DEFAULT_TRANSACTIONS) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    doc = build_synthetic_document()
    store_path = os.path.join(outdir, "synthetic_store.json")
    save_store(doc, store_path)

    records = build_synthetic_transactions(doc.catalog, count=count, seed=seed)
    tx_path = os.path.join(outdir, "synthetic_transactions.csv")
    with open(tx_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["transaction_id", "subcategory_id"])
        writer.writerows(records)

    plan = current_layout_plan(doc, records)
    plan_path = os.path.join(outdir, "current_layout.json")
    write_plan(plan, plan_path)
    return [store_path, tx_path, plan_path]


def main() -> int:
    parser = argparse.ArgumentParser(description="regenerate the bundled synthetic fixtures")
    parser.add_argument("outdir", nargs="?", default="fixtures")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--transactions", type=int, default=DEFAULT_TRANSACTIONS)
    args = parser.parse_args()
    for path in write_fixtures(args.outdir, seed=args.seed, count=args.transactions):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
