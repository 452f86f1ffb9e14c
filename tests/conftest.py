"""Shared builders and independent oracles used across the test suite.

The oracles here deliberately avoid the library's closed forms: expected
transitions are computed by enumerating every ordering, shortest paths by
exhaustive simple-path search, objectives by plain double loops.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from storelayout.demand import CHECK_IN, CHECK_OUT, Catalog, Category, Subcategory
from storelayout.qap import Block, QapInstance, eligibility_from_blocks
from storelayout.store import (
    Edge,
    Location,
    Node,
    StoreGraph,
    Sublocation,
)

# -- release-gate reporting ------------------------------------------------------------
#
# test_acceptance.py names its tests test_criterion_<N>_*. Their outcomes are
# collected here and printed as one line each in the terminal summary, so the
# gate's verdict is visible without -s or -rA.

_CRITERION = re.compile(r"test_criterion_(\d+)")
_criterion_status: dict[int, str] = {}
_criterion_notes: dict[int, str] = {}


def criterion_note(number: int, text: str) -> None:
    """Attach a short result summary to a release-gate check."""
    _criterion_notes[number] = text


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    match = _CRITERION.search(item.name)
    if match and report.when == "call":
        _criterion_status[int(match.group(1))] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_status:
        return
    terminalreporter.section("release gate")
    for number in sorted(_criterion_status):
        line = f"[criterion {number}] {_criterion_status[number]}"
        note = _criterion_notes.get(number)
        if note:
            line += f" - {note}"
        terminalreporter.write_line(line)

# -- tiny stores ---------------------------------------------------------------------


def line_store(n_subs: int = 3, group_sizes: tuple[int, ...] | None = None) -> StoreGraph:
    """Corridor store: entrance, one walkway node per sublocation, exit.

    ``group_sizes`` partitions the sublocations into locations; default is
    one location per sublocation.
    """
    if group_sizes is None:
        group_sizes = (1,) * n_subs
    assert sum(group_sizes) == n_subs
    nodes = [Node("n00", 0.0, 0.0)]
    edges = []
    for i in range(1, n_subs + 2):
        nodes.append(Node(f"n{i:02d}", float(i), 0.0))
        edges.append(Edge(f"n{i - 1:02d}", f"n{i:02d}", 1.0))
    sublocations = []
    locations = []
    sub_idx = 0
    for g, size in enumerate(group_sizes):
        lid = f"L{g + 1}"
        members = []
        for _ in range(size):
            sub_idx += 1
            sid = f"s{sub_idx}"
            members.append(sid)
            node = f"n{sub_idx:02d}"
            sublocations.append(
                Sublocation(
                    sublocation_id=sid,
                    parent_location_id=lid,
                    center_node=node,
                    facing_nodes=frozenset({node}),
                )
            )
        center = sublocations[-len(members)].center_node
        locations.append(
            Location(
                location_id=lid,
                fixture_type="aisle",
                center_node=center,
                sublocation_ids=tuple(members),
            )
        )
    return StoreGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        sublocations=tuple(sublocations),
        locations=tuple(locations),
        entrance_node="n00",
        exit_node=f"n{n_subs + 1:02d}",
    )


def catalog_for(group_sizes: tuple[int, ...]) -> Catalog:
    cats = []
    subs = []
    idx = 0
    for g, size in enumerate(group_sizes):
        cid = f"C{g + 1}"
        cats.append(Category(category_id=cid, name=f"category {g + 1}"))
        for _ in range(size):
            idx += 1
            subs.append(
                Subcategory(subcategory_id=f"u{idx}", name=f"item {idx}", parent_category_id=cid)
            )
    return Catalog(categories=tuple(cats), subcategories=tuple(subs))


# -- random instances ----------------------------------------------------------------


def random_level1_instance(rng: Random, n_real: int, full_eligibility: bool = False) -> QapInstance:
    """Random strategic-shaped instance with dummies pinned and a feasible
    random eligibility pattern."""
    n = n_real + 2
    products = [CHECK_IN] + [f"p{i}" for i in range(1, n_real + 1)] + [CHECK_OUT]
    positions = ["entrance"] + [f"k{i}" for i in range(1, n_real + 1)] + ["exit"]
    flow = np.zeros((n, n))
    expo = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                flow[i, j] = round(rng.uniform(0.0, 5.0), 3)
            expo[i, j] = rng.randrange(0, 7)
    flow[:, 0] = 0.0
    flow[-1, :] = 0.0
    while True:
        elig = np.zeros((n, n), dtype=bool)
        elig[0, 0] = True
        elig[-1, -1] = True
        for i in range(1, n - 1):
            if full_eligibility:
                elig[i, 1:-1] = True
                continue
            cols = [k for k in range(1, n - 1) if rng.random() < 0.7]
            if not cols:
                cols = [rng.randrange(1, n - 1)]
            elig[i, cols] = True
        try:
            return QapInstance(
                level="level1",
                product_ids=tuple(products),
                position_ids=tuple(positions),
                flow=flow,
                exposure=expo,
                eligibility=elig,
                name=f"rand-l1-{n_real}",
            )
        except Exception:
            continue


def random_level2_instance(rng: Random, sizes: tuple[int, ...]) -> QapInstance:
    """Random tactical-shaped instance with the given block sizes."""
    total = sum(sizes)
    n = total + 2
    products = [CHECK_IN]
    positions = ["entrance"]
    blocks = []
    idx = 0
    for b, size in enumerate(sizes):
        prods = []
        slots = []
        for _ in range(size):
            idx += 1
            prods.append(f"p{idx}")
            slots.append(f"k{idx}")
        products.extend(prods)
        positions.extend(slots)
        blocks.append(
            Block(
                category_id=f"C{b + 1}",
                location_id=f"L{b + 1}",
                product_ids=tuple(prods),
                position_ids=tuple(slots),
            )
        )
    products.append(CHECK_OUT)
    positions.append("exit")
    flow = np.zeros((n, n))
    expo = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                flow[i, j] = round(rng.uniform(0.0, 5.0), 3)
            expo[i, j] = rng.randrange(0, 7)
    flow[:, 0] = 0.0
    flow[-1, :] = 0.0
    elig = eligibility_from_blocks(tuple(products), tuple(positions), tuple(blocks))
    return QapInstance(
        level="level2",
        product_ids=tuple(products),
        position_ids=tuple(positions),
        flow=flow,
        exposure=expo,
        eligibility=elig,
        blocks=tuple(blocks),
        name=f"rand-l2-{sizes}",
    )


def criterion_1_instances():
    """Release-gate criterion 1's 100 instances, at most 8 free products
    each: strategic ones with random or full eligibility, and tactical ones
    over a cycle of block shapes."""
    rng = Random(97_2026)
    block_shapes = [(2, 2), (3, 2), (2, 2, 2), (3, 3), (2, 1, 2), (4, 2), (3, 2, 2), (4, 4)]
    for trial in range(100):
        if trial % 2 == 0:
            free = rng.randrange(3, 9)
            yield random_level1_instance(rng, free, full_eligibility=rng.random() < 0.25)
        else:
            yield random_level2_instance(rng, block_shapes[(trial // 2) % len(block_shapes)])


def enumerate_optimum(instance: QapInstance) -> float:
    """Plain-loop exhaustive optimum, independent of the solver code."""
    n = instance.n
    best = None
    for perm in itertools.permutations(range(n)):
        if not all(instance.eligibility[i, perm[i]] for i in range(n)):
            continue
        total = 0.0
        for i in range(n):
            for j in range(n):
                total += instance.flow[i, j] * instance.exposure[perm[i], perm[j]]
        if best is None or total > best:
            best = total
    assert best is not None
    return best


# -- transition oracles ---------------------------------------------------------------


def oracle_category_transitions(block_sizes: tuple[int, ...]) -> dict[tuple[int, int], Fraction]:
    """Expected category-level transition counts for one transaction whose
    basket has the given per-category item counts, by enumerating all m!
    equally likely category orders. Categories are numbered 1..m, with 0 for
    check-in and m+1 for check-out."""
    m = len(block_sizes)
    counts: dict[tuple[int, int], Fraction] = {}
    orders = list(itertools.permutations(range(1, m + 1)))
    share = Fraction(1, len(orders))
    for order in orders:
        seq = (0, *order, m + 1)
        for a, b in zip(seq, seq[1:]):
            counts[(a, b)] = counts.get((a, b), Fraction(0)) + share
    return counts


def oracle_subcategory_transitions(
    block_sizes: tuple[int, ...],
) -> dict[tuple[int, int], Fraction]:
    """Expected subcategory-level transition counts by enumerating every
    full ordering (category orders x within-category orders). Subcategories
    are numbered 1..s in block order, 0 check-in, s+1 check-out."""
    m = len(block_sizes)
    s = sum(block_sizes)
    blocks: list[list[int]] = []
    idx = 0
    for size in block_sizes:
        blocks.append(list(range(idx + 1, idx + 1 + size)))
        idx += size
    counts: dict[tuple[int, int], Fraction] = {}
    total = 0
    for cat_order in itertools.permutations(range(m)):
        for inner in itertools.product(*[itertools.permutations(blocks[c]) for c in cat_order]):
            seq = [0]
            for chunk in inner:
                seq.extend(chunk)
            seq.append(s + 1)
            total += 1
            for a, b in zip(seq, seq[1:]):
                counts[(a, b)] = counts.get((a, b), Fraction(0)) + 1
    return {pair: Fraction(c, total) for pair, c in counts.items()}


def all_simple_paths(adj: dict[str, list[tuple[str, float]]], src: str, dst: str):
    """Every simple path with its length, by depth-first search."""
    out = []

    def walk(node, seen, path, length):
        if node == dst:
            out.append((list(path), length))
            return
        for nxt, w in adj[node]:
            if nxt in seen:
                continue
            seen.add(nxt)
            path.append(nxt)
            walk(nxt, seen, path, length + w)
            path.pop()
            seen.remove(nxt)

    walk(src, {src}, [src], 0.0)
    return out


def graph_adjacency(graph: StoreGraph) -> dict[str, list[tuple[str, float]]]:
    adj: dict[str, list[tuple[str, float]]] = {n.node_id: [] for n in graph.nodes}
    for e in graph.edges:
        adj[e.node_a].append((e.node_b, e.length))
        adj[e.node_b].append((e.node_a, e.length))
    return adj
