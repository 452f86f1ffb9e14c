"""Release gate: seven end-to-end checks over the public API and the bundled
synthetic store. One PASS/FAIL line per check is printed in the terminal
summary (wired up in conftest) so the verdict survives output capture.

These intentionally re-verify behavior that unit tests cover piecemeal, at
the sizes and tolerances the package promises: exact solver agreement,
linearization exactness, transition-model correctness against full ordering
enumeration, pooled-search monotonicity, path/delta invariants, byte-level
reproducibility, and external solution validation.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

import numpy as np
import pytest

from conftest import (
    catalog_for,
    criterion_1_instances,
    criterion_note,
    line_store,
    oracle_category_transitions,
    oracle_subcategory_transitions,
    random_level1_instance,
    random_level2_instance,
)
from test_linearize import linear_objective, product_solution, residuals
from storelayout.cli import main
from storelayout.demand import (
    expected_transitions,
    load_transactions,
    read_transactions_csv,
    sampled_transitions,
)
from storelayout.linearize import (
    linearize,
    parse_solution_file,
    validate_solution,
    variable_name,
    write_lp,
)
from storelayout.qap import (
    build_level2_instance,
    objective_of_permutation,
    swap_delta,
)
from storelayout.report import read_plan
from storelayout.solvers import (
    SolverConfig,
    branch_and_bound,
    brute_force,
    random_assignment,
    solve_hierarchical,
)
from storelayout.store import (
    Edge,
    Node,
    StoreGraph,
    build_exposure_matrices,
    path_exposure,
    shortest_path,
)
from storelayout.storefile import StoreDocument, load_store, save_store

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
STORE_FILE = str(FIXTURES / "synthetic_store.json")
TX_FILE = str(FIXTURES / "synthetic_transactions.csv")


def single_basket(catalog, sub_ids):
    return load_transactions([("t1", sid) for sid in sub_ids], catalog)


# -- 1: exact solver agreement ---------------------------------------------------------


def test_criterion_1_branch_and_bound_matches_brute_force():
    """On 100 randomized instances with at most 8 free products, the certified
    branch-and-bound optimum equals the brute-force optimum exactly."""
    started = perf_counter()
    for trial, inst in enumerate(criterion_1_instances()):
        exact = brute_force(inst)
        candidate = branch_and_bound(inst)
        assert candidate.certified, f"trial {trial} not certified"
        assert candidate.objective == exact.objective, f"trial {trial}"
    elapsed = perf_counter() - started
    assert elapsed < 60.0
    criterion_note(1, f"100 mixed instances, certified optima exactly equal, {elapsed:.1f}s")


# -- 2: linearization exactness --------------------------------------------------------


def test_criterion_2_linearization_exact_on_1000_assignments():
    """For 1000 random feasible assignments on toys with n <= 7, setting the
    continuous variables to products of binaries reproduces the quadratic
    objective within 1e-9 relative and satisfies every row within 1e-9."""
    rng = Random(1417)
    toys = []
    for free in (2, 3, 4, 5):
        toys.append(random_level1_instance(rng, free))
        toys.append(random_level1_instance(rng, free, full_eligibility=True))
    for shape in ((2, 2), (3, 2), (2, 1, 2), (1, 1, 1), (3, 1), (2, 2, 1), (4, 1), (5,)):
        toys.append(random_level2_instance(rng, shape))
    models = [(inst, linearize(inst, sparsify=bool(i % 2))) for i, inst in enumerate(toys)]
    assert all(inst.n <= 7 for inst, _ in models)

    worst_gap = 0.0
    worst_residual = 0.0
    for check in range(1000):
        toy = check % len(models)
        inst, model = models[toy]
        perm = random_assignment(inst, rng)
        values = product_solution(model, perm)
        linear = linear_objective(inst, model, values)
        quadratic = objective_of_permutation(inst, perm)
        gap = abs(linear - quadratic) / max(1.0, abs(quadratic))
        residual = residuals(model, values)
        assert gap <= 1e-9, f"{model.tag} toy {toy}: objective gap {gap}"
        assert residual <= 1e-9, f"{model.tag} toy {toy}: residual {residual}"
        worst_gap = max(worst_gap, gap)
        worst_residual = max(worst_residual, residual)
    criterion_note(
        2,
        f"1000 assignments on {len(models)} toys, worst gap {worst_gap:.1e}, "
        f"worst residual {worst_residual:.1e}",
    )


# -- 3: transition model against full ordering enumeration ------------------------------


def test_criterion_3_transitions_match_ordering_enumeration():
    # Category matrices for every basket with up to 5 categories. The unit
    # suite shows the category level ignores block contents, so size mixes
    # here vary freely.
    cat_shapes = [
        (1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1, 1),
        (1, 1, 1, 1), (2, 2, 2, 1), (1, 1, 1, 1, 1), (3, 2, 1, 1, 1),
    ]
    for shape in cat_shapes:
        catalog = catalog_for(shape)
        txns = single_basket(catalog, [s.subcategory_id for s in catalog.subcategories])
        got = expected_transitions(txns, catalog)
        oracle = oracle_category_transitions(shape)
        m = len(shape)
        for a in range(m + 2):
            for b in range(m + 2):
                want = float(oracle.get((a, b), Fraction(0)))
                assert abs(got.cat_transitions[a, b] - want) <= 1e-12, (shape, a, b)

    # Subcategory matrices for every basket with up to 4 subcategories.
    sub_shapes = [
        (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    for shape in sub_shapes:
        catalog = catalog_for(shape)
        txns = single_basket(catalog, [s.subcategory_id for s in catalog.subcategories])
        got = expected_transitions(txns, catalog)
        oracle = oracle_subcategory_transitions(shape)
        s = sum(shape)
        for a in range(s + 2):
            for b in range(s + 2):
                want = float(oracle.get((a, b), Fraction(0)))
                assert abs(got.sub_transitions[a, b] - want) <= 1e-12, (shape, a, b)

    # Sampled mode averaged over 10^5 seeds converges to expected mode.
    catalog = catalog_for((2, 1))
    txns = single_basket(catalog, ["u1", "u2", "u3"])
    expected = expected_transitions(txns, catalog)
    seeds = 100_000
    cat_acc = np.zeros_like(expected.cat_transitions)
    sub_acc = np.zeros_like(expected.sub_transitions)
    for seed in range(seeds):
        got = sampled_transitions(txns, catalog, seed=seed)
        cat_acc += got.cat_transitions
        sub_acc += got.sub_transitions
    cat_err = np.abs(cat_acc / seeds - expected.cat_transitions).max()
    sub_err = np.abs(sub_acc / seeds - expected.sub_transitions).max()
    assert cat_err <= 1e-2 and sub_err <= 1e-2

    # Mass identities hold exactly for each transaction in both modes: a
    # basket of m categories and s subcategories contributes m+1 and s+1
    # transitions respectively.
    catalog = catalog_for((3, 2, 1))
    baskets = [
        ["u1"], ["u1", "u2"], ["u1", "u4"], ["u4", "u6"],
        ["u2", "u5", "u6"], ["u1", "u2", "u3", "u4", "u5", "u6"],
    ]
    for subs in baskets:
        txn = load_transactions([("t", sid) for sid in subs], catalog)
        m = len({catalog.category_of(sid) for sid in subs})
        for matrices in (expected_transitions(txn, catalog),
                         sampled_transitions(txn, catalog, seed=11)):
            assert matrices.exact_mass("category") == Fraction(m + 1)
            assert matrices.exact_mass("subcategory") == Fraction(len(subs) + 1)

    criterion_note(
        3,
        f"{len(cat_shapes)} category and {len(sub_shapes)} subcategory shapes exact; "
        f"sampled mean off by {max(cat_err, sub_err):.1e} after {seeds} seeds",
    )


# -- 4: hierarchical driver on the bundled store -----------------------------------------


def test_criterion_4_pooled_search_and_baseline_gain():
    """On the bundled store, a 10-deep strategic pool never loses to a single
    candidate under identical seeds and budgets, and the optimized layout
    beats a seeded random one by at least 5%."""
    started = perf_counter()
    doc = load_store(STORE_FILE)
    graph, catalog = doc.graph, doc.catalog
    assert len(graph.location_axis) == 22
    assert len(graph.sublocation_axis) == 50
    txns = read_transactions_csv(TX_FILE, catalog)
    matrices = expected_transitions(txns, catalog)
    exposures = build_exposure_matrices(graph)

    pooled_cfg = SolverConfig(seed=413, pool_capacity=10, pool_gap=0.001)
    single_cfg = replace(pooled_cfg, pool_capacity=1)
    pooled = solve_hierarchical(
        exposures, matrices, doc.eligibility, catalog, graph, pooled_cfg
    )
    single = solve_hierarchical(
        exposures, matrices, doc.eligibility, catalog, graph, single_cfg
    )
    assert pooled.objective >= single.objective

    anchor = build_level2_instance(exposures, matrices, pooled.level1_assignment, catalog, graph)
    baseline_perm = random_assignment(anchor, Random(413))
    baseline = objective_of_permutation(anchor, baseline_perm)
    gain = (pooled.objective - baseline) / baseline
    assert gain >= 0.05

    elapsed = perf_counter() - started
    assert elapsed < 600.0
    criterion_note(
        4,
        f"K=10 {pooled.objective:.0f} >= K=1 {single.objective:.0f}, "
        f"+{gain * 100:.1f}% over seeded random, {elapsed / 60:.1f} min",
    )


# -- 5: path and delta invariants --------------------------------------------------------


def random_connected_graph(rng: Random, n: int) -> StoreGraph:
    """Random connected weighted graph with no shelf structure."""
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    want_extra = len(pairs) + rng.randrange(0, n)
    while len(pairs) < min(want_extra, n * (n - 1) // 2):
        a, b = rng.sample(range(n), 2)
        pairs.add((min(a, b), max(a, b)))
    edges = tuple(
        Edge(f"n{a}", f"n{b}", round(rng.uniform(0.5, 4.0), 2)) for a, b in sorted(pairs)
    )
    nodes = tuple(Node(f"n{i}", float(i % 4), float(i // 4)) for i in range(n))
    return StoreGraph(
        nodes=nodes,
        edges=edges,
        entrance_node="n0",
        exit_node=f"n{n - 1}",
        locations=(),
        sublocations=(),
        name=f"rand-graph-{n}",
    )


def floyd_distances(graph: StoreGraph) -> dict[tuple[str, str], float]:
    ids = [nd.node_id for nd in graph.nodes]
    inf = float("inf")
    dist = {(a, b): (0.0 if a == b else inf) for a in ids for b in ids}
    for e in graph.edges:
        dist[(e.node_a, e.node_b)] = min(dist[(e.node_a, e.node_b)], e.length)
        dist[(e.node_b, e.node_a)] = min(dist[(e.node_b, e.node_a)], e.length)
    for k in ids:
        for a in ids:
            for b in ids:
                via = dist[(a, k)] + dist[(k, b)]
                if via < dist[(a, b)]:
                    dist[(a, b)] = via
    return dist


def test_criterion_5_paths_dominance_and_swap_deltas():
    # Returned paths are valid edge walks whose lengths equal all-pairs
    # distances from an independent Floyd-Warshall pass.
    rng = Random(5050)
    pair_checks = 0
    for _ in range(15):
        graph = random_connected_graph(rng, rng.randrange(4, 11))
        want = floyd_distances(graph)
        for a in (nd.node_id for nd in graph.nodes):
            for b in (nd.node_id for nd in graph.nodes):
                path = shortest_path(graph, a, b)
                assert path[0] == a and path[-1] == b
                length = 0.0
                for u, v in zip(path, path[1:]):
                    hop = dict(graph.neighbors(u)).get(v)
                    assert hop is not None, f"{u}->{v} is not an edge"
                    length += hop
                assert abs(length - want[(a, b)]) <= 1e-9, (graph.name, a, b)
                pair_checks += 1

    # Whole-location counting dominates sublocation counting on every
    # center-to-center path of the bundled store.
    doc = load_store(STORE_FILE)
    graph = doc.graph
    centers = [graph.entrance_node, graph.exit_node]
    centers += [s.center_node for s in graph.sublocations]
    for src in centers:
        for dst in centers:
            path = shortest_path(graph, src, dst)
            loc = path_exposure(graph, path, "location")
            sub = path_exposure(graph, path, "sublocation")
            assert loc >= sub, (src, dst)

    # Swap deltas agree with full objective recomputation on the tactical
    # instance induced by the bundled current layout.
    catalog = doc.catalog
    matrices = expected_transitions(read_transactions_csv(TX_FILE, catalog), catalog)
    exposures = build_exposure_matrices(graph)
    plan = read_plan(str(FIXTURES / "current_layout.json"))
    inst = build_level2_instance(exposures, matrices, plan.level1_assignment(), catalog, graph)
    wide_blocks = [b for b in inst.blocks if len(b.product_ids) >= 2]
    perm = inst.permutation_of(plan.assignment())
    worst = 0.0
    for check in range(200):
        if check and check % 40 == 0:
            perm = random_assignment(inst, rng)
        assignment = inst.assignment_from_permutation(perm)
        block = wide_blocks[rng.randrange(len(wide_blocks))]
        pa, pb = rng.sample(block.product_ids, 2)
        delta = swap_delta(inst, assignment, pa, pb)
        assert delta is not None
        ia, ib = inst.product_index(pa), inst.product_index(pb)
        swapped = perm.copy()
        swapped[[ia, ib]] = swapped[[ib, ia]]
        diff = objective_of_permutation(inst, swapped) - objective_of_permutation(inst, perm)
        err = abs(delta - diff) / max(1.0, abs(diff))
        assert err <= 1e-9, (pa, pb, delta, diff)
        worst = max(worst, err)

    criterion_note(
        5,
        f"{pair_checks} path pairs match Floyd distances; location >= sublocation on "
        f"{len(centers) ** 2} store paths; 200 swap deltas, worst error {worst:.1e}",
    )


# -- 6: byte-level reproducibility -------------------------------------------------------


def test_criterion_6_identical_runs_are_byte_identical(tmp_path, monkeypatch):
    """Two full runs with the same config and seed write byte-identical
    plans, reports, heatmaps, and LP exports."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1718236800")
    graph = line_store(4, (2, 2))
    catalog = catalog_for((2, 2))
    doc = StoreDocument(name="repro-store", graph=graph, catalog=catalog, eligibility=None)
    store = tmp_path / "store.json"
    save_store(doc, str(store))
    tx = tmp_path / "transactions.csv"
    tx.write_text(
        "transaction_id,subcategory_id\n"
        "t1,u1\nt1,u3\nt2,u2\nt2,u4\nt3,u1\nt3,u2\nt4,u4\n",
        encoding="utf-8",
    )

    def run(tag: str) -> tuple[Path, Path]:
        solve_out = tmp_path / f"solve_{tag}"
        lp_out = tmp_path / f"lp_{tag}"
        base = ["--store", str(store), "--transactions", str(tx), "--seed", "11"]
        assert main(["solve", *base, "--out", str(solve_out), "--pool-size", "2"]) == 0
        assert main(["export-lp", *base, "--out", str(lp_out), "--mode", "all"]) == 0
        return solve_out, lp_out

    first = run("a")
    second = run("b")
    compared = []
    for dir_a, dir_b in zip(first, second):
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
            compared.append(name)
    assert "plan.json" in compared
    assert "solve_report.txt" in compared
    assert "model_integrated.lp" in compared
    criterion_note(6, f"{len(compared)} artifacts byte-identical across two runs")


# -- 7: external solution validation ------------------------------------------------------


def test_criterion_7_external_solution_round_trip(tmp_path):
    """A hand-built optimal solution file for a 6-position toy export parses,
    validates feasible, and reconstructs the brute-force optimum."""
    rng = Random(6705)
    inst = random_level1_instance(rng, 4)
    assert inst.n == 6
    model = linearize(inst)
    lp_path = tmp_path / "toy6.lp"
    write_lp(model, str(lp_path))
    assert lp_path.read_text(encoding="utf-8").endswith("End\n")

    exact = brute_force(inst)
    perm = inst.permutation_of(exact.assignment)
    active = {variable_name("x", i, int(k)) for i, k in enumerate(perm)}
    lines = [f"# Objective value = {exact.objective}"]
    lines += [f"{name} {1 if name in active else 0}" for name in model.binary_names]
    for i1 in range(inst.n):
        for i2 in range(inst.n):
            if i1 != i2:
                lines.append(f"{variable_name('w', i1, int(perm[i1]), i2, int(perm[i2]))} 1")
    sol_path = tmp_path / "toy6.sol"
    sol_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    parsed = parse_solution_file(str(sol_path))
    assert parsed.reported_objective == pytest.approx(exact.objective)
    report = validate_solution(inst, model, parsed)
    assert report.feasible, report.violations
    assert report.assignment is not None
    assert report.quadratic_objective is not None
    assert abs(report.quadratic_objective - exact.objective) <= 1e-6
    assert report.objective_gap is not None and report.objective_gap <= 1e-6
    criterion_note(
        7,
        f"solution file validated feasible, objective gap {report.objective_gap:.1e}",
    )
