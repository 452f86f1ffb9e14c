"""Objective ledger: the two-level answer on the bundled store at several
generated basket sets, pinned so that a change meant to be faster cannot
lose objective on a seed the other pins do not cover.

Each row is the bundled store with 600 baskets from
``build_synthetic_transactions(catalog, 600, s)``, solved by
``solve_hierarchical`` with solver seed ``s`` at pool size K and the
benchmark's 3,000-iteration tabu budget; two K=10 rows use the default
50,000-iteration budget instead, about 6 s each, to pin the uncut path of a
run with no ``--iterations`` cap. A row holds both objectives as ``repr``
floats, the SHA-256 of the final layout's sorted pairs, the distinct
strategic objectives of the pool candidates, and the objective of the
bundled as-is layout (``fixtures/current_layout.json``) under the row's
baskets, which the two-level answer must beat: that is the paper's claim.

Regenerate the ledger (only when a change is meant to move a row, and list
every moved row with its old and new values) with

    PYTHONPATH=src python tests/test_ledger.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from storelayout.demand import expected_transitions, load_transactions
from storelayout.report import read_plan
from storelayout.solvers import SolverConfig, evaluate_layout, solve_hierarchical
from storelayout.store import build_exposure_matrices
from storelayout.storefile import load_store
from storelayout.synthetic import build_synthetic_transactions

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "data" / "objective_ledger.json"
BASKET_SEEDS = (413, 1, 5, 7, 11, 23)
POOL_SIZES = (10, 1)
BASKETS = 600
ITERATIONS = 3000
# (basket seed, pool size) of the rows at the default budget
LONG_ROWS = ((413, 10), (1, 10))
LONG_ITERATIONS = 50_000


def ledger_row(basket_seed: int, pool_size: int, iterations: int = ITERATIONS) -> dict:
    """One ledger row, computed by the code under test."""
    doc = load_store(str(ROOT / "fixtures" / "synthetic_store.json"))
    records = build_synthetic_transactions(doc.catalog, BASKETS, basket_seed)
    matrices = expected_transitions(load_transactions(records, doc.catalog), doc.catalog)
    exposures = build_exposure_matrices(doc.graph)
    config = SolverConfig(seed=basket_seed, iteration_limit=iterations, pool_capacity=pool_size)
    result = solve_hierarchical(
        exposures, matrices, doc.eligibility, doc.catalog, doc.graph, config
    )
    pairs = json.dumps(result.assignment.pairs).encode("utf-8")
    as_is = read_plan(str(ROOT / "fixtures" / "current_layout.json")).assignment()
    return {
        "basket_seed": basket_seed,
        "solver_seed": basket_seed,
        "pool_size": pool_size,
        "iterations": iterations,
        "objective_l1": repr(result.level1_objective),
        "objective_l2": repr(result.objective),
        "layout_sha256": hashlib.sha256(pairs).hexdigest(),
        "pool_objectives": list(dict.fromkeys(repr(l1) for _, l1, _ in result.candidates)),
        "as_is_objective": repr(
            evaluate_layout(as_is, exposures, matrices, doc.catalog, doc.graph).objective
        ),
    }


def computed_keys() -> list[tuple[int, int, int]]:
    """(basket seed, pool size, iterations) of every row, in ledger order."""
    keys = [(s, k, ITERATIONS) for s in BASKET_SEEDS for k in POOL_SIZES]
    return keys + [(s, k, LONG_ITERATIONS) for s, k in LONG_ROWS]


def pinned_rows() -> dict[tuple[int, int, int], dict]:
    rows = json.loads(LEDGER.read_text(encoding="utf-8"))["rows"]
    return {(row["basket_seed"], row["pool_size"], row["iterations"]): row for row in rows}


def test_ledger_holds_exactly_the_computed_rows():
    assert list(pinned_rows()) == computed_keys()


@pytest.mark.parametrize("key", computed_keys(), ids=lambda key: "-".join(map(str, key)))
def test_two_level_answer_beats_the_as_is_layout(key):
    row = pinned_rows()[key]
    assert float(row["objective_l2"]) > float(row["as_is_objective"])


@pytest.mark.parametrize("pool_size", POOL_SIZES, ids=lambda k: f"k{k}")
@pytest.mark.parametrize("basket_seed", BASKET_SEEDS, ids=lambda s: f"seed{s}")
def test_row_recomputes_exactly(basket_seed, pool_size):
    key = (basket_seed, pool_size, ITERATIONS)
    assert ledger_row(*key) == pinned_rows()[key]


@pytest.mark.parametrize(
    ("basket_seed", "pool_size"), LONG_ROWS, ids=[f"seed{s}-k{k}" for s, k in LONG_ROWS]
)
def test_default_budget_row_recomputes_exactly(basket_seed, pool_size):
    key = (basket_seed, pool_size, LONG_ITERATIONS)
    assert ledger_row(*key) == pinned_rows()[key]


if __name__ == "__main__":
    LEDGER.parent.mkdir(exist_ok=True)
    rows = [ledger_row(*key) for key in computed_keys()]
    LEDGER.write_text(json.dumps({"rows": rows}, indent=2) + "\n", encoding="utf-8")
