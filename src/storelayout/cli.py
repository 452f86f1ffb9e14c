"""Command-line front end: ingest a store document and transactions, build
matrices, run the solvers, and write plans, reports, LP models and
traffic heatmaps.

The parsed arguments are the run's configuration: each subcommand names its
handler, and the handler reads the arguments directly. main() checks the
input files and the output directory before any handler runs, and removes
the artifacts written before a failure, so an output directory never holds
a half-written run. Flag defaults may be supplied by a JSON file named in
the STORELAYOUT_CONFIG environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random

from .demand import (
    TransitionMatrices,
    expected_transitions,
    read_transactions_csv,
    replay_paths,
    sampled_transitions,
)
from .errors import InputError, LayoutError
from .heatmap import render_heatmap
from .linearize import linearize, linearize_integrated, write_lp
from .qap import (
    Assignment,
    build_level1_instance,
    build_level2_instance,
    objective,
)
from .report import (
    config_hash,
    diff_layouts,
    diff_report_text,
    evaluation_report_text,
    file_digest,
    plan_from_solution,
    read_plan,
    solve_report_text,
    write_matrix_tsv,
    write_plan,
)
from .solvers import (
    RESTARTS,
    SolverConfig,
    block_descent,  # noqa: F401 -- perfbench/spans.py wraps this name
    capacity_eligibility,
    evaluate_layout,
    random_assignment,
    solve_hierarchical,
    solve_level1,
    solve_level2,
    tabu_search,  # noqa: F401 -- perfbench/spans.py wraps this name
)
from .store import accumulate_traffic, build_exposure_matrices
from .storefile import StoreDocument, load_store

CONFIG_ENV = "STORELAYOUT_CONFIG"

_MODES = ("hierarchical", "level1", "level2")
_TRANSITION_MODES = ("expected", "sampled")
_MODEL_TAGS = ("level1", "level2", "integrated")


def _model_tags(raw: str) -> tuple[str, ...]:
    """Export-lp's --mode: comma-separated model tags, or "all"."""
    if raw == "all":
        return _MODEL_TAGS
    tags = tuple(t.strip() for t in raw.split(",") if t.strip())
    for tag in tags:
        if tag not in _MODEL_TAGS:
            raise InputError(f"unknown model tag {tag!r}")
    return tags or ("level1", "level2")


def _check(args: argparse.Namespace) -> None:
    """Fail on a missing input file, a config-file mode outside its
    choices or an unwritable output directory before any handler runs."""
    for label, path in (("store", args.store), ("transactions", args.transactions)):
        if not os.path.isfile(path):
            raise InputError(f"{label} file not found: {path}")
    if args.baseline is not None and not os.path.isfile(args.baseline):
        raise InputError(f"baseline plan not found: {args.baseline}")
    for plan in args.plans:
        if not os.path.isfile(plan):
            raise InputError(f"layout plan not found: {plan}")
    # argparse checks `choices` against the command line, not against a
    # default taken from the config file
    if args.mode not in _MODES:
        raise InputError(f"unknown mode {args.mode!r}")
    if args.transition_mode not in _TRANSITION_MODES:
        raise InputError(f"unknown transition mode {args.transition_mode!r}")
    os.makedirs(args.out, exist_ok=True)
    if not os.access(args.out, os.W_OK):
        raise InputError(f"output directory not writable: {args.out}")


def _run_hash(args: argparse.Namespace) -> str:
    return config_hash(
        {
            # solve-l1 and solve-l2 hash as solve --mode level1 and level2
            "command": "solve" if args.command.startswith("solve") else args.command,
            "store": file_digest(args.store),
            "transactions": file_digest(args.transactions),
            "mode": args.mode,
            "transition_mode": args.transition_mode,
            "seed": args.seed,
            "pool_size": args.pool_size,
            "pool_gap": args.pool_gap,
            "time_limit": args.time_limit,
            # every run is single-threaded; the key stays so that config
            # hashes, and the plans, reports and heatmaps carrying them,
            # keep their values
            "threads": 1,
        }
    )


class _Artifacts:
    """Tracks files written by one run so failures leave no partial output."""

    def __init__(self) -> None:
        self.paths: list[str] = []

    def register(self, path: str) -> str:
        self.paths.append(path)
        return path

    def cleanup(self) -> None:
        for path in self.paths:
            try:
                os.remove(path)
            except OSError:
                pass


def _write_text(sink: _Artifacts, path: str, text: str) -> None:
    """Write a text file as one artifact of the run."""
    with open(sink.register(path), "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_store_and_baskets(args: argparse.Namespace):
    doc = load_store(args.store)
    return doc, read_transactions_csv(args.transactions, doc.catalog)


def _load_inputs(args: argparse.Namespace):
    doc, transactions = _load_store_and_baskets(args)
    exposures = build_exposure_matrices(doc.graph)
    if args.transition_mode == "expected":
        matrices = expected_transitions(transactions, doc.catalog)
    else:
        matrices = sampled_transitions(transactions, doc.catalog, seed=args.seed)
    return doc, transactions, exposures, matrices


def _level1_instance(doc: StoreDocument, exposures, matrices: TransitionMatrices):
    """Strategic instance under the store's eligibility, restricted to the
    locations whose size fits each category, as solve_hierarchical does."""
    eligibility = capacity_eligibility(doc.eligibility, doc.catalog, doc.graph)
    return build_level1_instance(exposures, matrices, eligibility)


def _baseline_assignment(
    args: argparse.Namespace,
    doc: StoreDocument,
    exposures,
    matrices: TransitionMatrices,
    anchor_level1: Assignment,
):
    """Comparison layout: the --baseline plan when given, otherwise a
    seeded-random layout on the anchor's block structure."""
    if args.baseline is not None:
        return read_plan(args.baseline).assignment(), "baseline plan"
    instance = build_level2_instance(
        exposures, matrices, anchor_level1, doc.catalog, doc.graph
    )
    perm = random_assignment(instance, Random(args.seed))
    return instance.assignment_from_permutation(perm), "seeded random layout"


def _write_solve_artifacts(
    args: argparse.Namespace,
    doc: StoreDocument,
    exposures,
    matrices: TransitionMatrices,
    transactions,
    level1_assignment: Assignment,
    level1_objective: float,
    result,
    pool_summary,
    sink: _Artifacts,
) -> None:
    run_hash = _run_hash(args)
    plan = plan_from_solution(
        store_name=doc.name,
        assignment=result.assignment,
        level1_assignment=level1_assignment,
        level1_objective=level1_objective,
        level2_objective=result.objective,
        run_hash=run_hash,
        seed=args.seed,
        generator=f"solve --mode {args.mode}",
    )
    write_plan(plan, sink.register(os.path.join(args.out, "plan.json")))

    baseline, baseline_kind = _baseline_assignment(
        args, doc, exposures, matrices, level1_assignment
    )
    evaluation = evaluate_layout(
        result.assignment, exposures, matrices, doc.catalog, doc.graph, baseline=baseline
    )
    report = solve_report_text(result, run_hash, evaluation=evaluation, pool_summary=pool_summary)
    report += f"baseline kind: {baseline_kind}\n"
    _write_text(sink, os.path.join(args.out, "solve_report.txt"), report)

    for tag, layout in (("baseline", baseline), ("optimal", result.assignment)):
        walks = replay_paths(
            transactions, layout.mapping, doc.graph, doc.catalog, seed=args.seed
        )
        density = accumulate_traffic(doc.graph, walks)
        render_heatmap(
            doc.graph,
            density,
            sink.register(os.path.join(args.out, f"heatmap_{tag}.svg")),
            title=f"{doc.name}: {tag} layout traffic",
            annotation=f"config {run_hash}",
        )


def _run_solve(args: argparse.Namespace, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(args)
    if args.mode == "level1":
        pool = solve_level1(_level1_instance(doc, exposures, matrices), args.solver)
        run_hash = _run_hash(args)
        entries = [
            {
                "objective": entry.objective,
                "category_to_location": entry.assignment.shelf_mapping,
            }
            for entry in pool.entries
        ]
        payload = {
            "store": doc.name,
            "entries": entries,
            "metadata": {"config_hash": run_hash, "seed": str(args.seed)},
        }
        path = os.path.join(args.out, "level1_pool.json")
        _write_text(sink, path, json.dumps(payload, indent=2) + "\n")
        lines = [
            "strategic pool",
            f"config hash: {run_hash}",
            f"candidates: {len(pool.entries)}",
        ]
        lines += [f"  {i}: objective {e.objective:.6f}" for i, e in enumerate(pool.entries)]
        path = os.path.join(args.out, "solve_report.txt")
        _write_text(sink, path, "\n".join(lines) + "\n")
        return

    if args.mode == "level2":
        if args.baseline is None:
            raise InputError("level2 mode needs --baseline for the fixed category layout")
        level1_assignment = read_plan(args.baseline).level1_assignment()
        instance = build_level2_instance(
            exposures, matrices, level1_assignment, doc.catalog, doc.graph
        )
        _, result = solve_level2([instance], [args.seed], args.solver, RESTARTS)[0]
        l1_objective = objective(_level1_instance(doc, exposures, matrices), level1_assignment)
        _write_solve_artifacts(
            args, doc, exposures, matrices, transactions,
            level1_assignment, l1_objective, result, None, sink,
        )
        return

    result = solve_hierarchical(
        exposures, matrices, doc.eligibility, doc.catalog, doc.graph, args.solver
    )
    _write_solve_artifacts(
        args, doc, exposures, matrices, transactions,
        result.level1_assignment, result.level1_objective,
        result, list(result.candidates), sink,
    )


def _run_build_matrices(args: argparse.Namespace, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(args)
    out = args.out
    for filename, axis, matrix in (
        ("sub_exposure.tsv", exposures.sub_axis, exposures.sub_exposure),
        ("loc_exposure.tsv", exposures.loc_axis, exposures.loc_exposure),
        ("sub_distance.tsv", exposures.sub_axis, exposures.sub_distance),
        ("loc_distance.tsv", exposures.loc_axis, exposures.loc_distance),
        ("cat_transitions.tsv", matrices.cat_axis, matrices.cat_transitions),
        ("sub_transitions.tsv", matrices.sub_axis, matrices.sub_transitions),
    ):
        write_matrix_tsv(sink.register(os.path.join(out, filename)), axis, axis, matrix)
    summary = [
        "matrix build",
        f"config hash: {_run_hash(args)}",
        f"store: {doc.name}",
        f"transactions: {len(transactions)}",
        f"transition mode: {matrices.mode}",
        f"sublocation axis: {len(exposures.sub_axis)} entries",
        f"location axis: {len(exposures.loc_axis)} entries",
    ]
    _write_text(sink, os.path.join(out, "matrices_summary.txt"), "\n".join(summary) + "\n")


def _run_export_lp(args: argparse.Namespace, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(args)
    sparsify = not args.full
    for tag in args.models:
        path = sink.register(os.path.join(args.out, f"model_{tag}.lp"))
        if tag == "level1":
            instance = _level1_instance(doc, exposures, matrices)
            write_lp(linearize(instance, sparsify=sparsify), path)
        elif tag == "level2":
            if args.baseline is not None:
                level1_assignment = read_plan(args.baseline).level1_assignment()
            else:
                instance = _level1_instance(doc, exposures, matrices)
                level1_assignment = solve_level1(instance, args.solver).entries[0].assignment
            instance = build_level2_instance(
                exposures, matrices, level1_assignment, doc.catalog, doc.graph
            )
            write_lp(linearize(instance, sparsify=sparsify), path)
        else:
            eligibility = capacity_eligibility(doc.eligibility, doc.catalog, doc.graph)
            model = linearize_integrated(
                exposures, matrices, eligibility, doc.catalog, doc.graph, sparsify=sparsify
            )
            write_lp(model, path)


def _run_evaluate(args: argparse.Namespace, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(args)
    plan = read_plan(args.plans[0])
    baseline = None
    if args.baseline is not None:
        baseline = read_plan(args.baseline).assignment()
    evaluation = evaluate_layout(
        plan.assignment(), exposures, matrices, doc.catalog, doc.graph, baseline=baseline
    )
    text = evaluation_report_text(evaluation, _run_hash(args))
    _write_text(sink, os.path.join(args.out, "evaluate_report.txt"), text)
    sys.stdout.write(text)


def _run_diff(args: argparse.Namespace, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(args)
    plan_a, plan_b = (read_plan(path) for path in args.plans)
    report = diff_layouts(plan_a, plan_b, exposures, matrices, doc.catalog, doc.graph)
    text = diff_report_text(report, _run_hash(args))
    _write_text(sink, os.path.join(args.out, "diff_report.txt"), text)
    sys.stdout.write(text)


def _run_render(args: argparse.Namespace, sink: _Artifacts) -> None:
    doc, transactions = _load_store_and_baskets(args)
    plan = read_plan(args.plans[0])
    walks = replay_paths(
        transactions, plan.assignment().mapping, doc.graph, doc.catalog, seed=args.seed
    )
    density = accumulate_traffic(doc.graph, walks)
    render_heatmap(
        doc.graph,
        density,
        sink.register(os.path.join(args.out, "heatmap.svg")),
        title=f"{doc.name}: traffic",
        annotation=f"config {_run_hash(args)}",
    )


def _env_defaults() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{CONFIG_ENV} names a missing file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{CONFIG_ENV} file is not valid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise InputError(f"{CONFIG_ENV} file must hold a JSON object")
    return raw


def _add_common(sub: argparse.ArgumentParser, defaults: dict) -> None:
    sub.add_argument("--store", required="store" not in defaults,
                     default=defaults.get("store"), help="store document (JSON)")
    sub.add_argument("--transactions", required="transactions" not in defaults,
                     default=defaults.get("transactions"), help="transactions CSV")
    sub.add_argument("--out", default=defaults.get("out", "out"), help="output directory")
    sub.add_argument("--seed", type=int, default=defaults.get("seed", 0))
    sub.add_argument("--pool-size", type=int, default=defaults.get("pool_size", 10))
    sub.add_argument("--pool-gap", type=float, default=defaults.get("pool_gap", 0.001))
    sub.add_argument("--time-limit", type=float, default=defaults.get("time_limit"))
    sub.add_argument(
        "--transition-mode", choices=_TRANSITION_MODES,
        default=defaults.get("transition_mode", "expected"),
    )


def _parser(defaults: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storelayout",
        description="store layout optimization over shopper walk exposure",
    )
    # what a subcommand without these options runs with
    parser.set_defaults(mode="hierarchical", baseline=None, plans=())
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, **fixed) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        _add_common(p, defaults)
        p.set_defaults(run=run, **fixed)
        return p

    command("build-matrices", _run_build_matrices, "exposure and transition matrices as TSV")

    p = command("solve", _run_solve, "optimize a layout")
    p.add_argument("--mode", choices=_MODES, default=defaults.get("mode", "hierarchical"))
    p.add_argument("--baseline", default=defaults.get("baseline"))

    command("solve-l1", _run_solve, "strategic solve only (pool of category layouts)",
            mode="level1")

    p = command("solve-l2", _run_solve, "tactical solve under a fixed category layout",
                mode="level2")
    p.add_argument("--baseline", required=True, help="plan providing the category layout")

    p = command("export-lp", _run_export_lp, "write linearized models as LP files")
    # argparse runs the type only on a string default, so a list or number
    # from the config file goes through the tag check as its str()
    p.add_argument("--mode", dest="models", metavar="MODE", type=_model_tags,
                   default=str(defaults.get("models", "level1,level2")),
                   help="comma-separated model tags (level1,level2,integrated or all)")
    p.add_argument("--baseline", default=defaults.get("baseline"))
    p.add_argument("--full", action="store_true",
                   help="emit full index ranges instead of eligibility-sparsified models")

    # each positional plan path is appended to args.plans
    p = command("evaluate", _run_evaluate, "evaluate a layout plan")
    p.add_argument("plans", action="append", metavar="plan")
    p.add_argument("--baseline", default=defaults.get("baseline"))

    p = command("diff", _run_diff, "movement report between two plans")
    p.add_argument("plans", action="append", metavar="plan_a")
    p.add_argument("plans", action="append", metavar="plan_b")

    p = command("render", _run_render, "traffic heatmap for a plan")
    p.add_argument("plans", action="append", metavar="plan")

    return parser


def main(argv=None) -> int:
    """Run one subcommand; on failure remove its partial artifacts, report
    the error on stderr and return 2."""
    sink = _Artifacts()
    try:
        args = _parser(_env_defaults()).parse_args(argv)
        args.solver = SolverConfig(
            seed=args.seed,
            time_limit=args.time_limit,
            pool_capacity=args.pool_size,
            pool_gap=args.pool_gap,
        )
        _check(args)
        args.run(args, sink)
    except LayoutError as exc:
        sink.cleanup()
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
