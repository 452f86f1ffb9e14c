"""Command-line front end: ingest a store document and transactions, build
matrices, run the solvers, and write plans, reports, LP models and
traffic heatmaps.

The parsed arguments are the run's configuration: each subcommand names its
own handler and takes only the options that handler reads, and the handler
reads the arguments directly. main() checks the input files and the output
directory before any handler runs, and removes the artifacts written before
any failure, so an output directory never holds a half-written run. The
handler runs with the cyclic garbage collector paused: almost all of a
command's objects are acyclic and freed by reference counting, and each
collector pass would walk its live transactions and matrices again.
Arguments may also come from a file named with an @ prefix (`storelayout
solve @run.args --seed 5`), one argument per line; they pass the same type
and choice checks as typed flags, and a later flag wins.
"""

from __future__ import annotations

import argparse
import gc
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
    """Fail on a missing input file or an unwritable output directory
    before any handler runs."""
    for label, path in (("store", args.store), ("transactions", args.transactions)):
        if not os.path.isfile(path):
            raise InputError(f"{label} file not found: {path}")
    if args.baseline is not None and not os.path.isfile(args.baseline):
        raise InputError(f"baseline plan not found: {args.baseline}")
    for plan in args.plans:
        if not os.path.isfile(plan):
            raise InputError(f"layout plan not found: {plan}")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise InputError(f"cannot create output directory {args.out}: {exc.strerror}") from None
    if not os.access(args.out, os.W_OK):
        raise InputError(f"output directory not writable: {args.out}")


def _run_hash(args: argparse.Namespace) -> str:
    return config_hash(
        {
            "command": args.command,
            "store": file_digest(args.store),
            "transactions": file_digest(args.transactions),
            "transition_mode": args.transition_mode,
            "seed": args.seed,
            "pool_size": args.pool_size,
            "pool_gap": args.pool_gap,
            "time_limit": args.time_limit,
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
        generator=args.command,
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
    result = solve_hierarchical(
        exposures, matrices, doc.eligibility, doc.catalog, doc.graph, args.solver
    )
    _write_solve_artifacts(
        args, doc, exposures, matrices, transactions,
        result.level1_assignment, result.level1_objective,
        result, list(result.candidates), sink,
    )


def _run_solve_l1(args: argparse.Namespace, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(args)
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
    lines += [f"note: {note}" for note in pool.notes]
    path = os.path.join(args.out, "solve_report.txt")
    _write_text(sink, path, "\n".join(lines) + "\n")


def _run_solve_l2(args: argparse.Namespace, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(args)
    level1_assignment = read_plan(args.baseline).level1_assignment()
    instance = build_level2_instance(
        exposures, matrices, level1_assignment, doc.catalog, doc.graph
    )
    [result] = solve_level2([instance], [args.seed], args.solver, RESTARTS)
    l1_objective = objective(_level1_instance(doc, exposures, matrices), level1_assignment)
    _write_solve_artifacts(
        args, doc, exposures, matrices, transactions,
        level1_assignment, l1_objective, result, None, sink,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storelayout",
        description="store layout optimization over shopper walk exposure",
        fromfile_prefix_chars="@",
    )
    # the value of each option that a subcommand lacks or a run does not
    # give, and so what _run_hash hashes for it, whichever command runs
    parser.set_defaults(
        baseline=None, plans=(), transition_mode="expected",
        time_limit=None, pool_size=10, pool_gap=0.001,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--transition-mode": {"choices": _TRANSITION_MODES},
        "--time-limit": {"type": float},
        "--pool-size": {"type": int},
        "--pool-gap": {"type": float},
        "--baseline": {},
    }

    # each subcommand names its handler, looked up when main runs it, and
    # takes only the options of ``shared`` that its handler reads
    def command(name: str, run: str, help: str, options) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--store", required=True, help="store document (JSON)")
        p.add_argument("--transactions", required=True, help="transactions CSV")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        for option in options:
            p.add_argument(option, default=argparse.SUPPRESS, **shared[option])
        p.set_defaults(run=run)
        return p

    pooled = ("--transition-mode", "--time-limit", "--pool-size", "--pool-gap")
    command("build-matrices", "_run_build_matrices", "exposure and transition matrices as TSV",
            ["--transition-mode"])
    command("solve", "_run_solve", "optimize a layout", [*pooled, "--baseline"])
    command("solve-l1", "_run_solve_l1", "strategic solve only (pool of category layouts)",
            pooled)

    p = command("solve-l2", "_run_solve_l2", "tactical solve under a fixed category layout",
                ["--transition-mode", "--time-limit"])
    p.add_argument("--baseline", required=True, help="plan providing the category layout")

    # the pool options shape the strategic solve of a level2 model without --baseline
    p = command("export-lp", "_run_export_lp", "write linearized models as LP files",
                [*pooled, "--baseline"])
    p.add_argument("--mode", dest="models", metavar="MODE", type=_model_tags,
                   default="level1,level2",
                   help="comma-separated model tags (level1,level2,integrated or all)")
    p.add_argument("--full", action="store_true",
                   help="emit full index ranges instead of eligibility-sparsified models")

    # each positional plan path is appended to args.plans
    p = command("evaluate", "_run_evaluate", "evaluate a layout plan",
                ["--transition-mode", "--baseline"])
    p.add_argument("plans", action="append", metavar="plan")

    p = command("diff", "_run_diff", "movement report between two plans", ["--transition-mode"])
    p.add_argument("plans", action="append", metavar="plan_a")
    p.add_argument("plans", action="append", metavar="plan_b")

    p = command("render", "_run_render", "traffic heatmap for a plan", [])
    p.add_argument("plans", action="append", metavar="plan")

    return parser


_built_parser: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built by the first call and kept: parsing
    leaves it unchanged, and a process that runs several commands builds
    its nine subparsers once."""
    global _built_parser
    if _built_parser is None:
        _built_parser = _build_parser()
    return _built_parser


def main(argv=None) -> int:
    """Run one subcommand with the cyclic collector paused; on failure
    remove its partial artifacts, report the error on stderr and return 2.
    Any other exception removes them as well and is raised again. The
    collector is enabled again on every exit if it was enabled on entry."""
    sink = _Artifacts()
    try:
        try:
            args = _parser().parse_args(argv)
        except UnicodeDecodeError as exc:
            # before Python 3.12 argparse decodes an @file strictly in the
            # locale's encoding and lets a decode error escape
            raise InputError(f"argument file is not {exc.encoding} text ({exc.reason})") from None
        args.solver = SolverConfig(
            seed=args.seed,
            time_limit=args.time_limit,
            pool_capacity=args.pool_size,
            pool_gap=args.pool_gap,
        )
        _check(args)
        collecting = gc.isenabled()
        gc.disable()
        try:
            globals()[args.run](args, sink)
        finally:
            if collecting:
                gc.enable()
    except LayoutError as exc:
        sink.cleanup()
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:  # say, a directory where an artifact goes
        sink.cleanup()
        where = "" if exc.filename is None else f"{exc.filename}: "
        sys.stderr.write(f"error: {where}{exc.strerror or exc}\n")
        return 2
    except BaseException:
        sink.cleanup()
        raise
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
