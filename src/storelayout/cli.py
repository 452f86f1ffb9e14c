"""Command-line front end: ingest a store document and transactions, build
matrices, run the solvers, and write plans, reports, LP models and
traffic heatmaps.

Every subcommand resolves its inputs into a RunConfig, and run() executes
one pipeline; artifacts written before a failure are removed so an output
directory never holds a half-written run. Flag defaults may be supplied
by a JSON file named in the STORELAYOUT_CONFIG environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
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


@dataclass
class RunConfig:
    command: str
    store_path: str
    transactions_path: str
    out_dir: str
    mode: str = "hierarchical"
    transition_mode: str = "expected"
    solver: SolverConfig = field(default_factory=SolverConfig)
    baseline_path: str | None = None
    plan_paths: tuple[str, ...] = ()
    models: tuple[str, ...] = ("level1", "level2")
    full_models: bool = False

    def __post_init__(self) -> None:
        for label, path in (("store", self.store_path), ("transactions", self.transactions_path)):
            if not os.path.isfile(path):
                raise InputError(f"{label} file not found: {path}")
        if self.baseline_path is not None and not os.path.isfile(self.baseline_path):
            raise InputError(f"baseline plan not found: {self.baseline_path}")
        for plan in self.plan_paths:
            if not os.path.isfile(plan):
                raise InputError(f"layout plan not found: {plan}")
        if self.mode not in _MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.transition_mode not in _TRANSITION_MODES:
            raise InputError(f"unknown transition mode {self.transition_mode!r}")
        for tag in self.models:
            if tag not in _MODEL_TAGS:
                raise InputError(f"unknown model tag {tag!r}")
        os.makedirs(self.out_dir, exist_ok=True)
        if not os.access(self.out_dir, os.W_OK):
            raise InputError(f"output directory not writable: {self.out_dir}")

    def run_hash(self) -> str:
        return config_hash(
            {
                "command": self.command,
                "store": file_digest(self.store_path),
                "transactions": file_digest(self.transactions_path),
                "mode": self.mode,
                "transition_mode": self.transition_mode,
                "seed": self.solver.seed,
                "pool_size": self.solver.pool_capacity,
                "pool_gap": self.solver.pool_gap,
                "time_limit": self.solver.time_limit,
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


def _load_store_and_baskets(config: RunConfig):
    doc = load_store(config.store_path)
    return doc, read_transactions_csv(config.transactions_path, doc.catalog)


def _load_inputs(config: RunConfig):
    doc, transactions = _load_store_and_baskets(config)
    exposures = build_exposure_matrices(doc.graph)
    if config.transition_mode == "expected":
        matrices = expected_transitions(transactions, doc.catalog)
    else:
        matrices = sampled_transitions(transactions, doc.catalog, seed=config.solver.seed)
    return doc, transactions, exposures, matrices


def _level1_instance(doc: StoreDocument, exposures, matrices: TransitionMatrices):
    """Strategic instance under the store's eligibility, restricted to the
    locations whose size fits each category, as solve_hierarchical does."""
    eligibility = capacity_eligibility(doc.eligibility, doc.catalog, doc.graph)
    return build_level1_instance(exposures, matrices, eligibility)


def _baseline_assignment(
    config: RunConfig,
    doc: StoreDocument,
    exposures,
    matrices: TransitionMatrices,
    anchor_level1: Assignment,
):
    """Comparison layout: the --baseline plan when given, otherwise a
    seeded-random layout on the anchor's block structure."""
    if config.baseline_path is not None:
        return read_plan(config.baseline_path).assignment(), "baseline plan"
    instance = build_level2_instance(
        exposures, matrices, anchor_level1, doc.catalog, doc.graph
    )
    perm = random_assignment(instance, Random(config.solver.seed))
    return instance.assignment_from_permutation(perm), "seeded random layout"


def _write_solve_artifacts(
    config: RunConfig,
    doc: StoreDocument,
    exposures,
    matrices: TransitionMatrices,
    transactions,
    assignment: Assignment,
    level1_assignment: Assignment,
    level1_objective: float,
    result,
    pool_summary,
    sink: _Artifacts,
) -> None:
    run_hash = config.run_hash()
    plan = plan_from_solution(
        store_name=doc.name,
        assignment=assignment,
        level1_assignment=level1_assignment,
        level1_objective=level1_objective,
        level2_objective=result.objective,
        run_hash=run_hash,
        seed=config.solver.seed,
        generator=f"solve --mode {config.mode}",
    )
    write_plan(plan, sink.register(os.path.join(config.out_dir, "plan.json")))

    baseline, baseline_kind = _baseline_assignment(
        config, doc, exposures, matrices, level1_assignment
    )
    evaluation = evaluate_layout(
        assignment, exposures, matrices, doc.catalog, doc.graph, baseline=baseline
    )
    report = solve_report_text(result, run_hash, evaluation=evaluation, pool_summary=pool_summary)
    report += f"baseline kind: {baseline_kind}\n"
    _write_text(sink, os.path.join(config.out_dir, "solve_report.txt"), report)

    for tag, layout in (("baseline", baseline), ("optimal", assignment)):
        walks = replay_paths(
            transactions, layout.mapping, doc.graph, doc.catalog, seed=config.solver.seed
        )
        density = accumulate_traffic(doc.graph, walks)
        render_heatmap(
            doc.graph,
            density,
            sink.register(os.path.join(config.out_dir, f"heatmap_{tag}.svg")),
            title=f"{doc.name}: {tag} layout traffic",
            annotation=f"config {run_hash}",
        )


def _run_solve(config: RunConfig, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(config)
    if config.mode == "level1":
        pool = solve_level1(_level1_instance(doc, exposures, matrices), config.solver)
        run_hash = config.run_hash()
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
            "metadata": {"config_hash": run_hash, "seed": str(config.solver.seed)},
        }
        path = os.path.join(config.out_dir, "level1_pool.json")
        _write_text(sink, path, json.dumps(payload, indent=2) + "\n")
        lines = [
            "strategic pool",
            f"config hash: {run_hash}",
            f"candidates: {len(pool.entries)}",
        ]
        lines += [f"  {i}: objective {e.objective:.6f}" for i, e in enumerate(pool.entries)]
        path = os.path.join(config.out_dir, "solve_report.txt")
        _write_text(sink, path, "\n".join(lines) + "\n")
        return

    if config.mode == "level2":
        if config.baseline_path is None:
            raise InputError("level2 mode needs --baseline for the fixed category layout")
        anchor_plan = read_plan(config.baseline_path)
        level1_assignment = anchor_plan.level1_assignment()
        instance = build_level2_instance(
            exposures, matrices, level1_assignment, doc.catalog, doc.graph
        )
        solver = config.solver
        _, result = solve_level2([instance], [solver.seed], solver, RESTARTS)[0]
        l1_objective = objective(_level1_instance(doc, exposures, matrices), level1_assignment)
        _write_solve_artifacts(
            config, doc, exposures, matrices, transactions,
            result.assignment, level1_assignment, l1_objective,
            result, None, sink,
        )
        return

    result = solve_hierarchical(
        exposures, matrices, doc.eligibility, doc.catalog, doc.graph, config.solver
    )
    _write_solve_artifacts(
        config, doc, exposures, matrices, transactions,
        result.assignment, result.level1_assignment, result.level1_objective,
        result, list(result.candidates), sink,
    )


def _run_build_matrices(config: RunConfig, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(config)
    out = config.out_dir
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
        f"config hash: {config.run_hash()}",
        f"store: {doc.name}",
        f"transactions: {len(transactions)}",
        f"transition mode: {matrices.mode}",
        f"sublocation axis: {len(exposures.sub_axis)} entries",
        f"location axis: {len(exposures.loc_axis)} entries",
    ]
    _write_text(sink, os.path.join(out, "matrices_summary.txt"), "\n".join(summary) + "\n")


def _run_export_lp(config: RunConfig, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(config)
    sparsify = not config.full_models
    for tag in config.models:
        path = sink.register(os.path.join(config.out_dir, f"model_{tag}.lp"))
        if tag == "level1":
            instance = _level1_instance(doc, exposures, matrices)
            write_lp(linearize(instance, sparsify=sparsify), path)
        elif tag == "level2":
            if config.baseline_path is not None:
                level1_assignment = read_plan(config.baseline_path).level1_assignment()
            else:
                instance = _level1_instance(doc, exposures, matrices)
                level1_assignment = solve_level1(instance, config.solver).entries[0].assignment
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


def _run_evaluate(config: RunConfig, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(config)
    plan = read_plan(config.plan_paths[0])
    baseline = None
    if config.baseline_path is not None:
        baseline = read_plan(config.baseline_path).assignment()
    evaluation = evaluate_layout(
        plan.assignment(), exposures, matrices, doc.catalog, doc.graph, baseline=baseline
    )
    text = evaluation_report_text(evaluation, config.run_hash())
    _write_text(sink, os.path.join(config.out_dir, "evaluate_report.txt"), text)
    sys.stdout.write(text)


def _run_diff(config: RunConfig, sink: _Artifacts) -> None:
    doc, transactions, exposures, matrices = _load_inputs(config)
    plan_a = read_plan(config.plan_paths[0])
    plan_b = read_plan(config.plan_paths[1])
    report = diff_layouts(plan_a, plan_b, exposures, matrices, doc.catalog, doc.graph)
    text = diff_report_text(report, config.run_hash())
    _write_text(sink, os.path.join(config.out_dir, "diff_report.txt"), text)
    sys.stdout.write(text)


def _run_render(config: RunConfig, sink: _Artifacts) -> None:
    doc, transactions = _load_store_and_baskets(config)
    plan = read_plan(config.plan_paths[0])
    walks = replay_paths(
        transactions, plan.assignment().mapping, doc.graph, doc.catalog, seed=config.solver.seed
    )
    density = accumulate_traffic(doc.graph, walks)
    render_heatmap(
        doc.graph,
        density,
        sink.register(os.path.join(config.out_dir, "heatmap.svg")),
        title=f"{doc.name}: traffic",
        annotation=f"config {config.run_hash()}",
    )


_PIPELINES = {
    "build-matrices": _run_build_matrices,
    "solve": _run_solve,
    "export-lp": _run_export_lp,
    "evaluate": _run_evaluate,
    "diff": _run_diff,
    "render": _run_render,
}


def run(config: RunConfig) -> int:
    """Execute one pipeline; on failure remove partial artifacts and report
    the error on stderr."""
    sink = _Artifacts()
    try:
        _PIPELINES[config.command](config, sink)
    except LayoutError as exc:
        sink.cleanup()
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-matrices", help="exposure and transition matrices as TSV")
    _add_common(p, defaults)

    p = sub.add_parser("solve", help="optimize a layout")
    _add_common(p, defaults)
    p.add_argument("--mode", choices=_MODES, default=defaults.get("mode", "hierarchical"))
    p.add_argument("--baseline", default=defaults.get("baseline"))

    p = sub.add_parser("solve-l1", help="strategic solve only (pool of category layouts)")
    _add_common(p, defaults)

    p = sub.add_parser("solve-l2", help="tactical solve under a fixed category layout")
    _add_common(p, defaults)
    p.add_argument("--baseline", required=True, help="plan providing the category layout")

    p = sub.add_parser("export-lp", help="write linearized models as LP files")
    _add_common(p, defaults)
    p.add_argument("--mode", default=defaults.get("models", "level1,level2"),
                   help="comma-separated model tags (level1,level2,integrated or all)")
    p.add_argument("--baseline", default=defaults.get("baseline"))
    p.add_argument("--full", action="store_true",
                   help="emit full index ranges instead of eligibility-sparsified models")

    p = sub.add_parser("evaluate", help="evaluate a layout plan")
    p.add_argument("plan")
    _add_common(p, defaults)
    p.add_argument("--baseline", default=defaults.get("baseline"))

    p = sub.add_parser("diff", help="movement report between two plans")
    p.add_argument("plan_a")
    p.add_argument("plan_b")
    _add_common(p, defaults)

    p = sub.add_parser("render", help="traffic heatmap for a plan")
    p.add_argument("plan")
    _add_common(p, defaults)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    solver = SolverConfig(
        seed=args.seed,
        time_limit=args.time_limit,
        pool_capacity=args.pool_size,
        pool_gap=args.pool_gap,
    )
    command = args.command
    mode = "hierarchical"
    models: tuple[str, ...] = ()
    plan_paths: tuple[str, ...] = ()
    baseline = getattr(args, "baseline", None)
    if command == "solve":
        mode = args.mode
    elif command == "solve-l1":
        command, mode = "solve", "level1"
    elif command == "solve-l2":
        command, mode = "solve", "level2"
    elif command == "export-lp":
        raw = args.mode
        models = tuple(_MODEL_TAGS) if raw == "all" else tuple(
            t.strip() for t in raw.split(",") if t.strip()
        )
    elif command == "evaluate":
        plan_paths = (args.plan,)
    elif command == "diff":
        plan_paths = (args.plan_a, args.plan_b)
    elif command == "render":
        plan_paths = (args.plan,)
    return RunConfig(
        command=command,
        store_path=args.store,
        transactions_path=args.transactions,
        out_dir=args.out,
        mode=mode,
        transition_mode=args.transition_mode,
        solver=solver,
        baseline_path=baseline,
        plan_paths=plan_paths,
        models=models or ("level1", "level2"),
        full_models=getattr(args, "full", False),
    )


def main(argv=None) -> int:
    try:
        defaults = _env_defaults()
        args = _parser(defaults).parse_args(argv)
        config = _config_from_args(args)
    except LayoutError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
