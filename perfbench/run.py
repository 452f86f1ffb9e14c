"""Benchmark of the storelayout package: four workloads, checked outputs,
one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload solve-k1 --seed 413 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

    solve-k1      storelayout solve --pool-size 1 on the bundled store, 600 baskets
    solve-k10     the same inputs with --pool-size 10 (the README quick start)
    baskets-6k    evaluate + render + build-matrices --transition-mode sampled,
                  6,000 baskets, on the bundled as-is plan
    export-lp     export-lp --mode all --baseline <as-is plan>, 600 baskets

Baskets are generated from ``--seed`` with
``storelayout.synthetic.build_synthetic_transactions``; the program only sees
the generated CSV file, and the same seed is passed to it as ``--seed``. Each
operation calls the command-line entry point ``storelayout.cli.main`` in this
process; operations repeat until ``--seconds`` of measured time is used.

With ``--trace 0`` the result line carries the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer metrics, read from spans
recorded by wrapping the package's public functions (perfbench/spans.py).
Every output is checked outside the timed region; checks that fail are
counted in ``failed``. A readable summary, the environment record and the
check log are printed before the result line, and written with the spans
under ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# One compute thread, as the workloads are defined; BLAS reads this at import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
# Pinned timestamps make plan.json byte-identical across runs of one seed.
os.environ["SOURCE_DATE_EPOCH"] = "0"

import argparse
import contextlib
import csv
import functools
import gc
import hashlib
import heapq
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STORE = ROOT / "fixtures" / "synthetic_store.json"
AS_IS_PLAN = ROOT / "fixtures" / "current_layout.json"
ANCHOR_CSV = ROOT / "fixtures" / "synthetic_transactions.csv"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench"

# Seed and size of the bundled basket file, and the tactical objective that
# solve reaches on it at pool sizes 1 and 10, with the CLI's default tabu
# budget and with the scaled one below. A plan for these inputs must not be
# worse.
ANCHOR_SEED = 413
ANCHOR_BASKETS = 600
ANCHOR_OBJECTIVE_L2 = 17340.644047619047

# Tabu iterations per restart in the solve workloads: 3/50 of the CLI
# default (50,000), so one solve fits many times into a run. The share of
# each solver level in the run is unchanged by the scale (README.md).
ITERATION_LIMIT = 3_000

# The host's speed drifts and flips between levels up to 1.6x apart
# (README.md), so command_s and setup_s are scaled to a fixed nominal speed:
# each measured wall time times CALIBRATION_NOMINAL_S over the time of the
# calibration kernel, run just before and just after it. The nominal value
# is the kernel's typical time on the host of the recorded baseline.
CALIBRATION_NOMINAL_S = 0.09

SETUP_SAMPLES = 3
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import storelayout.cli; "
    "from storelayout.storefile import load_store; load_store(sys.argv[2])"
)


@dataclass
class Workload:
    name: str
    kind: str  # "solve", "baskets" or "export"
    baskets: int
    pool_size: int | None = None
    # solve checks that plan.json is byte-identical between operations
    min_ops: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-k1", "solve", 600, pool_size=1, min_ops=2),
        Workload("solve-k10", "solve", 600, pool_size=10, min_ops=2),
        Workload("baskets-6k", "baskets", 6_000),
        Workload("export-lp", "export", 600),
    )
}


@dataclass
class Checks:
    """Correctness log: every check is attempted once and may fail."""

    attempted: int = 0
    failed: int = 0
    lines: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.lines.append(f"{'ok  ' if ok else 'FAIL'} {what}")
        return ok


def _die(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "storelayout").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def measure_setup() -> list[dict]:
    """Time from process start until storelayout is imported and the bundled
    store is loaded, in fresh interpreters, with the calibration kernel run
    before and after each start. The first, unrecorded start fills the
    bytecode and file caches."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(STORE)]
    subprocess.run(cmd, check=True, timeout=120)
    samples = []
    before = calibration_s()
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        wall = perf_counter() - t0
        after = calibration_s()
        cal = (before + after) / 2
        samples.append({"wall_s": wall, "calibration_s": cal, "scaled_s": wall * CALIBRATION_NOMINAL_S / cal})
        before = after
    return samples


def calibration_s() -> float:
    """Wall time of a fixed kernel made of the three kinds of work the
    workloads do: exact rational sums, heap-ordered path search over tuples,
    and small NumPy products with fancy indexing."""
    import numpy as np

    matrix = np.arange(2500.0).reshape(50, 50) / 2500.0
    rev = np.arange(50)[::-1]
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(1, i % 7 + 1)
    for _ in range(60):
        best = {0: (0.0, (0,))}
        heap = [(0.0, (0,), 0)]
        while heap:
            dist, path, u = heapq.heappop(heap)
            if best[u][0] < dist:
                continue
            for v in ((u * 7 + 1) % 200, (u * 13 + 5) % 200, (u + 1) % 200):
                cand = (dist + 1.5, path + (v,))
                if v not in best or cand < best[v]:
                    best[v] = cand
                    heapq.heappush(heap, (cand[0], cand[1], v))
    acc = 0.0
    for _ in range(1500):
        acc += float((matrix[np.ix_(rev, rev)] @ matrix).trace())
    return perf_counter() - t0


def baskets_csv(records) -> bytes:
    """Basket CSV in the layout of the bundled fixture file."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["transaction_id", "subcategory_id"])
    writer.writerows(records)
    return buf.getvalue().encode("utf-8")


class Run:
    """One benchmark run: inputs, operations, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        from storelayout import cli, solvers
        from storelayout.storefile import load_store
        from storelayout.synthetic import build_synthetic_transactions

        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.cli = cli
        self.checks = Checks()
        self.dir = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        # The solve workloads run at the scaled tabu budget; every other
        # solver setting is the CLI default.
        cli.SolverConfig = functools.partial(solvers.SolverConfig, iteration_limit=ITERATION_LIMIT)

        self.doc = load_store(str(STORE))
        anchor = build_synthetic_transactions(self.doc.catalog, ANCHOR_BASKETS, ANCHOR_SEED)
        self.checks.check(
            baskets_csv(anchor) == ANCHOR_CSV.read_bytes(),
            f"seed {ANCHOR_SEED} x {ANCHOR_BASKETS} baskets reproduce {ANCHOR_CSV.name} byte for byte",
        )
        self.baskets = self.dir / "baskets.csv"
        self.baskets.write_bytes(
            baskets_csv(build_synthetic_transactions(self.doc.catalog, workload.baskets, seed))
        )
        self.inputs = {"baskets.csv": _sha256(self.baskets)}
        # objectives, config hash and first plan.json read off the outputs
        self.results: dict[str, object] = {}
        # spans of each traced operation
        self.traced_ops: list[list] = []
        # wall time and calibration of each operation
        self.raw: list[dict] = []

    # -- operations ------------------------------------------------------------

    def argvs(self, out: Path) -> list[list[str]]:
        common = [
            "--store", str(STORE), "--transactions", str(self.baskets), "--seed", str(self.seed),
        ]
        if self.w.kind == "solve":
            return [["solve", *common, "--out", str(out), "--pool-size", str(self.w.pool_size)]]
        if self.w.kind == "baskets":
            return [
                ["evaluate", str(AS_IS_PLAN), *common, "--out", str(out / "evaluate")],
                ["render", str(AS_IS_PLAN), *common, "--out", str(out / "render")],
                ["build-matrices", *common, "--out", str(out / "matrices"),
                 "--transition-mode", "sampled"],
            ]
        return [
            ["export-lp", *common, "--out", str(out), "--mode", "all",
             "--baseline", str(AS_IS_PLAN)],
        ]

    def operation(self, index: int, tracer=None) -> float:
        """Run the workload's commands once; returns their wall time."""
        out = self.dir / f"op{index}"
        argvs = self.argvs(out)
        gc.collect()
        codes = []
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install()
        try:
            # evaluate and diff also print their report; keep it off the result stream
            quiet = contextlib.redirect_stdout(io.StringIO())
            t0 = perf_counter()
            with quiet:
                for argv in argvs:
                    if tracer is None:
                        codes.append(self.cli.main(argv))
                    else:
                        codes.append(tracer.span("cli.main", self.cli.main, argv)[0])
            elapsed = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
                self.traced_ops.append(tracer.spans[first:])
        for argv, code in zip(argvs, codes):
            self.checks.check(code == 0, f"op {index}: storelayout {argv[0]} exits 0")
        self.check_outputs(index, out)
        return elapsed

    def measure(self, tracer=None) -> tuple[list[float], list[float]]:
        """Repeat operations until the measured time would pass --seconds.
        Returns the scaled operation times (untraced, traced); untraced runs
        give an empty traced list, traced runs alternate an untraced and a
        traced operation. Raw times and calibrations stay in ``self.raw``."""
        plain: list[float] = []
        traced: list[float] = []
        spent = 0.0
        before = calibration_s()
        while True:
            for times, with_tracer in ((plain, None), (traced, tracer)):
                if times is traced and tracer is None:
                    continue
                wall = self.operation(len(plain) + len(traced), with_tracer)
                after = calibration_s()
                cal = (before + after) / 2
                self.raw.append({"wall_s": wall, "calibration_s": cal, "traced": times is traced})
                times.append(wall * CALIBRATION_NOMINAL_S / cal)
                spent += wall
                before = after
            step = spent / len(self.raw) * (2 if traced else 1)
            if len(plain) >= self.w.min_ops and spent + step > self.seconds:
                return plain, traced

    # -- checks ----------------------------------------------------------------

    def check_outputs(self, index: int, out: Path) -> None:
        if self.w.kind == "solve":
            self.check_solve(index, out)
        elif self.w.kind == "baskets":
            self.check_baskets(index, out)
        else:
            self.check_export(index, out)
            shutil.rmtree(out, ignore_errors=True)

    @functools.cached_property
    def direct(self):
        """Transactions, exposure and expected transition matrices,
        computed here by direct library calls."""
        from storelayout.demand import expected_transitions, read_transactions_csv
        from storelayout.store import build_exposure_matrices

        txns = read_transactions_csv(str(self.baskets), self.doc.catalog)
        return (
            txns,
            build_exposure_matrices(self.doc.graph),
            expected_transitions(txns, self.doc.catalog),
        )

    def check_solve(self, index: int, out: Path) -> None:
        from storelayout.errors import LayoutError
        from storelayout.report import read_plan
        from storelayout.solvers import evaluate_layout

        plan_path = out / "plan.json"
        if not self.checks.check(plan_path.is_file(), f"op {index}: plan.json written"):
            return
        for name in ("solve_report.txt", "heatmap_baseline.svg", "heatmap_optimal.svg"):
            self.checks.check((out / name).is_file(), f"op {index}: {name} written")
        plan = read_plan(str(plan_path))
        _, exposures, matrices = self.direct
        try:
            rescored = evaluate_layout(
                plan.assignment(), exposures, matrices, self.doc.catalog, self.doc.graph
            ).objective
        except LayoutError as exc:
            self.checks.check(False, f"op {index}: plan.json is feasible ({exc})")
            return
        l2 = plan.level2_objective
        self.checks.check(
            abs(rescored - l2) <= 1e-9 * abs(l2),
            f"op {index}: re-scored exposure {rescored!r} matches level2 objective {l2!r}",
        )
        as_is = evaluate_layout(
            read_plan(str(AS_IS_PLAN)).assignment(), exposures, matrices,
            self.doc.catalog, self.doc.graph,
        ).objective
        self.checks.check(l2 > as_is, f"op {index}: plan beats the as-is layout ({l2:.6f} > {as_is:.6f})")
        if index == 0:
            self.results.update(
                objective_l1=plan.level1_objective,
                objective_l2=l2,
                as_is_objective=as_is,
                config_hash=plan.metadata.get("config_hash"),
                plan_bytes=plan_path.read_bytes(),
            )
            if self.seed == ANCHOR_SEED:
                self.checks.check(
                    l2 >= ANCHOR_OBJECTIVE_L2 * (1 - 1e-12),
                    f"seed {ANCHOR_SEED}: objective_l2 {l2!r} >= {ANCHOR_OBJECTIVE_L2!r}",
                )
        else:
            self.checks.check(
                plan_path.read_bytes() == self.results["plan_bytes"],
                f"op {index}: plan.json byte-identical to op 0",
            )

    def check_baskets(self, index: int, out: Path) -> None:
        from storelayout.report import read_plan
        from storelayout.solvers import evaluate_layout

        sizes = [len(t.subcategory_ids) for t in self.direct[0]]
        legs = sum(s + 1 for s in sizes)
        tsv = out / "matrices" / "sub_transitions.tsv"
        if self.checks.check(tsv.is_file(), f"op {index}: sub_transitions.tsv written"):
            with open(tsv, encoding="utf-8") as fh:
                next(fh)
                total = sum(Fraction(cell) for line in fh for cell in line.split("\t")[1:])
            self.checks.check(
                total == legs, f"op {index}: sampled transitions sum to {total} = sum(size + 1) = {legs}"
            )
        self.checks.check((out / "render" / "heatmap.svg").is_file(), f"op {index}: heatmap.svg written")
        report = out / "evaluate" / "evaluate_report.txt"
        if not self.checks.check(report.is_file(), f"op {index}: evaluate_report.txt written"):
            return
        if "evaluation" not in self.results:
            txns, exposures, matrices = self.direct
            cats = sum(len({self.doc.catalog.category_of(s) for s in t.subcategory_ids}) + 1 for t in txns)
            self.checks.check(
                matrices.exact_mass("subcategory") == legs,
                f"expected subcategory transitions have exact mass sum(size + 1) = {legs}",
            )
            self.checks.check(
                matrices.exact_mass("category") == cats,
                f"expected category transitions have exact mass sum(categories + 1) = {cats}",
            )
            self.results["evaluation"] = evaluate_layout(
                read_plan(str(AS_IS_PLAN)).assignment(), exposures, matrices,
                self.doc.catalog, self.doc.graph,
            ).objective
            self.results["objective_l2"] = self.results["evaluation"]
        want = f"total exposure: {self.results['evaluation']:.6f}"
        self.checks.check(
            want in report.read_text(encoding="utf-8").splitlines(),
            f"op {index}: evaluate_report.txt states '{want}'",
        )

    def check_export(self, index: int, out: Path) -> None:
        for tag in ("level1", "level2", "integrated"):
            path = out / f"model_{tag}.lp"
            ok = path.is_file()
            if ok:
                with open(path, "rb") as fh:
                    fh.seek(max(0, path.stat().st_size - 4))
                    ok = fh.read() == b"End\n"
            self.checks.check(ok, f"op {index}: model_{tag}.lp ends in End")
        if index == 0:
            self.check_solution_round_trip(out)

    def check_solution_round_trip(self, out: Path) -> None:
        """The as-is layout, written as a solution file of the level2 model,
        validates feasible with the linear objective equal to the quadratic."""
        from storelayout.linearize import (
            linearize, parse_solution_file, validate_solution, variable_name, write_lp,
        )
        from storelayout.qap import build_level2_instance
        from storelayout.report import read_plan

        _, exposures, matrices = self.direct
        plan = read_plan(str(AS_IS_PLAN))
        instance = build_level2_instance(
            exposures, matrices, plan.level1_assignment(), self.doc.catalog, self.doc.graph
        )
        model = linearize(instance, sparsify=True)
        mine = self.dir / "level2_check.lp"
        write_lp(model, str(mine))
        self.checks.check(
            mine.read_bytes() == (out / "model_level2.lp").read_bytes(),
            "model_level2.lp equals the level2 model built here",
        )
        perm = instance.permutation_of(plan.assignment())
        active = {variable_name("z", i, int(k)) for i, k in enumerate(perm)}
        lines = [f"{name} {1 if name in active else 0}" for name in model.binary_names]
        lines += [
            f"{variable_name('y', i1, int(perm[i1]), i2, int(perm[i2]))} 1"
            for i1 in range(instance.n)
            for i2 in range(instance.n)
            if i1 != i2
        ]
        sol = self.dir / "as_is.sol"
        sol.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = validate_solution(instance, model, parse_solution_file(str(sol)))
        gap = report.objective_gap
        self.checks.check(
            report.feasible and gap is not None and gap <= 1e-6,
            f"as-is solution validates against the level2 model (feasible={report.feasible}, gap={gap})",
        )
        self.results["objective_l2"] = report.quadratic_objective


# -- metrics -------------------------------------------------------------------------


# What each workload was chosen to exercise: summary keys whose sum, as a
# share of the traced command time, is reported as workload.target_share_pct.
TARGETS = {
    "solve-k1": ("solvers.solve_level1.s",),
    "solve-k10": ("solvers.tabu_search.level2.s",),
    "baskets-6k": ("layer.demand.self_s", "layer.store.self_s"),
    "export-lp": ("layer.linearize.self_s",),
}


def target_share(workload: str, summary: dict) -> float:
    part = sum(summary.get(key, 0.0) for key in TARGETS[workload])
    return 100.0 * part / summary["cli.main.s"]


def per_layer(workload: str, summaries: list[dict], plain: list[float], traced: list[float]) -> dict:
    """Median over traced operations of every summarized value, plus the
    derived rates, aliases and shares named in BENCHMARK.json."""
    keys = set().union(*summaries)
    med = {k: statistics.median(s.get(k, 0.0) for s in summaries) for k in keys}
    for level in ("level1", "level2"):
        secs = med.get(f"solvers.tabu_search.{level}.s", 0.0)
        iters = med.get(f"solvers.tabu_search.{level}.iterations", 0.0)
        med[f"solvers.tabu_search.{level}.iters_per_s"] = iters / secs if secs else 0.0
    med["solvers.tactical.candidates"] = med.get("solvers.tabu_search.level2.calls", 0.0)
    med["solvers.tactical.tabu_improved"] = med.get("solvers.tabu_search.level2.improved", 0.0)
    med["solvers.pool.distinct_l2_objectives"] = med.get(
        "solvers.solve_hierarchical.distinct_l2_objectives", 0.0
    )
    med["solvers.objective_l1"] = med.get("solvers.solve_level1.objective", 0.0)
    med["solvers.objective_l2"] = med.get("solvers.solve_hierarchical.objective", 0.0)
    for tag in ("level1", "level2", "integrated"):
        med[f"linearize.model.{tag}.rows"] = med.get(f"linearize.write_lp.{tag}.rows", 0.0)
        med[f"linearize.model.{tag}.vars"] = med.get(f"linearize.write_lp.{tag}.vars", 0.0)
    med["workload.target_share_pct"] = statistics.median(
        target_share(workload, s) for s in summaries
    )
    med["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ANCHOR_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "storelayout" / "cli.py", STORE, AS_IS_PLAN, ANCHOR_CSV, SPEC):
        if not needed.is_file():
            _die(f"{needed.relative_to(ROOT)} not found; run from a checkout of the repository")
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    setup = measure_setup()

    import numpy
    import scipy

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds)
    tracer = None
    if args.trace:
        from spans import Tracer, summarize

        tracer = Tracer()
    try:
        plain, traced = run.measure(tracer)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "baskets": workload.baskets,
        "pool_size": workload.pool_size,
        "iteration_limit": ITERATION_LIMIT,
        "config_hash": run.results.get("config_hash"),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "inputs_sha256": run.inputs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    end_to_end = {
        "setup_s": statistics.median(sample["scaled_s"] for sample in setup),
        "command_s": statistics.median(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "env": env,
        "setup_s": setup,
        "command_s": plain,
        "operations": run.raw,
        "baskets_per_s": workload.baskets / end_to_end["command_s"],
        "end_to_end": end_to_end,
        "objectives": {
            k: run.results[k] for k in ("objective_l1", "objective_l2", "as_is_objective") if k in run.results
        },
        "checks": run.checks.lines,
    }
    if tracer is not None:
        layer = per_layer(workload.name, [summarize(op) for op in run.traced_ops], plain, traced)
        record["traced_command_s"] = traced
        record["per_layer"] = layer
        tracer.dump(str(results / f"{stem}.spans.json"))
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    walls = [op["wall_s"] for op in run.raw if not op["traced"]]
    print(
        f"workload {workload.name}, seed {args.seed}, {len(plain)} operations, "
        f"median wall time {statistics.median(walls):.3f} s, "
        f"{record['baskets_per_s']:.1f} baskets/s"
    )
    for line in run.checks.lines:
        print(f"  {line}")
    print("env " + json.dumps(env, sort_keys=True))
    print("objectives " + json.dumps(record["objectives"], sort_keys=True))
    if args.trace:
        wanted = spec["per_layer"]
        values = record["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = end_to_end
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        extra = f", {m['better']} is better" if "better" in m else ""
        print(f"  {m['name']} = {value:.6g} {m['unit']}{extra}")
    print(
        json.dumps(
            {
                "correct": run.checks.failed == 0,
                "attempted": run.checks.attempted,
                "failed": run.checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
