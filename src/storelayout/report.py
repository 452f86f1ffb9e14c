"""Layout plans, solve reports, layout diffs and matrix exports.

A LayoutPlan is the durable artifact of a solve: both assignment maps,
the objective at each level, and enough metadata (config hash, seed,
timestamp, tool version) to reproduce the run. Plans round-trip through
JSON losslessly, and all text artifacts are deterministic; set
SOURCE_DATE_EPOCH to pin the embedded timestamp (wall-clock durations
are then omitted so reruns are byte-identical).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .demand import Catalog, TransitionMatrices
from .errors import InputError, ParseError, ValidationError
from .qap import Assignment, objective_of_permutation
from .solvers import ExposureReport, SolveResult, layout_instance
from .store import ExposureMatrices, StoreGraph


def reproducible_epoch() -> int | None:
    """Pinned timestamp from SOURCE_DATE_EPOCH, if the caller set one."""
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"SOURCE_DATE_EPOCH must be an integer, got {raw!r}") from None


def timestamp() -> str:
    epoch = reproducible_epoch()
    when = (
        datetime.fromtimestamp(epoch, tz=timezone.utc)
        if epoch is not None
        else datetime.now(tz=timezone.utc)
    )
    return when.strftime("%Y-%m-%dT%H:%M:%SZ")


def config_hash(payload: dict) -> str:
    """Short stable digest of a run's resolved configuration."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


@dataclass
class LayoutPlan:
    store_name: str
    category_to_location: dict[str, str]
    subcategory_to_sublocation: dict[str, str]
    level1_objective: float
    level2_objective: float
    metadata: dict[str, str] = field(default_factory=dict)

    def assignment(self) -> Assignment:
        return Assignment.pinned(self.subcategory_to_sublocation)

    def level1_assignment(self) -> Assignment:
        return Assignment.pinned(self.category_to_location)


_REQUIRED_METADATA = ("config_hash", "seed", "created", "tool_version")


def plan_from_solution(
    store_name: str,
    assignment: Assignment,
    level1_assignment: Assignment,
    level1_objective: float,
    level2_objective: float,
    run_hash: str,
    seed: int,
    generator: str,
) -> LayoutPlan:
    return LayoutPlan(
        store_name=store_name,
        category_to_location=level1_assignment.shelf_mapping,
        subcategory_to_sublocation=assignment.shelf_mapping,
        level1_objective=level1_objective,
        level2_objective=level2_objective,
        metadata={
            "config_hash": run_hash,
            "seed": str(seed),
            "created": timestamp(),
            "tool_version": __version__,
            "generator": generator,
        },
    )


def write_plan(plan: LayoutPlan, path: str) -> None:
    for key in _REQUIRED_METADATA:
        if key not in plan.metadata:
            raise ValidationError(f"plan metadata is missing {key!r}")
    doc = {
        "store": plan.store_name,
        "category_to_location": dict(sorted(plan.category_to_location.items())),
        "subcategory_to_sublocation": dict(sorted(plan.subcategory_to_sublocation.items())),
        "objectives": {
            "level1": plan.level1_objective,
            "level2": plan.level2_objective,
        },
        "metadata": dict(sorted(plan.metadata.items())),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_plan(path: str) -> LayoutPlan:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"layout plan not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    try:
        plan = LayoutPlan(
            store_name=raw["store"],
            category_to_location=dict(raw["category_to_location"]),
            subcategory_to_sublocation=dict(raw["subcategory_to_sublocation"]),
            level1_objective=float(raw["objectives"]["level1"]),
            level2_objective=float(raw["objectives"]["level2"]),
            metadata=dict(raw.get("metadata", {})),
        )
    except KeyError as exc:
        raise ParseError(f"plan is missing field {exc}", path=path) from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"plan has a malformed field: {exc}", path=path) from None
    missing = [k for k in _REQUIRED_METADATA if k not in plan.metadata]
    if missing:
        raise ValidationError(f"{path}: plan metadata is missing {', '.join(missing)}")
    return plan


# -- solve report -------------------------------------------------------------------


def format_pct(value: float) -> str:
    return f"{value:+.1f}%"


def solve_report_text(
    result: SolveResult,
    run_hash: str,
    evaluation: ExposureReport | None = None,
    pool_summary: list[tuple[int, float, float]] | None = None,
) -> str:
    """Table-style text report of a solve: objective, gap, trace, and the
    exposure evaluation with one-decimal percentage deltas."""
    reproducible = reproducible_epoch() is not None
    lines = [
        "solve report",
        f"config hash: {run_hash}",
        f"solver: {result.solver}",
        f"objective: {result.objective:.6f}",
    ]
    if result.bound is not None:
        lines.append(f"bound: {result.bound:.6f}")
        lines.append(f"optimality gap: {100.0 * (result.gap or 0.0):.1f}%")
    else:
        lines.append("bound: none (heuristic result)")
    lines.append(f"certified optimal: {'yes' if result.certified else 'no'}")
    if not reproducible:
        lines.append(f"wall time: {result.wall_time:.2f}s")
    lines.append(
        f"trace: iterations={result.iterations} restarts={result.restarts} nodes={result.nodes}"
    )
    for note in result.notes:
        lines.append(f"note: {note}")
    if pool_summary:
        lines.append(f"strategic pool: {len(pool_summary)} candidates")
        for idx, l1_obj, l2_obj in pool_summary:
            lines.append(
                f"  candidate {idx}: strategic objective {l1_obj:.6f}, refined {l2_obj:.6f}"
            )
    if evaluation is not None:
        lines.extend(_evaluation_lines(evaluation))
    return "\n".join(lines) + "\n"


def _evaluation_lines(evaluation: ExposureReport) -> list[str]:
    """Exposure, travel distance and, against a baseline, their deltas."""
    lines = [
        f"total exposure: {evaluation.objective:.6f}",
        f"expected travel distance: {evaluation.travel_distance:.6f}",
        f"transactions: {evaluation.transaction_count}",
    ]
    if evaluation.baseline_objective is not None:
        lines.append(f"baseline exposure: {evaluation.baseline_objective:.6f}")
        if evaluation.exposure_delta_pct is not None:
            lines.append(f"exposure delta: {format_pct(evaluation.exposure_delta_pct)}")
        lines.append(f"baseline distance: {evaluation.baseline_distance:.6f}")
        if evaluation.distance_delta_pct is not None:
            lines.append(f"distance delta: {format_pct(evaluation.distance_delta_pct)}")
    return lines


def evaluation_report_text(evaluation: ExposureReport, run_hash: str) -> str:
    lines = ["layout evaluation", f"config hash: {run_hash}", *_evaluation_lines(evaluation)]
    return "\n".join(lines) + "\n"


# -- layout diffs -------------------------------------------------------------------


@dataclass(frozen=True)
class Movement:
    item_id: str
    kind: str
    old_position: str
    new_position: str


@dataclass
class DiffReport:
    movements: tuple[Movement, ...]
    contribution_deltas: dict[str, float]
    objective_a: float
    objective_b: float

    @property
    def total_delta(self) -> float:
        return self.objective_b - self.objective_a


def _contributions(instance, perm: np.ndarray) -> dict[str, float]:
    """Per-product share of the objective: half of every directed flow term
    touching the product, so shares sum exactly to the objective."""
    scaled = instance.flow * instance.exposure[np.ix_(perm, perm)]
    per_product = 0.5 * (scaled.sum(axis=1) + scaled.sum(axis=0))
    return {pid: float(per_product[i]) for i, pid in enumerate(instance.product_ids)}


def diff_layouts(
    plan_a: LayoutPlan,
    plan_b: LayoutPlan,
    exposures: ExposureMatrices,
    transitions: TransitionMatrices,
    catalog: Catalog,
    graph: StoreGraph,
) -> DiffReport:
    """Movements between two feasible plans on the same store, with each
    item's contribution change; changes sum to the total objective delta."""
    if plan_a.store_name != plan_b.store_name:
        raise ValidationError(
            f"plans come from different stores: {plan_a.store_name!r} vs {plan_b.store_name!r}"
        )
    movements: list[Movement] = []
    for cid in sorted(plan_a.category_to_location):
        if cid not in plan_b.category_to_location:
            raise ValidationError(f"plans disagree on catalog: {cid!r} missing from one")
        old = plan_a.category_to_location[cid]
        new = plan_b.category_to_location[cid]
        if old != new:
            movements.append(Movement(cid, "category", old, new))
    for sid in sorted(plan_a.subcategory_to_sublocation):
        if sid not in plan_b.subcategory_to_sublocation:
            raise ValidationError(f"plans disagree on catalog: {sid!r} missing from one")
        old = plan_a.subcategory_to_sublocation[sid]
        new = plan_b.subcategory_to_sublocation[sid]
        if old != new:
            movements.append(Movement(sid, "subcategory", old, new))

    inst_a, perm_a = layout_instance(plan_a.assignment(), exposures, transitions, catalog, graph)
    inst_b, perm_b = layout_instance(plan_b.assignment(), exposures, transitions, catalog, graph)
    contrib_a = _contributions(inst_a, perm_a)
    contrib_b = _contributions(inst_b, perm_b)
    deltas = {pid: contrib_b[pid] - contrib_a[pid] for pid in contrib_a}
    obj_a = objective_of_permutation(inst_a, perm_a)
    obj_b = objective_of_permutation(inst_b, perm_b)
    return DiffReport(
        movements=tuple(movements),
        contribution_deltas=deltas,
        objective_a=obj_a,
        objective_b=obj_b,
    )


def diff_report_text(diff: DiffReport, run_hash: str) -> str:
    lines = [
        "layout diff",
        f"config hash: {run_hash}",
        f"objective: {diff.objective_a:.6f} -> {diff.objective_b:.6f}"
        f" (delta {diff.total_delta:+.6f})",
        f"moved items: {len(diff.movements)}",
    ]
    for mv in diff.movements:
        delta = diff.contribution_deltas.get(mv.item_id)
        tail = f" (contribution {delta:+.6f})" if delta is not None else ""
        lines.append(f"  {mv.kind} {mv.item_id}: {mv.old_position} -> {mv.new_position}{tail}")
    stay = [
        (pid, d)
        for pid, d in sorted(diff.contribution_deltas.items())
        if d != 0.0 and all(mv.item_id != pid for mv in diff.movements)
    ]
    if stay:
        lines.append(f"unmoved items with contribution changes: {len(stay)}")
        for pid, d in stay:
            lines.append(f"  {pid}: {d:+.6f}")
    return "\n".join(lines) + "\n"


# -- matrix export ------------------------------------------------------------------


def write_matrix_tsv(path: str, row_axis, col_axis, matrix) -> None:
    """Tab-separated matrix with row and column labels."""
    arr = np.asarray(matrix)
    if arr.shape != (len(row_axis), len(col_axis)):
        raise InputError(
            f"matrix shape {arr.shape} does not match axes "
            f"({len(row_axis)}, {len(col_axis)})"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["id", *col_axis]) + "\n")
        for i, rid in enumerate(row_axis):
            cells = [format(float(arr[i, j]), ".12g") for j in range(len(col_axis))]
            fh.write("\t".join([rid, *cells]) + "\n")
