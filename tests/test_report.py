"""Plans, reports, diffs, heatmaps and the store document reader."""

from __future__ import annotations

import dataclasses
import json
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import catalog_for, line_store
from storelayout.demand import expected_transitions, load_transactions
from storelayout.errors import InputError, ModelError, ParseError, ValidationError
from storelayout.heatmap import render_heatmap
from storelayout.qap import Assignment, build_level2_instance, objective_of_permutation
from storelayout.report import (
    LayoutPlan,
    config_hash,
    diff_layouts,
    diff_report_text,
    file_digest,
    format_pct,
    plan_from_solution,
    read_plan,
    reproducible_epoch,
    solve_report_text,
    timestamp,
    write_matrix_tsv,
    write_plan,
)
from storelayout.solvers import SolveResult, evaluate_layout
from storelayout.store import TrafficDensity, accumulate_traffic, build_exposure_matrices
from storelayout.storefile import StoreDocument, load_store, save_store, store_to_dict


def make_plan(sub_map, cat_map, name="store", l1=10.0, l2=8.0):
    return LayoutPlan(
        store_name=name,
        category_to_location=cat_map,
        subcategory_to_sublocation=sub_map,
        level1_objective=l1,
        level2_objective=l2,
        metadata={
            "config_hash": "abc123",
            "seed": "0",
            "created": "2024-06-13T00:00:00Z",
            "tool_version": "1.0.0",
        },
    )


def pieces(group_sizes=(2, 1)):
    graph = line_store(sum(group_sizes), group_sizes)
    catalog = catalog_for(group_sizes)
    sub_ids = [s.subcategory_id for s in catalog.subcategories]
    txns = load_transactions([("t1", sid) for sid in sub_ids], catalog)
    return graph, catalog, expected_transitions(txns, catalog), build_exposure_matrices(graph)


class TestTimestamps:
    def test_source_date_epoch_pins_time(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1718236800")
        assert reproducible_epoch() == 1718236800
        assert timestamp() == "2024-06-13T00:00:00Z"

    def test_unset_returns_none(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        assert reproducible_epoch() is None

    def test_garbage_epoch_rejected(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "tuesday")
        with pytest.raises(InputError):
            reproducible_epoch()


class TestHashes:
    def test_config_hash_is_order_insensitive(self):
        a = config_hash({"x": 1, "y": [1, 2]})
        b = config_hash({"y": [1, 2], "x": 1})
        assert a == b and len(a) == 12

    def test_config_hash_sensitive_to_values(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})

    def test_file_digest(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("payload", encoding="utf-8")
        d1 = file_digest(str(p))
        p.write_text("payload2", encoding="utf-8")
        assert d1 != file_digest(str(p))
        assert len(d1) == 12


class TestPlanIO:
    def test_round_trip(self, tmp_path):
        plan = make_plan({"u1": "s2", "u2": "s1"}, {"C1": "L1"})
        path = str(tmp_path / "plan.json")
        write_plan(plan, path)
        back = read_plan(path)
        assert back == plan

    def test_assignment_adds_dummy_pins(self):
        plan = make_plan({"u1": "s1"}, {"C1": "L1"})
        asg = plan.assignment()
        assert asg.mapping["check-in"] == "entrance"
        assert asg.mapping["check-out"] == "exit"
        assert plan.level1_assignment().mapping["check-in"] == "entrance"

    def test_assignment_keeps_a_misplaced_door(self):
        # a plan naming check-in off the entrance is evaluated as written
        graph, catalog, matrices, exposures = pieces()
        plan = make_plan({"u1": "s1", "u2": "s2", "u3": "s3", "check-in": "s3"},
                         {"C1": "L1", "C2": "L2"})
        assert plan.assignment().mapping["check-in"] == "s3"
        with pytest.raises(ValidationError, match="infeasible layout"):
            evaluate_layout(plan.assignment(), exposures, matrices, catalog, graph)

    def test_write_requires_metadata(self, tmp_path):
        plan = make_plan({"u1": "s1"}, {"C1": "L1"})
        del plan.metadata["seed"]
        with pytest.raises(ValidationError):
            write_plan(plan, str(tmp_path / "plan.json"))

    def test_read_rejects_missing_metadata(self, tmp_path):
        plan = make_plan({"u1": "s1"}, {"C1": "L1"})
        path = str(tmp_path / "plan.json")
        write_plan(plan, path)
        doc = json.loads(open(path, encoding="utf-8").read())
        del doc["metadata"]["config_hash"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValidationError) as err:
            read_plan(path)
        assert "config_hash" in str(err.value)

    def test_read_missing_file(self):
        with pytest.raises(InputError):
            read_plan("/nonexistent/plan.json")

    def test_read_invalid_json_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"store": }', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_plan(str(path))
        assert "bad.json" in str(err.value)

    def test_read_missing_field(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"store": "x"}', encoding="utf-8")
        with pytest.raises(ParseError):
            read_plan(str(path))

    def test_plan_from_solution_strips_dummies(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1718236800")
        asg = Assignment.from_mapping(
            {"u1": "s1", "check-in": "entrance", "check-out": "exit"}
        )
        l1 = Assignment.from_mapping(
            {"C1": "L1", "check-in": "entrance", "check-out": "exit"}
        )
        plan = plan_from_solution(
            store_name="s",
            assignment=asg,
            level1_assignment=l1,
            level1_objective=5.0,
            level2_objective=4.0,
            run_hash="h",
            seed=3,
            generator="test",
        )
        assert plan.subcategory_to_sublocation == {"u1": "s1"}
        assert plan.category_to_location == {"C1": "L1"}
        assert plan.metadata["created"] == "2024-06-13T00:00:00Z"
        assert plan.metadata["seed"] == "3"


class TestReportText:
    def test_heuristic_report_has_no_bound(self):
        result = SolveResult(
            assignment=Assignment.from_mapping({"a": "k"}),
            objective=12.5,
            solver="tabu",
            iterations=100,
            restarts=5,
        )
        text = solve_report_text(result, "deadbeef")
        assert "bound: none (heuristic result)" in text
        assert "certified optimal: no" in text
        assert "config hash: deadbeef" in text

    def test_certified_report_shows_gap(self):
        result = SolveResult(
            assignment=Assignment.from_mapping({"a": "k"}),
            objective=12.5,
            bound=12.5,
            gap=0.0,
            certified=True,
            solver="branch-and-bound",
        )
        text = solve_report_text(result, "h")
        assert "optimality gap: 0.0%" in text
        assert "certified optimal: yes" in text

    def test_wall_time_only_outside_reproducible_mode(self, monkeypatch):
        result = SolveResult(
            assignment=Assignment.from_mapping({"a": "k"}),
            objective=1.0,
            solver="tabu",
            wall_time=3.25,
        )
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        assert "wall time: 3.25s" in solve_report_text(result, "h")
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1718236800")
        assert "wall time" not in solve_report_text(result, "h")

    def test_format_pct(self):
        assert format_pct(9.44) == "+9.4%"
        assert format_pct(-2.5) == "-2.5%"
        assert format_pct(0.0) == "+0.0%"


class TestDiff:
    def test_contributions_sum_to_objective(self):
        graph, catalog, matrices, exposures = pieces((2, 1))
        plan_a = make_plan({"u1": "s1", "u2": "s2", "u3": "s3"}, {"C1": "L1", "C2": "L2"})
        plan_b = make_plan({"u1": "s2", "u2": "s1", "u3": "s3"}, {"C1": "L1", "C2": "L2"})
        diff = diff_layouts(plan_a, plan_b, exposures, matrices, catalog, graph)
        assert sum(diff.contribution_deltas.values()) == pytest.approx(
            diff.total_delta, abs=1e-9
        )

    def test_movements_listed_by_level(self):
        graph, catalog, matrices, exposures = pieces((2, 2))
        plan_a = make_plan(
            {"u1": "s1", "u2": "s2", "u3": "s3", "u4": "s4"}, {"C1": "L1", "C2": "L2"}
        )
        plan_b = make_plan(
            {"u1": "s3", "u2": "s4", "u3": "s1", "u4": "s2"}, {"C1": "L2", "C2": "L1"}
        )
        diff = diff_layouts(plan_a, plan_b, exposures, matrices, catalog, graph)
        kinds = {(mv.kind, mv.item_id) for mv in diff.movements}
        assert ("category", "C1") in kinds and ("category", "C2") in kinds
        assert ("subcategory", "u1") in kinds
        text = diff_report_text(diff, "h")
        assert "moved items: 6" in text
        assert "category C1: L1 -> L2" in text

    def test_identical_plans_no_movements(self):
        graph, catalog, matrices, exposures = pieces((2, 1))
        plan = make_plan({"u1": "s1", "u2": "s2", "u3": "s3"}, {"C1": "L1", "C2": "L2"})
        diff = diff_layouts(plan, plan, exposures, matrices, catalog, graph)
        assert diff.movements == ()
        assert diff.total_delta == 0.0
        assert all(d == 0.0 for d in diff.contribution_deltas.values())

    def test_store_mismatch_rejected(self):
        graph, catalog, matrices, exposures = pieces((2, 1))
        plan_a = make_plan({"u1": "s1", "u2": "s2", "u3": "s3"}, {"C1": "L1", "C2": "L2"})
        plan_b = make_plan(
            {"u1": "s1", "u2": "s2", "u3": "s3"}, {"C1": "L1", "C2": "L2"}, name="other"
        )
        with pytest.raises(ValidationError):
            diff_layouts(plan_a, plan_b, exposures, matrices, catalog, graph)

    def test_catalog_mismatch_rejected(self):
        graph, catalog, matrices, exposures = pieces((2, 1))
        plan_a = make_plan({"u1": "s1", "u2": "s2", "u3": "s3"}, {"C1": "L1", "C2": "L2"})
        plan_b = make_plan({"u1": "s1", "u2": "s2"}, {"C1": "L1", "C2": "L2"})
        with pytest.raises(ValidationError):
            diff_layouts(plan_a, plan_b, exposures, matrices, catalog, graph)


class TestMatrixTsv:
    def test_layout_and_values(self, tmp_path):
        path = tmp_path / "m.tsv"
        write_matrix_tsv(
            str(path), ("r1", "r2"), ("c1", "c2"), np.array([[1.5, 0.0], [2.0, 0.25]])
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id\tc1\tc2"
        assert lines[1] == "r1\t1.5\t0"
        assert lines[2] == "r2\t2\t0.25"

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(InputError):
            write_matrix_tsv(
                str(tmp_path / "m.tsv"), ("r1",), ("c1", "c2"), np.zeros((2, 2))
            )


class TestHeatmap:
    def test_deterministic_and_wellformed(self, tmp_path):
        graph = line_store(3)
        walks = [
            ["n00", "n01", "n02", "n03", "n04"],
            ["n00", "n01", "n02", "n01", "n02", "n03", "n04"],
        ]
        density = accumulate_traffic(graph, walks)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        render_heatmap(graph, density, str(a), title="t", annotation="cfg 123")
        render_heatmap(graph, density, str(b), title="t", annotation="cfg 123")
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text(encoding="utf-8")
        assert text.count("<circle") == len(graph.nodes)
        assert "cfg 123" in text
        assert "min = " in text and "max = " in text

    def test_density_must_cover_all_nodes(self, tmp_path):
        graph = line_store(2)
        density = TrafficDensity(counts={"n00": 1.0}, path_count=1)
        with pytest.raises(InputError):
            render_heatmap(graph, density, str(tmp_path / "x.svg"))

    def test_uniform_density_renders(self, tmp_path):
        graph = line_store(2)
        density = TrafficDensity(counts={n.node_id: 2.0 for n in graph.nodes}, path_count=2)
        path = tmp_path / "u.svg"
        render_heatmap(graph, density, str(path))
        assert path.is_file()

    def test_title_and_labels_are_escaped(self, tmp_path):
        # the store document takes any string for its name and for a
        # sublocation id; the SVG must still parse and read them back
        base = line_store(2)
        renamed = {"s1": "s1 & <front>"}
        graph = dataclasses.replace(
            base,
            sublocations=tuple(
                dataclasses.replace(s, sublocation_id=renamed.get(s.sublocation_id, s.sublocation_id))
                for s in base.sublocations
            ),
            locations=tuple(
                dataclasses.replace(
                    loc, sublocation_ids=tuple(renamed.get(i, i) for i in loc.sublocation_ids)
                )
                for loc in base.locations
            ),
        )
        doc = StoreDocument(
            name="Fish & Chips <north>", graph=graph, catalog=catalog_for((1, 1)), eligibility=None
        )
        save_store(doc, str(tmp_path / "store.json"))
        doc = load_store(str(tmp_path / "store.json"))
        density = TrafficDensity(counts={n.node_id: 1 for n in doc.graph.nodes}, path_count=1)
        path = tmp_path / "h.svg"
        render_heatmap(doc.graph, density, str(path), title=f"{doc.name}: traffic")
        root = ElementTree.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert root.find(f"{ns}title").text == "Fish & Chips <north>: traffic"
        assert {"s1 & <front>", "s2"} <= {t.text for t in root.iter(f"{ns}text")}


class TestStoreFile:
    def test_round_trip_preserves_structure(self, tmp_path):
        graph = line_store(3, (2, 1))
        doc = StoreDocument(
            name="roundtrip",
            graph=graph,
            catalog=catalog_for((2, 1)),
            eligibility={"C1": ["L1"], "C2": ["L2"]},
        )
        path = str(tmp_path / "store.json")
        save_store(doc, path)
        back = load_store(path)
        assert back.name == "roundtrip"
        assert [n.node_id for n in back.graph.nodes] == [n.node_id for n in graph.nodes]
        assert back.eligibility == {"C1": ("L1",), "C2": ("L2",)}
        assert [c.category_id for c in back.catalog.categories] == ["C1", "C2"]
        sub = back.graph.sublocations[0]
        assert sub.facing_nodes == graph.sublocations[0].facing_nodes

    def test_error_paths_name_the_field(self, tmp_path):
        graph = line_store(2)
        doc = StoreDocument(
            name="x", graph=graph, catalog=catalog_for((2,)), eligibility=None
        )
        raw = store_to_dict(doc)
        del raw["nodes"][0]["x"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_store(str(path))
        assert "nodes[0]" in str(err.value)

    def test_unknown_eligibility_target_rejected(self, tmp_path):
        graph = line_store(2)
        doc = StoreDocument(
            name="x", graph=graph, catalog=catalog_for((2,)), eligibility=None
        )
        raw = store_to_dict(doc)
        raw["eligibility"] = {"C1": ["L9"]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_store(str(path))
        assert "L9" in str(err.value)

    def test_edge_length_defaults_to_euclidean(self, tmp_path):
        graph = line_store(2)
        doc = StoreDocument(
            name="x", graph=graph, catalog=catalog_for((2,)), eligibility=None
        )
        raw = store_to_dict(doc)
        for edge in raw["edges"]:
            edge.pop("length", None)
        path = tmp_path / "store.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        back = load_store(str(path))
        # nodes are unit-spaced on a line
        assert all(e.length == pytest.approx(1.0) for e in back.graph.edges)
