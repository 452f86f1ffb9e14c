"""End-to-end CLI coverage on a small saved store: every subcommand, the
environment-config defaults, failure exit codes, and artifact cleanup."""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path

import pytest

from conftest import catalog_for, line_store
from storelayout import cli
from storelayout.cli import main
from storelayout.demand import expected_transitions, read_transactions_csv
from storelayout.qap import build_level2_instance, check_feasible
from storelayout.report import read_plan
from storelayout.solvers import SolverConfig
from storelayout.store import build_exposure_matrices
from storelayout.storefile import StoreDocument, load_store, save_store

EPOCH = "1718236800"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    graph = line_store(4, (2, 2))
    catalog = catalog_for((2, 2))
    doc = StoreDocument(name="cli-test-store", graph=graph, catalog=catalog, eligibility=None)
    store = root / "store.json"
    save_store(doc, str(store))
    tx = root / "transactions.csv"
    rows = ["transaction_id,subcategory_id"]
    baskets = [
        ("t1", ["u1", "u3"]),
        ("t2", ["u2"]),
        ("t3", ["u1", "u2", "u4"]),
        ("t4", ["u3", "u4"]),
        ("t5", ["u1"]),
    ]
    for tid, subs in baskets:
        rows += [f"{tid},{sid}" for sid in subs]
    tx.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return {"root": root, "store": str(store), "tx": str(tx)}


def common_args(ws, out, extra=()):
    return [
        "--store", ws["store"],
        "--transactions", ws["tx"],
        "--out", str(out),
        *extra,
    ]


def mismatch_store(root, baskets):
    """Saved store whose locations differ in size: L1 holds two
    sublocations, L2 one, and C1 has two subcategories, C2 one."""
    doc = StoreDocument(
        name="mismatch", graph=line_store(3, (2, 1)), catalog=catalog_for((2, 1)),
        eligibility=None,
    )
    save_store(doc, str(root / "store.json"))
    rows = ["transaction_id,subcategory_id"]
    rows += [f"{tid},{sid}" for tid, subs in baskets for sid in subs]
    (root / "tx.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return ["--store", str(root / "store.json"), "--transactions", str(root / "tx.csv")]


class TestCapacityRule:
    """Every entry point builds the strategic instance under the capacity
    rule, so each category layout it lists or takes has a tactical instance."""

    def test_solve_l1_lists_only_buildable_layouts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        args = mismatch_store(tmp_path, [(f"t{t}", ["u1", "u2", "u3"]) for t in range(20)])
        out = tmp_path / "l1"
        assert main(["solve-l1", *args, "--out", str(out), "--pool-gap", "0.9"]) == 0
        payload = json.loads((out / "level1_pool.json").read_text(encoding="utf-8"))
        assert [e["category_to_location"] for e in payload["entries"]] == [
            {"C1": "L1", "C2": "L2"}
        ]

    def test_export_lp_level2_takes_a_buildable_pool_head(self, tmp_path, capsys):
        # without the rule, the strategic optimum here puts C1 on L2
        args = mismatch_store(tmp_path, [("t0", ["u3"]), ("t1", ["u1"]), ("t2", ["u3"]), ("t3", ["u3"])])
        out = tmp_path / "lp"
        assert main(["export-lp", *args, "--out", str(out), "--mode", "level1,level2"]) == 0, (
            capsys.readouterr().err
        )
        lp = (out / "model_level2.lp").read_text(encoding="utf-8")
        # u1 and u2 share s1 and s2 (L1), u3 sits on s3 (L2)
        assert lp.endswith("Binaries\n z_0_0 z_1_1 z_1_2 z_2_1 z_2_2 z_3_3 z_4_4\nEnd\n")

    def test_export_lp_integrated_takes_the_level1_cells(self, tmp_path, capsys):
        # without the rule, the integrated model also has x_1_2 and x_2_1,
        # which put C1's two subcategories on L2's one sublocation
        args = mismatch_store(tmp_path, [("t0", ["u1", "u3"]), ("t1", ["u2"])])
        out = tmp_path / "lp"
        assert main(["export-lp", *args, "--out", str(out), "--mode", "level1,integrated"]) == 0, (
            capsys.readouterr().err
        )

        def binaries(name):
            text = (out / name).read_text(encoding="utf-8")
            return text.split("Binaries\n")[1].split()[:-1]

        assert binaries("model_level1.lp") == ["x_0_0", "x_1_1", "x_2_2", "x_3_3"]
        assert [b for b in binaries("model_integrated.lp") if b.startswith("x_")] == [
            "x_0_0", "x_1_1", "x_2_2", "x_3_3"
        ]


class TestBuildMatrices:
    def test_writes_all_tsvs(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        out = tmp_path / "m"
        assert main(["build-matrices", *common_args(workspace, out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "cat_transitions.tsv",
            "loc_distance.tsv",
            "loc_exposure.tsv",
            "matrices_summary.txt",
            "sub_distance.tsv",
            "sub_exposure.tsv",
            "sub_transitions.tsv",
        ]
        header = (out / "sub_exposure.tsv").read_text(encoding="utf-8").splitlines()[0]
        assert header.split("\t")[0] == "id"
        assert "entrance" in header and "exit" in header
        summary = (out / "matrices_summary.txt").read_text(encoding="utf-8")
        assert "transactions: 5" in summary

    def test_rerun_byte_identical(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["build-matrices", *common_args(workspace, a)]) == 0
        assert main(["build-matrices", *common_args(workspace, b)]) == 0
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSolve:
    def test_hierarchical_artifacts(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        out = tmp_path / "solve"
        rc = main(["solve", *common_args(workspace, out, ["--pool-size", "2", "--seed", "7"])])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "heatmap_baseline.svg",
            "heatmap_optimal.svg",
            "plan.json",
            "solve_report.txt",
        ]
        plan = read_plan(str(out / "plan.json"))
        assert plan.store_name == "cli-test-store"
        assert set(plan.subcategory_to_sublocation) == {"u1", "u2", "u3", "u4"}
        assert set(plan.category_to_location) == {"C1", "C2"}
        assert plan.metadata["seed"] == "7"
        report = (out / "solve_report.txt").read_text(encoding="utf-8")
        assert "solver: hierarchical" in report
        assert "baseline kind: seeded random layout" in report
        assert "wall time" not in report  # reproducible mode
        svg = (out / "heatmap_optimal.svg").read_text(encoding="utf-8")
        assert svg.startswith("<?xml") and "</svg>" in svg

    def test_solve_l1_writes_pool(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        out = tmp_path / "l1"
        assert main(["solve-l1", *common_args(workspace, out, ["--pool-gap", "0.5"])]) == 0
        payload = json.loads((out / "level1_pool.json").read_text(encoding="utf-8"))
        assert payload["store"] == "cli-test-store"
        assert payload["entries"]
        objs = [e["objective"] for e in payload["entries"]]
        assert objs == sorted(objs, reverse=True)
        for entry in payload["entries"]:
            assert set(entry["category_to_location"]) == {"C1", "C2"}

    def test_solve_l2_uses_baseline_anchor(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        anchor_out = tmp_path / "anchor"
        assert main(["solve", *common_args(workspace, anchor_out, ["--pool-size", "1"])]) == 0
        out = tmp_path / "l2"
        rc = main([
            "solve-l2",
            *common_args(workspace, out),
            "--baseline", str(anchor_out / "plan.json"),
        ])
        assert rc == 0
        anchor = read_plan(str(anchor_out / "plan.json"))
        plan = read_plan(str(out / "plan.json"))
        assert plan.category_to_location == anchor.category_to_location
        report = (out / "solve_report.txt").read_text(encoding="utf-8")
        assert "baseline kind: baseline plan" in report

    @pytest.mark.parametrize("mode, command", [("level1", "solve-l1"), ("level2", "solve-l2")])
    def test_mode_flag_matches_subcommand(
        self, mode, command, workspace, plan_path, tmp_path, monkeypatch
    ):
        # solve --mode level1 is solve-l1, and solve --mode level2 is solve-l2
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        extra = ["--pool-size", "2", "--seed", "3"]
        if mode == "level2":
            extra += ["--baseline", plan_path]
        by_flag = tmp_path / "flag"
        by_name = tmp_path / "name"
        assert main(["solve", *common_args(workspace, by_flag, [*extra, "--mode", mode])]) == 0
        assert main([command, *common_args(workspace, by_name, extra)]) == 0
        names = sorted(os.listdir(by_flag))
        assert names == sorted(os.listdir(by_name))
        for name in names:
            assert (by_flag / name).read_bytes() == (by_name / name).read_bytes(), name

    def test_level2_without_baseline_fails(self, workspace, tmp_path, capsys):
        out = tmp_path / "nobase"
        rc = main(["solve", *common_args(workspace, out, ["--mode", "level2"])])
        assert rc == 2
        assert "baseline" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_identical_runs_byte_identical(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        args = ["--pool-size", "2", "--seed", "3"]
        a = tmp_path / "ra"
        b = tmp_path / "rb"
        assert main(["solve", *common_args(workspace, a, args)]) == 0
        assert main(["solve", *common_args(workspace, b, args)]) == 0
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestExportLp:
    def test_default_tags(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        out = tmp_path / "lp"
        assert main(["export-lp", *common_args(workspace, out)]) == 0
        assert (out / "model_level1.lp").is_file()
        assert (out / "model_level2.lp").is_file()
        text = (out / "model_level1.lp").read_text(encoding="utf-8")
        assert text.startswith("\\ level1 exposure maximization model")
        assert text.endswith("End\n")

    def test_all_tags_includes_integrated(self, workspace, tmp_path):
        out = tmp_path / "lp_all"
        assert main(["export-lp", *common_args(workspace, out, ["--mode", "all"])]) == 0
        assert (out / "model_integrated.lp").is_file()
        text = (out / "model_integrated.lp").read_text(encoding="utf-8")
        assert " x_" in text and " z_" in text and "grp_p_" in text

    def test_full_models_are_larger(self, workspace, tmp_path):
        sparse = tmp_path / "sparse"
        full = tmp_path / "full"
        tags = ["--mode", "level2", "--baseline"]
        anchor = tmp_path / "anchor"
        assert main(["solve", *common_args(workspace, anchor, ["--pool-size", "1"])]) == 0
        plan = str(anchor / "plan.json")
        assert main(["export-lp", *common_args(workspace, sparse, [*tags, plan])]) == 0
        assert main(["export-lp", *common_args(workspace, full, [*tags, plan, "--full"])]) == 0
        assert (full / "model_level2.lp").stat().st_size > (sparse / "model_level2.lp").stat().st_size

    def test_unknown_tag_fails(self, workspace, tmp_path, capsys):
        out = tmp_path / "lp_bad"
        rc = main(["export-lp", *common_args(workspace, out, ["--mode", "level3"])])
        assert rc == 2
        assert "level3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def plan_path(workspace, tmp_path_factory):
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    try:
        out = tmp_path_factory.mktemp("plan")
        assert main(["solve", *common_args(workspace, out, ["--pool-size", "1"])]) == 0
    finally:
        os.environ.pop("SOURCE_DATE_EPOCH", None)
    return str(out / "plan.json")


class TestEvaluateDiffRender:
    def test_evaluate_prints_report(self, workspace, plan_path, tmp_path, capsys):
        out = tmp_path / "ev"
        rc = main(["evaluate", plan_path, *common_args(workspace, out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "layout evaluation" in text
        assert "total exposure:" in text
        assert (out / "evaluate_report.txt").read_text(encoding="utf-8") == text

    def test_evaluate_with_baseline_has_deltas(self, workspace, plan_path, tmp_path, capsys):
        out = tmp_path / "evb"
        rc = main([
            "evaluate", plan_path, *common_args(workspace, out),
            "--baseline", plan_path,
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "exposure delta: +0.0%" in text

    def test_diff_of_identical_plans(self, workspace, plan_path, tmp_path, capsys):
        out = tmp_path / "diff"
        rc = main(["diff", plan_path, plan_path, *common_args(workspace, out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "moved items: 0" in text

    def test_render_writes_heatmap(self, workspace, plan_path, tmp_path):
        out = tmp_path / "render"
        assert main(["render", plan_path, *common_args(workspace, out)]) == 0
        svg = (out / "heatmap.svg").read_text(encoding="utf-8")
        assert "<svg" in svg and "</svg>" in svg
        assert "cli-test-store" in svg


class TestFailureModes:
    def test_missing_transactions_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main([
            "build-matrices",
            "--store", workspace["store"],
            "--transactions", "/nonexistent/tx.csv",
            "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "/nonexistent/tx.csv" in err

    def test_missing_store_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main([
            "build-matrices",
            "--store", "/nonexistent/store.json",
            "--transactions", workspace["tx"],
            "--out", str(out),
        ])
        assert rc == 2
        assert "store" in capsys.readouterr().err

    def test_missing_baseline_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "x"
        missing = str(tmp_path / "no_plan.json")
        rc = main(["solve", *common_args(workspace, out, ["--baseline", missing])])
        assert rc == 2
        assert capsys.readouterr().err == f"error: baseline plan not found: {missing}\n"
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command", ["evaluate", "diff", "render"])
    def test_missing_plan_file(self, command, workspace, plan_path, tmp_path, capsys):
        out = tmp_path / "x"
        missing = str(tmp_path / "no_plan.json")
        plans = [plan_path, missing] if command == "diff" else [missing]
        assert main([command, *plans, *common_args(workspace, out)]) == 2
        assert capsys.readouterr().err == f"error: layout plan not found: {missing}\n"
        assert list(out.glob("*")) == []

    def test_cleanup_after_partial_write(self, workspace, tmp_path, monkeypatch, capsys):
        # a baseline plan from a different store passes file checks but
        # fails evaluation after plan.json is already on disk
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        other_graph = line_store(3, (2, 1))
        other_doc = StoreDocument(
            name="other-store",
            graph=other_graph,
            catalog=catalog_for((2, 1)),
            eligibility=None,
        )
        other_store = tmp_path / "other_store.json"
        save_store(other_doc, str(other_store))
        other_tx = tmp_path / "other_tx.csv"
        other_tx.write_text(
            "transaction_id,subcategory_id\nt1,u1\nt1,u3\n", encoding="utf-8"
        )
        other_out = tmp_path / "other_out"
        rc = main([
            "solve",
            "--store", str(other_store),
            "--transactions", str(other_tx),
            "--out", str(other_out),
            "--pool-size", "1",
        ])
        assert rc == 0

        out = tmp_path / "partial"
        rc = main([
            "solve",
            *common_args(workspace, out, ["--pool-size", "1"]),
            "--baseline", str(other_out / "plan.json"),
        ])
        assert rc == 2
        assert list(out.iterdir()) == []

    def test_bad_transactions_content(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("transaction_id,subcategory_id\nt1,ghost\n", encoding="utf-8")
        out = tmp_path / "badout"
        rc = main([
            "build-matrices",
            "--store", workspace["store"],
            "--transactions", str(bad),
            "--out", str(out),
        ])
        assert rc == 2
        assert "ghost" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestEnvDefaults:
    def test_config_file_supplies_paths(self, workspace, tmp_path, monkeypatch):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(
            json.dumps({
                "store": workspace["store"],
                "transactions": workspace["tx"],
                "seed": 5,
            }),
            encoding="utf-8",
        )
        monkeypatch.setenv("STORELAYOUT_CONFIG", str(cfg))
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        out = tmp_path / "envout"
        assert main(["build-matrices", "--out", str(out)]) == 0
        assert (out / "matrices_summary.txt").is_file()

    def test_config_file_supplies_model_tags(self, workspace, tmp_path, monkeypatch):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"models": "level1,integrated"}), encoding="utf-8")
        monkeypatch.setenv("STORELAYOUT_CONFIG", str(cfg))
        out = tmp_path / "lp"
        assert main(["export-lp", *common_args(workspace, out)]) == 0
        assert sorted(os.listdir(out)) == ["model_integrated.lp", "model_level1.lp"]

    def test_config_file_model_tags_are_checked(self, workspace, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"models": ["level3"]}), encoding="utf-8")
        monkeypatch.setenv("STORELAYOUT_CONFIG", str(cfg))
        out = tmp_path / "lp"
        assert main(["export-lp", *common_args(workspace, out)]) == 2
        assert "unknown model tag" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("solve", "mode", "bogus", "unknown mode 'bogus'"),
            ("build-matrices", "transition_mode", "expectd", "unknown transition mode 'expectd'"),
        ],
    )
    def test_config_file_modes_are_checked(
        self, workspace, tmp_path, monkeypatch, capsys, command, key, value, message
    ):
        # argparse checks `choices` only on the command line, not on a default
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        monkeypatch.setenv("STORELAYOUT_CONFIG", str(cfg))
        out = tmp_path / "modes"
        assert main([command, *common_args(workspace, out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.glob("*")) == []

    def test_flags_override_config_file(self, workspace, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(
            json.dumps({"store": "/nonexistent/store.json", "transactions": workspace["tx"]}),
            encoding="utf-8",
        )
        monkeypatch.setenv("STORELAYOUT_CONFIG", str(cfg))
        out = tmp_path / "envout2"
        rc = main([
            "build-matrices", "--store", workspace["store"], "--out", str(out),
        ])
        assert rc == 0

    def test_missing_config_file_reported(self, workspace, monkeypatch, capsys):
        monkeypatch.setenv("STORELAYOUT_CONFIG", "/nonexistent/cfg.json")
        rc = main(["build-matrices", "--store", workspace["store"],
                   "--transactions", workspace["tx"], "--out", "unused"])
        assert rc == 2
        assert "STORELAYOUT_CONFIG" in capsys.readouterr().err

    def test_malformed_config_file_reported(self, workspace, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        monkeypatch.setenv("STORELAYOUT_CONFIG", str(cfg))
        rc = main(["build-matrices", "--store", workspace["store"],
                   "--transactions", workspace["tx"], "--out", "unused"])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err


SUBCOMMANDS = [
    "build-matrices", "solve", "solve-l1", "solve-l2", "export-lp", "evaluate", "diff", "render",
]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_zero(command, monkeypatch, capsys):
    monkeypatch.delenv("STORELAYOUT_CONFIG", raising=False)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: storelayout {command} ")


def test_diff_names_its_missing_plan(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("STORELAYOUT_CONFIG", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["diff", workspace["store"], *common_args(workspace, tmp_path / "d")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert " plan_a plan_b\n" in err
    assert err.endswith("error: the following arguments are required: plan_b\n")


class TestStoreRoundTrip:
    def test_saved_store_loads_back(self, workspace):
        doc = load_store(workspace["store"])
        assert doc.name == "cli-test-store"
        assert len(doc.graph.sublocations) == 4
        assert len(doc.catalog.subcategories) == 4


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BUNDLED = [
    "--store", str(FIXTURES / "synthetic_store.json"),
    "--transactions", str(FIXTURES / "synthetic_transactions.csv"),
    "--seed", "413",
]
AS_IS_PLAN = str(FIXTURES / "current_layout.json")
HEATMAP_SHA256 = "f23fb6eca65ca5899a42b8f63e934fd82fece6505f651f167e2a8da9d904f789"


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestBundledGoldenBytes:
    """The input-layer commands on the bundled store and baskets write the
    same bytes as the Fraction-summing, Dijkstra-per-leg code did."""

    @pytest.mark.parametrize(
        "argv, pinned",
        [
            (
                ["evaluate", AS_IS_PLAN],
                {"evaluate_report.txt": "6d767e796136d48838531ad6ec7656c817544f3ffc138b3aba8d171fd38b4b7c"},
            ),
            (["render", AS_IS_PLAN], {"heatmap.svg": HEATMAP_SHA256}),
            (
                ["build-matrices"],
                {
                    "cat_transitions.tsv": "ab9f99e5314fc8ff9e67620625c10fcaceeb92f058043b750dee18e6e3f3a04f",
                    "sub_transitions.tsv": "6002c0bd18d408df336154cbe97879312c5fdfd06e982e3a149f716aa0c3cd4b",
                },
            ),
            (
                ["build-matrices", "--transition-mode", "sampled"],
                {"sub_transitions.tsv": "c7c3cd4f498899f52952909ba5521202c9bd9b13eaf994b9ece1b66ed0db9f1e"},
            ),
        ],
        ids=["evaluate", "render", "build-matrices", "build-matrices-sampled"],
    )
    def test_pinned_sha256(self, argv, pinned, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = tmp_path / "out"
        assert main([*argv, *BUNDLED, "--out", str(out)]) == 0
        for name, digest in pinned.items():
            assert sha256_of(out / name) == digest, name

    def test_render_builds_no_matrices(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("render needs no transition or exposure matrices")

        for name in ("expected_transitions", "sampled_transitions", "build_exposure_matrices"):
            monkeypatch.setattr(cli, name, forbidden)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = tmp_path / "render"
        assert main(["render", AS_IS_PLAN, *BUNDLED, "--out", str(out)]) == 0
        assert sha256_of(out / "heatmap.svg") == HEATMAP_SHA256


# sublocation number held by sub-01 .. sub-48 in the seed-413 plan
SOLVE_POSITIONS = [
    8, 5, 6, 7, 9, 10, 11, 12, 13, 14, 16, 15, 4, 2, 1, 3, 24, 19, 17, 20, 22, 21, 18, 23,
    30, 28, 29, 48, 47, 46, 26, 27, 25, 40, 41, 42, 36, 34, 35, 39, 37, 38, 32, 31, 33,
    44, 45, 43,
]


class TestBundledSolveGolden:
    """solve at seed 413 with the benchmark's 3,000-iteration tabu budget
    writes the heatmaps, objectives and layout that the tabu walks wrote
    when each ran on its own, one after another."""

    @pytest.mark.parametrize(
        "pool_size, pinned",
        [
            (
                "10",
                {
                    "heatmap_optimal.svg": "389482d6c75a88dce2f4c41080371b8e3661421fb66a3e04b4758752c2318098",
                    "heatmap_baseline.svg": "fbefb2143dddfb77752186a3903d644eceda5a172e7a17856ccacd114e144407",
                    "plan.json": "7ca336b2119c2934c16cf9d5ce74a7b9169577bc388e0b50e3fe5119773822f1",
                    "solve_report.txt": "4f1213c75f9d9afbd0afc05eb86a6a65ab054f1a8086e7b61599bcb35b5f328f",
                },
            ),
            (
                "1",
                {
                    "heatmap_optimal.svg": "346625e2b39e01eeffb0149cd08e36d55ac18de66d8b8b3777f7769771119322",
                    "heatmap_baseline.svg": "1ef228d00b838143bf0605a0a75a8ebac4bc62f08e3a11a608e7ccedc9bb47c1",
                    "plan.json": "b4aa452ee5f3936c94e2f5ff6dfe97ad05b3365f54662ce7680336a9ccb5cd21",
                    "solve_report.txt": "e86e3c67b4c8b5c2366138a15812d4ba08d0a0c90bba9355ab9fcdb776790979",
                },
            ),
        ],
        ids=["k10", "k1"],
    )
    def test_pinned(self, pool_size, pinned, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.setattr(cli, "SolverConfig", functools.partial(SolverConfig, iteration_limit=3000))
        out = tmp_path / "solve"
        assert main(["solve", *BUNDLED, "--out", str(out), "--pool-size", pool_size]) == 0
        for name, digest in pinned.items():
            assert sha256_of(out / name) == digest, name
        plan = json.loads((out / "plan.json").read_text(encoding="utf-8"))
        assert plan["objectives"] == {"level1": 21218.598809523806, "level2": 17340.644047619047}
        held = plan["subcategory_to_sublocation"]
        assert [int(held[f"sub-{i:02d}"].split("-")[1]) for i in range(1, 49)] == SOLVE_POSITIONS


class TestBundledSolveL2Golden:
    """solve-l2 under the as-is plan's category layout, at seed 413 with the
    benchmark's 3,000-iteration tabu budget: block descent, then five tabu
    restarts, the first from the descent."""

    PINNED = {
        "plan.json": "eaf48bcc59488b7c799c05cd99af811ccf4caf9b2bbd46d0558268d81f3dfa92",
        "solve_report.txt": "a29437f40c7fc57874b68ec80c8b259b43d44e42f3fc0a987d05ace2e387ac0f",
        "heatmap_optimal.svg": "ab32c9174c59cc4fb45721f65cef7a7c01183c3a0310e206b947bcccaee52897",
        "heatmap_baseline.svg": "06a74b8f16c42fe4814607f2d59d10b002c729d3afc08bb596ec4880995ba555",
    }

    def test_pinned(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.setattr(cli, "SolverConfig", functools.partial(SolverConfig, iteration_limit=3000))
        out = tmp_path / "solve-l2"
        assert main(["solve-l2", *BUNDLED, "--out", str(out), "--baseline", AS_IS_PLAN]) == 0
        for name, digest in self.PINNED.items():
            assert sha256_of(out / name) == digest, name
        report = (out / "solve_report.txt").read_text(encoding="utf-8")
        assert "solver: tabu\n" in report
        assert "trace: iterations=15000 restarts=5 nodes=0\n" in report


class TestBundledPoolAndDiffGolden:
    """The solve-l1 pool and the diff of the as-is plan against the K=10
    solve, at seed 413 with the benchmark's 3,000-iteration tabu budget:
    both strip the door placements from what they write."""

    def test_solve_l1_pinned(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.setattr(cli, "SolverConfig", functools.partial(SolverConfig, iteration_limit=3000))
        out = tmp_path / "solve-l1"
        assert main(["solve-l1", *BUNDLED, "--out", str(out)]) == 0
        pinned = {
            "level1_pool.json": "746587b2287549a30befe02aa6f6c8ac6be80eee5133e95233d56b89c39cd9b4",
            "solve_report.txt": "ec0f0119b7119580818a95efe91ef84ec8a0f6f820050bd23d6ad8b8228ca048",
        }
        for name, digest in pinned.items():
            assert sha256_of(out / name) == digest, name

    def test_diff_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.setattr(cli, "SolverConfig", functools.partial(SolverConfig, iteration_limit=3000))
        solved = tmp_path / "solve"
        assert main(["solve", *BUNDLED, "--out", str(solved), "--pool-size", "10"]) == 0
        out = tmp_path / "diff"
        assert main(["diff", AS_IS_PLAN, str(solved / "plan.json"), *BUNDLED, "--out", str(out)]) == 0
        digest = "b935538dfba064bc071192f27f35be9bcb8d194b3adfd9e1b755b0c84db4b025"
        assert sha256_of(out / "diff_report.txt") == digest


class TestBenchmarkTracer:
    def test_every_wrapped_name_exists(self, monkeypatch):
        # the traced benchmark wraps package names from outside; dropping
        # one it names fails here rather than in a traced benchmark run
        monkeypatch.syspath_prepend(str(FIXTURES.parent / "perfbench"))
        from spans import Tracer

        before = {name: getattr(cli, name) for name in ("block_descent", "tabu_search", "main")}
        tracer = Tracer()
        tracer.install()
        try:
            assert cli.block_descent is not before["block_descent"]
        finally:
            tracer.uninstall()
        assert {name: getattr(cli, name) for name in before} == before


class TestTimeLimitFlag:
    def test_solve_under_a_time_limit_writes_a_feasible_plan(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = tmp_path / "limited"
        argv = ["solve", *BUNDLED, "--out", str(out), "--time-limit", "0.05", "--pool-size", "3"]
        assert main(argv) == 0
        plan = read_plan(str(out / "plan.json"))
        doc = load_store(str(FIXTURES / "synthetic_store.json"))
        baskets = read_transactions_csv(str(FIXTURES / "synthetic_transactions.csv"), doc.catalog)
        instance = build_level2_instance(
            build_exposure_matrices(doc.graph),
            expected_transitions(baskets, doc.catalog),
            plan.level1_assignment(),
            doc.catalog,
            doc.graph,
        )
        assert check_feasible(instance, plan.assignment()).ok
