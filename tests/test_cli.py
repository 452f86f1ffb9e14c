"""End-to-end CLI coverage on a small saved store: every subcommand,
arguments read from an @file, failure exit codes, and artifact cleanup."""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import catalog_for, line_store
import storelayout
from storelayout import cli
from storelayout.cli import main
from storelayout.demand import expected_transitions, read_transactions_csv
from storelayout.errors import InputError
from storelayout.qap import build_level2_instance, check_feasible
from storelayout.report import read_plan
from storelayout.solvers import SolverConfig
from storelayout.store import build_exposure_matrices
from storelayout.storefile import StoreDocument, load_store, save_store
from storelayout.synthetic import build_synthetic_transactions

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

    def test_level2_without_baseline_fails(self, workspace, tmp_path, capsys):
        out = tmp_path / "nobase"
        with pytest.raises(SystemExit) as exc:
            main(["solve-l2", *common_args(workspace, out)])
        assert exc.value.code == 2
        assert "the following arguments are required: --baseline" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "command, keys",
        [("evaluate", ["objectives", "level1"]), ("render", ["subcategory_to_sublocation"])],
        ids=["evaluate-objective", "render-mapping"],
    )
    def test_malformed_plan_field(self, command, keys, workspace, plan_path, tmp_path, capsys):
        plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
        holder = plan
        for key in keys[:-1]:
            holder = holder[key]
        holder[keys[-1]] = "abc"
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(plan), encoding="utf-8")
        out = tmp_path / "x"
        assert main([command, str(bad), *common_args(workspace, out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: plan has a malformed field: ")
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("which", ["store", "transactions", "plan"])
    def test_non_utf8_input(self, which, workspace, plan_path, tmp_path, capsys):
        files = {"store": workspace["store"], "transactions": workspace["tx"], "plan": plan_path}
        bad = tmp_path / f"latin1_{which}"
        # a latin-1 e-acute inside a subcategory id
        bad.write_bytes(Path(files[which]).read_bytes().replace(b"u1", b"u\xe91", 1))
        files[which] = str(bad)
        out = tmp_path / "x"
        rc = main([
            "evaluate", files["plan"], "--store", files["store"],
            "--transactions", files["transactions"], "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text (")
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "below-file"])
    def test_out_names_a_file(self, under, workspace, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n", encoding="utf-8")
        out = afile / under if under else afile
        assert main(["build-matrices", *common_args(workspace, out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out}: ")
        assert afile.read_text(encoding="utf-8") == "not a directory\n"

    def test_byte_order_mark_in_transactions(self, tmp_path, capsys):
        # a spreadsheet "CSV UTF-8" export starts with a byte-order mark
        plain = FIXTURES / "synthetic_transactions.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for csv_path in (plain, marked):
            argv = ["evaluate", AS_IS_PLAN, *BUNDLED, "--out", str(tmp_path / csv_path.stem)]
            argv[argv.index(str(plain))] = str(csv_path)
            assert main(argv) == 0
            reports.append((tmp_path / csv_path.stem / "evaluate_report.txt").read_text(encoding="utf-8"))
        capsys.readouterr()
        # the config hash covers the file's bytes, so only it may differ
        drop_hash = [
            [line for line in report.splitlines() if not line.startswith("config hash:")]
            for report in reports
        ]
        assert drop_hash[0] == drop_hash[1]
        assert len(drop_hash[0]) == len(reports[0].splitlines()) - 1

    def test_directory_in_an_artifacts_place(self, workspace, plan_path, tmp_path, capsys):
        # export-lp writes the level1 and level2 models, then cannot open the
        # integrated model's path: both are removed, the directory stays
        out = tmp_path / "lp"
        blocker = out / "model_integrated.lp"
        blocker.mkdir(parents=True)
        extra = ["--mode", "all", "--baseline", plan_path]
        assert main(["export-lp", *common_args(workspace, out, extra)]) == 2
        assert capsys.readouterr().err == f"error: {blocker}: {os.strerror(errno.EISDIR)}\n"
        assert list(out.iterdir()) == [blocker] and blocker.is_dir()


class TestCollectorPause:
    """main runs the handler with the cyclic garbage collector paused and
    hands it back as it found it on every way out; a failed handler's
    artifacts are removed either way."""

    # what the handler raises, if anything, for each outcome
    OUTCOMES = {
        "success": None,
        "layout-error": lambda: InputError("bad input"),
        "os-error": lambda: IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), "a/dir"),
        "unexpected": lambda: RuntimeError("bug"),
        "interrupt": KeyboardInterrupt,
    }

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "caller-disabled"])
    @pytest.mark.parametrize("outcome", list(OUTCOMES))
    def test_collector_is_restored(
        self, outcome, enabled, collector, workspace, tmp_path, monkeypatch, capsys
    ):
        seen = []
        out = tmp_path / "out"
        failure = self.OUTCOMES[outcome]

        def handler(args, sink):
            seen.append(gc.isenabled())
            cli._write_text(sink, os.path.join(args.out, "partial.txt"), "partial\n")
            if failure is not None:
                raise failure()

        monkeypatch.setattr(cli, "_run_build_matrices", handler)
        (gc.enable if enabled else gc.disable)()
        argv = ["build-matrices", *common_args(workspace, out)]
        if outcome in ("unexpected", "interrupt"):
            with pytest.raises(type(failure())):
                main(argv)
        else:
            assert main(argv) == (0 if outcome == "success" else 2)
        assert seen == [False]
        assert gc.isenabled() is enabled
        assert [p.name for p in out.iterdir()] == (["partial.txt"] if outcome == "success" else [])
        err = capsys.readouterr().err
        assert err == {
            "layout-error": "error: bad input\n",
            "os-error": f"error: a/dir: {os.strerror(errno.EISDIR)}\n",
        }.get(outcome, "")


def args_file(path, *lines) -> str:
    """Write one argument per line; return the @path argument naming it."""
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return f"@{path}"


class TestArgsFile:
    """Arguments read from an @file pass the same checks as typed flags."""

    def test_file_supplies_paths(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
        run_args = args_file(
            tmp_path / "run.args",
            "--store", workspace["store"], f"--transactions={workspace['tx']}", "--seed=5",
        )
        from_file, typed = tmp_path / "from_file", tmp_path / "typed"
        assert main(["build-matrices", run_args, "--out", str(from_file)]) == 0
        assert main(["build-matrices", *common_args(workspace, typed, ["--seed", "5"])]) == 0
        summary = (from_file / "matrices_summary.txt").read_text(encoding="utf-8")
        assert summary == (typed / "matrices_summary.txt").read_text(encoding="utf-8")

    def test_file_supplies_model_tags(self, workspace, tmp_path):
        out = tmp_path / "lp"
        run_args = args_file(tmp_path / "run.args", "--mode", "level1,integrated")
        assert main(["export-lp", run_args, *common_args(workspace, out)]) == 0
        assert sorted(os.listdir(out)) == ["model_integrated.lp", "model_level1.lp"]

    def test_file_model_tags_are_checked(self, workspace, tmp_path, capsys):
        out = tmp_path / "lp"
        run_args = args_file(tmp_path / "run.args", "--mode=level3")
        assert main(["export-lp", run_args, *common_args(workspace, out)]) == 2
        assert capsys.readouterr().err == "error: unknown model tag 'level3'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("build-matrices", "--transition-mode=expectd",
             "argument --transition-mode: invalid choice: 'expectd'"),
            ("solve", "--pool-size=2.5", "argument --pool-size: invalid int value: '2.5'"),
            ("solve", "--seed=[1]", "argument --seed: invalid int value: '[1]'"),
            ("solve", "--pool-gap=wide", "argument --pool-gap: invalid float value: 'wide'"),
            ("solve", "--time-limit=true", "argument --time-limit: invalid float value: 'true'"),
        ],
        ids=["transition-mode", "pool-size", "seed", "pool-gap", "time-limit"],
    )
    def test_file_values_are_checked(self, workspace, tmp_path, capsys, command, line, message):
        out = tmp_path / "checked"
        run_args = args_file(tmp_path / "run.args", line)
        with pytest.raises(SystemExit) as exc:
            main([command, run_args, *common_args(workspace, out)])
        assert exc.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_after_file_wins(self, workspace, tmp_path):
        run_args = args_file(
            tmp_path / "run.args",
            "--store", "/nonexistent/store.json", "--transactions", workspace["tx"],
        )
        out = tmp_path / "flag_wins"
        assert main(["build-matrices", run_args, "--store", workspace["store"],
                     "--out", str(out)]) == 0
        assert (out / "matrices_summary.txt").is_file()

    def test_blank_line_is_an_argument(self, workspace, tmp_path, capsys):
        run_args = args_file(tmp_path / "run.args", "--seed", "", "5")
        out = tmp_path / "blank"
        with pytest.raises(SystemExit) as exc:
            main(["build-matrices", run_args, *common_args(workspace, out)])
        assert exc.value.code == 2
        assert "error: argument --seed: invalid int value: ''" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_file_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "latin1.args"
        bad.write_bytes(b"--seed\n5\xe9\n")
        out = tmp_path / "undecodable"
        try:
            rc = main(["build-matrices", f"@{bad}", *common_args(workspace, out)])
        except SystemExit as exc:
            # from Python 3.12 argparse reads the byte as a surrogate, and
            # the seed fails its int check instead
            rc = exc.code
        assert rc == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self, workspace, tmp_path, capsys):
        missing = tmp_path / "no.args"
        out = tmp_path / "missing"
        with pytest.raises(SystemExit) as exc:
            main(["build-matrices", f"@{missing}", *common_args(workspace, out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and str(missing) in err
        assert not out.exists()


SUBCOMMANDS = [
    "build-matrices", "solve", "solve-l1", "solve-l2", "export-lp", "evaluate", "diff", "render",
]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: storelayout {command} ")


INPUTS = ["--store", "--transactions", "--out", "--seed"]
POOLED = ["--transition-mode", "--time-limit", "--pool-size", "--pool-gap"]
# the options and positionals of each subcommand: 59 in all, each one read
# by the subcommand's handler
OPTIONS = {
    "build-matrices": [*INPUTS, "--transition-mode"],
    "solve": [*INPUTS, *POOLED, "--baseline"],
    "solve-l1": [*INPUTS, *POOLED],
    "solve-l2": [*INPUTS, "--transition-mode", "--time-limit", "--baseline"],
    "export-lp": [*INPUTS, *POOLED, "--mode", "--baseline", "--full"],
    "evaluate": [*INPUTS, "--transition-mode", "plan", "--baseline"],
    "diff": [*INPUTS, "--transition-mode", "plan_a", "plan_b"],
    "render": [*INPUTS, "plan"],
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    [action] = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestOptionsPerCommand:
    """Each subcommand takes exactly the options its handler reads and
    names a handler of its own: an option a command would not read is
    refused, not hashed into its artifacts."""

    def test_each_command_takes_the_options_it_reads(self):
        taken = {
            name: sorted(
                action.option_strings[0] if action.option_strings else action.metavar
                for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
            )
            for name, parser in subparsers().items()
        }
        assert taken == {name: sorted(options) for name, options in OPTIONS.items()}
        assert sum(map(len, taken.values())) == 59

    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "PLAN", "--pool-size", "3"],
            ["evaluate", "PLAN", "--time-limit", "1"],
            ["build-matrices", "--pool-gap", "0.5"],
            ["solve-l2", "--baseline", "PLAN", "--pool-size", "2"],
            ["solve", "--mode", "level1"],
        ],
        ids=["render", "evaluate", "build-matrices", "solve-l2", "solve-mode"],
    )
    def test_unread_option_is_refused(self, argv, workspace, plan_path, tmp_path, capsys):
        out = tmp_path / "refused"
        argv = [plan_path if arg == "PLAN" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *common_args(workspace, out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")
        assert not out.exists()

    def test_no_two_commands_share_a_handler(self):
        handlers = [parser.get_default("run") for parser in subparsers().values()]
        assert len(set(handlers)) == len(handlers) == len(SUBCOMMANDS)
        assert all(callable(getattr(cli, handler)) for handler in handlers)


def test_diff_names_its_missing_plan(workspace, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diff", workspace["store"], *common_args(workspace, tmp_path / "d")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert " plan_a plan_b\n" in err
    assert err.endswith("error: the following arguments are required: plan_b\n")


class TestParserBuiltOnce:
    """main builds the parser on its first call and keeps it, and looks each
    handler up by name when it runs the command."""

    def test_two_commands_share_one_parser(self, workspace, tmp_path, monkeypatch):
        builds = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_built_parser", None)
        monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(build()) or builds[-1])
        ran = []
        monkeypatch.setattr(cli, "_run_build_matrices", lambda args, sink: ran.append(args.out))
        for name in ("a", "b"):
            assert main(["build-matrices", *common_args(workspace, tmp_path / name)]) == 0
        assert len(builds) == 1
        assert cli._parser() is builds[0]
        assert ran == [str(tmp_path / "a"), str(tmp_path / "b")]

    def test_import_builds_no_parser(self):
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); import storelayout.cli as cli; "
            "print(cli._built_parser is None)"
        )
        src = Path(storelayout.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", script, str(src)], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"


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
HEATMAP_SHA256 = "92c913a9d7a9c56f11b6e41ce6fd40b9c9555f9c5c0c6cf7ae9a34c542b2efeb"


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestBundledGoldenBytes:
    """The input-layer commands on the bundled store and baskets write the
    same bytes as the Fraction-summing, Dijkstra-per-leg code did, but for
    the config hash that each artifact carries."""

    @pytest.mark.parametrize(
        "argv, pinned",
        [
            (
                ["evaluate", AS_IS_PLAN],
                {"evaluate_report.txt": "4f915e3fce874cada317a5ca33153317555db2db81fa9f898c4e6091fd9143e8"},
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


@pytest.fixture(scope="module")
def baskets_6k(tmp_path_factory):
    """The benchmark's basket file: 6,000 seed-413 synthetic baskets for the
    bundled store, in the layout of the bundled fixture file."""
    doc = load_store(str(FIXTURES / "synthetic_store.json"))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["transaction_id", "subcategory_id"])
    writer.writerows(build_synthetic_transactions(doc.catalog, 6000, 413))
    path = tmp_path_factory.mktemp("baskets-6k") / "baskets.csv"
    path.write_bytes(buf.getvalue().encode("utf-8"))
    return path


# the exposure and distance tables do not depend on the transition mode
STORE_TSV_SHA256 = {
    "sub_exposure.tsv": "c63a42571beb942116c0ce486a9e7b781a90beb33d5a8e9357d8fae35bae3076",
    "loc_exposure.tsv": "c2b499a3205f9f887bd2a36581ee69c7ead882b02566b779ce0ea77d792ea1bd",
    "sub_distance.tsv": "3d94feee3429535c8c31e32a94c0066c54bffca0d10576ac16f7c19c9cbd60c6",
    "loc_distance.tsv": "9bb5fdb4240bbbe9903902a368ebb7a8ba2b29f7461b0478e36e9d3e5dce8d7d",
}


class TestBenchmarkSizeGoldenBytes:
    """The basket-layer commands of the benchmark workload, on 6,000 baskets:
    at this size most baskets repeat, and the bytes are the ones the
    per-transaction, Dijkstra-per-leg code wrote, but for the config hash."""

    @pytest.mark.parametrize(
        "argv, pinned",
        [
            (
                ["evaluate", AS_IS_PLAN],
                {"evaluate_report.txt": "f513373a12b51c220a3486fb10869e5d822cbe02fe288d527522ab82beb7a3ca"},
            ),
            (
                ["render", AS_IS_PLAN],
                {"heatmap.svg": "51a3c7c7695a4808d82f908f25b55d26a18dfb0ec43436c68c2c78328dbf058d"},
            ),
            (
                ["build-matrices"],
                {
                    **STORE_TSV_SHA256,
                    "cat_transitions.tsv": "7c8749e9bae27bff2efdd27600e6217e1093b620b5f2f1ab7f702730487612d5",
                    "sub_transitions.tsv": "1066430908d8ae58511d658c7b56c868041e24ff34d189998dbd8acbf0d51238",
                    "matrices_summary.txt": "7fcf3a591ddddf79579b9a8dbe8214930c64ac01227d464e0ffba08478581749",
                },
            ),
            (
                ["build-matrices", "--transition-mode", "sampled"],
                {
                    **STORE_TSV_SHA256,
                    "cat_transitions.tsv": "f918bdeb073a9edd86de47f694c0b4b88e15803add84980b29fd92746032c3b5",
                    "sub_transitions.tsv": "17563c0b799c12e9f487fad03364a2d7ae4ebb735a664bfc3474852c43adf6f0",
                    "matrices_summary.txt": "68ca2f15968ae5bbc17474d027795d9296c0be8e69ecc5c184b86a536cc8f1d2",
                },
            ),
        ],
        ids=["evaluate", "render", "build-matrices", "build-matrices-sampled"],
    )
    def test_pinned_sha256(self, argv, pinned, baskets_6k, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = tmp_path / "out"
        store = ["--store", BUNDLED[1], "--transactions", str(baskets_6k), "--seed", "413"]
        assert main([*argv, *store, "--out", str(out)]) == 0
        for name, digest in pinned.items():
            assert sha256_of(out / name) == digest, name


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
                    "heatmap_optimal.svg": "5faee113e980594528c3bb9790b8e139ca55d4eaf098b7a5987778ca0d4d6a4b",
                    "heatmap_baseline.svg": "98640520dc51becb7636f40fe92e30fc2e7a31f9fb8a741d4db8c7c0523baae4",
                    "plan.json": "fdc3045eb2d1f08bc862051144970a219a6e819c1a38a00d88417cb8da01d7a6",
                    "solve_report.txt": "246663d9f6693e92e0ea49173c5d36ff8d33c158182ec23c59bf16cdaff3b5aa",
                },
            ),
            (
                "1",
                {
                    "heatmap_optimal.svg": "2d46295aa1fc44f271c23b0c5161f305dffcbb9ae8e6300fcaea82086e431c50",
                    "heatmap_baseline.svg": "70c9a719495e6530c743c2848ef8db33931a436bd0a37c2ce77e9c454d1a0b42",
                    "plan.json": "3ceea546169a8c6e3e4d8fa08d15cb38b2b1ff2018eb08b6c0e9b1c707b41918",
                    "solve_report.txt": "a597461d1debeab10d7d88a794a597a638ef23d4223d8661b6345bc7fd94d593",
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
    restarts, the first from the descent, each stopped 500 iterations after
    its last new best (the trace counts 2,563 iterations, not 15,000)."""

    PINNED = {
        "plan.json": "24976e1e1efecc20ef49c5cffab88da11e89fff6d232696ce17a17d05d4c9d30",
        "solve_report.txt": "51e9b7f0c1acde18b8568047c3dd5263cb6ac13c1d9a45cc402e15f365a5e4d6",
        "heatmap_optimal.svg": "1463398795f913c02fddc43adf66e53cc3a07a438a5b5940d995b32462689963",
        "heatmap_baseline.svg": "dc29eca43e74855dc0a7b2a89b06f52babd7fdf8b51d8b61febefddaa9cd74f7",
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
        assert "trace: iterations=2563 restarts=5 nodes=0\n" in report


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
            "level1_pool.json": "ecbce817ac3db3911eb51ad33039f16c716893b0ed4261a3696462ad53594404",
            "solve_report.txt": "efe6fff81852d7a63c9a28911ab79e3a8f915860a2caade708e7dd6ef4169b1b",
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
        digest = "9c90e81a52ab025e2c43357838a1f877f4415b11676d0cbe696b7d864e4169f2"
        assert sha256_of(out / "diff_report.txt") == digest


class TestArtifactsNameTheirCommand:
    """A plan names the command that wrote it, and each command's runs hash
    apart from the others' on the same inputs and seed."""

    def test_generator_and_config_hash(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.setattr(cli, "SolverConfig", functools.partial(SolverConfig, iteration_limit=3000))
        runs = {
            "solve": ("solve_report.txt", []),
            "solve-l1": ("solve_report.txt", []),
            "solve-l2": ("solve_report.txt", ["--baseline", AS_IS_PLAN]),
            "evaluate": ("evaluate_report.txt", [AS_IS_PLAN]),
        }
        hashes = set()
        for command, (report, extra) in runs.items():
            out = tmp_path / command
            assert main([command, *extra, *BUNDLED, "--out", str(out)]) == 0
            line = (out / report).read_text(encoding="utf-8").splitlines()[1]
            assert line.startswith("config hash: ")
            hashes.add(line.removeprefix("config hash: "))
            if command in ("solve", "solve-l2"):
                metadata = json.loads((out / "plan.json").read_text(encoding="utf-8"))["metadata"]
                assert metadata["generator"] == command
                assert f"config hash: {metadata['config_hash']}" == line
        assert len(hashes) == len(runs)


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

    def test_stopped_run_writes_one_time_limit_note(self, tmp_path):
        # the default budget takes seconds at K=10, so the deadline stops the
        # tabu lanes; every candidate's note is the same, and one is written
        out = tmp_path / "stopped"
        argv = ["solve", *BUNDLED, "--out", str(out), "--pool-size", "10", "--time-limit", "0.03"]
        assert main(argv) == 0
        report = (out / "solve_report.txt").read_text(encoding="utf-8").splitlines()
        notes = [line for line in report if line.startswith("note:")]
        assert notes == ["note: time limit 0.03s reached"]

    def test_stopped_solve_l1_writes_its_note(self, tmp_path):
        # the strategic tabu's default budget takes seconds, so the deadline
        # stops it; the pool carries the search's note into the report
        out = tmp_path / "stopped-l1"
        assert main(["solve-l1", *BUNDLED, "--out", str(out), "--time-limit", "0.01"]) == 0
        report = (out / "solve_report.txt").read_text(encoding="utf-8").splitlines()
        notes = [line for line in report if line.startswith("note:")]
        assert notes == ["note: time limit 0.01s reached"]

    @pytest.mark.parametrize("limit", ["nan", "inf", "0", "-1"])
    def test_time_limit_must_be_finite_and_positive(self, tmp_path, capsys, limit):
        # a NaN limit used to pass the check (nan <= 0 is false) and never fire
        out = tmp_path / "bad-limit"
        argv = ["solve", *BUNDLED, "--out", str(out), "--time-limit", limit]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: time_limit must be finite and positive\n"
        assert list(out.glob("*")) == []


# The benchmark's setup snippet, then a short solve on the bundled fixtures.
STARTUP_SCRIPT = """
import json
import sys
import storelayout.cli
from storelayout.storefile import load_store
load_store(sys.argv[1])
startup = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
code = storelayout.cli.main(sys.argv[2:])
solve = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps([code, startup, solve]))
"""


def test_start_up_and_solve_import_no_scipy(tmp_path):
    src = Path(storelayout.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "SOURCE_DATE_EPOCH": "0"}
    argv = [
        "solve", *BUNDLED, "--out", str(tmp_path / "out"),
        "--time-limit", "0.05", "--pool-size", "2",
    ]
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(FIXTURES / "synthetic_store.json"), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, [], []]


def test_start_up_imports_no_multiprocessing():
    # the lane split imports multiprocessing on first use, not at start-up
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import storelayout.cli; "
        "from storelayout.storefile import load_store; load_store(sys.argv[2]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    )
    src = Path(storelayout.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script, str(src), str(FIXTURES / "synthetic_store.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
