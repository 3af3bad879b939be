"""Tests for the ``repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture()
def stream(tmp_path):
    path = tmp_path / "crawl.wb"
    assert main(["generate", "--pages", "250", "--seed", "4", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def built(stream, tmp_path):
    root = tmp_path / "snode"
    assert main(["build", "--stream", str(stream), "--out", str(root)]) == 0
    return root


class TestGenerate:
    def test_creates_stream(self, stream, capsys):
        assert stream.exists()

    def test_output_mentions_counts(self, tmp_path, capsys):
        path = tmp_path / "c.wb"
        main(["generate", "--pages", "100", "--out", str(path)])
        out = capsys.readouterr().out
        assert "100 pages" in out


class TestBuild:
    def test_build_and_stats(self, built, capsys):
        assert main(["stats", str(built)]) == 0
        out = capsys.readouterr().out
        assert "num_supernodes" in out
        assert "payload_bytes" in out

    def test_build_with_limit(self, stream, tmp_path, capsys):
        root = tmp_path / "prefix"
        assert (
            main(
                ["build", "--stream", str(stream), "--out", str(root), "--limit", "100"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bits/edge" in out

    def test_build_transpose(self, stream, tmp_path, capsys):
        root = tmp_path / "wgt"
        assert (
            main(["build", "--stream", str(stream), "--out", str(root), "--transpose"])
            == 0
        )
        assert "WGT" in capsys.readouterr().out


class TestVerify:
    """``repro fsck`` is the one offline check; there is no ``repro verify``."""

    def test_verify_clean(self, built, capsys):
        assert main(["fsck", str(built), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["graphs_checked"] == report["regions_checked"] > 0

    def test_verify_corrupt(self, built, capsys):
        (built / "pointers.bin").write_bytes(b"\x00\x01")
        assert main(["fsck", str(built)]) == 1
        assert "PROBLEM" in capsys.readouterr().out


class TestNeighbors:
    def test_neighbors_match_stream(self, stream, built, capsys):
        from repro.webdata.webbase import read_repository

        repository = read_repository(stream)
        page = next(
            p for p in range(repository.num_pages)
            if repository.graph.out_degree(p) > 0
        )
        assert main(["neighbors", str(built), str(page)]) == 0
        printed = [int(x) for x in capsys.readouterr().out.split()]
        assert printed == repository.graph.successors_list(page)

    def test_unknown_page(self, built, capsys):
        assert main(["neighbors", str(built), "999999"]) == 1


class TestStats:
    def test_missing_root(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope")]) == 1


class TestExperimentDispatch:
    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "frobnicate"]) == 1

    def test_known_experiment_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        # Clear harness caches so the tiny scale takes effect.
        from repro.experiments import harness

        harness.master_repository.cache_clear()
        harness.dataset.cache_clear()
        assert main(["experiment", "scalability"]) == 0
        out = capsys.readouterr().out
        assert "supernodes" in out
        harness.master_repository.cache_clear()
        harness.dataset.cache_clear()


class TestStatsBreakdown:
    def test_text_breakdown_lists_components(self, built, capsys):
        assert main(["stats", str(built)]) == 0
        out = capsys.readouterr().out
        assert "on-disk size breakdown" in out
        assert "supernode graph" in out
        assert "pointers" in out
        assert "total" in out

    def test_json_breakdown(self, built, capsys):
        assert main(["stats", str(built), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        on_disk = data["on_disk"]
        assert on_disk["total_disk_bytes"] > 0
        assert on_disk["payload_files"]["disk_bytes"] > 0
        assert on_disk["supernode_graph_bytes"] > 0
        # Components sum to the reported total.
        component_sum = (
            on_disk["payload_files"]["disk_bytes"]
            + on_disk["supernode_graph_bytes"]
            + on_disk["pointer_bytes"]
            + on_disk["pageid_index_bytes"]
            + on_disk["newid_map_bytes"]
            + on_disk["domain_index_bytes"]
            + on_disk["manifest_bytes"]
        )
        assert component_sum == on_disk["total_disk_bytes"]
        assert data["manifest"]["num_pages"] == 250


class TestBuildTrace:
    def test_trace_prints_span_tree(self, stream, tmp_path, capsys):
        root = tmp_path / "traced"
        assert (
            main(["build", "--stream", str(stream), "--out", str(root), "--trace"])
            == 0
        )
        err = capsys.readouterr().err
        assert "build.stream" in err
        assert "build.refine" in err
        assert "build.encode" in err

    def test_trace_out_writes_jsonl(self, stream, tmp_path, capsys):
        root = tmp_path / "traced"
        spans_path = tmp_path / "spans.jsonl"
        assert (
            main(
                [
                    "build",
                    "--stream",
                    str(stream),
                    "--out",
                    str(root),
                    "--trace-out",
                    str(spans_path),
                ]
            )
            == 0
        )
        header, *records = [
            json.loads(line) for line in spans_path.read_text().splitlines()
        ]
        assert header["schema"] == "repro-spans"
        assert header["spans"] == len(records)
        names = {record["name"] for record in records}
        assert {"build.stream", "build.refine", "build.encode"} <= names

    def test_quiet_suppresses_progress(self, stream, tmp_path, capsys):
        root = tmp_path / "quiet"
        assert (
            main(["build", "--stream", str(stream), "--out", str(root), "--quiet"])
            == 0
        )
        assert capsys.readouterr().err == ""


class TestBuildTraceOnFailure:
    def test_failed_build_still_writes_its_spans(
        self, stream, tmp_path, capsys, monkeypatch
    ):
        from repro.errors import BuildError
        from repro.snode import build as snode_build

        def broken_model(*args, **kwargs):
            raise BuildError("injected model failure")

        monkeypatch.setattr(snode_build, "build_model", broken_model)
        spans_path = tmp_path / "spans.jsonl"
        folded_path = tmp_path / "stacks.folded"
        argv = [
            "build", "--stream", str(stream), "--out", str(tmp_path / "sn"),
            "--quiet", "--trace", "--trace-out", str(spans_path),
            "--folded", str(folded_path),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "injected model failure" in err
        assert "build.model" in err  # the --trace tree
        header, *records = [
            json.loads(line) for line in spans_path.read_text().splitlines()
        ]
        assert header["schema"] == "repro-spans"
        assert header["spans"] == len(records)
        status = {record["name"]: record["status"] for record in records}
        assert status["build.stream"] == "ok"
        assert status["build.refine"] == "ok"
        assert status["build.model"] == "error:BuildError"
        assert status["build"] == "error:BuildError"
        assert "build;build.model" in folded_path.read_text()


class TestBenchCommands:
    @pytest.fixture()
    def reports(self, tmp_path):
        from repro.obs.report import build_report, write_report

        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        old = write_report(
            build_report("demo", results=[{"wall_ms": 10.0}]), old_dir
        )
        new = write_report(
            build_report("demo", results=[{"wall_ms": 20.0}]), new_dir
        )
        return old, new

    def test_bench_validate_ok(self, reports, capsys):
        old, _new = reports
        assert main(["bench-validate", str(old)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bench_validate_rejects_bad_file(self, reports, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{}")
        old, _new = reports
        assert main(["bench-validate", str(old), str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_bench_diff_flags_regression(self, reports, capsys):
        old, new = reports
        assert main(["bench-diff", str(old), str(new)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_diff_identical_passes(self, reports, capsys):
        old, _new = reports
        assert main(["bench-diff", str(old), str(old)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_bench_diff_threshold(self, reports, capsys):
        old, new = reports
        assert (
            main(["bench-diff", str(old), str(new), "--threshold", "1.5"]) == 0
        )
        capsys.readouterr()


class TestExperimentJson:
    def test_experiment_writes_bench_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        from repro.experiments import harness

        harness.master_repository.cache_clear()
        harness.dataset.cache_clear()
        monkeypatch.chdir(tmp_path)
        try:
            assert (
                main(["experiment", "scalability", "--json", str(tmp_path)]) == 0
            )
        finally:
            harness.master_repository.cache_clear()
            harness.dataset.cache_clear()
        report_path = tmp_path / "BENCH_scalability.json"
        assert report_path.exists()
        from repro.obs.report import load_report

        report = load_report(report_path)
        assert report["experiment"] == "scalability"
        assert report["params"]["scale_factor"] == 0.05
        capsys.readouterr()
