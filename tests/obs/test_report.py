"""Bench reports: round-trip, validation, and regression diffing."""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ReportError
from repro.obs.histogram import HistogramSet
from repro.obs.report import (
    SCHEMA_VERSION,
    build_report,
    diff_reports,
    flatten_leaves,
    flatten_numeric,
    load_report,
    report_filename,
    validate_report,
    write_report,
)


def sample_report(experiment: str = "queries", wall_ms: float = 10.0) -> dict:
    histograms = HistogramSet()
    histograms.observe("s-node/out_neighborhood", wall_ms / 1000.0)
    return build_report(
        experiment,
        results=[{"query": "query1", "wall_ms": wall_ms, "num_rows": 5}],
        params={"scale_factor": 1.0},
        metrics={"disk_seeks": 12},
        histograms=histograms.to_dict(),
        spans={"build.refine": {"count": 1, "total_s": 0.5}},
    )


class TestBuildAndRoundTrip:
    def test_build_report_is_valid(self):
        report = sample_report()
        assert validate_report(report) == []
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["experiment"] == "queries"
        assert report["created_unix"] > 0

    def test_write_load_round_trip(self, tmp_path):
        report = sample_report()
        path = write_report(report, tmp_path)
        assert path.name == "BENCH_queries.json"
        assert load_report(path) == report

    def test_report_filename_sanitizes(self):
        assert report_filename("a/b c") == "BENCH_a_b_c.json"

    def test_write_refuses_invalid(self, tmp_path):
        report = sample_report()
        del report["metrics"]
        with pytest.raises(ReportError):
            write_report(report, tmp_path)

    def test_build_refuses_empty_experiment(self):
        with pytest.raises(ReportError):
            build_report("", results=[])


class TestValidation:
    def test_missing_key_reported(self):
        report = sample_report()
        del report["histograms"]
        problems = validate_report(report)
        assert any("histograms" in problem for problem in problems)

    def test_wrong_schema_version(self):
        report = sample_report()
        report["schema_version"] = SCHEMA_VERSION + 1
        assert any("unsupported" in p for p in validate_report(report))

    def test_wrong_types(self):
        report = sample_report()
        report["params"] = "not-a-dict"
        assert validate_report(report)
        report = sample_report()
        report["created_unix"] = "yesterday"
        assert validate_report(report)

    def test_histogram_without_buckets(self):
        report = sample_report()
        report["histograms"]["bad"] = {"count": 3}
        assert any("buckets" in p for p in validate_report(report))

    def test_non_dict_document(self):
        assert validate_report([1, 2, 3])

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{not json")
        with pytest.raises(ReportError):
            load_report(path)


class TestFlatten:
    def test_dotted_paths_and_list_indices(self):
        flat = flatten_numeric(
            {"a": {"b": 1.5}, "rows": [{"wall_ms": 2.0}, {"wall_ms": 3.0}]}
        )
        assert flat == {
            "a.b": 1.5,
            "rows[0].wall_ms": 2.0,
            "rows[1].wall_ms": 3.0,
        }

    def test_bools_and_strings_skipped(self):
        assert flatten_numeric({"flag": True, "name": "x", "n": 2}) == {"n": 2.0}

    def test_flatten_leaves_keeps_every_type(self):
        flat = flatten_leaves(
            {"digest": "abc", "flag": True, "rows": [{"n": 2}]}
        )
        assert flat == {"digest": "abc", "flag": True, "rows[0].n": 2}


class TestDiff:
    def test_injected_regression_flagged(self):
        old = sample_report(wall_ms=10.0)
        new = sample_report(wall_ms=15.0)  # +50%, well past the 20% gate
        diff = diff_reports(old, new, threshold=0.2)
        assert diff.regressions
        paths = {entry.path for entry in diff.regressions}
        assert "results[0].wall_ms" in paths

    def test_small_change_not_flagged(self):
        diff = diff_reports(
            sample_report(wall_ms=10.0), sample_report(wall_ms=11.0), threshold=0.2
        )
        assert diff.regressions == []

    def test_improvement_not_flagged(self):
        diff = diff_reports(
            sample_report(wall_ms=10.0), sample_report(wall_ms=2.0), threshold=0.2
        )
        assert diff.regressions == []

    def test_non_cost_keys_ignored(self):
        old = sample_report()
        new = copy.deepcopy(old)
        new["results"][0]["num_rows"] = 500  # count, not a cost
        diff = diff_reports(old, new)
        assert all("num_rows" not in entry.path for entry in diff.entries)
        assert diff.regressions == []

    def test_noise_floor_suppresses_tiny_absolute_changes(self):
        old = sample_report()
        new = copy.deepcopy(old)
        old["results"][0]["wall_ms"] = 1e-9
        new["results"][0]["wall_ms"] = 3e-9  # +200% but ~2e-9 absolute
        diff = diff_reports(old, new, threshold=0.2)
        assert diff.regressions == []

    def test_different_experiments_rejected(self):
        with pytest.raises(ReportError):
            diff_reports(sample_report("queries"), sample_report("ablations"))

    def test_render_mentions_counts(self):
        diff = diff_reports(
            sample_report(wall_ms=10.0), sample_report(wall_ms=15.0)
        )
        text = diff.render()
        assert "regression(s)" in text
        assert "REGRESSION" in text


def build_bench_report(digest: str = "abc123", shards: int = 8) -> dict:
    """A BENCH_build-shaped report: string digest + shard count leaves."""
    return build_report(
        "build",
        results=[
            {"workers": 2, "shards": shards, "encode_s": 1.5, "digest": digest}
        ],
        params={"cpu_count": 1},
    )


class TestExactDiff:
    def test_matching_exact_paths_pass(self):
        diff = diff_reports(
            build_bench_report(), build_bench_report(), exact=("digest", "shards")
        )
        assert len(diff.exact_entries) == 2
        assert diff.exact_mismatches == []
        assert not diff.failed

    def test_string_digest_mismatch_fails(self):
        diff = diff_reports(
            build_bench_report("abc123"),
            build_bench_report("def456"),
            exact=("digest",),
        )
        assert diff.failed
        assert [e.path for e in diff.exact_mismatches] == ["results[0].digest"]
        assert "MISMATCH" in diff.render()

    def test_numeric_exact_mismatch_fails_even_below_threshold(self):
        # shards 8 -> 9 is +12.5%, under the 20% cost threshold — but an
        # exact pin tolerates no drift at all.
        diff = diff_reports(
            build_bench_report(shards=8),
            build_bench_report(shards=9),
            threshold=0.2,
            exact=("shards",),
        )
        assert diff.failed

    def test_exact_path_exempt_from_ignore_and_cost_diff(self):
        old = build_bench_report()
        new = copy.deepcopy(old)
        new["results"][0]["encode_s"] = 99.0  # wall-clock: ignored
        new["results"][0]["digest"] = "zzz"  # determinism: pinned
        diff = diff_reports(
            old, new, ignore=("encode_s", "digest"), exact=("digest",)
        )
        assert diff.regressions == []
        assert diff.failed  # the digest pin wins over --ignore
        assert all("encode_s" not in e.path for e in diff.entries)

    def test_path_missing_from_one_report_is_mismatch(self):
        old = build_bench_report()
        new = copy.deepcopy(old)
        del new["results"][0]["digest"]
        diff = diff_reports(old, new, exact=("digest",))
        assert diff.failed
        assert "<missing>" in repr(diff.exact_mismatches[0].new)

    def test_exact_cost_path_not_double_counted(self):
        # Pinning a cost leaf moves it out of the threshold comparison.
        old = build_bench_report()
        new = copy.deepcopy(old)
        new["results"][0]["encode_s"] = 99.0
        diff = diff_reports(old, new, exact=("encode_s",))
        assert all("encode_s" not in e.path for e in diff.entries)
        assert diff.failed  # but the pin still catches the change


class TestModuleCli:
    """The reports' command line: ``repro bench-validate`` / ``bench-diff``."""

    def test_validate_ok_and_invalid(self, tmp_path, capsys):
        good = write_report(sample_report(), tmp_path)
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        assert cli_main(["bench-validate", str(good)]) == 0
        assert cli_main(["bench-validate", str(good), str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_diff_exit_codes(self, tmp_path, capsys):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        old = write_report(sample_report(wall_ms=10.0), old_dir)
        new = write_report(sample_report(wall_ms=15.0), new_dir)
        assert cli_main(["bench-diff", str(old), str(new)]) == 1
        assert cli_main(["bench-diff", str(old), str(old)]) == 0
        # A generous threshold lets the regressed report pass.
        assert (
            cli_main(["bench-diff", str(old), str(new), "--threshold", "0.9"]) == 0
        )
        capsys.readouterr()

    def test_diff_exact_flag_gates_digests(self, tmp_path, capsys):
        old = write_report(build_bench_report("aaa"), tmp_path / "old")
        new = write_report(build_bench_report("bbb"), tmp_path / "new")
        assert cli_main(["bench-diff", str(old), str(new)]) == 0
        assert (
            cli_main(["bench-diff", str(old), str(new), "--exact", "digest"]) == 1
        )
        capsys.readouterr()
