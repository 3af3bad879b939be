"""End-to-end tests for the access-pattern profiler pipeline.

The acceptance criteria live here: the Mattson prediction must agree with
the measured mini-sweep, the seek and hot-set sections must be non-empty
on a real workload, ``repro profile`` must emit a schema-valid bench
report, and an *inactive* profiler must do no tracing work at all during
a build.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.experiments import profile


@pytest.fixture(scope="module")
def queries_result():
    """One shared small profiled query run (the expensive fixture)."""
    return profile.run(
        size=1200, scheme="s-node", capacities_kb=(16, 64), trials=2
    )


class TestQueriesWorkload:
    def test_prediction_matches_measurement_within_one_percent(
        self, queries_result
    ):
        assert queries_result.validation  # mini-sweep actually ran
        assert queries_result.worst_delta < 0.01

    def test_curves_cover_every_sweep_query(self, queries_result):
        from repro.experiments.buffer_sweep import SWEEP_QUERIES

        assert set(queries_result.curves) == set(SWEEP_QUERIES)
        for curve in queries_result.curves.values():
            assert curve.accesses > 0

    def test_seek_profile_nonempty(self, queries_result):
        assert queries_result.seek is not None
        assert queries_result.seek.total_reads > 0
        assert 0.0 < queries_result.seek.sequential_fraction <= 1.0

    def test_hot_supernodes_nonempty(self, queries_result):
        assert queries_result.heatmap is not None
        assert queries_result.heatmap.hot_supernodes(5)

    def test_render_and_results_payload(self, queries_result):
        text = profile.render(queries_result, top=5)
        assert "miss-ratio curves" in text
        assert "predicted vs measured" in text
        payload = profile.to_results(queries_result, (16, 64), top=5)
        json.dumps(payload)  # must be serializable as-is
        assert payload["mrc"]["query1"]["at"]["16384"]
        assert payload["seek_profile"]["total_reads"] > 0
        assert payload["heatmap"]["hot_supernodes"]

    def test_events_dump_has_phase_markers(self, queries_result, tmp_path):
        path = tmp_path / "events.jsonl"
        profile.write_events(queries_result, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        phases = [r["name"] for r in records if r["type"] == "phase"]
        assert phases == ["query1", "query5", "query6"]
        assert any(r["type"] == "io" for r in records)
        assert any(r["type"] in ("hit", "miss") for r in records)


class TestBuildWorkload:
    def test_build_profile_has_all_sections(self):
        result = profile.run(size=800, workload="build", trials=1)
        assert "build" in result.curves
        assert result.curves["build"].accesses > 0
        assert result.seek is not None and result.seek.total_reads > 0
        assert result.heatmap is not None
        assert result.heatmap.hot_supernodes(3)


class TestValidation:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ReproError):
            profile.run(size=800, scheme="btree")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ReproError):
            profile.run(size=800, workload="writes")


class TestInactiveOverhead:
    def test_build_does_no_tracing_work_when_profiler_inactive(
        self, tmp_path, monkeypatch
    ):
        """Without activation, a build must never touch a tracer: every
        recording method is rigged to blow up, and the build still runs."""
        from repro.obs.profile.trace import AccessTracer
        from repro.snode.build import build_snode
        from repro.webdata.generator import GeneratorConfig, generate_web

        def boom(self, *args, **kwargs):
            raise AssertionError("profiler work performed while inactive")

        for name in (
            "record_io",
            "record_page",
            "record_forget",
            "record_buffer",
            "record_admit",
            "record_drop",
        ):
            monkeypatch.setattr(AccessTracer, name, boom)

        repository = generate_web(GeneratorConfig(num_pages=400, seed=3))
        build = build_snode(repository, tmp_path / "sn")
        build.store.drop_buffers()
        build.store.out_neighbors(0)
        build.store.close()


class TestBufferSweepPredict:
    def test_predictions_track_measured_points(self):
        from repro.experiments import buffer_sweep

        sweep = buffer_sweep.run(
            size=1000,
            buffer_sizes_kb=(16, 64),
            trials=2,
            schemes=("s-node",),
            predict=True,
        )
        assert sweep.points and sweep.curves
        assert set(sweep.traces) == set(sweep.curves)
        worst = 0.0
        for point in sweep.points:
            curve = sweep.curves[(point.scheme, point.query)]
            worst = max(
                worst, abs(curve.hit_ratio(point.buffer_kb * 1024) - point.hit_ratio)
            )
        assert worst < 0.01
        rows = buffer_sweep.validation_rows(sweep, "s-node")
        assert len(rows) == len(sweep.points)
        assert buffer_sweep.worst_delta(rows) == worst
        report = buffer_sweep.prediction_report(sweep)
        assert "predicted" in report
        assert "worst |predicted - measured|" in report

    def test_rows_above_a_pressed_recording_are_unverified(self):
        """S-Node's request stream depends on the capacity once its pool
        evicts: a capacity above the recording one that still evicts
        (20 KiB here) asks for more graphs than the recorded stream, and
        its prediction misses.  Such rows, and knees above the recording
        capacity, are flagged; every row left verified agrees exactly."""
        from repro.experiments import buffer_sweep

        sweep = buffer_sweep.run(
            size=800, buffer_sizes_kb=(16, 20), trials=1, schemes=("s-node",), predict=True
        )
        rows = buffer_sweep.validation_rows(sweep, "s-node")
        assert all(sweep.evicted.values())
        assert [row["verified"] for row in rows] == [True] * 3 + [False] * 3
        assert all(row["delta"] == 0 for row in rows if row["verified"])
        assert any(row["delta"] != 0 for row in rows)
        report = buffer_sweep.prediction_report(sweep)
        assert "3 rows unverified" in report
        assert "(unverified)" in report.split("MRC saturation capacities")[1]

    def test_without_predict_the_sweep_has_no_curves(self):
        from repro.experiments import buffer_sweep

        sweep = buffer_sweep.run(
            size=600, buffer_sizes_kb=(16,), trials=1, schemes=("s-node",)
        )
        assert len(sweep.points) == 3
        assert sweep.curves == {} and sweep.traces == {}


class TestCli:
    def test_repro_profile_emits_validated_report(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.report import load_report

        assert (
            main(
                [
                    "profile",
                    "--size",
                    "1000",
                    "--capacities-kb",
                    "16",
                    "--trials",
                    "1",
                    "--top",
                    "3",
                    "--json",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "miss-ratio curves" in out
        report = load_report(tmp_path / "BENCH_profile.json")
        results = report["results"]
        assert results["worst_validation_delta"] < 0.01
        assert results["seek_profile"]["total_reads"] > 0
        assert results["heatmap"]["hot_supernodes"]

    def test_quiet_suppresses_report_text(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "profile",
                    "--size",
                    "1000",
                    "--capacities-kb",
                    "16",
                    "--trials",
                    "1",
                    "--quiet",
                    "--json",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "miss-ratio" not in capsys.readouterr().out

    def test_every_entry_point_runs_one_driver(self, tmp_path, capsys):
        """``repro profile``, ``repro experiment profile`` and the driver's
        ``main`` parse the same flags and write the same report."""
        import re
        import tempfile

        from repro.cli import main
        from repro.obs.report import flatten_leaves, load_report

        args = ["--size", "800", "--capacities-kb", "16", "64",
                "--trials", "1", "--quiet"]
        assert main(["profile", *args, "--json", str(tmp_path / "a")]) == 0
        assert main(
            ["experiment", "profile", *args, "--json", str(tmp_path / "b")]
        ) == 0
        profile.main([*args, "--json", str(tmp_path / "c")])
        capsys.readouterr()
        # Seek-profile files are keyed by their (temporary) build path.
        workdir = re.compile(re.escape(tempfile.gettempdir()) + r"/[^/]+")
        outcomes = []
        for name in "abc":
            results = load_report(tmp_path / name / "BENCH_profile.json")["results"]
            paths = {workdir.sub("TMP", path) for path in flatten_leaves(results)}
            outcomes.append((paths, results["worst_validation_delta"]))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert len(outcomes[0][0]) > 0
