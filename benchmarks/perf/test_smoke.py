"""Smoke test of the benchmark command (not part of the tier-1 suite).

Run it with ``python -m pytest benchmarks/perf/test_smoke.py``.  It drives
``run.py --smoke`` the way a person and the way the driver would, and
asserts that every metric ``BENCHMARK.json`` declares is printed for every
workload, by name, with its unit.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]


def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def test_smoke_prints_every_declared_metric_with_its_unit():
    done = _run("--smoke", "--traced", "--seed", "5")
    assert done.returncode == 0, done.stdout + done.stderr
    sections = re.split(r"^== ", done.stdout, flags=re.MULTILINE)[1:]
    printed = {section.split(":", 1)[0]: section for section in sections}
    for workload in WORKLOADS:
        for title, declared in (
            (workload, MANIFEST["end_to_end"]),
            (f"{workload} (traced)", MANIFEST["per_layer"]),
        ):
            assert title in printed, f"no report for {title}"
            assert printed[title].startswith(f"{title}: correct"), printed[title][:200]
            for metric in declared:
                line = re.search(
                    rf"^\s+{re.escape(metric['name'])}\s+(\S+) {re.escape(metric['unit'])}\b",
                    printed[title],
                    flags=re.MULTILINE,
                )
                assert line, f"{title}: {metric['name']} [{metric['unit']}] not printed"
                float(line.group(1))
            assert "work counters of one round:" in printed[title]


def test_driver_form_ends_with_one_json_object():
    for trace, declared in (("0", MANIFEST["end_to_end"]), ("1", MANIFEST["per_layer"])):
        done = _run(
            "--smoke", "--workload", "navigate-cold", "--seed", "9", "--seconds", "1",
            "--trace", trace,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [metric["name"] for metric in declared]
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if trace == "0":
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
