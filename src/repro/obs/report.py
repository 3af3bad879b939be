"""Machine-readable bench reports: build, validate, write, load, diff.

Every experiment driver can serialize its run into one versioned JSON
document — ``BENCH_<experiment>.json`` — bundling

* ``results`` — the experiment's structured output (rows, timings, ...);
* ``metrics`` — a :meth:`MetricsRegistry.snapshot` taken after the run;
* ``histograms`` — per-operation latency histograms
  (:meth:`~repro.obs.histogram.HistogramSet.to_dict`);
* ``spans`` — the tracer's per-name span summary;
* ``params`` / ``environment`` — enough context to reproduce the run.

The schema is versioned (:data:`SCHEMA_VERSION`) and validated by
:func:`validate_report` — hand-rolled structural checks, no external
jsonschema dependency.  :func:`diff_reports` compares two reports'
numeric cost metrics (wall/simulated times, percentiles, seeks, bytes,
...) and flags relative increases beyond a threshold.  The command line
is ``repro bench-validate FILES...`` and ``repro bench-diff OLD NEW``
(:mod:`repro.cli.bench`), which is how CI turns the JSON trail into
regression gates.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReportError

#: Version written into (and required of) every bench report.
SCHEMA_VERSION = 1

#: Top-level keys every report must carry, with their required types.
_REQUIRED_KEYS: dict[str, type] = {
    "schema_version": int,
    "experiment": str,
    "created_unix": float,
    "environment": dict,
    "params": dict,
    "results": (dict, list),  # type: ignore[dict-item]
    "metrics": dict,
    "histograms": dict,
    "spans": dict,
}

#: Leaf-key substrings identifying "lower is better" cost metrics that
#: the differ compares (sizes/counts like num_supernodes are excluded —
#: a bigger dataset is not a regression).
_COST_MARKERS = (
    "_ms",
    "_ns",
    "_s",
    "seconds",
    "p50",
    "p90",
    "p99",
    "mean",
    "max",
    "seeks",
    "bytes_read",
    "evictions",
    "iterations",
    # Compression cost: checksum framing must stay within the bench-diff
    # threshold of the committed baselines (lower is better).
    "bits_per_edge",
)


def _default_environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def build_report(
    experiment: str,
    results,
    params: dict | None = None,
    metrics: dict | None = None,
    histograms: dict | None = None,
    spans: dict | None = None,
) -> dict:
    """Assemble a schema-conforming report document."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "created_unix": time.time(),
        "environment": _default_environment(),
        "params": params or {},
        "results": results,
        "metrics": metrics or {},
        "histograms": histograms or {},
        "spans": spans or {},
    }
    problems = validate_report(report)
    if problems:
        raise ReportError(
            f"constructed report is invalid: {'; '.join(problems)}"
        )
    return report


def validate_report(data) -> list[str]:
    """Structural problems of a report document (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"report must be a JSON object, got {type(data).__name__}"]
    for key, expected in _REQUIRED_KEYS.items():
        if key not in data:
            problems.append(f"missing key {key!r}")
            continue
        value = data[key]
        if expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"{key!r} must be a number")
        elif expected is int:
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"{key!r} must be an integer")
        elif not isinstance(value, expected):
            name = (
                "/".join(t.__name__ for t in expected)
                if isinstance(expected, tuple)
                else expected.__name__
            )
            problems.append(f"{key!r} must be a {name}")
    if not problems and data["schema_version"] != SCHEMA_VERSION:
        problems.append(
            f"schema_version {data['schema_version']} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    if not problems and not data["experiment"]:
        problems.append("'experiment' must be non-empty")
    if not problems:
        for name, payload in data["histograms"].items():
            if not isinstance(payload, dict) or "buckets" not in payload:
                problems.append(
                    f"histogram {name!r} must be a dict with 'buckets'"
                )
    return problems


def report_filename(experiment: str) -> str:
    """The canonical file name for an experiment's report."""
    safe = experiment.replace("/", "_").replace(" ", "_")
    return f"BENCH_{safe}.json"


def write_report(report: dict, out_dir: Path | str) -> Path:
    """Validate and write ``BENCH_<experiment>.json`` under ``out_dir``."""
    problems = validate_report(report)
    if problems:
        raise ReportError(f"refusing to write invalid report: {'; '.join(problems)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / report_filename(report["experiment"])
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: Path | str) -> dict:
    """Read and validate a report; raises :class:`ReportError` on problems."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReportError(f"cannot read bench report {path}: {exc}") from exc
    problems = validate_report(data)
    if problems:
        raise ReportError(f"invalid bench report {path}: {'; '.join(problems)}")
    return data


# -- diffing ----------------------------------------------------------------


def flatten_numeric(value, prefix: str = "") -> dict[str, float]:
    """Dotted-path -> value map of every numeric leaf under ``value``."""
    out: dict[str, float] = {}
    if isinstance(value, bool):
        return out
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key in value:
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value[key], child_prefix))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            child_prefix = f"{prefix}[{index}]"
            out.update(flatten_numeric(item, child_prefix))
    return out


def flatten_leaves(value, prefix: str = "") -> dict[str, object]:
    """Dotted-path -> value map of *every* leaf (numbers, strings, bools).

    The exact-compare companion of :func:`flatten_numeric`: determinism
    markers like build digests are strings, so the exact differ needs
    all leaf types, not just the numeric ones.
    """
    if isinstance(value, dict):
        out: dict[str, object] = {}
        for key in value:
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_leaves(value[key], child_prefix))
        return out
    if isinstance(value, (list, tuple)):
        out = {}
        for index, item in enumerate(value):
            out.update(flatten_leaves(item, f"{prefix}[{index}]"))
        return out
    return {prefix: value}


def _is_cost_path(path: str) -> bool:
    leaf = path.rsplit(".", 1)[-1]
    return any(marker in leaf for marker in _COST_MARKERS)


@dataclass
class DiffEntry:
    """One compared metric between two reports."""

    path: str
    old: float
    new: float
    change_fraction: float
    regression: bool


#: Placeholder rendered when an exact-pinned path exists in only one report.
_MISSING = "<missing>"


@dataclass
class ExactEntry:
    """One exact-pinned leaf compared for strict equality."""

    path: str
    old: object
    new: object
    match: bool


@dataclass
class BenchDiff:
    """Outcome of comparing two bench reports."""

    experiment: str
    threshold: float
    entries: list[DiffEntry] = field(default_factory=list)
    exact_entries: list[ExactEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffEntry]:
        """Entries whose cost grew beyond the threshold."""
        return [entry for entry in self.entries if entry.regression]

    @property
    def exact_mismatches(self) -> list[ExactEntry]:
        """Exact-pinned leaves whose values differ (or exist in only one)."""
        return [entry for entry in self.exact_entries if not entry.match]

    @property
    def failed(self) -> bool:
        """True when the diff should gate (regressions or exact mismatches)."""
        return bool(self.regressions or self.exact_mismatches)

    def render(self, limit: int = 20) -> str:
        """Human-readable summary, worst regressions first."""
        lines = [
            f"bench-diff [{self.experiment}]: {len(self.entries)} cost metrics "
            f"compared, {len(self.regressions)} regression(s) beyond "
            f"{self.threshold * 100:.0f}%"
        ]
        ordered = sorted(
            self.entries, key=lambda e: e.change_fraction, reverse=True
        )
        for entry in ordered[:limit]:
            flag = "REGRESSION" if entry.regression else (
                "improved" if entry.change_fraction < -self.threshold else "ok"
            )
            lines.append(
                f"  {entry.path}: {entry.old:.4g} -> {entry.new:.4g} "
                f"({entry.change_fraction * 100:+.1f}%) {flag}"
            )
        if len(self.entries) > limit:
            lines.append(f"  ... {len(self.entries) - limit} more")
        if self.exact_entries:
            lines.append(
                f"  exact: {len(self.exact_entries)} pinned leaves, "
                f"{len(self.exact_mismatches)} mismatch(es)"
            )
            for entry in self.exact_mismatches[:limit]:
                lines.append(
                    f"  {entry.path}: {entry.old!r} -> {entry.new!r} MISMATCH"
                )
        return "\n".join(lines)


#: Absolute floor (in metric units) below which changes are noise, not
#: regressions — a 0.01 ms -> 0.02 ms flip is +100% but meaningless.
MIN_DELTA = 1e-6


def diff_reports(
    old: dict,
    new: dict,
    threshold: float = 0.2,
    ignore: tuple[str, ...] = (),
    exact: tuple[str, ...] = (),
) -> BenchDiff:
    """Compare two reports' cost metrics; flag increases > ``threshold``.

    Only ``results`` and ``histograms`` sections are compared, and only
    paths whose leaf key looks like a cost (times, percentiles, seeks,
    bytes read, ...).  Paths containing any ``ignore`` substring are
    skipped entirely — how CI excludes machine-dependent wall-clock
    metrics while still gating the deterministic simulated costs.

    Paths containing any ``exact`` substring are pinned instead: every
    such leaf (numeric or not — build digests are strings) must be
    byte-equal between reports, and a leaf present in only one report is
    a mismatch.  Exact paths are exempt from ``ignore`` and from the
    cost-threshold comparison — how CI gates determinism markers like
    shard counts and manifest digests while ignoring wall-clock.  The
    reports must describe the same experiment.
    """
    for data in (old, new):
        problems = validate_report(data)
        if problems:
            raise ReportError(f"cannot diff invalid report: {'; '.join(problems)}")
    if old["experiment"] != new["experiment"]:
        raise ReportError(
            f"cannot diff reports of different experiments: "
            f"{old['experiment']!r} vs {new['experiment']!r}"
        )
    diff = BenchDiff(experiment=new["experiment"], threshold=threshold)
    old_values: dict[str, float] = {}
    new_values: dict[str, float] = {}
    for section in ("results", "histograms"):
        old_values.update(flatten_numeric(old[section], section))
        new_values.update(flatten_numeric(new[section], section))
    if exact:
        old_leaves: dict[str, object] = {}
        new_leaves: dict[str, object] = {}
        for section in ("results", "histograms"):
            old_leaves.update(flatten_leaves(old[section], section))
            new_leaves.update(flatten_leaves(new[section], section))
        for path in sorted(set(old_leaves) | set(new_leaves)):
            if not any(marker in path for marker in exact):
                continue
            before = old_leaves.get(path, _MISSING)
            after = new_leaves.get(path, _MISSING)
            match = (
                before is not _MISSING and after is not _MISSING
                and before == after
            )
            diff.exact_entries.append(
                ExactEntry(path=path, old=before, new=after, match=match)
            )
    for path in sorted(set(old_values) & set(new_values)):
        if not _is_cost_path(path):
            continue
        if any(marker in path for marker in exact):
            continue  # pinned above; never double-count or threshold it
        if any(marker in path for marker in ignore):
            continue
        before, after = old_values[path], new_values[path]
        delta = after - before
        if before > 0:
            change = delta / before
        else:
            change = 0.0 if delta <= MIN_DELTA else float("inf")
        regression = change > threshold and delta > MIN_DELTA
        diff.entries.append(
            DiffEntry(
                path=path,
                old=before,
                new=after,
                change_fraction=change,
                regression=regression,
            )
        )
    return diff
