"""``repro profile``: one workload, every access-pattern view at once.

Runs a query (or build) workload under the access-pattern profiler
(:mod:`repro.obs.profile`) and renders the three analyses the aggregate
counters cannot provide:

* **miss-ratio curves** — Mattson stack-distance analysis of the recorded
  buffer trace gives the exact predicted LRU hit ratio at *every* cache
  size from one run, then a measured mini-sweep at the requested
  capacities validates the prediction in the same report;
* **seek profile** — per-file seek-distance histograms and
  sequential-run lengths (the distributional form of Figure 8's
  ``disk_seeks`` rule);
* **access heatmap** — hot-set skew, top-k hot supernodes and the
  cumulative working-set curve explaining *why* a small buffer suffices
  (Figure 12).

``--json`` writes the combined profile as a validated
``BENCH_profile.json`` bench report; ``--events-out`` dumps the raw
access-event JSONL for offline analysis.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.errors import BufferCapacityError, ReproError
from repro.experiments.buffer_sweep import (
    PREDICT_TRACE_CAPACITY,
    SWEEP_QUERIES,
    unpinned_hits_misses,
)
from repro.experiments.harness import (
    add_report_arguments,
    add_trace_arguments,
    dataset,
    emit_report,
    format_table,
    sweep_sizes,
    trace_session,
)
from repro.experiments.queries import SCHEMES, _build_pair
from repro.index.pagerank_index import PageRankIndex
from repro.index.textindex import TextIndex
from repro.obs import profile as access_profile
from repro.obs import tracing

#: Capacities (KiB) the measured validation mini-sweep runs at.
DEFAULT_PROFILE_CAPACITIES_KB = (16, 32, 64, 128, 256)

WORKLOADS = ("queries", "build")


class ProfileResult:
    """Everything ``repro profile`` measured and derived for one workload."""

    def __init__(self, scheme: str, workload: str, num_pages: int, trials: int) -> None:
        self.scheme = scheme
        self.workload = workload
        self.num_pages = num_pages
        self.trials = trials
        #: Per-query Mattson curves (one entry, "build", for build runs).
        self.curves: dict[str, access_profile.MissRatioCurve] = {}
        #: Measured-vs-predicted rows from the validation mini-sweep.
        self.validation: list[dict] = []
        self.seek: access_profile.SeekProfile | None = None
        self.heatmap: access_profile.AccessHeatmap | None = None
        #: Summed event counts across all recording tracers.
        self.trace_counts: dict[str, int] = {}
        #: Raw per-phase JSONL dumps, for ``--events-out``.
        self.event_dumps: list[tuple[str, str]] = []

    @property
    def worst_delta(self) -> float:
        """Largest |predicted - measured| hit-ratio gap (0 when unswept)."""
        return max((abs(row["delta"]) for row in self.validation), default=0.0)


def _merge_counts(into: dict[str, int], counts: dict[str, int]) -> None:
    for name, value in counts.items():
        into[name] = into.get(name, 0) + value


def _record_query_traces(result: ProfileResult, pair, engine, trials: int) -> list:
    """Phase 1: one profiled run per query; fills curves, returns tracers."""
    tracers = []
    for query_name, query_fn in SWEEP_QUERIES.items():
        tracer = access_profile.AccessTracer(capacity=PREDICT_TRACE_CAPACITY)
        pair.drop_caches()
        with tracing.span("profile.record", query=query_name):
            with access_profile.activated(tracer):
                query_fn(engine)  # cold warm-up: stack-updating, uncounted
                boundary = tracer.seq
                for _ in range(trials):
                    query_fn(engine)
        result.curves[query_name] = access_profile.analyze_buffer_trace(
            tracer.buffer_events(), count_from_seq=boundary
        )
        _merge_counts(result.trace_counts, tracer.summary())
        result.event_dumps.append((query_name, tracer.to_jsonl()))
        tracers.append(tracer)
    return tracers


def _measure_validation(
    result: ProfileResult, pair, engine, capacities_kb, trials: int
) -> None:
    """Phase 2: measured mini-sweep at each capacity vs the predictions."""
    for capacity_kb in capacities_kb:
        try:
            pair.set_buffer_bytes(capacity_kb * 1024)
        except BufferCapacityError:
            # Capacity below the scheme's pinned floor: the point is
            # infeasible, not mispredicted — skip it explicitly.
            tracing.note("profile_validation_infeasible")
            continue
        for query_name, query_fn in SWEEP_QUERIES.items():
            pair.drop_caches()
            query_fn(engine)  # warm-up, matching the recorded protocol
            hits = 0
            misses = 0
            with tracing.span(
                "profile.measure", query=query_name, capacity_kb=capacity_kb
            ):
                for _ in range(trials):
                    pair.reset_io_stats()
                    query_fn(engine)
                    trial_hits, trial_misses = unpinned_hits_misses(pair)
                    hits += trial_hits
                    misses += trial_misses
            measured = hits / (hits + misses) if (hits + misses) else 0.0
            predicted = result.curves[query_name].hit_ratio(capacity_kb * 1024)
            result.validation.append(
                {
                    "query": query_name,
                    "capacity_kb": capacity_kb,
                    "predicted_hit_ratio": predicted,
                    "measured_hit_ratio": measured,
                    "delta": predicted - measured,
                }
            )


def run(
    size: int | None = None,
    scheme: str = "s-node",
    workload: str = "queries",
    capacities_kb: tuple[int, ...] = DEFAULT_PROFILE_CAPACITIES_KB,
    trials: int = 2,
) -> ProfileResult:
    """Profile one workload; returns curves + validation + seek + heatmap."""
    if workload not in WORKLOADS:
        raise ReproError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if scheme not in SCHEMES:
        raise ReproError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    size = size or sweep_sizes()[3]
    repository = dataset(size)
    result = ProfileResult(scheme, workload, size, trials)
    with tempfile.TemporaryDirectory() as workdir:
        if workload == "build":
            _run_build(result, repository, Path(workdir))
        else:
            with tracing.span("profile.build", scheme=scheme):
                pair = _build_pair(
                    scheme, repository, Path(workdir) / scheme, capacities_kb[0] * 1024
                )
            engine = pair.make_engine(
                repository, TextIndex(repository), PageRankIndex(repository)
            )
            tracers = _record_query_traces(result, pair, engine, trials)
            _measure_validation(result, pair, engine, capacities_kb, trials)
            io_events = [e for t in tracers for e in t.io_events()]
            buffer_events = [e for t in tracers for e in t.buffer_events()]
            result.seek = access_profile.SeekProfile.from_events(io_events)
            result.heatmap = access_profile.AccessHeatmap.from_events(
                buffer_events, io_events
            )
            pair.close()
    return result


def _run_build(result: ProfileResult, repository, workdir: Path) -> None:
    """Profile a fresh S-Node build (open + verify reads) end to end."""
    from repro.snode.build import BuildOptions, build_snode

    tracer = access_profile.AccessTracer(capacity=PREDICT_TRACE_CAPACITY)
    with tracing.span("profile.build_workload"):
        with access_profile.activated(tracer):
            build = build_snode(
                repository, workdir / "snode", BuildOptions()
            )
            # Touch every supernode once so the trace includes the read
            # path, not only the build's write-side bookkeeping.
            for supernode in range(build.model.num_supernodes):
                build.store.intranode_rows(supernode)
            build.store.close()
    result.curves["build"] = access_profile.analyze_buffer_trace(
        tracer.buffer_events()
    )
    _merge_counts(result.trace_counts, tracer.summary())
    result.event_dumps.append(("build", tracer.to_jsonl()))
    result.seek = access_profile.SeekProfile.from_events(tracer.io_events())
    result.heatmap = access_profile.AccessHeatmap.from_events(
        tracer.buffer_events(), tracer.io_events()
    )


def render(result: ProfileResult, top: int = 10) -> str:
    """The full text report."""
    lines = [
        f"[profile] scheme={result.scheme} workload={result.workload} "
        f"pages={result.num_pages} trials={result.trials}"
    ]
    lines.append("\n== miss-ratio curves (Mattson, one recorded run each) ==")
    for name, curve in sorted(result.curves.items()):
        lines.append(
            f"{name}: {curve.accesses} accesses, {curve.compulsory} compulsory; "
            f"first hit at {curve.min_useful_capacity / 1024.0:.1f} KiB, "
            f"saturates at {curve.saturation_capacity / 1024.0:.1f} KiB"
        )
    if result.validation:
        rows = [
            (
                row["query"],
                f"{row['capacity_kb']} KiB",
                f"{row['predicted_hit_ratio'] * 100.0:.2f}%",
                f"{row['measured_hit_ratio'] * 100.0:.2f}%",
                f"{row['delta'] * 100.0:+.2f}pp",
            )
            for row in result.validation
        ]
        lines.append("\npredicted vs measured hit ratio:")
        lines.append(
            format_table(
                ["query", "buffer", "predicted", "measured", "delta"], rows
            )
        )
        lines.append(
            f"worst |predicted - measured| = {result.worst_delta * 100.0:.2f}pp"
        )
    if result.seek is not None:
        lines.append("\n== seek profile (Figure 8 locality, distributional) ==")
        lines.append(result.seek.render())
    if result.heatmap is not None:
        lines.append("\n== access heatmap (hot set / working set) ==")
        lines.append(result.heatmap.render(top))
    dropped = result.trace_counts.get("dropped_io", 0) + result.trace_counts.get(
        "dropped_buffer", 0
    )
    if dropped:
        lines.append(f"\nwarning: {dropped} trace events dropped (ring bound)")
    return "\n".join(lines)


def to_results(result: ProfileResult, capacities_kb, top: int = 10) -> dict:
    """JSON-serializable profile payload (the ``--json`` artifact body)."""
    capacities = [kb * 1024 for kb in capacities_kb]
    return {
        "scheme": result.scheme,
        "workload": result.workload,
        "num_pages": result.num_pages,
        "trials": result.trials,
        "mrc": {
            name: curve.to_dict(capacities=capacities)
            for name, curve in sorted(result.curves.items())
        },
        "validation": result.validation,
        "worst_validation_delta": result.worst_delta,
        "seek_profile": result.seek.to_dict() if result.seek else {},
        "heatmap": result.heatmap.to_dict(top) if result.heatmap else {},
        "trace_events": result.trace_counts,
    }


def write_events(result: ProfileResult, path) -> None:
    """Dump every phase's raw access events as JSONL with phase markers."""
    with open(path, "w") as handle:
        for phase, dump in result.event_dumps:
            handle.write(f'{{"type": "phase", "name": "{phase}"}}\n')
            if dump:
                handle.write(dump + "\n")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--scheme", choices=SCHEMES, default="s-node")
    parser.add_argument("--workload", choices=WORKLOADS, default="queries")
    parser.add_argument(
        "--capacities-kb",
        type=int,
        nargs="+",
        default=list(DEFAULT_PROFILE_CAPACITIES_KB),
        help="buffer capacities (KiB) for the measured validation sweep",
    )
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--top", type=int, default=10, help="top-k hot entries shown")
    parser.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="write the raw access-event trace as JSON lines to FILE",
    )
    add_report_arguments(parser)
    add_trace_arguments(parser)
    arguments = parser.parse_args(argv)
    with trace_session(arguments, "profile") as tracer:
        result = run(
            size=arguments.size,
            scheme=arguments.scheme,
            workload=arguments.workload,
            capacities_kb=tuple(arguments.capacities_kb),
            trials=arguments.trials,
        )
    if not arguments.quiet:
        print(render(result, top=arguments.top))
    if arguments.events_out:
        write_events(result, arguments.events_out)
        print(f"access events written to {arguments.events_out}", file=sys.stderr)
    emit_report(
        arguments.json_dir,
        "profile",
        to_results(result, arguments.capacities_kb, top=arguments.top),
        params={
            "scheme": arguments.scheme,
            "workload": arguments.workload,
            "trials": arguments.trials,
            "capacities_kb": list(arguments.capacities_kb),
        },
        spans=tracer.summary_dict() if tracer else None,
    )


if __name__ == "__main__":
    main()
