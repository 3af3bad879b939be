"""``repro profile``: one workload, every access-pattern view at once.

Runs a query (or build) workload under the access-pattern profiler
(:mod:`repro.obs.profile`) and renders the three analyses the aggregate
counters cannot provide:

* **miss-ratio curves** — Mattson stack-distance analysis of the recorded
  buffer trace gives the exact predicted LRU hit ratio at *every* cache
  size from one run, then the measured sweep at the requested
  capacities validates the prediction in the same report (one scheme of
  ``buffer_sweep --predict``: the same recorded runs and measured
  points);
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
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.experiments import buffer_sweep
from repro.experiments.harness import (
    add_report_arguments,
    add_trace_arguments,
    dataset,
    emit_report,
    sweep_sizes,
    trace_session,
)
from repro.experiments.queries import SCHEMES
from repro.obs import profile as access_profile
from repro.obs import tracing

#: Capacities (KiB) the measured validation mini-sweep runs at.
DEFAULT_PROFILE_CAPACITIES_KB = (16, 32, 64, 128, 256)

WORKLOADS = ("queries", "build")


@dataclass
class ProfileResult:
    """Everything ``repro profile`` measured and derived for one workload."""

    scheme: str
    workload: str
    num_pages: int
    trials: int
    #: Phase (a query name, or "build") -> its recorded access trace.
    traces: dict[str, access_profile.AccessTracer]
    #: Phase -> the Mattson curve of its recorded buffer trace.
    curves: dict[str, access_profile.MissRatioCurve]
    #: Predicted-vs-measured rows of the validation sweep (queries only).
    validation: list[dict]
    #: Phases whose knee lies where the request stream differs from the
    #: recorded one (:meth:`buffer_sweep.Sweep.verified`).
    unverified_knees: set[str]
    seek: access_profile.SeekProfile
    heatmap: access_profile.AccessHeatmap

    @property
    def worst_delta(self) -> float:
        """Largest |predicted - measured| hit-ratio gap (0 when unswept)."""
        return buffer_sweep.worst_delta(self.validation)

    @property
    def trace_counts(self) -> dict[str, int]:
        """Event counts summed over every phase's trace."""
        counts: dict[str, int] = {}
        for tracer in self.traces.values():
            for name, value in tracer.summary().items():
                counts[name] = counts.get(name, 0) + value
        return counts


def run(
    size: int | None = None,
    scheme: str = "s-node",
    workload: str = "queries",
    capacities_kb: tuple[int, ...] = DEFAULT_PROFILE_CAPACITIES_KB,
    trials: int = 2,
) -> ProfileResult:
    """Profile one workload; returns curves + validation + seek + heatmap.

    The queries workload is :func:`buffer_sweep.run` with ``predict`` at
    ``capacities_kb`` for one scheme: its recorded runs give the curves,
    seek profile and heatmap, its measured points the validation rows.
    """
    if workload not in WORKLOADS:
        raise ReproError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if scheme not in SCHEMES:
        raise ReproError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    size = size or sweep_sizes()[3]
    validation: list[dict] = []
    unverified_knees: set[str] = set()
    if workload == "build":
        tracer = _record_build(dataset(size))
        traces = {"build": tracer}
        curves = {"build": access_profile.analyze_buffer_trace(tracer.buffer_events())}
    else:
        sweep = buffer_sweep.run(
            size=size,
            buffer_sizes_kb=tuple(capacities_kb),
            trials=trials,
            schemes=(scheme,),
            predict=True,
        )
        traces = {query: tracer for (_, query), tracer in sweep.traces.items()}
        curves = {query: curve for (_, query), curve in sweep.curves.items()}
        validation = buffer_sweep.validation_rows(sweep, scheme)
        unverified_knees = {
            query
            for query, curve in curves.items()
            if not sweep.verified(scheme, query, curve.saturation_capacity)
        }
    io_events = [event for tracer in traces.values() for event in tracer.io_events()]
    buffer_events = [
        event for tracer in traces.values() for event in tracer.buffer_events()
    ]
    return ProfileResult(
        scheme=scheme,
        workload=workload,
        num_pages=size,
        trials=trials,
        traces=traces,
        curves=curves,
        validation=validation,
        unverified_knees=unverified_knees,
        seek=access_profile.SeekProfile.from_events(io_events),
        heatmap=access_profile.AccessHeatmap.from_events(buffer_events, io_events),
    )


def _record_build(repository) -> access_profile.AccessTracer:
    """Trace a fresh S-Node build (open + verify reads) end to end."""
    from repro.snode.build import BuildOptions, build_snode

    tracer = access_profile.AccessTracer(
        capacity=buffer_sweep.PREDICT_TRACE_CAPACITY
    )
    with tempfile.TemporaryDirectory() as workdir:
        with tracing.span("profile.build_workload"):
            with access_profile.activated(tracer):
                build = build_snode(
                    repository, Path(workdir) / "snode", BuildOptions()
                )
                # Touch every supernode once so the trace includes the
                # read path, not only the build's write-side bookkeeping.
                for supernode in range(build.model.num_supernodes):
                    build.store.intranode_rows(supernode)
                build.store.close()
    return tracer


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
            + (" (unverified)" if name in result.unverified_knees else "")
        )
    if result.validation:
        lines.append("\npredicted vs measured hit ratio:")
        lines.append(buffer_sweep.validation_table(result.validation))
    lines.append("\n== seek profile (Figure 8 locality, distributional) ==")
    lines.append(result.seek.render())
    lines.append("\n== access heatmap (hot set / working set) ==")
    lines.append(result.heatmap.render(top))
    counts = result.trace_counts
    dropped = counts.get("dropped_io", 0) + counts.get("dropped_buffer", 0)
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
        "seek_profile": result.seek.to_dict(),
        "heatmap": result.heatmap.to_dict(top),
        "trace_events": result.trace_counts,
    }


def write_events(result: ProfileResult, path) -> None:
    """Dump every phase's raw access events as JSONL with phase markers."""
    with open(path, "w") as handle:
        for phase, tracer in result.traces.items():
            handle.write(f'{{"type": "phase", "name": "{phase}"}}\n')
            dump = tracer.to_jsonl()
            if dump:
                handle.write(dump + "\n")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=None, help="dataset pages")
    parser.add_argument("--scheme", choices=SCHEMES, default="s-node")
    parser.add_argument("--workload", choices=WORKLOADS, default="queries")
    parser.add_argument(
        "--capacities-kb",
        type=int,
        nargs="+",
        default=list(DEFAULT_PROFILE_CAPACITIES_KB),
        metavar="KB",
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
