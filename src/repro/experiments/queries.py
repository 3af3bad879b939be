"""Figure 11: complex-query navigation time across four representations.

Protocol (paper section 4.3): the six Table 3 queries run against the
flat-file, relational, Link3 and S-Node representations (forward and
transpose builds of each), all under the same memory bound; each bar is
the mean over several cold-cache trials.  The experiment also prints the
paper's per-query "% reduction vs next best scheme" table and the
section 4.3 instrumentation anecdote (how many intranode/superedge graphs
S-Node loaded per query).

**Disk-time simulation.** The paper ran on 2001 hardware where navigation
time was dominated by disk seeks; on a modern machine with an OS page
cache the same access patterns complete from memory and the measured wall
time reflects only Python decode cost.  We therefore report *simulated*
navigation time

    cpu_scale x wall_time + seeks x seek_ms + bytes / throughput

using the schemes' instrumented seek/byte counters and disk constants of
the paper's era (9 ms seek, 25 MB/s transfer).  ``cpu_scale`` compensates
for interpreting the decoders in Python instead of compiled C: comparing
our Table 2 ns/edge numbers against the paper's shows a 30-100x gap, so
the default 0.02 maps Python decode wall time onto the paper's CPU cost
scale.  Raw wall times and I/O counters are reported alongside, and all
three constants are CLI-adjustable (``--cpu-scale 1 --seek-ms 0 --mbps
inf`` gives pure wall time).
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.baselines import (
    FlatFileRepresentation,
    Link3Representation,
    RelationalRepresentation,
)
from repro.baselines.base import RepresentationPair
from repro.experiments.harness import (
    add_report_arguments,
    add_trace_arguments,
    dataset,
    emit_report,
    experiment_refinement_config,
    format_table,
    sweep_sizes,
    trace_session,
)
from repro.obs import tracing
from repro.obs.histogram import HistogramSet, LatencyHistogram
from repro.index.pagerank_index import PageRankIndex
from repro.index.textindex import TextIndex
from repro.query.workload import PAPER_QUERIES
from repro.snode.build import BuildOptions
from repro.snode.pair import SNodePair

#: Scaled analogue of the paper's 325 MB representation-memory bound.
DEFAULT_BUFFER_BYTES = 512 * 1024

#: 2001-era disk constants for the simulated navigation time.
DEFAULT_SEEK_MS = 9.0
DEFAULT_MBPS = 25.0
#: Python-to-compiled-decoder wall-time compensation (see module docstring).
DEFAULT_CPU_SCALE = 0.02

SCHEMES = ("flat-file", "relational", "link3", "s-node")


@dataclass
class QueryTiming:
    """Per (scheme, query) measurements."""

    wall_ms: float
    simulated_ms: float
    disk_seeks: int
    bytes_read: int
    snode_intranode_loaded: int = 0
    snode_superedge_loaded: int = 0
    #: Distribution over the trials (keys like ``simulated_ms_p50``),
    #: because a mean hides the cold-vs-warm buffer split Figure 11 is
    #: actually about.
    percentiles: dict[str, float] = field(default_factory=dict)


@dataclass
class QueryExperiment:
    """Full Figure 11 result set."""

    num_pages: int
    buffer_bytes: int
    timings: dict[tuple[str, str], QueryTiming] = field(default_factory=dict)
    #: Per-scheme engine histograms: navigation latency distribution per
    #: query *operation* kind (out_neighborhood, in_neighborhood, ...).
    op_histograms: dict[str, HistogramSet] = field(default_factory=dict)
    #: Per-scheme metrics snapshot (forward + backward registries merged)
    #: taken after all trials.
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)

    def reduction_vs_next_best(self) -> dict[str, float]:
        """The paper's table: % reduction of S-Node vs the next best."""
        reductions = {}
        for query_name, _fn in PAPER_QUERIES:
            snode = self.timings[("s-node", query_name)].simulated_ms
            others = [
                self.timings[(scheme, query_name)].simulated_ms
                for scheme in SCHEMES
                if scheme != "s-node"
            ]
            best_other = min(others)
            if best_other > 0:
                reductions[query_name] = 100.0 * (best_other - snode) / best_other
            else:
                reductions[query_name] = 0.0
        return reductions


def _build_pair(
    name: str, repository, workdir: Path, buffer_bytes: int
) -> RepresentationPair:
    transpose = repository.graph.transpose()
    if name == "flat-file":
        return RepresentationPair(
            FlatFileRepresentation(repository.graph, workdir / "ff_f"),
            FlatFileRepresentation(transpose, workdir / "ff_b"),
        )
    if name == "relational":
        return RepresentationPair(
            RelationalRepresentation(
                repository, workdir / "rel_f", buffer_bytes=buffer_bytes
            ),
            RelationalRepresentation(
                repository, workdir / "rel_b", graph=transpose, buffer_bytes=buffer_bytes
            ),
        )
    if name == "link3":
        # The Link Database is a memory-resident design (the paper: it
        # "does not use the two-level representation"); when forced to
        # page from a bounded buffer it fetches small per-row extents
        # rather than S-Node's purpose-laid-out graph regions.  16-row
        # extents (~1-2 KiB) model that charitably — one extent still
        # covers a row's whole reference chain.
        return RepresentationPair(
            Link3Representation(
                repository,
                workdir / "l3_f",
                rows_per_block=16,
                buffer_bytes=buffer_bytes,
            ),
            Link3Representation(
                repository,
                workdir / "l3_b",
                graph=transpose,
                rows_per_block=16,
                buffer_bytes=buffer_bytes,
            ),
        )
    if name == "s-node":
        options = BuildOptions(
            refinement=experiment_refinement_config(), buffer_bytes=buffer_bytes
        )
        return SNodePair.build(repository, workdir, options)
    raise ValueError(f"unknown scheme {name}")


def run(
    size: int | None = None,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    trials: int = 3,
    seek_ms: float = DEFAULT_SEEK_MS,
    mbps: float = DEFAULT_MBPS,
    cpu_scale: float = DEFAULT_CPU_SCALE,
    schemes: tuple[str, ...] = SCHEMES,
    workdir: str | None = None,
) -> QueryExperiment:
    """Run the Figure 11 experiment; returns all timings."""
    size = size or sweep_sizes()[3]  # the paper uses the 100M (4th) dataset
    repository = dataset(size)
    text_index = TextIndex(repository)
    pagerank_index = PageRankIndex(repository)
    experiment = QueryExperiment(num_pages=size, buffer_bytes=buffer_bytes)
    own_tmp = tempfile.TemporaryDirectory() if workdir is None else None
    base = Path(workdir or own_tmp.name)
    try:
        for scheme in schemes:
            with tracing.span("queries.build", scheme=scheme):
                pair = _build_pair(scheme, repository, base, buffer_bytes)
            engine = pair.make_engine(repository, text_index, pagerank_index)
            for query_name, query_fn in PAPER_QUERIES:
                wall_total = 0.0
                seeks_total = 0
                bytes_total = 0
                intranode_loaded = 0
                superedge_loaded = 0
                # Per-trial distributions (seconds): the first trial runs
                # cold, later ones over a warming buffer, so percentiles
                # expose the cold/warm split a mean averages away.
                wall_histogram = LatencyHistogram()
                simulated_histogram = LatencyHistogram()
                # Caches are dropped once per (scheme, query); the trials
                # then average over a warming buffer, as the paper's
                # 6-trial averages did.  Buffered schemes keep their hot
                # B-tree levels / supernode graphs across trials, the flat
                # file pays every access — exactly the contrast Figure 11
                # shows.
                pair.drop_caches()
                for _ in range(trials):
                    pair.reset_io_stats()
                    with tracing.span(
                        "queries.trial", scheme=scheme, query=query_name
                    ):
                        result = query_fn(engine)
                    wall_total += result.navigation_seconds
                    seeks = pair.total("disk_seeks")
                    bytes_read = pair.total("bytes_read")
                    seeks_total += seeks
                    bytes_total += bytes_read
                    wall_histogram.record(result.navigation_seconds)
                    simulated_histogram.record(
                        result.navigation_seconds * cpu_scale
                        + seeks * seek_ms / 1000.0
                        + bytes_read / (mbps * 1e6)
                    )
                    if scheme == "s-node":
                        # Section 4.3 "graphs touched per query": distinct
                        # load tallies from the shared metrics registry.
                        intranode_loaded = pair.forward.metrics.distinct(
                            "intranode"
                        ) + pair.backward.metrics.distinct("intranode")
                        superedge_loaded = pair.forward.metrics.distinct(
                            "superedge"
                        ) + pair.backward.metrics.distinct("superedge")
                wall_ms = wall_total * 1000.0 / trials
                mean_seeks = seeks_total / trials
                mean_bytes = bytes_total / trials
                simulated_ms = (
                    wall_ms * cpu_scale
                    + mean_seeks * seek_ms
                    + (mean_bytes / (mbps * 1e6)) * 1000.0
                )
                experiment.timings[(scheme, query_name)] = QueryTiming(
                    wall_ms=wall_ms,
                    simulated_ms=simulated_ms,
                    disk_seeks=int(mean_seeks),
                    bytes_read=int(mean_bytes),
                    snode_intranode_loaded=intranode_loaded,
                    snode_superedge_loaded=superedge_loaded,
                    percentiles={
                        "wall_ms_p50": wall_histogram.p50 * 1000.0,
                        "wall_ms_p90": wall_histogram.p90 * 1000.0,
                        "wall_ms_p99": wall_histogram.p99 * 1000.0,
                        "simulated_ms_p50": simulated_histogram.p50 * 1000.0,
                        "simulated_ms_p90": simulated_histogram.p90 * 1000.0,
                        "simulated_ms_p99": simulated_histogram.p99 * 1000.0,
                        "simulated_ms_max": simulated_histogram.max * 1000.0,
                    },
                )
            experiment.op_histograms[scheme] = engine.histograms
            experiment.metrics[scheme] = pair.snapshot()
            pair.close()
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
    return experiment


def report(experiment: QueryExperiment) -> str:
    """Figure 11 bar-chart data + the % reduction table + the load log."""
    rows = []
    for query_name, _fn in PAPER_QUERIES:
        row = [query_name]
        for scheme in SCHEMES:
            timing = experiment.timings.get((scheme, query_name))
            row.append(
                f"{timing.simulated_ms:.1f} ({timing.disk_seeks}s)"
                if timing
                else "-"
            )
        rows.append(row)
    table = format_table(
        ["query"] + [f"{s} ms(seeks)" for s in SCHEMES], rows
    )
    reductions = experiment.reduction_vs_next_best()
    reduction_rows = [
        (query, f"{value:.1f}%") for query, value in reductions.items()
    ]
    reduction_table = format_table(
        ["query", "S-Node reduction vs next best"], reduction_rows
    )
    load_rows = []
    for query_name, _fn in PAPER_QUERIES:
        timing = experiment.timings.get(("s-node", query_name))
        if timing:
            load_rows.append(
                (
                    query_name,
                    timing.snode_intranode_loaded,
                    timing.snode_superedge_loaded,
                    timing.disk_seeks,
                )
            )
    load_table = format_table(
        ["query", "intranode graphs", "superedge graphs", "disk seeks"], load_rows
    )
    op_rows = []
    for scheme in SCHEMES:
        histogram_set = experiment.op_histograms.get(scheme)
        if histogram_set is None:
            continue
        for op in histogram_set.names():
            histogram = histogram_set.get(op)
            op_rows.append(
                (
                    scheme,
                    op,
                    histogram.count,
                    histogram.p50 * 1000.0,
                    histogram.p90 * 1000.0,
                    histogram.p99 * 1000.0,
                    histogram.max * 1000.0,
                )
            )
    op_table = format_table(
        ["scheme", "operation", "n", "p50 ms", "p90 ms", "p99 ms", "max ms"],
        op_rows,
    )
    return (
        table
        + "\n\n"
        + reduction_table
        + "\n\nS-Node instrumentation (distinct graphs loaded per query):\n"
        + load_table
        + "\n\nper-operation navigation latency (wall time):\n"
        + op_table
    )


def to_results(experiment: QueryExperiment) -> dict:
    """JSON-serializable view of the experiment (bench-report payload)."""
    timings: dict[str, dict] = {}
    for (scheme, query_name), timing in experiment.timings.items():
        timings.setdefault(scheme, {})[query_name] = asdict(timing)
    return {
        "num_pages": experiment.num_pages,
        "buffer_bytes": experiment.buffer_bytes,
        "timings": timings,
        "reduction_vs_next_best": experiment.reduction_vs_next_best(),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--buffer-kb", type=int, default=DEFAULT_BUFFER_BYTES // 1024)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seek-ms", type=float, default=DEFAULT_SEEK_MS)
    parser.add_argument("--mbps", type=float, default=DEFAULT_MBPS)
    parser.add_argument("--cpu-scale", type=float, default=DEFAULT_CPU_SCALE)
    add_report_arguments(parser)
    add_trace_arguments(parser)
    arguments = parser.parse_args(argv)
    with trace_session(arguments, "queries") as tracer:
        experiment = run(
            size=arguments.size,
            buffer_bytes=arguments.buffer_kb * 1024,
            trials=arguments.trials,
            seek_ms=arguments.seek_ms,
            mbps=arguments.mbps,
            cpu_scale=arguments.cpu_scale,
        )
    if not arguments.quiet:
        print(
            f"[queries] Figure 11 (pages={experiment.num_pages}, "
            f"buffer={experiment.buffer_bytes // 1024} KiB)"
        )
        print(report(experiment))
    histograms = {
        f"{scheme}/{op}": histogram_set.get(op).to_dict()
        for scheme, histogram_set in experiment.op_histograms.items()
        for op in histogram_set.names()
    }
    emit_report(
        arguments.json_dir,
        "queries",
        to_results(experiment),
        params={
            "trials": arguments.trials,
            "seek_ms": arguments.seek_ms,
            "mbps": arguments.mbps,
            "cpu_scale": arguments.cpu_scale,
            "buffer_bytes": experiment.buffer_bytes,
        },
        metrics={"by_scheme": experiment.metrics},
        histograms=histograms,
        spans=tracer.summary_dict() if tracer else None,
    )


if __name__ == "__main__":
    main()
