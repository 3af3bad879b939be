"""Table 2: sequential and random in-memory access times (ns per edge).

Exactly the paper's protocol: the *smallest* dataset (so every scheme fits
comfortably in memory), 5000 random-page trials and 5000 sequential-page
trials, timing only decode+extract — buffers are warmed before measuring
so no disk time is included.

The "no disk time" claim is *verified*, not assumed: every representation
reports through the shared :mod:`repro.storage.metrics` registry, so after
warming we reset the counters and assert at report time that the measured
phase performed (nearly) zero device reads — the decode-only protocol,
made checkable.

Beyond the paper's means, every individual access is recorded into a
log-bucketed latency histogram, so the report shows the per-access
p50/p90/p99/max distribution — a scheme whose typical access is fast but
whose tail decodes a giant supernode looks identical to a uniform one in
ns/edge means, and different here.  (Timing per access adds ~2 clock
reads of overhead to each call; the distributions and the means are
measured in the same loop, so relative comparisons are unaffected.)
"""

from __future__ import annotations

import argparse
import random
import tempfile
import time
from dataclasses import dataclass, field

from repro.baselines import (
    HuffmanRepresentation,
    Link3Representation,
    SNodeRepresentation,
)
from repro.baselines.base import GraphRepresentation
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
from repro.obs.histogram import LatencyHistogram
from repro.snode.build import BuildOptions, build_snode

TRIALS = 5000


@dataclass
class AccessRow:
    """One scheme's Table 2 row."""

    scheme: str
    sequential_ns_per_edge: float
    random_ns_per_edge: float
    #: Device bytes read *during* the measured phase — ~0 when the warm-up
    #: succeeded and the run really timed only decode cost.
    measured_bytes_read: int = 0
    measured_disk_seeks: int = 0
    #: Per-access latency percentiles in ns/call (keys like
    #: ``random_ns_p50``), from the log-bucketed histograms.
    percentiles: dict[str, float] = field(default_factory=dict)


def _warm(representation: GraphRepresentation) -> None:
    """Buffer every page's adjacency by looking each up — the one warm-up
    of every scheme.  (A scan would not do: S-Node's reads past its pool.)"""
    representation.out_neighbors_many(range(representation.num_pages))


def _measure(
    representation: GraphRepresentation, seed: int
) -> tuple[AccessRow, dict[str, LatencyHistogram]]:
    _warm(representation)
    representation.reset_io_stats()
    sequential_histogram = LatencyHistogram()
    random_histogram = LatencyHistogram()
    # Sequential: walk adjacency lists in storage order, timing each access.
    # Every scheme's scan is started before the clock: the first row is
    # taken untimed, so a scan's set-up (which a generator runs on its
    # first ``next``) is no page's access time.
    edges = 0
    sequential_elapsed = 0.0
    iterator = representation.iterate_all()
    next(iterator)
    for _ in range(min(TRIALS, representation.num_pages - 1)):
        start = time.perf_counter()
        _page, row = next(iterator)
        elapsed = time.perf_counter() - start
        sequential_elapsed += elapsed
        sequential_histogram.record(elapsed)
        edges += len(row)
    sequential = sequential_elapsed * 1e9 / max(1, edges)
    # Random: retrieve adjacency lists of random page ids.
    rng = random.Random(seed)
    pages = [rng.randrange(representation.num_pages) for _ in range(TRIALS)]
    edges = 0
    random_elapsed = 0.0
    for page in pages:
        start = time.perf_counter()
        row = representation.out_neighbors(page)
        elapsed = time.perf_counter() - start
        random_elapsed += elapsed
        random_histogram.record(elapsed)
        edges += len(row)
    stats = representation.io_stats()
    row_result = AccessRow(
        scheme=representation.name,
        sequential_ns_per_edge=sequential,
        random_ns_per_edge=random_elapsed * 1e9 / max(1, edges),
        measured_bytes_read=stats.get("bytes_read", 0),
        measured_disk_seeks=stats.get("disk_seeks", 0),
        percentiles={
            "sequential_ns_p50": sequential_histogram.p50 * 1e9,
            "sequential_ns_p99": sequential_histogram.p99 * 1e9,
            "random_ns_p50": random_histogram.p50 * 1e9,
            "random_ns_p90": random_histogram.p90 * 1e9,
            "random_ns_p99": random_histogram.p99 * 1e9,
            "random_ns_max": random_histogram.max * 1e9,
        },
    )
    histograms = {
        f"{representation.name}/sequential": sequential_histogram,
        f"{representation.name}/random": random_histogram,
    }
    return row_result, histograms


def run(
    size: int | None = None, seed: int = 11
) -> tuple[list[AccessRow], dict[str, LatencyHistogram]]:
    """Measure the three compressed schemes on the smallest dataset."""
    size = size or sweep_sizes()[0]
    repository = dataset(size)
    rows: list[AccessRow] = []
    histograms: dict[str, LatencyHistogram] = {}

    def measure(representation: GraphRepresentation) -> None:
        row, row_histograms = _measure(representation, seed)
        rows.append(row)
        histograms.update(row_histograms)

    measure(HuffmanRepresentation(repository.graph))
    with tempfile.TemporaryDirectory() as workdir:
        link3 = Link3Representation(
            repository, f"{workdir}/l3", buffer_bytes=1 << 30
        )
        measure(link3)
        link3.close()
        build = build_snode(
            repository,
            f"{workdir}/sn",
            BuildOptions(
                refinement=experiment_refinement_config(), buffer_bytes=1 << 30
            ),
        )
        # Table 2 protocol: the *encoded* representation sits in memory and
        # every access pays its decode cost (see SNodeStore.cache_decoded).
        build.store.close()
        from repro.snode.store import SNodeStore

        build.store = SNodeStore(
            build.root, buffer_bytes=1 << 30, cache_decoded=False
        )
        measure(SNodeRepresentation(build))
        build.store.close()
    return rows, histograms


def report(rows: list[AccessRow]) -> str:
    """Paper-style Table 2, plus I/O audit and per-access percentiles."""
    table = format_table(
        ["scheme", "sequential ns/edge", "random ns/edge", "measured-phase bytes read"],
        [
            (
                r.scheme,
                r.sequential_ns_per_edge,
                r.random_ns_per_edge,
                r.measured_bytes_read,
            )
            for r in rows
        ],
    )
    percentile_table = format_table(
        ["scheme", "random p50 ns", "random p90 ns", "random p99 ns", "random max ns"],
        [
            (
                r.scheme,
                r.percentiles.get("random_ns_p50", 0.0),
                r.percentiles.get("random_ns_p90", 0.0),
                r.percentiles.get("random_ns_p99", 0.0),
                r.percentiles.get("random_ns_max", 0.0),
            )
            for r in rows
        ],
    )
    fastest = min(rows, key=lambda r: r.random_ns_per_edge)
    return (
        table
        + "\n\nper-access latency distribution (ns per call):\n"
        + percentile_table
        + f"\nfastest random access: {fastest.scheme}"
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=None)
    add_report_arguments(parser)
    add_trace_arguments(parser)
    arguments = parser.parse_args(argv)
    with trace_session(arguments, "access_time") as tracer:
        rows, histograms = run(size=arguments.size)
    if not arguments.quiet:
        print("[access_time] Table 2 (in-memory decode times)")
        print(report(rows))
    emit_report(
        arguments.json_dir,
        "access_time",
        [asdict_row(row) for row in rows],
        params={"trials": TRIALS},
        histograms={
            name: histogram.to_dict() for name, histogram in histograms.items()
        },
        spans=tracer.summary_dict() if tracer else None,
    )


def asdict_row(row: AccessRow) -> dict:
    """JSON-serializable view of one row."""
    from dataclasses import asdict

    return asdict(row)


if __name__ == "__main__":
    main()
