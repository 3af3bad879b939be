"""Figure 12: navigation time vs memory-buffer size.

Queries 1, 5 and 6 run repeatedly while the buffer-manager budget sweeps
from very small to comfortably large.  The paper's expected shape: time
drops as the buffer grows, then flattens once every graph/page the query
touches fits simultaneously — "further increase in buffer size does not
improve performance".

Because every representation now resizes through the one
``set_buffer_bytes()`` protocol of the shared storage engine and reports
I/O through the one :class:`repro.storage.metrics.MetricsRegistry`, the
sweep runs identically against S-Node *and* the relational baseline (or
any other scheme) with no representation-specific branches — the paper's
"same memory bound" comparison, made literal.

The same disk-time simulation as the Figure 11 experiment converts the
instrumented I/O counters into navigation milliseconds.

``--predict`` additionally runs each (scheme, query) once under the
access-pattern profiler and feeds the recorded buffer trace through
Mattson stack-distance analysis (:mod:`repro.obs.profile.stackdist`),
emitting the predicted hit ratio at every swept capacity next to the
measured one — the sweep validates the one-pass miss-ratio curve, and
the curve in turn reads off the Figure 12 saturation knee without
sweeping.  Pinned-entry hits are excluded from both sides: they are
served outside the LRU budget at any capacity.  S-Node's request stream
depends on the capacity once its pool evicts (a pressed pool loads only
the superedge graphs that link the asked pages), so where its recorded
run evicted, its rows above the recording capacity, and knees above it,
are reported unverified.
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.experiments.harness import (
    add_report_arguments,
    add_trace_arguments,
    dataset,
    emit_report,
    format_table,
    sweep_sizes,
    trace_session,
)
from repro.errors import BufferCapacityError
from repro.experiments.queries import (
    DEFAULT_CPU_SCALE,
    DEFAULT_MBPS,
    DEFAULT_SEEK_MS,
    _build_pair,
)
from repro.index.pagerank_index import PageRankIndex
from repro.index.textindex import TextIndex
from repro.query.workload import (
    query1_referred_universities,
    query5_intra_set_ranking,
    query6_joint_references,
)

SWEEP_QUERIES = {
    "query1": query1_referred_universities,
    "query5": query5_intra_set_ranking,
    "query6": query6_joint_references,
}

DEFAULT_BUFFER_SWEEP_KB = (4, 16, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Schemes swept by default: the paper's Figure 12 subject (S-Node) plus
#: the relational baseline under the identical memory bound.
DEFAULT_SWEEP_SCHEMES = ("s-node", "relational")


@dataclass
class SweepPoint:
    """(scheme, query, buffer size) measurement."""

    scheme: str
    query: str
    buffer_kb: int
    simulated_ms: float
    wall_ms: float
    evictions: int
    #: Unpinned buffer hits/misses summed over the measured trials.
    hits: int = 0
    misses: int = 0

    @property
    def hit_ratio(self) -> float:
        """Measured unpinned hit ratio over the trials."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Schemes whose buffer request stream depends on the capacity: an S-Node
#: visit loads fewer graphs once its pool has evicted (DESIGN.md, "Linked
#: visits under pressure").
CAPACITY_DEPENDENT_STREAMS = frozenset({"s-node"})

#: Ring-buffer bound for ``--predict`` traces: large enough that seed-scale
#: sweeps never drop buffer events (dropped events would bias the curve).
PREDICT_TRACE_CAPACITY = 1 << 20


@dataclass
class Sweep:
    """What :func:`run` measured.

    ``points`` holds one point per (scheme, query, buffer size).  With
    ``predict`` each (scheme, query) also has its recorded access trace
    in ``traces``, that trace's Mattson miss-ratio curve in ``curves`` and
    whether the recorded run evicted in ``evicted``, and each scheme the
    capacity it was recorded at in ``recorded_kb``; without it all are
    empty.
    """

    points: list[SweepPoint] = field(default_factory=list)
    curves: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)
    evicted: dict = field(default_factory=dict)
    recorded_kb: dict = field(default_factory=dict)

    def verified(self, scheme: str, query: str, capacity: int) -> bool:
        """Whether the recorded trace of (``scheme``, ``query``) is the
        request stream at ``capacity`` bytes: always, unless the scheme's
        stream depends on the capacity, its recorded run evicted and
        ``capacity`` is above the recording one."""
        return (
            scheme not in CAPACITY_DEPENDENT_STREAMS
            or not self.evicted[scheme, query]
            or capacity <= self.recorded_kb[scheme] * 1024
        )


def _record(sweep: Sweep, scheme: str, pair, engine, trials: int) -> None:
    """Record one profiled run per query; add its trace and curve.

    Queries request the same graphs no matter what is cached, so a
    single trace recorded at the current capacity predicts every swept
    capacity — but for a scheme in :data:`CAPACITY_DEPENDENT_STREAMS`
    whose recorded run evicted (:meth:`Sweep.verified`).  The warm-up
    execution updates the LRU stack *uncounted* so the counted window
    matches the measured trials, which also start warm.
    """
    from repro.obs import profile as access_profile

    for query_name, query_fn in SWEEP_QUERIES.items():
        tracer = access_profile.AccessTracer(capacity=PREDICT_TRACE_CAPACITY)
        pair.drop_caches()
        pair.reset_io_stats()
        with access_profile.activated(tracer):
            query_fn(engine)  # cold warm-up, uncounted
            boundary = tracer.seq
            for _ in range(trials):
                query_fn(engine)
        sweep.traces[(scheme, query_name)] = tracer
        sweep.evicted[(scheme, query_name)] = pair.total("buffer_evictions") > 0
        sweep.curves[(scheme, query_name)] = access_profile.analyze_buffer_trace(
            tracer.buffer_events(), count_from_seq=boundary
        )


def _measure(
    sweep: Sweep,
    scheme: str,
    pair,
    engine,
    buffer_sizes_kb,
    trials: int,
    seek_ms: float,
    mbps: float,
    cpu_scale: float,
) -> None:
    """Run every query at every feasible buffer size; add the points."""
    from repro.obs import tracing

    for buffer_kb in buffer_sizes_kb:
        try:
            pair.set_buffer_bytes(buffer_kb * 1024)
        except BufferCapacityError:
            # Budget below the scheme's pinned floor (supernode graph,
            # root pages): the point is infeasible for this scheme, not
            # slow — skip it explicitly.
            tracing.note("buffer_sweep_infeasible")
            continue
        for query_name, query_fn in SWEEP_QUERIES.items():
            # Paper protocol: "we executed queries 1, 5, and 6
            # repeatedly" — one cold warm-up execution, then measured
            # repetitions.  With a buffer big enough for the query's
            # working set the repetitions do no I/O and the curve
            # flattens; below that they keep evicting and re-seeking.
            pair.drop_caches()
            query_fn(engine)  # cold warm-up, not measured
            wall_total = 0.0
            seeks_total = 0
            bytes_total = 0
            evictions = 0
            hits_total = 0
            misses_total = 0
            for _ in range(trials):
                pair.reset_io_stats()
                with tracing.span(
                    "buffer_sweep.trial",
                    scheme=scheme,
                    query=query_name,
                    buffer_kb=buffer_kb,
                ):
                    result = query_fn(engine)
                wall_total += result.navigation_seconds
                seeks_total += pair.total("disk_seeks")
                bytes_total += pair.total("bytes_read")
                evictions += pair.total("buffer_evictions")
                # Pinned hits are served outside the LRU budget at every
                # capacity, so only the unpinned ratio is comparable with
                # stack-distance predictions.
                hits_total += pair.total("buffer_hits") - pair.total(
                    "buffer_pinned_hits"
                )
                misses_total += pair.total("buffer_misses")
            wall_ms = wall_total * 1000.0 / trials
            simulated_ms = (
                wall_ms * cpu_scale
                + (seeks_total / trials) * seek_ms
                + (bytes_total / trials / (mbps * 1e6)) * 1000.0
            )
            sweep.points.append(
                SweepPoint(
                    scheme=scheme,
                    query=query_name,
                    buffer_kb=buffer_kb,
                    simulated_ms=simulated_ms,
                    wall_ms=wall_ms,
                    evictions=evictions // trials,
                    hits=hits_total,
                    misses=misses_total,
                )
            )


def run(
    size: int | None = None,
    buffer_sizes_kb: tuple[int, ...] = DEFAULT_BUFFER_SWEEP_KB,
    trials: int = 3,
    seek_ms: float = DEFAULT_SEEK_MS,
    mbps: float = DEFAULT_MBPS,
    cpu_scale: float = DEFAULT_CPU_SCALE,
    schemes: tuple[str, ...] = DEFAULT_SWEEP_SCHEMES,
    predict: bool = False,
) -> Sweep:
    """Run the sweep: per scheme, record (with ``predict``), then measure."""
    from repro.obs import tracing

    size = size or sweep_sizes()[3]
    repository = dataset(size)
    text_index = TextIndex(repository)
    pagerank_index = PageRankIndex(repository)
    sweep = Sweep()
    with tempfile.TemporaryDirectory() as workdir:
        for scheme in schemes:
            with tracing.span("buffer_sweep.build", scheme=scheme):
                pair = _build_pair(
                    scheme, repository, Path(workdir) / scheme, buffer_sizes_kb[0] * 1024
                )
            engine = pair.make_engine(repository, text_index, pagerank_index)
            if predict:
                sweep.recorded_kb[scheme] = buffer_sizes_kb[0]
                with tracing.span("buffer_sweep.predict", scheme=scheme):
                    _record(sweep, scheme, pair, engine, trials)
            _measure(
                sweep, scheme, pair, engine, buffer_sizes_kb, trials,
                seek_ms, mbps, cpu_scale,
            )
            pair.close()
    return sweep


def validation_rows(sweep: Sweep, scheme: str) -> list[dict]:
    """Predicted (Mattson) vs measured unpinned hit ratio at each of
    ``scheme``'s swept points (needs a ``predict`` sweep)."""
    rows = []
    for point in sweep.points:
        if point.scheme != scheme:
            continue
        curve = sweep.curves[(scheme, point.query)]
        predicted = curve.hit_ratio(point.buffer_kb * 1024)
        rows.append(
            {
                "query": point.query,
                "capacity_kb": point.buffer_kb,
                "predicted_hit_ratio": predicted,
                "measured_hit_ratio": point.hit_ratio,
                "delta": predicted - point.hit_ratio,
                "verified": sweep.verified(scheme, point.query, point.buffer_kb * 1024),
            }
        )
    return rows


def worst_delta(rows: list[dict]) -> float:
    """Largest |predicted - measured| of :func:`validation_rows` (0 when empty)."""
    return max((abs(row["delta"]) for row in rows), default=0.0)


def validation_table(rows: list[dict]) -> str:
    """:func:`validation_rows` as a table, closed by the worst gap and the
    count of rows whose request stream differs from the recorded one."""
    table = format_table(
        ["query", "buffer", "predicted", "measured", "delta", "verified"],
        [
            (
                row["query"],
                f"{row['capacity_kb']} KiB",
                f"{row['predicted_hit_ratio'] * 100.0:.2f}%",
                f"{row['measured_hit_ratio'] * 100.0:.2f}%",
                f"{row['delta'] * 100.0:+.2f}pp",
                "yes" if row["verified"] else "no",
            )
            for row in rows
        ],
    )
    unverified = sum(not row["verified"] for row in rows)
    return (
        f"{table}\nworst |predicted - measured| = "
        f"{worst_delta(rows) * 100.0:.2f}pp"
        + (
            f"; {unverified} rows unverified (recorded under eviction at a "
            f"smaller capacity, where the request stream differs)"
            if unverified
            else ""
        )
    )


def prediction_report(sweep: Sweep) -> str:
    """Each recorded scheme's validation table and every curve's knee."""
    schemes = dict.fromkeys(scheme for scheme, _query in sweep.curves)
    sections = [
        f"{scheme}:\n{validation_table(validation_rows(sweep, scheme))}"
        for scheme in schemes
    ]
    knees = "; ".join(
        f"{scheme}/{query}: saturates at "
        f"{curve.saturation_capacity / 1024.0:.0f} KiB"
        + ("" if sweep.verified(scheme, query, curve.saturation_capacity) else " (unverified)")
        for (scheme, query), curve in sorted(sweep.curves.items())
    )
    sections.append("MRC saturation capacities (no sweep needed): " + knees)
    sections.extend(
        f"warning: {tracer.dropped_buffer} buffer events dropped while "
        f"recording {scheme}/{query}; its curve is biased"
        for (scheme, query), tracer in sweep.traces.items()
        if tracer.dropped_buffer
    )
    return "\n\n".join(sections)


def report(points: list[SweepPoint]) -> str:
    """One column per (scheme, query), one row per buffer size.

    A buffer size a scheme could not run at (below its pinned floor, see
    :func:`run`) has no point; its cell reads ``—``.
    """
    buffer_sizes = sorted({p.buffer_kb for p in points})
    columns = sorted({(p.scheme, p.query) for p in points})
    by_key = {(p.scheme, p.query, p.buffer_kb): p for p in points}
    rows = []
    for buffer_kb in buffer_sizes:
        row: list[object] = [f"{buffer_kb} KiB"]
        for scheme, query in columns:
            point = by_key.get((scheme, query, buffer_kb))
            row.append(f"{point.simulated_ms:.1f}" if point else "—")
        rows.append(row)
    table = format_table(
        ["buffer"] + [f"{scheme}/{query} (ms)" for scheme, query in columns],
        rows,
    )
    # Flatness check: the last two points a curve has should be close.
    checks = []
    for scheme, query in columns:
        curve = [
            by_key[(scheme, query, b)].simulated_ms
            for b in buffer_sizes
            if (scheme, query, b) in by_key
        ]
        if len(curve) < 2:
            checks.append(f"{scheme}/{query}: too few points")
            continue
        flat = abs(curve[-1] - curve[-2]) <= max(0.15 * max(curve[-1], 1e-9), 1.0)
        checks.append(
            f"{scheme}/{query}: {'flattens' if flat else 'still falling'}"
        )
    return table + "\n" + "; ".join(checks)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument(
        "--schemes",
        nargs="+",
        default=list(DEFAULT_SWEEP_SCHEMES),
        help="representations to sweep (any of flat-file, relational, link3, s-node)",
    )
    parser.add_argument(
        "--predict",
        action="store_true",
        help="record one profiled run per query and print the Mattson "
        "miss-ratio curve's predictions next to the measured sweep",
    )
    add_report_arguments(parser)
    add_trace_arguments(parser)
    arguments = parser.parse_args(argv)
    with trace_session(arguments, "buffer_sweep") as tracer:
        sweep = run(
            size=arguments.size,
            trials=arguments.trials,
            schemes=tuple(arguments.schemes),
            predict=arguments.predict,
        )
    if not arguments.quiet:
        print("[buffer_sweep] Figure 12")
        print(report(sweep.points))
        if sweep.curves:
            print("\nMattson MRC validation (predicted vs measured):")
            print(prediction_report(sweep))
    capacities = sorted({point.buffer_kb * 1024 for point in sweep.points})
    results: dict = {"points": [asdict(point) for point in sweep.points]}
    if sweep.curves:
        results["predictions"] = {
            f"{scheme}/{query}": curve.to_dict(capacities=capacities)
            for (scheme, query), curve in sorted(sweep.curves.items())
        }
    emit_report(
        arguments.json_dir,
        "buffer_sweep",
        results,
        params={
            "trials": arguments.trials,
            "schemes": list(arguments.schemes),
            "predict": arguments.predict,
        },
        spans=tracer.summary_dict() if tracer else None,
    )


if __name__ == "__main__":
    main()
