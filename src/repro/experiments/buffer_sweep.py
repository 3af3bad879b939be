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
served outside the LRU budget at any capacity.
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import asdict, dataclass
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


#: Ring-buffer bound for ``--predict`` traces: large enough that seed-scale
#: sweeps never drop buffer events (dropped events would bias the curve).
PREDICT_TRACE_CAPACITY = 1 << 20


def unpinned_hits_misses(pair) -> tuple[int, int]:
    """(unpinned hits, misses) across both directions.

    Pinned hits are excluded: they are served outside the LRU budget
    at every capacity, so only the unpinned ratio is comparable with
    stack-distance predictions.
    """
    hits = pair.total("buffer_hits") - pair.total("buffer_pinned_hits")
    return hits, pair.total("buffer_misses")


def _predict_curves(pair, engine, trials: int):
    """Record one profiled run per query and return its miss-ratio curve.

    The buffer request stream is capacity-independent (queries request the
    same graphs no matter what is cached), so a single trace recorded at
    the current capacity predicts every swept capacity.  The warm-up
    execution updates the LRU stack *uncounted* so the counted window
    matches the measured trials, which also start warm.
    """
    from repro.obs import profile as access_profile

    curves = {}
    for query_name, query_fn in SWEEP_QUERIES.items():
        tracer = access_profile.AccessTracer(capacity=PREDICT_TRACE_CAPACITY)
        pair.drop_caches()
        with access_profile.activated(tracer):
            query_fn(engine)  # cold warm-up, uncounted
            boundary = tracer.seq
            for _ in range(trials):
                query_fn(engine)
        if tracer.dropped_buffer:
            print(
                f"[buffer_sweep] warning: {tracer.dropped_buffer} buffer "
                f"events dropped while predicting {pair.name}/{query_name}; "
                "curve is biased"
            )
        curves[query_name] = access_profile.analyze_buffer_trace(
            tracer.buffer_events(), count_from_seq=boundary
        )
    return curves


def run(
    size: int | None = None,
    buffer_sizes_kb: tuple[int, ...] = DEFAULT_BUFFER_SWEEP_KB,
    trials: int = 3,
    seek_ms: float = DEFAULT_SEEK_MS,
    mbps: float = DEFAULT_MBPS,
    cpu_scale: float = DEFAULT_CPU_SCALE,
    schemes: tuple[str, ...] = DEFAULT_SWEEP_SCHEMES,
    predict: bool = False,
):
    """Run the sweep; returns one point per (scheme, query, buffer size).

    With ``predict=True`` returns ``(points, predictions)`` where
    ``predictions`` maps ``(scheme, query)`` to the Mattson
    :class:`~repro.obs.profile.stackdist.MissRatioCurve` recorded from a
    single profiled run per query.
    """
    from repro.obs import tracing

    size = size or sweep_sizes()[3]
    repository = dataset(size)
    text_index = TextIndex(repository)
    pagerank_index = PageRankIndex(repository)
    points: list[SweepPoint] = []
    predictions: dict[tuple[str, str], object] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for scheme in schemes:
            with tracing.span("buffer_sweep.build", scheme=scheme):
                pair = _build_pair(
                    scheme, repository, Path(workdir) / scheme, buffer_sizes_kb[0] * 1024
                )
            engine = pair.make_engine(repository, text_index, pagerank_index)
            if predict:
                with tracing.span("buffer_sweep.predict", scheme=scheme):
                    for query_name, curve in _predict_curves(
                        pair, engine, trials
                    ).items():
                        predictions[(scheme, query_name)] = curve
            for buffer_kb in buffer_sizes_kb:
                try:
                    pair.set_buffer_bytes(buffer_kb * 1024)
                except BufferCapacityError:
                    # Budget below the scheme's pinned floor (supernode
                    # graph, root pages): the point is infeasible for this
                    # scheme, not slow — skip it explicitly.
                    tracing.note("buffer_sweep_infeasible")
                    continue
                for query_name, query_fn in SWEEP_QUERIES.items():
                    # Paper protocol: "we executed queries 1, 5, and 6
                    # repeatedly" — one cold warm-up execution, then
                    # measured repetitions.  With a buffer big enough for
                    # the query's working set the repetitions do no I/O
                    # and the curve flattens; below that they keep
                    # evicting and re-seeking.
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
                        hits, misses = unpinned_hits_misses(pair)
                        hits_total += hits
                        misses_total += misses
                    wall_ms = wall_total * 1000.0 / trials
                    simulated_ms = (
                        wall_ms * cpu_scale
                        + (seeks_total / trials) * seek_ms
                        + (bytes_total / trials / (mbps * 1e6)) * 1000.0
                    )
                    points.append(
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
            pair.close()
    if predict:
        return points, predictions
    return points


def prediction_report(
    points: list[SweepPoint], predictions: dict
) -> str:
    """Predicted (Mattson) vs measured hit ratio at every swept capacity."""
    rows = []
    worst = 0.0
    for point in points:
        curve = predictions.get((point.scheme, point.query))
        if curve is None:
            continue
        predicted = curve.hit_ratio(point.buffer_kb * 1024)
        measured = point.hit_ratio
        delta = predicted - measured
        worst = max(worst, abs(delta))
        rows.append(
            (
                f"{point.scheme}/{point.query}",
                f"{point.buffer_kb} KiB",
                f"{predicted * 100.0:.2f}%",
                f"{measured * 100.0:.2f}%",
                f"{delta * 100.0:+.2f}pp",
            )
        )
    table = format_table(
        ["scheme/query", "buffer", "predicted hit", "measured hit", "delta"],
        rows,
    )
    knees = "; ".join(
        f"{scheme}/{query}: saturates at "
        f"{curve.saturation_capacity / 1024.0:.0f} KiB"
        for (scheme, query), curve in sorted(predictions.items())
    )
    return (
        table
        + f"\nworst |predicted - measured| = {worst * 100.0:.2f}pp\n"
        + "MRC saturation capacities (no sweep needed): "
        + knees
    )


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


def main() -> None:
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
    arguments = parser.parse_args()
    predictions: dict = {}
    with trace_session(arguments, "buffer_sweep") as tracer:
        if arguments.predict:
            points, predictions = run(
                size=arguments.size,
                trials=arguments.trials,
                schemes=tuple(arguments.schemes),
                predict=True,
            )
        else:
            points = run(
                size=arguments.size,
                trials=arguments.trials,
                schemes=tuple(arguments.schemes),
            )
    if not arguments.quiet:
        print("[buffer_sweep] Figure 12")
        print(report(points))
        if predictions:
            print("\nMattson MRC validation (predicted vs measured):")
            print(prediction_report(points, predictions))
    capacities = sorted({point.buffer_kb * 1024 for point in points})
    results: dict = {"points": [asdict(point) for point in points]}
    if predictions:
        results["predictions"] = {
            f"{scheme}/{query}": curve.to_dict(capacities=capacities)
            for (scheme, query), curve in sorted(predictions.items())
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
