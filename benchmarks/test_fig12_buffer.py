"""Figure 12: navigation time vs buffer size for queries 1, 5, 6.

Asserts the paper's shape for every swept representation (S-Node and the
relational baseline, through the one ``set_buffer_bytes()`` protocol):
each curve falls (or stays flat) as the buffer grows and flattens once
the query's working set fits.
"""

from __future__ import annotations

from repro.experiments import buffer_sweep


def test_fig12_buffer_sweep(benchmark):
    points = benchmark.pedantic(
        buffer_sweep.run, kwargs={"trials": 2}, rounds=1, iterations=1
    ).points
    print("\n" + buffer_sweep.report(points))

    by_curve: dict[tuple[str, str], dict[int, float]] = {}
    for point in points:
        by_curve.setdefault((point.scheme, point.query), {})[
            point.buffer_kb
        ] = point.simulated_ms
    assert {scheme for scheme, _query in by_curve} == {"s-node", "relational"}
    for (scheme, query), curve in by_curve.items():
        sizes = sorted(curve)
        first, last = curve[sizes[0]], curve[sizes[-1]]
        # Large buffers never lose to tiny ones (allowing wall-clock noise).
        assert last <= first * 1.3 + 2.0, (scheme, query, curve)
        # Flattening: the final two points are close to each other.
        second_last = curve[sizes[-2]]
        assert abs(last - second_last) <= max(0.35 * max(last, second_last), 2.0), (
            scheme,
            query,
            curve,
        )
