"""Ablation benches for the design choices DESIGN.md calls out:
positive/negative superedge choice, reference encoding, split policy,
and which superedge graphs a lookup loads.
"""

from __future__ import annotations

from repro.experiments import ablations


def test_ablation_design_choices(benchmark):
    rows, visits = benchmark.pedantic(ablations.run, rounds=1, iterations=1)
    print("\n" + ablations.report(rows, visits))

    by_name = {row.configuration: row for row in [*rows, *visits]}
    full = by_name["full S-Node"]
    # Removing reference encoding must not shrink the representation.
    assert full.payload_bytes <= by_name["no reference encoding"].payload_bytes
    # Forcing positive superedges must not shrink it either (the pos/neg
    # choice only ever picks the smaller encoding).
    assert full.payload_bytes <= by_name["always-positive superedges"].payload_bytes * 1.001
    assert by_name["always-positive superedges"].negative_superedges == 0
    # Paper section 3.2: random vs largest-first policies are comparable.
    largest = by_name["largest-first split policy"]
    assert 0.5 <= full.bits_per_edge / largest.bits_per_edge <= 2.0
    # A pressed pool's lookup loads fewer superedge graphs than the paper's visit.
    for direction in ("WG", "WGT"):
        linked = by_name[f"linked visit ({direction})"].superedge_graphs_per_lookup
        assert 0 < linked < by_name[f"paper visit ({direction})"].superedge_graphs_per_lookup
