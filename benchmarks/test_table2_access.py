"""Table 2: sequential and random in-memory access times (ns/edge).

Asserts the paper's decode-speed ordering: the simple Huffman scheme is
the fastest random access; the structured schemes pay a decode premium,
and sequential access is cheaper than random for every scheme.
"""

from __future__ import annotations

from repro.experiments import access_time


def test_table2_access_times(benchmark):
    rows, _histograms = benchmark.pedantic(access_time.run, rounds=1, iterations=1)
    print("\n" + access_time.report(rows))

    by_name = {row.scheme: row for row in rows}
    huffman = by_name["plain-huffman"]
    link3 = by_name["link3"]
    snode = by_name["s-node"]
    # Paper: "the simple Huffman encoding scheme is clearly easier to
    # decode, significantly outperforming both Link3 and S-Node".
    assert huffman.random_ns_per_edge < link3.random_ns_per_edge
    assert huffman.random_ns_per_edge < snode.random_ns_per_edge
    # Sequential access is never slower than random for the same scheme.
    for row in rows:
        assert row.sequential_ns_per_edge <= row.random_ns_per_edge * 1.25, (
            f"{row.scheme}: sequential {row.sequential_ns_per_edge:.1f} ns/edge > "
            f"1.25 x random {row.random_ns_per_edge:.1f} ns/edge"
        )
