#!/usr/bin/env python3
"""All six complex queries from the paper's Table 3 on one repository.

This is the workload the paper's introduction motivates: focused,
expressive queries that mix text predicates, PageRank and graph
navigation.  The script builds the S-Node representation (forward and
backlink), runs each query, and prints both the answers and the
navigation statistics (time + how many intranode/superedge graphs were
loaded — the paper's section 4.3 instrumentation).

Run:  python examples/research_queries.py [num_pages]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.index import PageRankIndex, TextIndex
from repro.query.workload import PAPER_QUERIES
from repro.snode.pair import SNodePair
from repro.webdata import generate_web


def describe(name: str, payload: dict) -> list[str]:
    """Human-readable summary lines for each query's payload."""
    if name == "query1":
        return [
            f"    {domain:24s} weight {weight:.3f}"
            for domain, weight in payload["domains"][:5]
        ]
    if name == "query2":
        return [
            f"    {comic:12s} C1={stats['c1_word_pages']:3d} "
            f"C2={stats['c2_links']:3d} popularity={stats['popularity']}"
            for comic, stats in payload["popularity"].items()
        ]
    if name == "query3":
        return [
            f"    root set {payload['roots']} pages -> "
            f"base set {payload['base_set_size']} pages"
        ]
    if name == "query4":
        lines = []
        for university, pages in payload["by_university"].items():
            top = ", ".join(f"#{p}({c} in-links)" for p, c in pages[:3])
            lines.append(f"    {university:14s} {top or '(no matches)'}")
        return lines
    if name == "query5":
        return [
            f"    {len(payload['top'])} ranked .edu pages "
            f"from a {payload['set_size']}-page phrase set"
        ]
    if name == "query6":
        return [
            f"    S1={payload['set_a']} pages, S2={payload['set_b']} pages, "
            f"jointly-referenced targets: {len(payload['result'])}"
        ]
    return []


def main() -> None:
    num_pages = int(sys.argv[1]) if len(sys.argv) > 1 else 8000
    workdir = Path(tempfile.mkdtemp(prefix="snode-queries-"))

    print(f"generating {num_pages}-page repository ...")
    repository = generate_web(num_pages=num_pages, seed=7)

    print("building S-Node representations (WG and WGT) ...")
    pair = SNodePair.build(repository, workdir)
    engine = pair.make_engine(
        repository, TextIndex(repository), PageRankIndex(repository)
    )

    for name, query_fn in PAPER_QUERIES:
        stores = (pair.forward.metrics, pair.backward.metrics)
        pair.reset_io_stats()
        result = query_fn(engine)
        # Distinct-key tallies, not the event log: exact however long
        # the query ran (the paper's section 4.3 "8 intranode graphs and
        # 32 superedge graphs" analysis).
        intranode = sum(metrics.distinct("intranode") for metrics in stores)
        superedge = sum(metrics.distinct("superedge") for metrics in stores)
        print(
            f"\n{name}: navigation {result.navigation_seconds * 1000:.2f} ms, "
            f"loaded {intranode} intranode + {superedge} superedge graphs"
        )
        for line in describe(name, result.payload):
            print(line)

    pair.close()


if __name__ == "__main__":
    main()
