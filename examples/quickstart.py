#!/usr/bin/env python3
"""Quickstart: build an S-Node representation and query it.

Walks the whole public API in five minutes:

1. generate a synthetic Web repository (the WebBase stand-in),
2. build the S-Node representation (partition refinement -> numbering ->
   compressed graphs on disk),
3. read adjacency lists back through the store,
4. compare its size against the baseline representations,
5. run one of the paper's complex queries.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.baselines import (
    FlatFileRepresentation,
    HuffmanRepresentation,
    Link3Representation,
)
from repro.index import PageRankIndex, TextIndex
from repro.query import query1_referred_universities
from repro.snode.pair import SNodePair
from repro.webdata import generate_web


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="snode-quickstart-"))

    # 1. A synthetic Web crawl: 5000 pages with realistic link structure
    #    (link copying, host locality, directory-shaped URLs, topical text).
    print("generating repository ...")
    repository = generate_web(num_pages=5000, seed=42)
    print(
        f"  {repository.num_pages} pages, {repository.num_links} links, "
        f"{len(repository.domains())} domains"
    )

    # 2. Build the S-Node representation: the Web graph and its transpose
    #    (backlinks), as the paper does for every scheme.
    print("building S-Node representation ...")
    pair = SNodePair.build(repository, workdir / "snode")
    build = pair.forward_build
    print(
        f"  {build.model.num_supernodes} supernodes, "
        f"{build.model.num_superedges} superedges "
        f"({build.model.negative_count} stored as negative graphs)"
    )
    print(f"  {build.bits_per_edge:.2f} bits/edge on disk")

    # 3. Random access: adjacency lists come back exactly as in the graph.
    page = repository.pages_in_domain("stanford.edu")[0]
    neighbors = pair.out_neighbors(page)
    print(f"  page {page} ({repository.page(page).url}) links to {len(neighbors)} pages")
    assert neighbors == repository.graph.successors_list(page)

    # 4. Size comparison against the paper's baselines.
    print("comparing against baseline representations ...")
    huffman = HuffmanRepresentation(repository.graph)
    link3 = Link3Representation(repository, workdir / "link3")
    flat = FlatFileRepresentation(repository.graph, workdir / "flat")
    for representation in (pair.forward, link3, huffman, flat):
        print(f"  {representation.name:14s} {representation.bits_per_edge():6.2f} bits/edge")

    # 5. One complex query (Analysis 1 of the paper).
    print("running Analysis 1 (referred universities) on S-Node ...")
    engine = pair.make_engine(
        repository, TextIndex(repository), PageRankIndex(repository)
    )
    result = query1_referred_universities(engine)
    print(f"  navigation took {result.navigation_seconds * 1000:.2f} ms")
    for domain, weight in result.payload["domains"][:5]:
        print(f"  {domain:20s} weight {weight:.3f}")

    link3.close()
    flat.close()
    pair.close()
    print(f"artifacts left under {workdir}")


if __name__ == "__main__":
    main()
