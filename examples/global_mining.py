#!/usr/bin/env python3
"""Global/bulk-access mining on a compressed in-memory Web graph.

The paper's other headline use case: because the S-Node representation is
so compact, "large Web graphs [can] be completely loaded into reasonable
amounts of main memory, speeding up complex graph computations and mining
tasks" — PageRank, strongly connected components, HITS over a topic
community.

The script loads the whole S-Node representation into memory (a big
buffer), streams it once to materialize the graph, and runs the classic
global computations the paper lists in section 1.2.

Run:  python examples/global_mining.py [num_pages]
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.graph.algorithms import (
    hits,
    kleinberg_base_set,
    pagerank,
    strongly_connected_components,
)
from repro.graph.communities import effective_diameter, trawl_bipartite_cores
from repro.index import TextIndex
from repro.snode import BuildOptions, build_snode
from repro.webdata import generate_web


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="snode-mining-") as scratch:
        run(Path(scratch))


def run(workdir: Path) -> None:
    num_pages = int(sys.argv[1]) if len(sys.argv) > 1 else 6000

    print(f"generating {num_pages}-page repository ...")
    repository = generate_web(num_pages=num_pages, seed=13)

    print("building S-Node representation ...")
    build = build_snode(
        repository, workdir / "snode", BuildOptions(buffer_bytes=1 << 30)
    )
    print(
        f"  {build.bits_per_edge:.2f} bits/edge -> the whole graph is "
        f"{build.manifest['payload_bytes'] / 1024:.0f} KiB on disk"
    )

    # Bulk access: stream every adjacency list out of the store once.
    print("streaming the compressed graph into memory ...")
    start = time.perf_counter()
    graph = build.store.load_digraph()
    elapsed = time.perf_counter() - start
    print(
        f"  decoded {graph.num_edges} edges in {elapsed:.2f}s "
        f"({elapsed * 1e9 / max(1, graph.num_edges):.0f} ns/edge)"
    )

    # Global computation 1: PageRank.
    start = time.perf_counter()
    scores = pagerank(graph)
    print(f"PageRank converged in {time.perf_counter() - start:.2f}s")
    top = scores.argsort()[-5:][::-1]
    for new_id in top:
        old_id = build.numbering.new_to_old[int(new_id)]
        print(f"  {scores[new_id]:.5f}  {repository.page(old_id).url}")

    # Global computation 2: strongly connected components.
    start = time.perf_counter()
    components = strongly_connected_components(graph)
    largest = max(len(c) for c in components)
    print(
        f"SCC: {len(components)} components, largest {largest} pages "
        f"({time.perf_counter() - start:.2f}s)"
    )

    # Global computation 3: Web-graph diameter (sampled effective).
    start = time.perf_counter()
    diameter = effective_diameter(graph, percentile=0.9, samples=32)
    print(
        f"effective diameter (90th pct): {diameter:.1f} hops "
        f"({time.perf_counter() - start:.2f}s)"
    )

    # Global computation 4: community trawling (Kumar et al., the paper's
    # reference [15]) — (3,3) bipartite cores.
    start = time.perf_counter()
    cores = trawl_bipartite_cores(graph, fans=3, centers=3, max_cores=20)
    print(
        f"trawling: {len(cores)} (3,3)-cores found "
        f"({time.perf_counter() - start:.2f}s)"
    )
    if cores:
        core = cores[0]
        fan_url = repository.page(build.numbering.new_to_old[core.fans[0]]).url
        print(f"  example core: {len(core.fans)} fans incl. {fan_url}")

    # Global computation 5: HITS over a topic community.
    text = TextIndex(repository)
    roots_old = list(text.pages_with_phrase(["internet", "censorship"]))[:50]
    roots_new = [build.numbering.old_to_new[p] for p in roots_old]
    base = kleinberg_base_set(graph, graph.transpose(), roots_new)
    authority, _hub = hits(graph, graph.transpose(), sorted(base))
    best = sorted(authority.items(), key=lambda kv: -kv[1])[:3]
    print(f"HITS over a {len(base)}-page base set; top authorities:")
    for new_id, score in best:
        old_id = build.numbering.new_to_old[new_id]
        print(f"  {score:.3f}  {repository.page(old_id).url}")

    build.store.close()


if __name__ == "__main__":
    main()
