#!/usr/bin/env python3
"""End-to-end repository pipeline: crawl stream -> prefix datasets ->
S-Node builds -> integrity check.

Models how a Web repository operates over time (paper section 4's
experimental setup): the crawler appends pages to a bulk stream; analysts
cut crawl-prefix datasets off the front of the stream; each dataset gets
its own S-Node representation; and representations are verified after
being copied around.

Run:  python examples/repository_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.snode.pair import SNodePair
from repro.snode.verify import verify_snode
from repro.webdata import generate_web
from repro.webdata.webbase import read_repository, write_stream


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="snode-pipeline-"))

    # The crawler's output: one bulk stream for the whole crawl.
    print("crawling (synthetically) ...")
    crawl = generate_web(num_pages=6000, seed=21)
    stream_path = workdir / "crawl.webbase"
    stream_bytes = write_stream(crawl, stream_path)
    print(
        f"  bulk stream: {stream_bytes / 1024:.0f} KiB for "
        f"{crawl.num_pages} pages ({8 * stream_bytes / crawl.num_links:.1f} "
        "bits/link incl. text)"
    )

    # Analysts cut crawl prefixes straight off the stream (the paper's
    # 25/50/75/100/115M-page datasets, scaled).
    for fraction in (0.5, 1.0):
        num_pages = int(crawl.num_pages * fraction)
        dataset = read_repository(stream_path, limit=num_pages)
        print(f"\ndataset: first {num_pages} pages "
              f"({dataset.num_links} links after prefix cut)")

        # Each dataset gets forward + backlink S-Node builds.
        root = workdir / f"snode_{num_pages}"
        with SNodePair.build(dataset, root) as pair:
            wg_bits, wgt_bits = pair.bits_per_edge()
            print(f"  WG  {wg_bits:5.2f} bits/edge   WGT {wgt_bits:5.2f} bits/edge")

            # Spot-check adjacency in both directions.
            probe = num_pages // 2
            assert pair.out_neighbors(probe) == dataset.graph.successors_list(probe)

        # Operator-side integrity check after the build is on disk.
        for direction in ("wg", "wgt"):
            report = verify_snode(root / direction)
            problems = [finding.render() for finding in report.findings[:2]]
            status = "OK" if report.ok else f"PROBLEMS: {problems}"
            print(f"  verify {direction}: {report.graphs_checked} graphs ... {status}")

    print(f"\nartifacts left under {workdir}")


if __name__ == "__main__":
    main()
