#!/usr/bin/env python3
"""Compression anatomy of one S-Node build.

Prints where every byte of the representation goes — supernode graph,
pointers, PageID index, intranode graphs, positive/negative superedge
graphs — and how the structure responds to the paper's design knobs
(reference encoding on/off, positive/negative superedge choice on/off).

Run:  python examples/compression_report.py [num_pages]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.snode import BuildOptions, build_snode
from repro.snode.encode import supernode_graph_size_bytes
from repro.webdata import generate_web


def report(label: str, build) -> None:
    manifest = build.manifest
    supernode_bytes = supernode_graph_size_bytes(build.model)
    total = manifest["payload_bytes"] + supernode_bytes + manifest["pageid_bytes"]
    intra_edges = sum(
        len(row) for rows in build.model.intranode for row in rows
    )
    print(f"\n== {label} ==")
    print(f"  supernodes            {build.model.num_supernodes:10d}")
    print(f"  superedges            {build.model.num_superedges:10d}"
          f"  ({build.model.negative_count} negative)")
    print(f"  intranode graphs      {manifest['intranode_bytes']:10d} B"
          f"  ({intra_edges} edges)")
    print(f"  superedge graphs      {manifest['superedge_bytes']:10d} B"
          f"  ({build.total_edges() - intra_edges} edges)")
    print(f"  supernode graph+ptrs  {supernode_bytes:10d} B")
    print(f"  PageID index          {manifest['pageid_bytes']:10d} B")
    print(f"  TOTAL                 {total:10d} B"
          f"  = {build.bits_per_edge:.2f} bits/edge")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="snode-anatomy-") as scratch:
        run(Path(scratch))


def run(workdir: Path) -> None:
    num_pages = int(sys.argv[1]) if len(sys.argv) > 1 else 6000

    print(f"generating {num_pages}-page repository ...")
    repository = generate_web(num_pages=num_pages, seed=3)

    full = build_snode(repository, workdir / "full", BuildOptions())
    report("full S-Node (paper configuration)", full)

    no_reference = build_snode(
        repository,
        workdir / "noref",
        BuildOptions(
            reference_window=0, full_affinity_limit=0, use_dictionary=False
        ),
    )
    report("reference encoding disabled", no_reference)

    always_positive = build_snode(
        repository,
        workdir / "pos",
        BuildOptions(force_positive_superedges=True),
    )
    report("positive/negative choice disabled", always_positive)

    saved = (
        no_reference.manifest["payload_bytes"] - full.manifest["payload_bytes"]
    )
    print(
        f"\nreference encoding saves {saved} bytes "
        f"({100 * saved / max(1, no_reference.manifest['payload_bytes']):.1f}% "
        "of the unreferenced payload)"
    )
    for build in (full, no_reference, always_positive):
        build.store.close()


if __name__ == "__main__":
    main()
