"""``repro stats`` and ``repro neighbors`` — inspect a stored build."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.snode.storage import (
    DOMAIN_NAME,
    MANIFEST_NAME,
    NEWID_NAME,
    PAGEID_NAME,
    POINTERS_NAME,
    SUPERNODE_NAME,
)

#: Breakdown key, printed label and file of every table beside the
#: payload files.
_TABLES = (
    ("supernode_graph_bytes", "supernode graph", SUPERNODE_NAME),
    ("pointer_bytes", "pointers", POINTERS_NAME),
    ("pageid_index_bytes", "pageid index", PAGEID_NAME),
    ("newid_map_bytes", "newid map", NEWID_NAME),
    ("domain_index_bytes", "domain index", DOMAIN_NAME),
    ("manifest_bytes", "manifest", MANIFEST_NAME),
)


def _size_breakdown(root: Path, manifest: dict) -> dict:
    """On-disk bytes per component of a stored representation.

    Combines the manifest's logical payload accounting (intranode vs
    superedge bytes, which share the index files) with actual file sizes
    for every auxiliary structure, so an operator can see where bytes go.
    """
    def file_size(name: str) -> int:
        path = root / name
        return path.stat().st_size if path.exists() else 0

    payload_files = manifest.get("index_files", [])
    payload_disk = sum(file_size(name) for name in payload_files)
    breakdown = {
        "payload_files": {
            "files": len(payload_files),
            "disk_bytes": payload_disk,
            "intranode_bytes": manifest.get("intranode_bytes", 0),
            "superedge_bytes": manifest.get("superedge_bytes", 0),
        },
        **{key: file_size(name) for key, _label, name in _TABLES},
    }
    breakdown["total_disk_bytes"] = payload_disk + sum(
        breakdown[key] for key, _label, _name in _TABLES
    )
    return breakdown


_STATS_MANIFEST_KEYS = (
    "num_pages",
    "num_supernodes",
    "num_superedges",
    "positive_superedges",
    "negative_superedges",
    "payload_bytes",
    "intranode_bytes",
    "superedge_bytes",
    "supernode_graph_bytes",
)


def _cmd_stats(arguments: argparse.Namespace) -> int:
    root = Path(arguments.root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        print(f"no S-Node manifest under {arguments.root}", file=sys.stderr)
        return 1
    manifest = json.loads(manifest_path.read_text())
    breakdown = _size_breakdown(root, manifest)
    if arguments.json:
        print(
            json.dumps(
                {
                    "manifest": {
                        key: manifest.get(key) for key in _STATS_MANIFEST_KEYS
                    },
                    "on_disk": breakdown,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    for key in _STATS_MANIFEST_KEYS:
        print(f"{key:24s} {manifest.get(key)}")
    print("\non-disk size breakdown:")
    payload = breakdown["payload_files"]
    total = breakdown["total_disk_bytes"]

    def line(label: str, size: int) -> None:
        share = 100.0 * size / total if total else 0.0
        print(f"  {label:22s} {size:>12d} bytes ({share:5.1f}%)")

    line(f"payload x{payload['files']}", payload["disk_bytes"])
    line("  - intranode", payload["intranode_bytes"])
    line("  - superedge", payload["superedge_bytes"])
    for key, label, _name in _TABLES:
        line(label, breakdown[key])
    print(f"  {'total':22s} {total:>12d} bytes")
    return 0


def _cmd_neighbors(arguments: argparse.Namespace) -> int:
    from repro.snode.store import SNodeStore

    with SNodeStore(arguments.root) as store:
        new_to_old = store.new_to_old
        old_to_new = {old: new for new, old in enumerate(new_to_old)}
        new_page = old_to_new.get(arguments.page)
        if new_page is None:
            print(f"page {arguments.page} not in this representation", file=sys.stderr)
            return 1
        row = sorted(new_to_old[t] for t in store.out_neighbors(new_page))
        print(" ".join(str(p) for p in row))
    return 0


def register(commands) -> None:
    """Attach the ``stats`` and ``neighbors`` subparsers."""
    stats = commands.add_parser("stats", help="summarize a representation")
    stats.add_argument("root")
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the text table",
    )
    stats.set_defaults(handler=_cmd_stats)

    neighbors = commands.add_parser("neighbors", help="print a page's out-links")
    neighbors.add_argument("root")
    neighbors.add_argument("page", type=int)
    neighbors.set_defaults(handler=_cmd_neighbors)
