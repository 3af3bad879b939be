"""``repro fsck`` — offline integrity checking of a build directory."""

from __future__ import annotations

import argparse
import json


def _cmd_fsck(arguments: argparse.Namespace) -> int:
    from repro.storage.fsck import fsck

    report = fsck(arguments.root, repair=arguments.repair)
    if arguments.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def register(commands) -> None:
    """Attach the ``fsck`` subparser."""
    fsck = commands.add_parser(
        "fsck",
        help="check a build directory: atomic-commit state, manifest file "
        "table, per-region checksums (any scheme); for S-Node also the "
        "layout and a decode of every graph",
    )
    fsck.add_argument("root")
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt S-Node regions into quarantine.json so "
        "degrade-mode stores keep serving the rest",
    )
    fsck.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of text",
    )
    fsck.set_defaults(handler=_cmd_fsck)
