"""``repro profile`` — ``repro experiment profile`` under its own name."""

from __future__ import annotations

import argparse


def register(commands) -> None:
    """Attach the ``profile`` subparser; its driver parses every argument."""
    from repro.cli.bench import _cmd_experiment

    # No option strings of its own (``prefix_chars`` matches nothing), so
    # every argument, ``--help`` included, reaches the driver's parser.
    profile = commands.add_parser(
        "profile",
        help="run a workload under the access-pattern profiler "
        "(miss-ratio curves, seek profile, hot-set heatmap)",
        prefix_chars="\0",
        add_help=False,
    )
    profile.add_argument("args", nargs=argparse.REMAINDER)
    profile.set_defaults(handler=_cmd_experiment, name="profile")
