"""``repro experiment``, ``bench-validate`` and ``bench-diff``."""

from __future__ import annotations

import argparse
import sys


def _cmd_experiment(arguments: argparse.Namespace) -> int:
    import importlib

    module_names = {
        "scalability",
        "compression",
        "access_time",
        "queries",
        "buffer_sweep",
        "ablations",
        "profile",
        "serve",
        "mutate",
    }
    if arguments.name not in module_names:
        print(
            f"unknown experiment {arguments.name!r}; choose from "
            f"{sorted(module_names)}",
            file=sys.stderr,
        )
        return 1
    importlib.import_module(f"repro.experiments.{arguments.name}").main(
        arguments.args
    )
    return 0


def _cmd_bench_validate(arguments: argparse.Namespace) -> int:
    from repro.errors import ReportError
    from repro.obs.report import load_report

    failed = False
    for name in arguments.files:
        try:
            load_report(name)
            print(f"{name}: ok")
        except ReportError as exc:
            print(f"{name}: INVALID — {exc}")
            failed = True
    return 1 if failed else 0


def _cmd_bench_diff(arguments: argparse.Namespace) -> int:
    from repro.obs.report import diff_reports, load_report

    diff = diff_reports(
        load_report(arguments.old),
        load_report(arguments.new),
        threshold=arguments.threshold,
        ignore=tuple(arguments.ignore),
        exact=tuple(arguments.exact),
    )
    print(diff.render())
    return 1 if diff.failed else 0


def register(commands) -> None:
    """Attach the ``experiment``/``bench-validate``/``bench-diff`` subparsers."""
    experiment = commands.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name")
    experiment.add_argument("args", nargs=argparse.REMAINDER)
    experiment.set_defaults(handler=_cmd_experiment)

    bench_validate = commands.add_parser(
        "bench-validate", help="schema-check BENCH_*.json reports"
    )
    bench_validate.add_argument("files", nargs="+")
    bench_validate.set_defaults(handler=_cmd_bench_validate)

    bench_diff = commands.add_parser(
        "bench-diff", help="compare two BENCH_*.json reports for regressions"
    )
    bench_diff.add_argument("old", help="baseline bench report")
    bench_diff.add_argument("new", help="candidate bench report")
    bench_diff.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="relative cost increase flagged as a regression (default 0.2)",
    )
    bench_diff.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="SUBSTRING",
        help="skip cost paths containing SUBSTRING (repeatable; e.g. "
        "wall_ms to exclude machine-dependent wall-clock metrics)",
    )
    bench_diff.add_argument(
        "--exact",
        action="append",
        default=[],
        metavar="SUBSTRING",
        help="result paths containing SUBSTRING must match exactly "
        "(repeatable; covers non-numeric leaves like digests, and exempts "
        "the path from --ignore; e.g. digest, matches_serial)",
    )
    bench_diff.set_defaults(handler=_cmd_bench_diff)
