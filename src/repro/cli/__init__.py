"""Command-line interface: ``repro <command>``.

Gives a repository operator the whole pipeline without writing Python:

* ``repro generate`` — synthesize a crawl and write it as a WebBase-style
  bulk stream;
* ``repro build``    — build an S-Node representation from a stream
  (``--workers N`` fans the encode stage over a process pool — bytes
  are identical for any N);
* ``repro fsck``     — check any build directory (atomic-commit state,
  manifest file table, per-region checksums; for S-Node also the layout
  and a decode of every graph); ``--repair`` quarantines corrupt S-Node
  regions for graceful degradation;
* ``repro stats``    — summarize a stored representation;
* ``repro neighbors``— print a page's out-links from a stored
  representation (by repository page id);
* ``repro experiment`` — run one of the paper's experiment drivers
  (every driver accepts ``--json [DIR]`` to write a versioned
  ``BENCH_<experiment>.json`` bench report, and the shared
  ``--trace/--trace-out/--folded/--quiet`` span flags);
* ``repro profile`` — the ``profile`` experiment driver: Mattson
  miss-ratio curves, seek-distance profiles, hot-set heatmaps;
* ``repro serve`` — run the graph query daemon: concurrent Figure 11
  queries over one shared store behind admission control;
* ``repro loadgen`` — drive a running daemon with the Figure 11 mix at
  a configurable concurrency and report throughput/latency
  (client-measured next to server-measured; ``--json`` writes the
  summary as a machine-readable file);
* ``repro top`` — refresh-loop terminal dashboard polling a daemon's
  ``metrics`` op: windowed QPS, in-flight, queue depth, shed rate and
  per-op p50/p99 with per-bucket exemplar trace ids (``--once`` for
  scripts, ``--prometheus`` for the text exposition); exits non-zero
  when no daemon is listening;
* ``repro trace`` — render recorded request traces from a debug bundle
  or a live daemon's flight recorder: phase/I/O waterfall for one
  request, folded flamegraph over many (``--dump`` writes a live
  daemon's recorder as a bundle);
* ``repro bench-diff`` — compare two bench reports and flag regressions
  (``--ignore`` skips machine-dependent metrics, ``--exact`` pins
  determinism markers like digests and conservation flags).

Every command prints human-readable output to stdout and exits non-zero
on failure, so the tool scripts cleanly.  Long-running builds report
throttled progress to stderr (suppress with ``--quiet``), and
``repro build --trace`` prints the span tree attributing build time to
pipeline phases.

The package splits one module per subcommand group — ``build`` (generate,
build), ``query`` (stats, neighbors), ``fsck``, ``bench``
(experiment, bench-validate, bench-diff), ``profile``, ``serve`` (serve,
loadgen), ``top``, ``trace`` — each exposing a
``register(commands)`` hook this module assembles into the parser.  The
entry point (``repro.cli:main``) and every flag are unchanged from the
single-module days.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import bench, build, fsck, profile, query, serve, top, trace
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="S-Node Web-graph representation toolkit"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    build.register(commands)
    fsck.register(commands)
    query.register(commands)
    profile.register(commands)
    serve.register(commands)
    top.register(commands)
    trace.register(commands)
    bench.register(commands)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


__all__ = ["build_parser", "main"]
