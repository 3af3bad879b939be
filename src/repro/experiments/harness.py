"""Shared experiment infrastructure.

Scaling: the paper sweeps 25/50/75/100/115 million pages; we sweep the
same five-point shape at a pure-Python-friendly scale (default master
repository of 20 000 pages, overridable through the ``REPRO_SCALE``
environment variable, which multiplies every size).  Datasets are
crawl-order prefixes of one master repository, exactly the paper's
"reading the repository sequentially from the beginning".
"""

from __future__ import annotations

import os
import sys
import warnings
from collections.abc import Sequence
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from repro.errors import ReproError, ServeError
from repro.partition.refine import RefinementConfig
from repro.webdata.corpus import Repository
from repro.webdata.generator import GeneratorConfig, generate_web

MASTER_SEED = 2003


def scale_factor() -> float:
    """Global size multiplier from the ``REPRO_SCALE`` env var (default 1).

    A value that does not parse as a float is *warned about* (naming the
    bad value) and replaced by 1.0; a value that parses but is not
    positive is rejected outright — silently running the full-size sweep
    because of a typo'd ``REPRO_SCALE=-1`` would waste hours.
    """
    raw = os.environ.get("REPRO_SCALE", "1")
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid REPRO_SCALE={raw!r} (not a number); using 1.0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    if value <= 0:
        raise ReproError(
            f"REPRO_SCALE must be positive, got {raw!r}"
        )
    return value


def master_size() -> int:
    """Pages in the master repository."""
    return max(1000, int(20_000 * scale_factor()))


def sweep_sizes() -> list[int]:
    """The five dataset sizes (the paper's 25/50/75/100/115M shape)."""
    master = master_size()
    fractions = (0.2, 0.4, 0.6, 0.8, 1.0)
    return [int(master * fraction) for fraction in fractions]


@lru_cache(maxsize=1)
def master_repository() -> Repository:
    """The master synthetic crawl (generated once per process)."""
    return generate_web(GeneratorConfig(num_pages=master_size(), seed=MASTER_SEED))


@lru_cache(maxsize=8)
def dataset(num_pages: int) -> Repository:
    """Crawl-order prefix dataset of ``num_pages`` pages."""
    master = master_repository()
    if num_pages >= master.num_pages:
        return master
    return master.crawl_prefix(num_pages)


def experiment_refinement_config(seed: int = 7) -> RefinementConfig:
    """The refinement configuration every experiment uses."""
    return RefinementConfig(seed=seed)


def add_report_arguments(parser) -> None:
    """Add the uniform ``--json [DIR]`` bench-report flag to a parser.

    Every experiment CLI accepts it: ``--json`` alone writes
    ``BENCH_<experiment>.json`` into the current directory, ``--json DIR``
    writes it under ``DIR``.
    """
    parser.add_argument(
        "--json",
        nargs="?",
        const=".",
        default=None,
        metavar="DIR",
        dest="json_dir",
        help="write a machine-readable BENCH_<experiment>.json report "
        "(optionally into DIR)",
    )


def add_trace_arguments(parser) -> None:
    """Add the uniform tracing flags of ``repro build`` and every driver.

    ``--trace`` prints the span tree to stderr, ``--trace-out FILE``
    writes span JSONL, ``--folded FILE`` writes flamegraph folded stacks
    (all three through :func:`trace_session`), and ``--quiet`` suppresses
    an experiment's human-readable stdout report (useful with ``--json``)
    or a build's stderr progress.
    """
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree attributing the run's time to phases (stderr)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the full span tree as JSON lines to FILE",
    )
    parser.add_argument(
        "--trace-depth",
        type=int,
        default=2,
        help="maximum span depth shown by --trace (default 2)",
    )
    parser.add_argument(
        "--folded",
        default=None,
        metavar="FILE",
        help="write flamegraph folded stacks (span path + self time) to FILE",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the human-readable report on stdout (a build's "
        "progress on stderr)",
    )


@contextmanager
def trace_session(arguments, label: str):
    """Activate a span tracer for a run when any trace flag is set.

    Yields the active :class:`~repro.obs.tracing.Tracer` (rooted at a
    ``label`` span so buffer-pool load notes always have an open span), or
    None when no ``--trace``/``--trace-out``/``--folded`` flag was given —
    tracing stays strictly opt-in.  On exit the requested exports are
    written, also when the body raised: a failed run's trace holds the
    spans it opened, marked with the error.  Pass the tracer's
    :meth:`~repro.obs.tracing.Tracer.summary_dict` into
    :func:`emit_report`'s ``spans`` so bench reports carry the span
    aggregates.
    """
    if not (arguments.trace or arguments.trace_out or arguments.folded):
        yield None
        return
    from repro.obs.tracing import Tracer, activated

    tracer = Tracer()
    try:
        with activated(tracer), tracer.span(label):
            yield tracer
    finally:
        if arguments.trace:
            print(f"{label} trace (span-attributed phases):", file=sys.stderr)
            print(tracer.render(max_depth=arguments.trace_depth), file=sys.stderr)
        if arguments.trace_out:
            tracer.write_jsonl(arguments.trace_out)
            print(f"trace spans written to {arguments.trace_out}", file=sys.stderr)
        if arguments.folded:
            tracer.write_folded(arguments.folded)
            print(f"folded stacks written to {arguments.folded}", file=sys.stderr)


def emit_report(
    json_dir: str | None,
    experiment: str,
    results,
    params: dict | None = None,
    metrics: dict | None = None,
    histograms: dict | None = None,
    spans: dict | None = None,
) -> Path | None:
    """Write the experiment's bench report if ``--json`` was requested.

    Adds the harness-level context every report shares (``REPRO_SCALE``,
    master repository size) into ``params`` and prints the written path so
    scripts can pick it up.  Returns the path, or None when ``json_dir``
    is None (no ``--json``).
    """
    if json_dir is None:
        return None
    from repro.obs.report import build_report, write_report

    merged_params = {
        "scale_factor": scale_factor(),
        "master_size": master_size(),
    }
    merged_params.update(params or {})
    report = build_report(
        experiment,
        results,
        params=merged_params,
        metrics=metrics,
        histograms=histograms,
        spans=spans,
    )
    path = write_report(report, json_dir)
    print(f"bench report written to {path}")
    return path


def gate_and_report(
    arguments,
    experiment: str,
    results: dict,
    text: str,
    gates: dict[str, bool],
    params: dict,
    tracer,
) -> None:
    """The tail of a gated driver (serve, mutate).

    Prints ``text`` unless ``--quiet``, raises
    :class:`~repro.errors.ServeError` with the first message in ``gates``
    (failure message -> whether the run held) that did not hold, then
    writes the bench report (``--json``) with the tracer's span summary.
    """
    if not arguments.quiet:
        print(text)
    for message, held in gates.items():
        if not held:
            raise ServeError(message)
    emit_report(
        arguments.json_dir,
        experiment,
        results,
        params=params,
        spans=tracer.summary_dict() if tracer else None,
    )


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width text table (all experiment CLIs print through this)."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
