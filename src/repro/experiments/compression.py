"""Table 1: compression statistics for Plain Huffman, Link3 and S-Node.

For both the Web graph WG and its transpose WGT, the experiment measures
bits per edge for each scheme, averaged over three dataset sizes as in the
paper, and reproduces the last two columns ("max repository size given
8 GB of main memory") with the paper's exact arithmetic: a graph over n
pages holds ``mean_out_degree * n`` edges, so the largest n that fits is
``memory_bits / (mean_out_degree * bits_per_edge)``.
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import asdict, dataclass

from repro.baselines import HuffmanRepresentation, Link3Representation
from repro.baselines.base import RepresentationPair
from repro.experiments.harness import (
    add_report_arguments,
    add_trace_arguments,
    dataset,
    emit_report,
    experiment_refinement_config,
    format_table,
    sweep_sizes,
    trace_session,
)
from repro.snode.build import BuildOptions
from repro.snode.pair import SNodePair

MEMORY_BYTES = 8 * 1024**3  # the paper's 8 GB headline


@dataclass
class CompressionRow:
    """One scheme's Table 1 row."""

    scheme: str
    bits_per_edge_wg: float
    bits_per_edge_wgt: float
    max_pages_wg: int
    max_pages_wgt: int


def _measure_scheme(scheme: str, repository, workdir: str) -> tuple[float, float]:
    """(bits/edge on WG, bits/edge on WGT) for one scheme on one dataset."""
    transpose = repository.graph.transpose()
    if scheme == "plain-huffman":
        pair = RepresentationPair(
            HuffmanRepresentation(repository.graph), HuffmanRepresentation(transpose)
        )
    elif scheme == "link3":
        pair = RepresentationPair(
            Link3Representation(repository, f"{workdir}/l3f"),
            Link3Representation(repository, f"{workdir}/l3b", graph=transpose),
        )
    elif scheme == "s-node":
        options = BuildOptions(refinement=experiment_refinement_config())
        pair = SNodePair.build(repository, workdir, options)
    else:
        raise ValueError(f"unknown scheme {scheme}")
    with pair:
        return pair.bits_per_edge()


def run(sizes: list[int] | None = None) -> tuple[list[CompressionRow], float]:
    """Measure all three schemes; returns (rows, mean out-degree)."""
    # Paper: "each entry is an average over the 25, 50 and 100 million
    # page data sets" — we use the same three relative sizes (1st, 2nd,
    # 4th of the sweep).
    all_sizes = sweep_sizes()
    sizes = sizes or [all_sizes[0], all_sizes[1], all_sizes[3]]
    accumulators: dict[str, list[tuple[float, float]]] = {
        "plain-huffman": [],
        "link3": [],
        "s-node": [],
    }
    degree_sum = 0.0
    for size in sizes:
        repository = dataset(size)
        degree_sum += repository.graph.mean_out_degree()
        with tempfile.TemporaryDirectory() as workdir:
            for scheme in accumulators:
                accumulators[scheme].append(
                    _measure_scheme(scheme, repository, workdir)
                )
    mean_degree = degree_sum / len(sizes)
    rows = []
    for scheme, samples in accumulators.items():
        wg = sum(s[0] for s in samples) / len(samples)
        wgt = sum(s[1] for s in samples) / len(samples)
        rows.append(
            CompressionRow(
                scheme=scheme,
                bits_per_edge_wg=wg,
                bits_per_edge_wgt=wgt,
                max_pages_wg=int(MEMORY_BYTES * 8 / (mean_degree * wg)),
                max_pages_wgt=int(MEMORY_BYTES * 8 / (mean_degree * wgt)),
            )
        )
    return rows, mean_degree


def report(rows: list[CompressionRow], mean_degree: float) -> str:
    """Paper-style Table 1."""
    table = format_table(
        [
            "scheme",
            "bits/edge WG",
            "bits/edge WGT",
            "max pages in 8GB (WG)",
            "max pages in 8GB (WGT)",
        ],
        [
            (
                r.scheme,
                r.bits_per_edge_wg,
                r.bits_per_edge_wgt,
                f"{r.max_pages_wg:,}",
                f"{r.max_pages_wgt:,}",
            )
            for r in rows
        ],
    )
    ordered = sorted(rows, key=lambda r: r.bits_per_edge_wg)
    summary = (
        f"\nmean out-degree = {mean_degree:.1f}; "
        f"WG ordering: {' < '.join(r.scheme for r in ordered)}"
    )
    return table + summary


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    add_report_arguments(parser)
    add_trace_arguments(parser)
    arguments = parser.parse_args(argv)
    with trace_session(arguments, "compression") as tracer:
        rows, mean_degree = run()
    if not arguments.quiet:
        print("[compression] Table 1")
        print(report(rows, mean_degree))
    emit_report(
        arguments.json_dir,
        "compression",
        {
            "rows": [asdict(row) for row in rows],
            "mean_out_degree": mean_degree,
        },
        spans=tracer.summary_dict() if tracer else None,
    )


if __name__ == "__main__":
    main()
