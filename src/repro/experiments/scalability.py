"""Figures 9(a), 9(b) and 10: supernode-graph growth with repository size.

For each dataset size the experiment runs the full iterative refinement,
builds the supernode graph, and reports

* the number of supernodes (Fig 9a) and superedges (Fig 9b),
* the Huffman-encoded supernode-graph size in megabytes *including a
  4-byte pointer per vertex and per edge* (Fig 10's accounting),
* the growth ratios the paper quotes ("a 20-fold increase in input size
  resulted in less than a 3-fold increase in supernodes/superedges").

``--policy largest`` reruns the sweep with largest-first element choice,
the ablation the paper reports as indistinguishable from random.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict, dataclass, replace

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
from repro.snode.encode import supernode_graph_size_bytes
from repro.snode.model import build_model
from repro.snode.numbering import build_numbering


@dataclass(frozen=True)
class ScalabilityPoint:
    """One dataset size's measurements."""

    num_pages: int
    num_edges: int
    num_supernodes: int
    num_superedges: int
    supernode_graph_bytes: int
    refinement_iterations: int


def run(
    sizes: list[int] | None = None, policy: str = "random", seed: int = 7
) -> list[ScalabilityPoint]:
    """Run the sweep; returns one point per size."""
    sizes = sizes or sweep_sizes()
    config = replace(experiment_refinement_config(seed), policy=policy)
    points: list[ScalabilityPoint] = []
    for size in sizes:
        repository = dataset(size)
        from repro.partition.refine import refine_partition

        refinement = refine_partition(repository, config)
        numbering = build_numbering(repository, refinement.partition)
        model = build_model(repository.graph, numbering)
        points.append(
            ScalabilityPoint(
                num_pages=repository.num_pages,
                num_edges=repository.num_links,
                num_supernodes=model.num_supernodes,
                num_superedges=model.num_superedges,
                supernode_graph_bytes=supernode_graph_size_bytes(model),
                refinement_iterations=refinement.iterations,
            )
        )
    return points


def report(points: list[ScalabilityPoint]) -> str:
    """Paper-style table plus the growth-ratio summary."""
    rows = [
        (
            p.num_pages,
            p.num_edges,
            p.num_supernodes,
            p.num_superedges,
            p.supernode_graph_bytes / (1024 * 1024),
        )
        for p in points
    ]
    table = format_table(
        ["pages", "edges", "supernodes (Fig9a)", "superedges (Fig9b)", "MB (Fig10)"],
        rows,
    )
    first, last = points[0], points[-1]
    input_ratio = last.num_pages / max(1, first.num_pages)
    supernode_ratio = last.num_supernodes / max(1, first.num_supernodes)
    superedge_ratio = last.num_superedges / max(1, first.num_superedges)
    summary = (
        f"\ninput grew {input_ratio:.1f}x -> supernodes {supernode_ratio:.1f}x, "
        f"superedges {superedge_ratio:.1f}x "
        f"(sublinear: {'yes' if supernode_ratio < input_ratio else 'NO'})"
    )
    return table + summary


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--policy", choices=("random", "largest"), default="random")
    parser.add_argument("--seed", type=int, default=7)
    add_report_arguments(parser)
    add_trace_arguments(parser)
    arguments = parser.parse_args(argv)
    with trace_session(arguments, "scalability") as tracer:
        points = run(policy=arguments.policy, seed=arguments.seed)
    if not arguments.quiet:
        print(f"[scalability] policy={arguments.policy}")
        print(report(points))
    emit_report(
        arguments.json_dir,
        "scalability",
        [asdict(point) for point in points],
        params={"policy": arguments.policy, "seed": arguments.seed},
        spans=tracer.summary_dict() if tracer else None,
    )


if __name__ == "__main__":
    main()
