"""Ablations of the design choices the paper calls out.

1. **Positive/negative superedge choice** (section 2's compactness rule)
   — rebuild with every superedge forced positive and compare bytes.
2. **Reference encoding** (section 3.1) — rebuild with references and the
   target dictionary disabled (every row direct-coded) and compare.
3. **Split policy** (section 3.2: random vs largest-first, which the paper
   found indistinguishable) — compare final partition sizes and
   representation sizes under both policies.
4. **Which superedge graphs a lookup loads** (section 4.3's "1 intranode
   + 46 superedge graphs") — per direction, the superedge graphs a
   one-page lookup loads on average: the paper's visit, every graph of
   the page's supernode, against the visit of a pressed buffer pool,
   only those whose header lists the page.  Counted from the store's
   visit records, not timed.
"""

from __future__ import annotations

import argparse
import tempfile
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
from repro.snode.build import BuildOptions, build_snode
from repro.snode.pair import SNodePair


@dataclass
class AblationRow:
    """One configuration's size outcome."""

    configuration: str
    bits_per_edge: float
    payload_bytes: int
    supernodes: int
    superedges: int
    negative_superedges: int


@dataclass
class VisitRow:
    """Superedge graphs a one-page lookup loads, averaged over the pages."""

    configuration: str
    direction: str
    superedge_graphs_per_lookup: float


def _visit_rows(store, direction: str) -> list[VisitRow]:
    paper, linked = store.superedge_graphs_per_lookup()
    return [
        VisitRow(f"paper visit ({direction})", direction, paper),
        VisitRow(f"linked visit ({direction})", direction, linked),
    ]


def _row(build, label: str) -> AblationRow:
    """One configuration's row, read off its build."""
    manifest = build.manifest
    return AblationRow(
        configuration=label,
        bits_per_edge=build.bits_per_edge,
        payload_bytes=manifest["payload_bytes"],
        supernodes=build.model.num_supernodes,
        superedges=build.model.num_superedges,
        negative_superedges=build.model.negative_count,
    )


def _build(repository, workdir: str, label: str, options: BuildOptions) -> AblationRow:
    """One forward configuration's row."""
    build = build_snode(repository, workdir, options)
    row = _row(build, label)
    build.store.close()
    return row


def run(size: int | None = None) -> tuple[list[AblationRow], list[VisitRow]]:
    """Run every ablation on one dataset; returns one row per build
    configuration, and the visit rows of the full S-Node per direction."""
    size = size or sweep_sizes()[1]
    repository = dataset(size)
    rows: list[AblationRow] = []
    visits: list[VisitRow] = []
    base_config = experiment_refinement_config()
    full = BuildOptions(refinement=base_config)
    with tempfile.TemporaryDirectory() as base:
        with SNodePair.build(repository, f"{base}/full", full) as pair:
            rows.append(_row(pair.forward_build, "full S-Node"))
            visits += _visit_rows(pair.forward_build.store, "WG")
            visits += _visit_rows(pair.backward_build.store, "WGT")
        rows.append(
            _build(
                repository,
                f"{base}/pos",
                "always-positive superedges",
                BuildOptions(refinement=base_config, force_positive_superedges=True),
            )
        )
        rows.append(
            _build(
                repository,
                f"{base}/noref",
                "no reference encoding",
                BuildOptions(
                    refinement=base_config,
                    reference_window=0,
                    full_affinity_limit=0,
                    use_dictionary=False,
                ),
            )
        )
        rows.append(
            _build(
                repository,
                f"{base}/largest",
                "largest-first split policy",
                BuildOptions(refinement=replace(base_config, policy="largest")),
            )
        )
    return rows, visits


def report(rows: list[AblationRow], visits: list[VisitRow]) -> str:
    """Comparison table across configurations, then the visit table."""
    sizes = format_table(
        [
            "configuration",
            "bits/edge",
            "payload bytes",
            "supernodes",
            "superedges",
            "negative",
        ],
        [
            (
                r.configuration,
                r.bits_per_edge,
                r.payload_bytes,
                r.supernodes,
                r.superedges,
                r.negative_superedges,
            )
            for r in rows
        ],
    )
    return sizes + "\n\n" + format_table(
        ["visit", "superedge graphs per lookup"],
        [(r.configuration, r.superedge_graphs_per_lookup) for r in visits],
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=None)
    add_report_arguments(parser)
    add_trace_arguments(parser)
    arguments = parser.parse_args(argv)
    with trace_session(arguments, "ablations") as tracer:
        rows, visits = run(size=arguments.size)
    if not arguments.quiet:
        print("[ablations]")
        print(report(rows, visits))
    emit_report(
        arguments.json_dir,
        "ablations",
        [asdict(row) for row in [*rows, *visits]],
        spans=tracer.summary_dict() if tracer else None,
    )


if __name__ == "__main__":
    main()
