"""Mutable-graph benchmark: recrawl deltas over the immutable build.

The S-Node store is built once and never rewritten; mutability comes
from a CRC-framed WAL (:mod:`repro.storage.wal`) replayed into per-source
delta overlays (:mod:`repro.snode.delta`) that merge into every
adjacency read.  This experiment drives that stack with the seeded
recrawl workload (:mod:`repro.webdata.recrawl`) and checks the two
promises the design makes, plus its cost profile:

* **Digest equivalence at every delta depth** — after each recrawl step
  the full adjacency (both directions) served through *base store +
  overlay* must hash identically to (a) a **full rebuild** of the
  mutated repository and (b) the in-memory ground-truth graph.  One
  flag, ``adjacency_equivalent``, ANDs the comparison over every depth;
  the per-depth digests are reported (and exact-pinned in CI).
* **Query equivalence at final depth** — the six paper queries through a
  :class:`~repro.serve.daemon.ServeContext` opened on the *base* store
  with the accumulated WAL replayed must produce payload digests equal
  to the same queries on a fresh build of the final mutated repository
  (``queries_equivalent``; both sides share the final repository's
  text/PageRank indexes, so adjacency is the only variable).
* **Query cost vs delta depth** — per depth: WAL bytes, overlay
  edges/rows, the deterministic merge counters (``delta_merges`` /
  ``delta_merge_edges`` charged by the read path) and the wall-clock of
  the full-adjacency probe (the only non-deterministic column, cost-
  marked ``probe_s`` so CI threshold-compares rather than pins it).
* **Live write/compact smoke** — a real daemon (TCP, event loop) with
  mutation enabled takes the first recrawl delta through the
  ``add_edges``/``remove_edges`` ops, establishes serial reference
  digests, then runs the Figure 11 query mix concurrently while a
  ``compact`` admin op rebuilds and hot-swaps mid-load.  Gates: zero
  failed requests across the compaction (``live_zero_failed``), every
  reply matching the serial baseline before *and* after the flip
  (``live_matches_serial``), the compaction actually adopted
  (``live_compacted``: generation bump + compaction counter), the
  absorbed WAL prefix truncated (``live_wal_truncated``), a
  post-compaction write landing in the *new* store's log
  (``live_post_write_ok``) and request conservation
  (``live_conserved``).

Every digest and boolean above is deterministic and CI-gated with
``bench-diff --exact``; throughput/latency columns vary with the machine
and are threshold-checked only.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import tempfile
import time
from pathlib import Path

from repro.experiments.harness import (
    add_report_arguments,
    add_trace_arguments,
    dataset,
    format_table,
    gate_and_report,
    sweep_sizes,
    trace_session,
)
from repro.obs import tracing
from repro.serve import protocol
from repro.serve.daemon import SERVE_NAMES, ServeContext, store_options
from repro.serve.loadgen import ServeClient
from repro.experiments.serve import (
    LoadShape,
    add_load_arguments,
    daemon_phase,
    parsed_shape,
    serial_digests,
)
from repro.snode.pair import SNodePair
from repro.webdata.recrawl import RecrawlConfig, recrawl

DEFAULT_STEPS = 4
#: The live phase's load: lighter than the serving benchmark's.
DEFAULT_SHAPE = LoadShape(concurrency=6, requests_per_client=8)
#: Edges per write request in the live phase — small enough to produce
#: several WAL appends per step, large enough to keep frame overhead low.
_WRITE_BATCH = 256


def _digest_rows(hasher: "hashlib._Hash", rows) -> None:
    """Fold ``(page, sorted-row)`` pairs into ``hasher`` canonically."""
    for page, row in rows:
        hasher.update(int(page).to_bytes(8, "little"))
        hasher.update(len(row).to_bytes(8, "little"))
        for target in row:
            hasher.update(int(target).to_bytes(8, "little"))


def _representation_digest(pair) -> str:
    """Canonical digest of both directions' full served adjacency.

    Pages are probed in id order (``iterate_all`` yields physical
    supernode order, which depends on the partition and would make two
    equivalent stores hash differently).
    """
    hasher = hashlib.sha256()
    for representation in (pair.forward, pair.backward):
        num_pages = representation.num_pages
        for start in range(0, num_pages, 1024):
            pages = range(start, min(start + 1024, num_pages))
            rows = representation.out_neighbors_many(pages)
            _digest_rows(hasher, ((page, rows[page]) for page in pages))
    return hasher.hexdigest()


def _graph_digest(graph) -> str:
    """Same framing as :func:`_representation_digest`, from a Digraph."""
    hasher = hashlib.sha256()
    transpose = graph.transpose()
    for side in (graph, transpose):
        _digest_rows(
            hasher,
            (
                (page, side.successors_list(page))
                for page in range(side.num_vertices)
            ),
        )
    return hasher.hexdigest()


def _equivalence_sweep(
    repository, steps, base: Path, buffer_bytes: int
) -> tuple[list[dict], bool]:
    """Per-depth digest equivalence: base+overlay vs rebuild vs truth.

    Returns the per-depth rows and the ANDed equivalence flag.  The
    overlay side accumulates every step in one WAL beside one base pair
    (exactly how a serving daemon would); the rebuild side builds a
    fresh pair from the mutated repository at every depth and is thrown
    away immediately after hashing.
    """
    options = store_options(buffer_bytes)
    pair = SNodePair.build(repository, base / "mutable", options, SERVE_NAMES)
    depths: list[dict] = []
    equivalent = True
    try:
        pair.open_log()
        for step in steps:
            for op, edges in (("remove", step.removed), ("add", step.added)):
                if edges:
                    pair.apply(op, list(edges))
            merges_before = pair.total("delta_merges")
            merge_edges_before = pair.total("delta_merge_edges")
            started = time.perf_counter()
            overlay_digest = _representation_digest(pair)
            probe_s = time.perf_counter() - started
            merges = pair.total("delta_merges") - merges_before
            merge_edges = pair.total("delta_merge_edges") - merge_edges_before
            rebuild_dir = base / f"rebuild_{step.index}"
            with SNodePair.build(step.repository, rebuild_dir, options) as rebuilt:
                rebuild_digest = _representation_digest(rebuilt)
            shutil.rmtree(rebuild_dir)
            truth_digest = _graph_digest(step.repository.graph)
            matches = overlay_digest == rebuild_digest == truth_digest
            equivalent = equivalent and matches
            overlay = pair.forward.overlay
            depths.append(
                {
                    "depth": step.index + 1,
                    "step_edges": step.delta_edges,
                    "url_moves": step.url_moves,
                    "host_reorgs": step.host_reorgs,
                    "wal_bytes": pair.wal.size_bytes(),
                    "overlay_edges": overlay.edge_count,
                    "overlay_rows": overlay.row_count,
                    "delta_merges": merges,
                    "delta_merge_edges": merge_edges,
                    "digest": overlay_digest,
                    "matches_rebuild": matches,
                    # The only timing column; cost-marked for bench-diff.
                    "probe_s": probe_s,
                }
            )
    finally:
        pair.close()
    return depths, equivalent


def _query_equivalence(final_repository, base: Path, buffer_bytes: int) -> dict:
    """Final-depth query equivalence: overlay serving vs full rebuild.

    Both contexts are handed the *final* repository (identical text and
    PageRank indexes); the overlay side opens the base pair — whose WAL
    already holds every recrawl delta — and replays it via
    ``enable_mutation``, while the rebuild side builds fresh stores from
    the mutated graph.  Every paper query must digest identically.
    """
    overlay_context = ServeContext.open(
        final_repository, base / "mutable", buffer_bytes=buffer_bytes
    )
    try:
        replay = overlay_context.enable_mutation()
        overlay_digests = serial_digests(overlay_context.serial_engine())
    finally:
        overlay_context.close()
    rebuild_dir = base / "rebuild_final"
    rebuild_context = ServeContext.build(
        final_repository, rebuild_dir, buffer_bytes=buffer_bytes
    )
    try:
        rebuild_digests = serial_digests(rebuild_context.serial_engine())
    finally:
        rebuild_context.close()
        shutil.rmtree(rebuild_dir)
    return {
        "queries_equivalent": overlay_digests == rebuild_digests,
        "per_query_digests": dict(sorted(overlay_digests.items())),
        "replayed_wal_records": replay["wal_records"],
    }


def _apply_live_writes(client: ServeClient, step) -> int:
    """Send one recrawl step through the daemon's write ops, batched."""
    writes = 0
    for op, edges in (("remove", step.removed), ("add", step.added)):
        batch = [list(edge) for edge in edges]
        for start in range(0, len(batch), _WRITE_BATCH):
            chunk = batch[start : start + _WRITE_BATCH]
            if not chunk:
                continue
            if op == "add":
                client.add_edges(chunk)
            else:
                client.remove_edges(chunk)
            writes += 1
    return writes


def _live_phase(repository, step, base: Path, shape: LoadShape) -> dict:
    """Writes + compaction under live load against a real daemon."""
    live_dir = base / "live"
    context = ServeContext.build(repository, live_dir, buffer_bytes=shape.buffer_bytes)
    try:
        context.enable_mutation()
        with daemon_phase(context, shape) as phase:
            writes = phase.admin(lambda admin: _apply_live_writes(admin, step))
            # Serial reference digests *after* the writes: every reply
            # during the load — before and after the compaction flip —
            # must match these.
            digests = serial_digests(context.serial_engine())
            wal_bytes_before = context.pair.wal.size_bytes()
            compact_outcome = phase.run_load(
                midway=lambda admin: admin.compact(str(live_dir / "compacted"))
            )
            # The compacted store must accept new writes into its own,
            # fresh WAL.
            post = phase.admin(
                lambda admin: admin.add_edges([[0, repository.num_pages - 1]])
            )
        load = phase.load
        mutation = context.mutation_stats()
        return {
            # Deterministic gates (CI exact-pins these):
            "live_compacted": bool(compact_outcome.get("compacted"))
            and context.generation == 1
            and context.compactions == 1
            and context.last_compaction_generation == 1,
            "live_matches_serial": phase.matches(digests),
            "live_zero_failed": load.requests_failed == 0
            and load.requests_timeout == 0
            and not phase.client_errors,
            "live_conserved": phase.conserved,
            "live_wal_truncated": compact_outcome.get("absorbed_bytes")
            == wal_bytes_before
            and compact_outcome.get("mutation", {}).get("carried_bytes") == 0,
            "live_post_write_ok": post.get("edges_applied") == 1
            and post.get("wal_bytes", 0) > 0
            and mutation.get("delta_edges") == 1,
            "live_writes_applied": writes + 1,
            # Timing-dependent observability (CI ignores):
            "live_detail": {
                "wal_bytes_before_compact": wal_bytes_before,
                "absorbed_records": compact_outcome.get("absorbed_records", 0),
                "drained_in_flight": compact_outcome.get("drained", 0),
                "completed": load.requests_ok,
                "shed": load.shed_retries,
                "errors": phase.client_errors,
            },
        }
    finally:
        context.close()


def run(
    size: int | None = None,
    steps: int = DEFAULT_STEPS,
    seed: int = 2003,
    shape: LoadShape = DEFAULT_SHAPE,
    workdir: str | None = None,
) -> dict:
    """Run the mutation benchmark end-to-end; returns the results dict."""
    size = size or sweep_sizes()[1]
    repository = dataset(size)
    with tracing.span("mutate.recrawl"):
        recrawl_steps = recrawl(
            repository, RecrawlConfig(steps=steps, seed=seed)
        )
    own_tmp = tempfile.TemporaryDirectory() if workdir is None else None
    base = Path(workdir or own_tmp.name)
    try:
        with tracing.span("mutate.equivalence"):
            depths, adjacency_equivalent = _equivalence_sweep(
                repository, recrawl_steps, base, shape.buffer_bytes
            )
        with tracing.span("mutate.queries"):
            queries = _query_equivalence(
                recrawl_steps[-1].repository, base, shape.buffer_bytes
            )
        with tracing.span("mutate.live"):
            live = _live_phase(repository, recrawl_steps[0], base, shape)
        results = {
            "num_pages": repository.num_pages,
            "recrawl_steps": steps,
            "seed": seed,
            "buffer_bytes": shape.buffer_bytes,
            "total_delta_edges": sum(s.delta_edges for s in recrawl_steps),
            "adjacency_equivalent": adjacency_equivalent,
            "depths": depths,
            "digest": protocol.payload_digest(
                {"per_depth": [row["digest"] for row in depths]}
            ),
        }
        results.update(queries)
        results.update(live)
        return {"results": results}
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def report(results: dict) -> str:
    """Human-readable summary table."""
    rows = [
        ("pages", results["num_pages"]),
        ("recrawl steps", results["recrawl_steps"]),
        ("total delta edges", results["total_delta_edges"]),
        ("adjacency equivalent (all depths)", results["adjacency_equivalent"]),
        ("queries equivalent (final depth)", results["queries_equivalent"]),
        ("live: compacted / matches serial",
         f"{results['live_compacted']} / {results['live_matches_serial']}"),
        ("live: zero failed / conserved",
         f"{results['live_zero_failed']} / {results['live_conserved']}"),
        ("live: wal truncated / post-write ok",
         f"{results['live_wal_truncated']} / {results['live_post_write_ok']}"),
    ]
    table = format_table(["metric", "value"], rows)
    depth_rows = [
        (
            row["depth"],
            row["step_edges"],
            row["overlay_edges"],
            row["overlay_rows"],
            row["wal_bytes"],
            row["delta_merges"],
            f"{row['probe_s'] * 1000.0:.1f}",
            row["matches_rebuild"],
        )
        for row in results.get("depths", [])
    ]
    if depth_rows:
        table += "\n\nquery cost vs delta depth:\n" + format_table(
            ["depth", "step edges", "delta edges", "delta rows",
             "wal bytes", "merges", "probe ms", "matches rebuild"],
            depth_rows,
        )
    return table


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    parser.add_argument("--seed", type=int, default=2003)
    add_load_arguments(
        parser, DEFAULT_SHAPE, "query requests per client in the live phase"
    )
    add_report_arguments(parser)
    add_trace_arguments(parser)
    arguments = parser.parse_args(argv)
    shape = parsed_shape(arguments)
    with trace_session(arguments, "mutate") as tracer:
        results = run(
            size=arguments.size,
            steps=arguments.steps,
            seed=arguments.seed,
            shape=shape,
        )["results"]
    gate_and_report(
        arguments,
        "mutate",
        results,
        report(results),
        {
            "mutation equivalence violated: base+delta diverged from rebuild":
                results["adjacency_equivalent"]
                and results["queries_equivalent"]
                and results["live_matches_serial"],
        },
        params={
            "steps": arguments.steps,
            "seed": arguments.seed,
            "concurrency": shape.concurrency,
            "requests_per_client": shape.requests_per_client,
        },
        tracer=tracer,
    )


if __name__ == "__main__":
    main()
