"""End-to-end S-Node builder.

``build_snode`` chains the full pipeline of section 3:

    repository -> iterative partition refinement -> numbering ->
    logical model (supernode/intranode/superedge graphs) ->
    physical encoding -> on-disk layout

and returns a :class:`SNodeBuild` bundling the opened store, the
numbering, refinement statistics and the size accounting that feeds
Table 1 and Figures 9/10.  Passing ``transpose=True`` builds the
representation of WGT (backlinks) instead, reusing the same partition —
the paper builds both for every scheme.

Each stage is a plain function call, so a caller that needs only part of
the build (a compaction that keeps its partition, say) calls the same
functions directly.  The encode stage can fan out across a
``multiprocessing`` pool (``BuildOptions.workers``); output bytes are
identical for every worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import BuildError, StorageError
from repro.obs import tracing
from repro.partition.partition import Partition
from repro.partition.refine import (
    RefinementConfig,
    RefinementResult,
    refine_partition,
)
from repro.snode.encode import supernode_graph_size_bytes
from repro.snode.model import SNodeModel, build_model
from repro.snode.numbering import Numbering, build_numbering
from repro.snode.reference import DEFAULT_FULL_AFFINITY_LIMIT, DEFAULT_WINDOW
from repro.snode.storage import DEFAULT_MAX_FILE_BYTES, encode_payloads, write_tables
from repro.snode.store import DEFAULT_BUFFER_BYTES, SNodeStore
from repro.storage.atomic import BuildTransaction
from repro.webdata.corpus import Repository


@dataclass(frozen=True)
class BuildOptions:
    """Knobs of the S-Node build."""

    refinement: RefinementConfig | None = None
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES
    buffer_bytes: int = DEFAULT_BUFFER_BYTES
    reference_window: int = DEFAULT_WINDOW
    full_affinity_limit: int = DEFAULT_FULL_AFFINITY_LIMIT
    # Ablation switches: turn off the per-graph target dictionary and/or
    # force every superedge graph positive (disable the pos/neg choice).
    use_dictionary: bool = True
    force_positive_superedges: bool = False
    transpose: bool = False
    # Encode-stage worker processes (1 = serial).  Never changes output
    # bytes, only wall-clock.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise BuildError(f"worker count must be >= 1, got {self.workers}")


@dataclass
class SNodeBuild:
    """Everything a caller needs after a build.

    ``model`` is None when the build was *opened* from a committed
    directory (:func:`open_snode`) rather than built in-process: serving
    only needs the store and the numbering, and the logical model is not
    persisted.  Accessors that require it (``total_edges``,
    ``bits_per_edge``) raise a typed error in that case.
    """

    store: SNodeStore
    numbering: Numbering
    model: SNodeModel | None
    refinement: RefinementResult | None
    manifest: dict
    root: Path
    #: Wall-clock seconds per build stage.
    stage_seconds: dict = field(default_factory=dict)

    @property
    def bits_per_edge(self) -> float:
        """Structure bits per edge: payloads + supernode graph + PageID index.

        This matches the paper's Table 1 metric (total representation size
        over edge count).  The pointer table (``pointers.bin``: where each
        payload lies and its checksum) is not counted, nor are the new-id
        map and the domain index — auxiliary structures every scheme
        shares, excluded as in the paper.
        """
        num_edges = self.total_edges()
        if num_edges == 0:
            return 0.0
        total_bytes = (
            self.manifest["payload_bytes"]
            + supernode_graph_size_bytes(self.model)
            + self.manifest["pageid_bytes"]
        )
        return total_bytes * 8.0 / num_edges

    def total_edges(self) -> int:
        """Number of Web-graph edges represented."""
        if self.model is None:
            raise StorageError(
                "edge counts need the logical model, which is not "
                "persisted; this build was opened from disk "
                f"({self.root}) — rebuild to recover it"
            )
        intra = sum(
            len(row) for rows in self.model.intranode for row in rows
        )
        inter = 0
        for (source, target), graph in self.model.superedges.items():
            if graph.negative:
                target_size = self.numbering.supernode_size(target)
                inter += len(graph.linked_sources) * target_size - graph.num_edges
            else:
                inter += graph.num_edges
        return intra + inter

    def translate_out(self, old_page: int) -> list[int]:
        """Adjacency list of an *old* page id, returned in old ids."""
        new_page = self.numbering.old_to_new[old_page]
        return sorted(
            self.numbering.new_to_old[t] for t in self.store.out_neighbors(new_page)
        )


def build_snode(
    repository: Repository,
    root: Path | str,
    options: BuildOptions | None = None,
    partition: Partition | None = None,
    progress=None,
) -> SNodeBuild:
    """Build, serialize and open an S-Node representation under ``root``.

    Six calls inside one :class:`~repro.storage.atomic.BuildTransaction`:
    refine, number, model, encode, assemble, commit; then the store is
    opened.  Each stage runs inside a tracing span on the currently
    activated tracer (``build.refine`` / ``build.numbering`` /
    ``build.model`` / ``build.encode`` / ``build.assemble`` /
    ``build.open``), so ``repro build --trace`` attributes build time to
    phases; encode-worker span aggregates are absorbed under a
    ``worker.`` prefix.  ``progress`` (an optional
    :class:`~repro.obs.progress.ProgressReporter`) is threaded into the
    refinement loop and the supernode encoder.  A build killed part-way
    leaves ``<root>.tmp`` behind (a partial build); the next build at
    ``root`` removes it and starts over.
    """
    options = options or BuildOptions()
    root = Path(root)
    stage_seconds: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stage_seconds[stage] = now - mark
        mark = now

    with BuildTransaction(root) as transaction:
        refinement = None
        if partition is None:
            with tracing.span("build.refine", pages=repository.num_pages):
                refinement = refine_partition(
                    repository,
                    options.refinement or RefinementConfig(),
                    progress=progress,
                )
            partition = refinement.partition
        lap("refine")
        with tracing.span("build.numbering", elements=partition.num_elements):
            numbering = build_numbering(repository, partition)
        lap("number")
        graph = repository.graph.transpose() if options.transpose else repository.graph
        with tracing.span("build.model", transpose=options.transpose):
            model = build_model(
                graph, numbering, force_positive=options.force_positive_superedges
            )
        lap("model")
        with tracing.span(
            "build.encode",
            supernodes=model.num_supernodes,
            superedges=model.num_superedges,
            workers=options.workers,
        ):
            encoded = encode_payloads(
                model,
                transaction,
                max_file_bytes=options.max_file_bytes,
                window=options.reference_window,
                full_affinity_limit=options.full_affinity_limit,
                use_dictionary=options.use_dictionary,
                workers=options.workers,
                progress=progress,
            )
        lap("encode")
        with tracing.span("build.assemble"):
            manifest = write_tables(
                model,
                transaction,
                encoded,
                window=options.reference_window,
                full_affinity_limit=options.full_affinity_limit,
            )
        lap("assemble")
        transaction.commit()

    with tracing.span("build.open"):
        store = SNodeStore(root, buffer_bytes=options.buffer_bytes)
    return SNodeBuild(
        store=store,
        numbering=numbering,
        model=model,
        refinement=refinement,
        manifest=manifest,
        root=root,
        stage_seconds=stage_seconds,
    )


def open_snode(
    root: Path | str,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    on_corruption: str = "raise",
) -> SNodeBuild:
    """Open a *committed* build directory for serving, without rebuilding.

    Reconstructs the :class:`~repro.snode.numbering.Numbering` from the
    stored tables (the new-id permutation inverts to ``old_to_new``, the
    PageID index gives the boundaries, ``domain.json`` inverts to the
    per-supernode domain list) and returns an :class:`SNodeBuild` with
    ``model=None`` — everything the query engine needs, none of the
    build-time state.  This is the open half of the hot-swap protocol: a
    daemon validates a freshly built directory and opens it with this
    function while still serving the old store.
    """
    root = Path(root)
    store = SNodeStore(root, buffer_bytes=buffer_bytes, on_corruption=on_corruption)
    new_to_old = tuple(store.new_to_old)
    old_to_new = [0] * len(new_to_old)
    for new_page, old_page in enumerate(new_to_old):
        old_to_new[old_page] = new_page
    supernode_domains = [""] * store.num_supernodes
    for domain, supernodes in store.domains.items():
        for supernode in supernodes:
            supernode_domains[supernode] = domain
    numbering = Numbering(
        old_to_new=tuple(old_to_new),
        new_to_old=new_to_old,
        boundaries=tuple(store.boundaries),
        supernode_domains=tuple(supernode_domains),
    )
    return SNodeBuild(
        store=store,
        numbering=numbering,
        model=None,
        refinement=None,
        manifest=store.manifest,
        root=root,
    )
