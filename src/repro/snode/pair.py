"""Bidirectional S-Node access: forward and backlink builds as one object.

The paper builds representations "of the Web graph and its transpose
using each of the schemes" because half the complex queries navigate
backlinks.  :class:`SNodePair` packages the two builds, exposes both
directions, and wires a :class:`~repro.query.engine.QueryEngine` in one
call — the pattern every example and experiment otherwise repeats.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.baselines.base import SNodeRepresentation
from repro.snode.build import BuildOptions, SNodeBuild, build_snode
from repro.webdata.corpus import Repository


class SNodePair:
    """Forward (WG) + transpose (WGT) S-Node builds over one repository."""

    def __init__(self, forward: SNodeBuild, backward: SNodeBuild) -> None:
        self.forward_build = forward
        self.backward_build = backward
        self.forward = SNodeRepresentation(forward)
        self.backward = SNodeRepresentation(backward)

    @classmethod
    def build(
        cls,
        repository: Repository,
        root: Path | str,
        options: BuildOptions | None = None,
    ) -> "SNodePair":
        """Build both directions under ``root`` (subdirs ``wg``/``wgt``).

        The same partition configuration drives both builds, matching the
        paper's protocol.
        """
        root = Path(root)
        options = options or BuildOptions()
        forward = build_snode(repository, root / "wg", options)
        backward = build_snode(
            repository,
            root / "wgt",
            replace(options, transpose=True),
        )
        return cls(forward, backward)

    def out_neighbors(self, page: int) -> list[int]:
        """Forward adjacency (repository ids)."""
        return self.forward.out_neighbors(page)

    def in_neighbors(self, page: int) -> list[int]:
        """Backlinks (repository ids)."""
        return self.backward.out_neighbors(page)

    def make_engine(self, repository: Repository, text_index, pagerank_index):
        """A ready :class:`~repro.query.engine.QueryEngine` over this pair."""
        from repro.query.engine import QueryEngine

        return QueryEngine(
            repository, text_index, pagerank_index, self.forward, self.backward
        )

    def total_bits_per_edge(self) -> tuple[float, float]:
        """(WG, WGT) bits-per-edge — the two Table 1 cells for S-Node."""
        return (
            self.forward_build.bits_per_edge,
            self.backward_build.bits_per_edge,
        )

    def reset_stats(self) -> None:
        """Zero instrumentation on both stores."""
        self.forward.reset_io_stats()
        self.backward.reset_io_stats()

    def close(self) -> None:
        """Close both stores."""
        self.forward.close()
        self.backward.close()

    def __enter__(self) -> "SNodePair":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
