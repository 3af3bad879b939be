"""Access-frequency profiles: hot sets, skew, and working-set curves.

The buffer sweep shows that a small pool suffices for S-Node queries; this
profile shows *why* — query workloads concentrate their accesses on a
small hot set of supernodes and pages.  Built by replaying the buffer and
page streams of an :class:`~repro.obs.profile.trace.AccessTracer`:

* per-kind access counts for every buffer key (how often each intranode
  table, superedge list, heap page, ... was requested);
* per-file page-read counts from :class:`PageDevice` traffic;
* summary skew statistics — top-k shares and a cumulative working-set
  curve ("the hottest N keys absorb X% of accesses").

Supernode extraction: structured buffer keys carry the supernode in
position 1 (``("intra", s)``, ``("super", s, t)``), so hot-supernode
rankings fold per-key counts by that component.
"""

from __future__ import annotations

from collections import Counter

#: Most points :meth:`AccessHeatmap.working_set_curve` returns.
WORKING_SET_POINTS = 64


def _default_node_of(key):
    """Supernode of a structured buffer key, or None when not node-shaped."""
    if isinstance(key, tuple) and len(key) >= 2 and isinstance(key[1], int):
        return key[1]
    return None


class AccessHeatmap:
    """Per-key and per-page access-frequency profile of one trace."""

    def __init__(self) -> None:
        # kind -> Counter of buffer keys (unpinned lookups only).
        self.by_kind: dict[str, Counter] = {}
        # file -> Counter of page numbers.
        self.pages: dict[str, Counter] = {}
        self.accesses = 0
        self.pinned_accesses = 0

    @classmethod
    def from_events(cls, buffer_events, io_events=()) -> "AccessHeatmap":
        """Build a heatmap from tracer buffer (and optionally I/O) streams."""
        from repro.obs.profile.trace import BufferEvent, PageEvent

        heatmap = cls()
        for event in buffer_events:
            if type(event) is not BufferEvent:
                continue
            if event.pinned:
                heatmap.pinned_accesses += 1
                continue
            heatmap.accesses += 1
            kind = event.kind or "unattributed"
            counter = heatmap.by_kind.get(kind)
            if counter is None:
                counter = heatmap.by_kind[kind] = Counter()
            counter[event.key] += 1
        for event in io_events:
            if type(event) is not PageEvent:
                continue
            counter = heatmap.pages.get(event.file)
            if counter is None:
                counter = heatmap.pages[event.file] = Counter()
            counter[event.page] += 1
        return heatmap

    # -- rankings -----------------------------------------------------------

    def top(self, kind: str, k: int = 10) -> list[tuple[object, int]]:
        """The ``k`` most-accessed keys of ``kind`` with their counts."""
        counter = self.by_kind.get(kind)
        return counter.most_common(k) if counter else []

    def hot_supernodes(self, k: int = 10, node_of=_default_node_of) -> list[tuple[int, int]]:
        """The ``k`` most-accessed supernodes, folded across all kinds."""
        folded: Counter = Counter()
        for counter in self.by_kind.values():
            for key, count in counter.items():
                node = node_of(key)
                if node is not None:
                    folded[node] += count
        return folded.most_common(k)

    def hot_pages(self, file: str, k: int = 10) -> list[tuple[int, int]]:
        """The ``k`` most-read pages of ``file`` with their read counts."""
        counter = self.pages.get(file)
        return counter.most_common(k) if counter else []

    # -- skew ---------------------------------------------------------------

    @property
    def distinct_keys(self) -> int:
        return sum(len(counter) for counter in self.by_kind.values())

    def working_set_curve(self) -> list[dict]:
        """Cumulative access share by key rank, hottest first.

        Each point says: the hottest ``keys`` keys absorb ``fraction`` of
        all unpinned buffer accesses.  Sampled down to
        :data:`WORKING_SET_POINTS`.
        """
        counts = sorted(
            (count for counter in self.by_kind.values() for count in counter.values()),
            reverse=True,
        )
        if not counts or not self.accesses:
            return []
        points: list[dict] = []
        stride = max(1, len(counts) // WORKING_SET_POINTS)
        running = 0
        for rank, count in enumerate(counts, start=1):
            running += count
            if rank % stride == 0 or rank == len(counts):
                points.append(
                    {"keys": rank, "fraction": running / self.accesses}
                )
        return points

    def skew(self) -> dict:
        """Concentration summary: top-1/top-10% shares over all keys."""
        counts = sorted(
            (count for counter in self.by_kind.values() for count in counter.values()),
            reverse=True,
        )
        if not counts or not self.accesses:
            return {"distinct_keys": 0, "top1_share": 0.0, "top10pct_share": 0.0}
        top10 = max(1, len(counts) // 10)
        return {
            "distinct_keys": len(counts),
            "top1_share": counts[0] / self.accesses,
            "top10pct_share": sum(counts[:top10]) / self.accesses,
        }

    # -- export -------------------------------------------------------------

    @staticmethod
    def _json_key(key):
        return list(key) if isinstance(key, tuple) else key

    def to_dict(self, top_k: int = 10) -> dict:
        """Serializable profile: skew, hot sets, working-set curve."""
        return {
            "accesses": self.accesses,
            "pinned_accesses": self.pinned_accesses,
            "skew": self.skew(),
            "by_kind": {
                kind: {
                    "accesses": sum(counter.values()),
                    "distinct_keys": len(counter),
                    "top": [
                        {"key": self._json_key(key), "count": count}
                        for key, count in counter.most_common(top_k)
                    ],
                }
                for kind, counter in sorted(self.by_kind.items())
            },
            "hot_supernodes": [
                {"supernode": node, "accesses": count}
                for node, count in self.hot_supernodes(top_k)
            ],
            "hot_pages": {
                file: [
                    {"page": page, "reads": count}
                    for page, count in counter.most_common(top_k)
                ]
                for file, counter in sorted(self.pages.items())
            },
            "working_set_curve": self.working_set_curve(),
        }

    def render(self, top_k: int = 10) -> str:
        """Text report: skew summary, per-kind hot keys, hot supernodes."""
        if not self.accesses and not self.pages:
            return "(no buffer accesses recorded)"
        skew = self.skew()
        lines = [
            f"buffer accesses: {self.accesses} unpinned"
            f" (+{self.pinned_accesses} pinned), {skew['distinct_keys']} distinct keys",
            f"skew: top key {skew['top1_share'] * 100.0:.1f}% of accesses,"
            f" top 10% of keys {skew['top10pct_share'] * 100.0:.1f}%",
        ]
        for kind in sorted(self.by_kind):
            counter = self.by_kind[kind]
            hot = ", ".join(
                f"{key}x{count}" for key, count in counter.most_common(min(top_k, 5))
            )
            lines.append(
                f"  {kind}: {sum(counter.values())} accesses over"
                f" {len(counter)} keys; hottest: {hot}"
            )
        hot_nodes = self.hot_supernodes(top_k)
        if hot_nodes:
            lines.append(
                "hot supernodes: "
                + ", ".join(f"s{node}x{count}" for node, count in hot_nodes)
            )
        for file in sorted(self.pages):
            counter = self.pages[file]
            lines.append(
                f"  pages[{file}]: {sum(counter.values())} reads over"
                f" {len(counter)} pages"
            )
        return "\n".join(lines)
