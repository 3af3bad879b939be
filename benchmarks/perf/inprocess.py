"""The two in-process, single-threaded workloads: ``build`` and ``navigate-cold``.

Their timings are **CPU seconds of this process** (``time.process_time``,
user + system), not wall-clock seconds.  Both workloads are one thread
that never sleeps or waits, so on a quiet host the two agree to within
1 %; in the sandbox the hypervisor takes 1-20 % of wall time away for a
minute at a stretch, and CPU time is unaffected by it.
"""

from __future__ import annotations

import random
import shutil
from contextlib import nullcontext
from time import process_time

from harness import (
    IO_COUNTERS,
    QUERY_NAMES,
    WARM_BUFFER_BYTES,
    Round,
    Workload,
    build_store,
    corpus,
    fresh_engine_digests,
    note,
    pair_bits_per_edge,
    probe_cycle,
    query_medians_ms,
    store_layer_metrics,
)
from stats import median

from repro.index.pagerank_index import PageRankIndex
from repro.index.textindex import TextIndex
from repro.query.workload import run_query
from repro.serve.protocol import payload_digest
from repro.snode.pair import SNodePair
from repro.snode.verify import verify_snode

#: Spans whose self time is reading or decoding payload bytes.
_DEVICE_AND_DECODE = (
    "storage.device.read_at",
    "snode.encode.decode_intranode",
    "snode.encode.positive_rows_from_payload",
    "snode.reference.decode_rows",
)


def _span(workload: Workload, name: str, probe):
    recorder = workload.recorder
    return recorder.root(name, probe) if recorder is not None else nullcontext()


class BuildWorkload(Workload):
    """Build the forward and the transpose store, then verify both.

    A round is one pair build (the point operation) followed by
    ``verify_snode`` on both stores (the side operation), which reads and
    decodes every payload just written.
    """

    name = "build"
    raw_clock = staticmethod(process_time)

    def setup(self) -> None:
        self.repository = corpus(self.sizes)

    def prepare(self) -> None:
        self._digests: set = set()
        self._previous = None
        self.stage_seconds: dict = {}

    def round(self, index: int) -> Round:
        root = self.workdir / f"build-{index}"
        clock = self.clock
        failed = 0
        started = clock()
        with _span(self, "bench.build", f"build-{index}"):
            forward = build_store(self.repository, root / "wg", False, WARM_BUFFER_BYTES)
            clock()  # a speed sample between the two builds
            backward = build_store(self.repository, root / "wgt", True, WARM_BUFFER_BYTES)
        built = clock()
        with _span(self, "bench.verify", f"verify-{index}"):
            reports = [verify_snode(root / "wg"), verify_snode(root / "wgt")]
        verified = clock()
        failed += sum(1 for report in reports if not report.ok)
        self._digests.add((forward.manifest["digest"], backward.manifest["digest"]))
        self.bits_per_edge = pair_bits_per_edge(forward, backward)
        for stage, seconds in forward.stage_seconds.items():
            self.stage_seconds[stage] = seconds + backward.stage_seconds[stage]
        counters = {
            "payload_bytes": forward.manifest["payload_bytes"]
            + backward.manifest["payload_bytes"],
            "supernodes": forward.store.num_supernodes,
            "graphs_verified": sum(report.graphs_checked for report in reports),
            "edges": forward.total_edges(),
        }
        forward.store.close()
        backward.store.close()
        if self._previous is not None:
            shutil.rmtree(self._previous)
        self._previous = root
        return Round(
            wall=verified - started,
            op_seconds=[built - started],
            primary_count=self.repository.num_pages,
            primary_wall=built - started,
            side={"verify": [verified - built]},
            counters=counters,
            attempted=2,
            failed=failed,
        )

    def verify(self) -> list[str]:
        if len(self._digests) != 1:
            return [f"build digests differ across rounds: {sorted(self._digests)}"]
        return []

    def side_ms(self, rounds: list) -> float:
        return median(r.side["verify"][0] for r in rounds) * 1e3

    def replay_rows(self) -> dict:
        graph = self.repository.graph
        return {page: graph.successors_list(page) for page in range(0, graph.num_vertices, 8)}

    def layer_metrics(self, rounds: list) -> dict:
        stages = self.stage_seconds
        total = sum(stages.values())
        metrics = {
            f"snode.pipeline.{stage}_s": stages.get(stage, 0.0)
            for stage in ("ingest", "refine", "number", "model", "encode", "assemble")
        }
        metrics["snode.pipeline.encode_share"] = stages.get("encode", 0.0) / total if total else 0.0
        return metrics


class NavigateColdWorkload(Workload):
    """Random probes, the six paper queries and full scans under a small buffer.

    A round is: caches dropped, then the seeded probe list (one probe =
    the out- *and* in-neighbours of one page, so the latency sample is
    one class, not two); then the six queries, each from dropped caches;
    then cold ``iterate_all`` scans of both directions.
    """

    name = "navigate-cold"
    raw_clock = staticmethod(process_time)

    def setup(self) -> None:
        self.repository = corpus(self.sizes)
        buffer_bytes = self.sizes.cold_buffer_bytes
        self.forward_build = build_store(self.repository, self.workdir / "wg", False, buffer_bytes)
        self.backward_build = build_store(self.repository, self.workdir / "wgt", True, buffer_bytes)
        self.pair = SNodePair(self.forward_build, self.backward_build)
        self.engine = self.pair.make_engine(
            self.repository, TextIndex(self.repository), PageRankIndex(self.repository)
        )

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        graph = self.repository.graph
        transpose = self.repository.transpose()
        self.probe_pages = probe_cycle(self.repository.num_pages, self.sizes.probes, rng)
        self._expected = {
            page: (graph.successors_list(page), transpose.successors_list(page))
            for page in self.probe_pages
        }
        self.query_order = list(QUERY_NAMES)
        rng.shuffle(self.query_order)
        self.num_edges = graph.num_edges
        self.bits_per_edge = pair_bits_per_edge(self.forward_build, self.backward_build)
        self._query_digests = fresh_engine_digests(
            self.repository, self.workdir / "wg", self.workdir / "wgt"
        )
        self._first_counters = None

    def _drop_caches(self) -> None:
        self.pair.forward.drop_caches()
        self.pair.backward.drop_caches()

    def _io_counters(self) -> dict:
        forward = self.pair.forward.io_stats()
        backward = self.pair.backward.io_stats()
        return {name: forward.get(name, 0) + backward.get(name, 0) for name in IO_COUNTERS}

    def round(self, index: int) -> Round:
        pair = self.pair
        clock = self.clock
        failed = 0

        self._drop_caches()
        before = self._io_counters()
        op_seconds = []
        rows = []
        recorder = self.recorder
        self_before = recorder.self_snapshot() if recorder is not None else {}
        probes_started = clock()
        for page in self.probe_pages:
            with _span(self, "bench.probe", f"probe-{page}"):
                start = clock()
                out_row = pair.out_neighbors(page)
                in_row = pair.in_neighbors(page)
                op_seconds.append(clock() - start)
            rows.append((out_row, in_row))
        probes_wall = clock() - probes_started
        after_probes = self._io_counters()
        probe_self = {
            name: seconds - self_before.get(name, 0.0)
            for name, seconds in (recorder.self_snapshot() if recorder is not None else {}).items()
        }
        for page, got in zip(self.probe_pages, rows):
            if got != self._expected[page]:
                failed += 1

        side: dict = {name: [] for name in QUERY_NAMES}
        navigation = 0.0
        queries_wall = 0.0
        for name in self.query_order:
            self._drop_caches()
            with _span(self, "bench.query", name):
                start = clock()
                result = run_query(self.engine, name)
                seconds = clock() - start
            side[name].append(seconds)
            queries_wall += seconds
            navigation += result.navigation_seconds
            if payload_digest(result.payload) != self._query_digests[name]:
                failed += 1

        scans_wall = 0.0
        edges_scanned = 0
        for label, representation in (("wg", pair.forward), ("wgt", pair.backward)):
            self._drop_caches()
            with _span(self, "bench.scan", f"scan-{label}"):
                start = clock()
                edges = sum(len(row) for _page, row in representation.iterate_all())
                scans_wall += clock() - start
            edges_scanned += edges
            if edges != self.num_edges:
                failed += 1

        after = self._io_counters()
        counters = {name: after[name] - before[name] for name in IO_COUNTERS}
        counters.update(
            {f"probe_{name}": after_probes[name] - before[name] for name in IO_COUNTERS}
        )
        if self._first_counters is None:
            self._first_counters = counters
        elif counters != self._first_counters:
            # Same list, same cold start: a differing counter is a bug.
            failed += 1
        return Round(
            wall=probes_wall + queries_wall + scans_wall,
            op_seconds=op_seconds,
            primary_count=len(self.probe_pages),
            primary_wall=probes_wall,
            side=side,
            counters=counters,
            attempted=len(self.probe_pages) + len(self.query_order) + 2,
            failed=failed,
            detail={
                "scan_seconds": scans_wall,
                "edges_scanned": edges_scanned,
                "queries_seconds": queries_wall,
                "navigation_seconds": navigation,
                "probe_self": probe_self,
            },
        )

    def verify(self) -> list[str]:
        """One untimed full scan of each direction against the crawl graph."""
        problems = []
        graph = self.repository.graph
        transpose = self.repository.transpose()
        for label, representation, truth in (
            ("wg", self.pair.forward, graph),
            ("wgt", self.pair.backward, transpose),
        ):
            wrong = sum(
                1
                for page, row in representation.iterate_all()
                if row != truth.successors_list(page)
            )
            if wrong:
                problems.append(f"{label}: {wrong} scanned rows differ from the crawl graph")
        return problems

    def teardown(self) -> None:
        pair = getattr(self, "pair", None)
        if pair is not None:
            pair.close()
        super().teardown()

    def side_ms(self, rounds: list) -> float:
        """``query_ms``: the six paper queries' median cold latencies, summed."""
        return sum(query_medians_ms(rounds).values())

    def layer_metrics(self, rounds: list) -> dict:
        metrics = {f"query.{name}_ms": ms for name, ms in query_medians_ms(rounds).items()}
        queries = sum(r.detail["queries_seconds"] for r in rounds)
        navigation = sum(r.detail["navigation_seconds"] for r in rounds)
        metrics["query.navigation_share"] = navigation / queries if queries else 0.0
        metrics.update(store_layer_metrics(rounds))
        probes = len(self.probe_pages) * len(rounds)
        metrics["snode.store.graphs_per_probe"] = (
            sum(r.counters["probe_loads"] for r in rounds) / probes
        )
        metrics["bench.scan_edges_per_s"] = median(
            r.detail["edges_scanned"] / r.detail["scan_seconds"] for r in rounds
        )
        return metrics

    def replay_rows(self) -> dict:
        return {page: rows[0] for page, rows in self._expected.items()}

    def separation_notes(self, rounds: list) -> list[str]:
        """Misses, reads and decoding must dominate the probes."""
        hits = sum(r.counters["probe_buffer_hits"] for r in rounds)
        misses = sum(r.counters["probe_buffer_misses"] for r in rounds)
        wall = sum(r.primary_wall for r in rounds)
        layers: dict = {}
        for r in rounds:
            for name, seconds in r.detail["probe_self"].items():
                layers[name] = layers.get(name, 0.0) + seconds
        heavy = sum(seconds for name, seconds in layers.items() if name in _DEVICE_AND_DECODE)
        hit_rate = hits / (hits + misses)
        covered = sum(layers.values()) / wall
        return [
            note(hit_rate <= 0.25, f"probe-phase buffer hit rate {hit_rate:.3f} (want <= 0.25)"),
            note(
                heavy / wall >= 0.6,
                f"device + decode self time is {heavy / wall:.0%} of probe wall (want >= 60%)",
            ),
            note(
                abs(covered - 1.0) <= 0.1,
                f"layer self times sum to {covered:.0%} of probe wall (want within 10%)",
            ),
        ]

