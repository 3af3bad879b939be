"""The one pair: forward + transpose of a scheme, built, opened, logged
and summed in one place.

* every scheme's :class:`~repro.baselines.base.RepresentationPair`
  reports the two directions' sums;
* :class:`~repro.snode.pair.SNodePair` builds and opens both sides or
  neither;
* the mutable wiring — one WAL, two overlays, append then fold — gives
  the same graph whether it is driven in process, replayed cold from the
  directory or written through the daemon, at the figures
  ``benchmarks/baselines/BENCH_mutate.json`` pins;
* compaction refuses a base that reads through quarantined regions.

(A session pair's counters plus the base equal ``shared_totals()``:
``tests/integration/test_concurrent_readers.py``.)
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.errors import ServeError, StorageError
from repro.experiments.harness import MASTER_SEED
from repro.experiments.mutate import _graph_digest, _representation_digest
from repro.experiments.queries import SCHEMES, _build_pair
from repro.index import PageRankIndex, TextIndex
from repro.serve.daemon import (
    SERVE_NAMES,
    DaemonHandle,
    GraphQueryDaemon,
    ServeContext,
    store_options,
)
from repro.serve.loadgen import ServeClient
from repro.snode.build import BuildOptions, build_snode
from repro.snode.delta import DeltaOverlay
from repro.snode.pair import SNodePair
from repro.snode.store import SNodeStore
from repro.storage import faults
from repro.storage.fsck import fsck
from repro.storage.wal import GraphWal
from repro.webdata.generator import GeneratorConfig, generate_web
from repro.webdata.recrawl import RecrawlConfig, recrawl

MUTATE_BASELINE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "baselines" / "BENCH_mutate.json"
)


@pytest.fixture
def closed_stores(monkeypatch) -> list[Path]:
    """The directories of the stores closed during the test, in order."""
    closed: list[Path] = []
    real_close = SNodeStore.close

    def close(store) -> None:
        closed.append(store._root)
        real_close(store)

    monkeypatch.setattr(SNodeStore, "close", close)
    return closed


class TestSNodePair:
    def test_both_directions_correct(self, tiny_repo, tmp_path):
        with SNodePair.build(tiny_repo, tmp_path) as pair:
            transpose = tiny_repo.graph.transpose()
            for page in range(0, tiny_repo.num_pages, 17):
                assert pair.out_neighbors(page) == tiny_repo.graph.successors_list(
                    page
                )
                assert pair.in_neighbors(page) == [
                    int(t) for t in transpose.successors(page)
                ]

    def test_engine_wiring(self, tiny_repo, tmp_path):
        from repro.query.workload import query3_kleinberg_base_set

        with SNodePair.build(tiny_repo, tmp_path) as pair:
            engine = pair.make_engine(
                tiny_repo, TextIndex(tiny_repo), PageRankIndex(tiny_repo)
            )
            result = query3_kleinberg_base_set(engine)
            assert result.payload["base_set_size"] >= result.payload["roots"]

    def test_bits_per_edge_pair(self, tiny_repo, tmp_path):
        with SNodePair.build(tiny_repo, tmp_path) as pair:
            wg, wgt = pair.bits_per_edge()
            assert wg > 0 and wgt > 0
            assert (wg, wgt) == (
                pair.forward_build.bits_per_edge,
                pair.backward_build.bits_per_edge,
            )

    def test_reset_stats(self, tiny_repo, tmp_path):
        with SNodePair.build(tiny_repo, tmp_path) as pair:
            pair.out_neighbors(0)
            pair.in_neighbors(0)
            assert pair.forward.metrics.get("loads") > 0
            pair.reset_io_stats()
            assert pair.forward.io_stats() == {}
            assert pair.backward.io_stats() == {}

    def test_directory_layout(self, tiny_repo, tmp_path):
        with SNodePair.build(tiny_repo, tmp_path):
            assert (tmp_path / "wg" / "manifest.json").exists()
            assert (tmp_path / "wgt" / "manifest.json").exists()
        with SNodePair.build(tiny_repo, tmp_path / "named", names=SERVE_NAMES):
            for name in SERVE_NAMES:
                assert (tmp_path / "named" / name / "manifest.json").exists()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_pair_totals_are_the_two_directions_sums(scheme, tiny_repo, tmp_path):
    """``total`` / ``snapshot`` after a fixed probe list from a cold reset."""
    probes = list(range(0, tiny_repo.num_pages, 7))
    with _build_pair(scheme, tiny_repo, tmp_path, 64 * 1024) as pair:
        assert pair.name == scheme
        pair.drop_caches()
        pair.reset_io_stats()
        assert pair.snapshot() == {}
        transpose = tiny_repo.graph.transpose()
        for page in probes:
            assert pair.forward.out_neighbors(page) == tiny_repo.graph.successors_list(page)
            assert pair.backward.out_neighbors(page) == transpose.successors_list(page)
        sides = pair.io_stats()
        assert set(sides) == {"forward", "backward"}
        assert sides["forward"] == pair.forward.io_stats()
        assert sides["backward"] == pair.backward.io_stats()
        names = set(sides["forward"]) | set(sides["backward"])
        assert names, "the probes were counted somewhere"
        assert pair.snapshot() == {
            name: sides["forward"].get(name, 0) + sides["backward"].get(name, 0)
            for name in names
        }
        for name in names | {"never_counted"}:
            assert pair.total(name) == pair.snapshot().get(name, 0)


class TestBothSidesOrNeither:
    def test_build_closes_the_first_side_when_the_second_crashes(
        self, tiny_repo, test_refinement_config, tmp_path, closed_stores
    ):
        options = BuildOptions(refinement=test_refinement_config)
        counting = faults.FaultPlan()
        with faults.activated(counting):
            SNodePair.build(tiny_repo, tmp_path / "clean", options).close()
        del closed_stores[:]
        # The last writes of the pair's build belong to the transpose side.
        plan = faults.FaultPlan(crash_at_write=counting.write_ops - 2)
        with faults.activated(plan), pytest.raises(faults.SimulatedCrash):
            SNodePair.build(tiny_repo, tmp_path / "crashed", options)
        assert (tmp_path / "crashed" / "wg" / "manifest.json").exists()
        assert closed_stores == [tmp_path / "crashed" / "wg"]
        # What the crash left of the transpose build is not a build.
        assert (tmp_path / "crashed" / "wgt.tmp").exists()
        assert not (tmp_path / "crashed" / "wgt").exists()
        with pytest.raises(StorageError):
            SNodePair.open(tmp_path / "crashed")
        assert closed_stores == [tmp_path / "crashed" / "wg"] * 2

    def test_open_closes_the_first_side_when_the_second_is_the_wrong_size(
        self, tiny_repo, test_refinement_config, tmp_path, closed_stores
    ):
        options = BuildOptions(refinement=test_refinement_config)
        SNodePair.build(tiny_repo, tmp_path, options).close()
        smaller = generate_web(GeneratorConfig(num_pages=120, seed=17))
        shutil.rmtree(tmp_path / "wgt")
        build_snode(smaller, tmp_path / "wgt", options).store.close()
        del closed_stores[:]
        with pytest.raises(ServeError) as refused:
            SNodePair.open(tmp_path, num_pages=tiny_repo.num_pages)
        assert str(refused.value) == (
            f"store under {tmp_path} holds 120 pages but the repository has 300"
        )
        assert closed_stores == [tmp_path / "wgt", tmp_path / "wg"]
        with SNodePair.open(tmp_path) as unchecked:
            assert unchecked.backward.num_pages == 120


@pytest.fixture(scope="module")
def recrawled():
    """The crawl and recrawl steps ``BENCH_mutate.json`` was recorded on
    (``REPRO_SCALE=0.1``: the second sweep size of a 2 000-page master)."""
    pinned = json.loads(MUTATE_BASELINE.read_text())["results"]
    master = generate_web(GeneratorConfig(num_pages=2000, seed=MASTER_SEED))
    repository = master.crawl_prefix(pinned["num_pages"])
    steps = recrawl(
        repository, RecrawlConfig(steps=pinned["recrawl_steps"], seed=pinned["seed"])
    )
    return repository, steps, pinned


def probe(pair) -> dict:
    """What one full-adjacency probe of a mutable pair reads and costs."""
    merges = pair.total("delta_merges")
    merge_edges = pair.total("delta_merge_edges")
    return {
        "digest": _representation_digest(pair),
        "delta_merges": pair.total("delta_merges") - merges,
        "delta_merge_edges": pair.total("delta_merge_edges") - merge_edges,
        "wal_bytes": pair.wal.size_bytes(),
    }


class TestMutableWiring:
    def test_in_process_cold_replay_and_daemon_agree_with_the_baseline(
        self, recrawled, tmp_path
    ):
        repository, steps, pinned = recrawled
        options = store_options(pinned["buffer_bytes"])
        live = SNodePair.build(repository, tmp_path / "live", options, SERVE_NAMES)
        for name in SERVE_NAMES:
            shutil.copytree(tmp_path / "live" / name, tmp_path / "served" / name)
        context = ServeContext.open(repository, tmp_path / "served", pinned["buffer_bytes"])
        try:
            assert live.open_log() == {"wal_bytes": 0, "wal_records": 0, "repaired_bytes": 0}
            context.enable_mutation()
            daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
            with DaemonHandle(daemon) as handle, ServeClient(
                "127.0.0.1", handle.port
            ) as client:
                for step, row in zip(steps, pinned["depths"]):
                    for op, edges in (("remove", step.removed), ("add", step.added)):
                        if not edges:
                            continue
                        batch = [list(edge) for edge in edges]
                        live.apply(op, batch)
                        write = client.add_edges if op == "add" else client.remove_edges
                        assert write(batch)["edges_applied"] == len(batch)
                    expected = {
                        name: row[name]
                        for name in ("digest", "delta_merges", "delta_merge_edges", "wal_bytes")
                    }
                    assert expected["digest"] == _graph_digest(step.repository.graph)
                    assert probe(live) == expected
                    assert probe(context.pair) == expected
                    with SNodePair.open(
                        tmp_path / "live", SERVE_NAMES, pinned["buffer_bytes"]
                    ) as cold:
                        assert cold.open_log()["wal_bytes"] == row["wal_bytes"]
                        assert probe(cold) == expected
                    assert live.forward.overlay.edge_count == row["overlay_edges"]
                    assert live.forward.overlay.row_count == row["overlay_rows"]
        finally:
            live.close()
            context.close()

    def test_nothing_is_folded_before_the_append_returns(
        self, tiny_repo, test_refinement_config, tmp_path, monkeypatch
    ):
        options = BuildOptions(refinement=test_refinement_config)
        with SNodePair.build(tiny_repo, tmp_path, options) as pair:
            pair.open_log()
            pair.apply("add", [(0, 299)])
            before = probe(pair)

            def crash(wal, op, edges):
                raise faults.SimulatedCrash("before the frame is durable")

            monkeypatch.setattr(GraphWal, "append", crash)
            with pytest.raises(faults.SimulatedCrash):
                pair.apply("add", [(1, 298)])
            assert (pair.forward.overlay.edge_count, pair.backward.overlay.edge_count) == (1, 1)
            assert probe(pair)["digest"] == before["digest"]
            assert 298 not in pair.out_neighbors(1) and 1 not in pair.in_neighbors(298)


class TestCompactionOverQuarantine:
    def test_a_base_read_through_quarantined_regions_is_refused(self, tmp_path):
        repository = generate_web(GeneratorConfig(num_pages=600, seed=5))
        ServeContext.build(repository, tmp_path).close()
        assert faults.corrupt_snode_regions(tmp_path / "serve_f", stride=3, seed=1) == 24
        assert len(fsck(tmp_path / "serve_f", repair=True).repaired) == 24
        context = ServeContext.open(repository, tmp_path, on_corruption="degrade")
        try:
            context.enable_mutation()
            context.apply_mutation("add", [[0, 599]])
            with pytest.raises(ServeError, match="compaction refused: 24 reads of"):
                context.compact_build(DeltaOverlay(), tmp_path / "compacted")
            assert not (tmp_path / "compacted").exists()
            assert 599 in context.forward.out_neighbors(0)  # still serving
            assert context.pair.wal.scan().records[0].edges == ((0, 599),)
            assert (context.generation, context.compactions) == (0, 0)
            # An independently built pair is still a valid swap target.
            ServeContext.build(repository, tmp_path / "rebuilt").close()
            context.open_pair(tmp_path / "rebuilt").close()
        finally:
            context.close()
