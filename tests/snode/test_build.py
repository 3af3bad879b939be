"""End-to-end tests of the S-Node build.

Besides losslessness, the contracts of the "Build" section of DESIGN.md:

* **Worker-count determinism** — a build with ``workers`` 1, 2 or 4
  produces byte-identical on-disk trees (every file's bytes, and the
  manifest's SHA-256 build digest) on the same input;
* the worker count is explicit: no environment variable changes it;
* the encode ranges tile the supernode range exactly, in order;
* a committed tree holds exactly the files its manifest lists.

Crashing the build at every write op is swept in
``tests/integration/test_crash_safety.py``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BuildError
from repro.obs.tracing import Tracer, activated
from repro.snode.build import BuildOptions, build_snode
from repro.snode.storage import supernode_ranges
from repro.storage import faults
from repro.storage.atomic import tmp_root
from repro.storage.faults import FaultPlan, SimulatedCrash


class TestBuild:
    def test_roundtrip_full_graph(self, small_repo, small_build):
        for old in range(0, small_repo.num_pages, 13):
            assert small_build.translate_out(old) == small_repo.graph.successors_list(
                old
            )

    def test_total_edges_matches_graph(self, small_repo, small_build):
        assert small_build.total_edges() == small_repo.num_links

    def test_bits_per_edge_positive_and_sane(self, small_build):
        assert 1.0 < small_build.bits_per_edge < 64.0

    def test_manifest_counts(self, small_build):
        manifest = small_build.manifest
        assert manifest["num_supernodes"] == small_build.model.num_supernodes
        assert (
            manifest["positive_superedges"] + manifest["negative_superedges"]
            == small_build.model.num_superedges
        )

    def test_refinement_stats_attached(self, small_build):
        assert small_build.refinement is not None
        assert small_build.refinement.iterations > 0

    def test_reopen_from_disk(self, small_repo, small_build):
        from repro.snode.store import SNodeStore

        store = SNodeStore(small_build.root)
        numbering = small_build.numbering
        for old in random.Random(2).sample(range(small_repo.num_pages), 40):
            new = numbering.old_to_new[old]
            got = sorted(numbering.new_to_old[t] for t in store.out_neighbors(new))
            assert got == small_repo.graph.successors_list(old)
        store.close()

    def test_transpose_build(self, small_repo, test_refinement_config, tmp_path):
        build = build_snode(
            small_repo,
            tmp_path,
            BuildOptions(refinement=test_refinement_config, transpose=True),
        )
        transpose = small_repo.graph.transpose()
        for old in random.Random(3).sample(range(small_repo.num_pages), 40):
            assert build.translate_out(old) == [
                int(t) for t in transpose.successors(old)
            ]
        build.store.close()

    def test_explicit_partition_used(self, tiny_repo, tmp_path):
        from repro.partition.partition import Partition

        partition = Partition.by_domain([p.domain for p in tiny_repo.pages])
        build = build_snode(tiny_repo, tmp_path, partition=partition)
        assert build.model.num_supernodes == partition.num_elements
        assert build.refinement is None
        build.store.close()

    def test_partition_size_mismatch_rejected(self, tiny_repo, tmp_path):
        from repro.errors import BuildError
        from repro.partition.partition import Partition

        with pytest.raises(BuildError):
            build_snode(
                tiny_repo, tmp_path, partition=Partition.trivial(3)
            )

    def test_no_reference_encoding_still_correct(self, tiny_repo, tmp_path):
        build = build_snode(
            tiny_repo,
            tmp_path,
            BuildOptions(
                reference_window=0, full_affinity_limit=0, use_dictionary=False
            ),
        )
        for old in range(0, tiny_repo.num_pages, 7):
            assert build.translate_out(old) == tiny_repo.graph.successors_list(old)
        build.store.close()

    def test_force_positive_still_correct(self, tiny_repo, tmp_path):
        build = build_snode(
            tiny_repo, tmp_path, BuildOptions(force_positive_superedges=True)
        )
        assert build.model.negative_count == 0
        for old in range(0, tiny_repo.num_pages, 7):
            assert build.translate_out(old) == tiny_repo.graph.successors_list(old)
        build.store.close()


@settings(deadline=None, max_examples=5)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_build_equivalence_random_webs(seed, tmp_path_factory):
    """The representation is lossless for arbitrary generated webs."""
    from repro.webdata.generator import GeneratorConfig, generate_web

    repo = generate_web(GeneratorConfig(num_pages=150, seed=seed))
    root = tmp_path_factory.mktemp(f"prop_{seed}")
    build = build_snode(repo, root)
    for old in range(repo.num_pages):
        assert build.translate_out(old) == repo.graph.successors_list(old)
    build.store.close()


def _tree_digest(root: Path) -> str:
    """SHA-256 over every committed file's name and bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def reference_build(tiny_repo, test_refinement_config, tmp_path_factory):
    """An uninterrupted serial build: the byte-level ground truth."""
    root = tmp_path_factory.mktemp("build_ref") / "snode"
    build = build_snode(
        tiny_repo, root, BuildOptions(refinement=test_refinement_config)
    )
    build.store.close()
    return build, _tree_digest(root)


def _worker_spans(summary: dict) -> list[str]:
    return [name for name in summary if name.startswith("worker.")]


class TestWorkerDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_build_is_byte_identical_to_serial(
        self, tiny_repo, test_refinement_config, reference_build, tmp_path, workers
    ):
        ref_build, ref_digest = reference_build
        root = tmp_path / f"w{workers}"
        tracer = Tracer()
        with activated(tracer):
            build = build_snode(
                tiny_repo,
                root,
                BuildOptions(refinement=test_refinement_config, workers=workers),
            )
        build.store.close()
        assert _worker_spans(tracer.summary())  # the pool really ran
        assert _tree_digest(root) == ref_digest
        assert build.manifest["digest"] == ref_build.manifest["digest"]

    def test_worker_count_ignores_the_environment(
        self, tiny_repo, test_refinement_config, tmp_path, monkeypatch
    ):
        # The knob that used to be read here is gone, garbage included.
        monkeypatch.setenv("REPRO_BUILD_WORKERS", "two")
        tracer = Tracer()
        with activated(tracer):
            build = build_snode(
                tiny_repo,
                tmp_path / "env",
                BuildOptions(refinement=test_refinement_config),
            )
        build.store.close()
        assert _worker_spans(tracer.summary()) == []

    def test_crash_mid_encode_stops_the_pool(
        self, tiny_repo, test_refinement_config, tmp_path
    ):
        # Small index files make the first write op land inside the
        # encode loop, while the pool is still producing.
        options = BuildOptions(
            refinement=test_refinement_config, workers=2, max_file_bytes=256
        )
        with faults.activated(FaultPlan(seed=0, crash_at_write=0)):
            with pytest.raises(SimulatedCrash) as crashed:
                build_snode(tiny_repo, tmp_path / "crash", options)
        assert "encode_payloads" in {
            entry.name for entry in crashed.traceback
        }
        assert multiprocessing.active_children() == []

    def test_bad_explicit_worker_count_rejected(self):
        with pytest.raises(BuildError):
            BuildOptions(workers=0)


class TestRangePlanning:
    def test_ranges_tile_the_supernode_range(self, reference_build):
        build, _digest = reference_build
        n = build.model.num_supernodes
        for workers in (1, 2, 4, 7):
            ranges = supernode_ranges(n, workers)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == n
            for before, after in zip(ranges, ranges[1:]):
                assert before[1] == after[0]
                assert before[0] < before[1]

    def test_range_count_scales_with_workers(self, reference_build):
        # About four ranges per worker, capped by the supernode count, so
        # the pool stays busy even when range costs are uneven.
        build, _digest = reference_build
        n = build.model.num_supernodes
        for workers in (1, 2, 4):
            assert len(supernode_ranges(n, workers)) == min(n, workers * 4)
        assert supernode_ranges(0, 2) == []


class TestWorkerObservability:
    def test_parallel_build_absorbs_worker_spans(
        self, tiny_repo, test_refinement_config, tmp_path
    ):
        tracer = Tracer()
        with activated(tracer):
            with tracer.span("test"):
                build = build_snode(
                    tiny_repo,
                    tmp_path / "traced",
                    BuildOptions(refinement=test_refinement_config, workers=2),
                )
        build.store.close()
        summary = tracer.summary()
        # One span per supernode came back from the workers instead of
        # being dropped on the far side of the fork.
        assert _worker_spans(summary) == ["worker.encode.supernode"]
        assert (
            summary["worker.encode.supernode"]["count"]
            == build.model.num_supernodes
        )


class TestCommittedBuild:
    def test_committed_tree_holds_only_manifest_files(self, reference_build):
        build, _digest = reference_build
        on_disk = {path.name for path in build.root.iterdir()}
        assert on_disk == set(build.manifest["files"]) | {"manifest.json"}
        assert not tmp_root(build.root).exists()

    def test_stage_seconds_cover_all_stages(self, reference_build):
        build, _digest = reference_build
        assert list(build.stage_seconds) == [
            "refine", "number", "model", "encode", "assemble"
        ]
