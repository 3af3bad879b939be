"""Staged build pipeline: determinism, checkpoints, resume, workers.

The contracts under test (the "Build pipeline" section of DESIGN.md):

* **Worker-count determinism** — a build with ``workers`` 1, 2 or 4
  produces byte-identical on-disk trees (every file's bytes, and the
  manifest's SHA-256 build digest) on the same input;
* **Stage-boundary resume** — killing the build immediately after any
  stage's checkpoint is persisted, then rerunning with ``resume=True``,
  completes the build with exactly the bytes of an uninterrupted run,
  restoring precisely the stages before the kill;
* **Write-op crash resume** — killing the build at arbitrary write-op
  indexes (the PR 4 fault-injection sweep) and resuming also converges
  to identical bytes;
* **Fingerprint safety** — resuming against a different repository or
  different build knobs falls back to a fresh build instead of splicing
  mismatched checkpoints;
* the worker count is explicit: no environment variable changes it;
* shard planning covers the supernode range exactly, in order.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.errors import BuildError
from repro.snode.build import BuildOptions, build_snode
from repro.snode.pipeline import (
    STAGES,
    BuildPipeline,
    plan_shards,
    resolve_workers,
)
from repro.storage import faults
from repro.storage.atomic import BuildTransaction
from repro.storage.faults import FaultPlan, SimulatedCrash


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
    root = tmp_path_factory.mktemp("pipeline_ref") / "snode"
    build = build_snode(
        tiny_repo, root, BuildOptions(refinement=test_refinement_config)
    )
    baseline = {page: row for page, row in build.store.iterate_all()}
    build.store.close()
    return build, _tree_digest(root), baseline


class TestWorkerDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_build_is_byte_identical_to_serial(
        self, tiny_repo, test_refinement_config, reference_build, tmp_path, workers
    ):
        ref_build, ref_digest, _baseline = reference_build
        root = tmp_path / f"w{workers}"
        build = build_snode(
            tiny_repo,
            root,
            BuildOptions(refinement=test_refinement_config, workers=workers),
        )
        build.store.close()
        assert build.workers == workers
        assert build.shards > 1
        assert _tree_digest(root) == ref_digest
        assert build.manifest["digest"] == ref_build.manifest["digest"]

    def test_worker_count_ignores_the_environment(
        self, tiny_repo, test_refinement_config, tmp_path, monkeypatch
    ):
        # The knob that used to be read here is gone, garbage included.
        monkeypatch.setenv("REPRO_BUILD_WORKERS", "two")
        build = build_snode(
            tiny_repo,
            tmp_path / "env",
            BuildOptions(refinement=test_refinement_config),
        )
        build.store.close()
        assert build.workers == 1

    def test_bad_explicit_worker_count_rejected(self):
        with pytest.raises(BuildError):
            resolve_workers(0)


class TestShardPlanning:
    def test_shards_tile_the_supernode_range(self, reference_build):
        build, _digest, _baseline = reference_build
        for workers in (1, 2, 4, 7):
            tasks = plan_shards(
                build.model,
                window=8,
                full_affinity_limit=96,
                use_dictionary=True,
                workers=workers,
            )
            assert tasks[0].first == 0
            assert tasks[-1].last == build.model.num_supernodes
            for before, after in zip(tasks, tasks[1:]):
                assert before.last == after.first
            assert sum(t.num_supernodes for t in tasks) == build.model.num_supernodes

    def test_shard_count_scales_with_workers(self, reference_build):
        # About four shards per worker, capped by the supernode count, so
        # the pool stays busy even when shard costs are uneven.
        build, _digest, _baseline = reference_build
        n = build.model.num_supernodes
        for workers in (1, 2, 4):
            tasks = plan_shards(
                build.model,
                window=8,
                full_affinity_limit=96,
                use_dictionary=True,
                workers=workers,
            )
            assert len(tasks) == min(n, workers * 4)


class TestWorkerObservability:
    def test_parallel_build_absorbs_worker_spans(
        self, tiny_repo, test_refinement_config, tmp_path
    ):
        from repro.obs.tracing import Tracer, activated

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
        worker_names = [n for n in summary if n.startswith("worker.")]
        # Per-shard encode spans came back through ShardResult summaries
        # instead of being dropped on the worker side of the fork.
        assert "worker.encode.intranode" in worker_names
        assert summary["worker.encode.intranode"]["count"] >= build.shards


class _KillAfter:
    """``on_stage_complete`` hook that crashes after a chosen stage."""

    def __init__(self, stage: str) -> None:
        self.stage = stage

    def __call__(self, name: str) -> None:
        if name == self.stage:
            raise SimulatedCrash(f"killed after stage {name!r}")


class TestStageBoundaryResume:
    @pytest.mark.parametrize("stage", STAGES)
    def test_kill_after_each_stage_then_resume_is_identical(
        self, tiny_repo, test_refinement_config, reference_build, tmp_path, stage
    ):
        ref_build, ref_digest, baseline = reference_build
        root = tmp_path / f"kill_{stage}"
        pipeline = BuildPipeline(
            tiny_repo,
            root,
            options=BuildOptions(refinement=test_refinement_config),
            on_stage_complete=_KillAfter(stage),
        )
        with pytest.raises(SimulatedCrash):
            pipeline.run()

        resumed = build_snode(
            tiny_repo,
            root,
            BuildOptions(refinement=test_refinement_config),
            resume=True,
        )
        resumed.store.close()
        # The completed prefix (up to the killed stage) is restored, not
        # recomputed; assemble always reruns.
        expected = STAGES[: STAGES.index(stage) + 1]
        expected = tuple(name for name in expected if name != "assemble")
        assert resumed.resumed_stages == expected
        assert _tree_digest(root) == ref_digest
        assert resumed.manifest["digest"] == ref_build.manifest["digest"]
        from repro.snode.store import SNodeStore

        with SNodeStore(root) as store:
            assert {page: row for page, row in store.iterate_all()} == baseline

    def test_resume_with_parallel_workers_is_identical(
        self, tiny_repo, test_refinement_config, reference_build, tmp_path
    ):
        _ref_build, ref_digest, _baseline = reference_build
        root = tmp_path / "switch"
        pipeline = BuildPipeline(
            tiny_repo,
            root,
            options=BuildOptions(refinement=test_refinement_config),
            on_stage_complete=_KillAfter("number"),
        )
        with pytest.raises(SimulatedCrash):
            pipeline.run()
        # Worker count is excluded from the fingerprint: a serial build
        # resumes under --workers 2 and still produces the same bytes.
        resumed = build_snode(
            tiny_repo,
            root,
            BuildOptions(refinement=test_refinement_config, workers=2),
            resume=True,
        )
        resumed.store.close()
        assert "number" in resumed.resumed_stages
        assert _tree_digest(root) == ref_digest

    def test_resume_without_checkpoints_just_builds(
        self, tiny_repo, test_refinement_config, reference_build, tmp_path
    ):
        _ref_build, ref_digest, _baseline = reference_build
        build = build_snode(
            tiny_repo,
            tmp_path / "fresh",
            BuildOptions(refinement=test_refinement_config),
            resume=True,
        )
        build.store.close()
        assert build.resumed_stages == ()
        assert _tree_digest(tmp_path / "fresh") == ref_digest


class TestWriteOpCrashResume:
    def test_crash_at_write_ops_then_resume_is_identical(
        self, tiny_repo, test_refinement_config, reference_build, tmp_path
    ):
        """The PR 4 sweep machinery, now followed by --resume."""
        _ref_build, ref_digest, _baseline = reference_build
        options = BuildOptions(refinement=test_refinement_config)
        with faults.activated(FaultPlan(seed=0)) as plan:
            count_build = build_snode(tiny_repo, tmp_path / "count", options)
        count_build.store.close()
        total_ops = plan.write_ops
        assert total_ops >= 8

        # A handful of spread-out crash points keeps the sweep affordable;
        # the stage-boundary sweep above covers every checkpoint edge.
        for index in sorted({0, 1, total_ops // 2, total_ops - 2, total_ops - 1}):
            root = tmp_path / f"crash_{index}"
            plan = FaultPlan(
                seed=300 + index, crash_at_write=index, torn_writes=True
            )
            with faults.activated(plan):
                with pytest.raises(SimulatedCrash):
                    build_snode(tiny_repo, root, options)
            resumed = build_snode(tiny_repo, root, options, resume=True)
            resumed.store.close()
            assert _tree_digest(root) == ref_digest

    def test_crash_at_commit_leaves_resumable_checkpoints(
        self, tiny_repo, test_refinement_config, reference_build, tmp_path
    ):
        _ref_build, ref_digest, _baseline = reference_build
        root = tmp_path / "at_commit"
        pipeline = BuildPipeline(
            tiny_repo,
            root,
            options=BuildOptions(refinement=test_refinement_config),
            on_stage_complete=_KillAfter("assemble"),
        )
        with pytest.raises(SimulatedCrash):
            pipeline.run()
        # The checkpoint registry survived the kill between manifest and
        # commit, so the resume restores everything but assemble.
        transaction = BuildTransaction(root, resume=True)
        assert transaction.resumed
        assert set(transaction.stages) == set(STAGES[:-1])
        resumed = build_snode(
            tiny_repo,
            root,
            BuildOptions(refinement=test_refinement_config),
            resume=True,
        )
        resumed.store.close()
        assert resumed.resumed_stages == STAGES[:-1]
        assert _tree_digest(root) == ref_digest


class TestFingerprintSafety:
    def test_resume_with_different_options_starts_fresh(
        self, tiny_repo, test_refinement_config, tmp_path
    ):
        root = tmp_path / "refit"
        pipeline = BuildPipeline(
            tiny_repo,
            root,
            options=BuildOptions(refinement=test_refinement_config),
            on_stage_complete=_KillAfter("model"),
        )
        with pytest.raises(SimulatedCrash):
            pipeline.run()
        # A different encoding knob changes the fingerprint: nothing may
        # be restored from the stale checkpoints.
        changed = BuildOptions(
            refinement=test_refinement_config, use_dictionary=False
        )
        resumed = build_snode(tiny_repo, root, changed, resume=True)
        resumed.store.close()
        assert resumed.resumed_stages == ()

    def test_resume_with_different_repository_starts_fresh(
        self, tiny_repo, small_repo, test_refinement_config, tmp_path
    ):
        root = tmp_path / "swap"
        pipeline = BuildPipeline(
            tiny_repo,
            root,
            options=BuildOptions(refinement=test_refinement_config),
            on_stage_complete=_KillAfter("refine"),
        )
        with pytest.raises(SimulatedCrash):
            pipeline.run()
        resumed = build_snode(
            small_repo,
            root,
            BuildOptions(refinement=test_refinement_config),
            resume=True,
        )
        resumed.store.close()
        assert resumed.resumed_stages == ()
        assert resumed.store.num_pages == small_repo.num_pages


class TestCommittedBuildIsClean:
    def test_no_checkpoint_state_in_committed_tree(
        self, reference_build
    ):
        build, _digest, _baseline = reference_build
        leftovers = [
            path.name
            for path in build.root.rglob("*")
            if path.name.startswith(".checkpoint") or path.name == ".stages"
        ]
        assert leftovers == []

    def test_stage_seconds_cover_all_stages(self, reference_build):
        build, _digest, _baseline = reference_build
        assert set(build.stage_seconds) == set(STAGES)
        assert build.resumed_stages == ()
