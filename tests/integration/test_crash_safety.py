"""Crash-point sweep, bit-flip fuzz and graceful degradation.

The contract under test (the durability model of DESIGN.md):

* killing a build at **any** write-op index leaves, on reopen, either a
  clean ``StorageError`` ("partial build") or a lossless committed build —
  never a third outcome, and never silent corruption;
* ``build_snode`` makes exactly ``write_snode``'s write ops, and after a
  crash at any of them the next plain build at that root reproduces the
  reference digest;
* a build crashed **over an existing valid build** always preserves the
  old build losslessly (nothing at the final root is touched before the
  atomic rename);
* a flipped bit anywhere in a payload index file always surfaces as a
  :class:`~repro.errors.CorruptionError` — never as wrong adjacency and
  never as an uncaught decoder error;
* in ``on_corruption="degrade"`` mode the corrupt region is quarantined
  and every *other* supernode keeps answering exactly, with the
  ``degraded_reads`` counter recording the loss;
* ``fsck --repair`` quarantines exactly the corrupt regions and a reopened
  store honours the quarantine file.
"""

from __future__ import annotations

import random
import shutil

import pytest

from repro.errors import CorruptionError, StorageError
from repro.snode.build import BuildOptions, build_snode
from repro.snode.storage import read_quarantine, write_snode
from repro.snode.store import SNodeStore
from repro.storage import faults
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.fsck import fsck


@pytest.fixture(scope="module")
def crash_build(tiny_repo, test_refinement_config, tmp_path_factory):
    """One normal build over the tiny repository, plus its ground truth."""
    root = tmp_path_factory.mktemp("crash_base") / "snode"
    build = build_snode(
        tiny_repo, root, BuildOptions(refinement=test_refinement_config)
    )
    baseline = {page: row for page, row in build.store.iterate_all()}
    build.store.close()
    return build, baseline


def _reopen_outcome(root, baseline) -> str:
    """Classify a post-crash reopen: 'partial' or 'lossless' (or fail)."""
    try:
        store = SNodeStore(root)
    except StorageError as exc:
        message = str(exc)
        assert "partial" in message or "no S-Node build" in message, message
        return "partial"
    with store:
        assert {page: row for page, row in store.iterate_all()} == baseline
    return "lossless"


class TestCrashPointSweep:
    def test_every_write_op_crash_is_partial_or_lossless(
        self, crash_build, tmp_path
    ):
        build, baseline = crash_build
        with faults.activated(FaultPlan(seed=0)) as plan:
            write_snode(build.model, tmp_path / "count")
        total_ops = plan.write_ops
        assert total_ops >= 8  # index files + 5 aux tables + manifest + commit

        outcomes = []
        for index in range(total_ops):
            root = tmp_path / f"crash_{index}"
            plan = FaultPlan(seed=100 + index, crash_at_write=index, torn_writes=True)
            with faults.activated(plan):
                with pytest.raises(SimulatedCrash):
                    write_snode(build.model, root)
            outcomes.append(_reopen_outcome(root, baseline))
        # Every pre-commit crash leaves a cleanly reported partial build.
        assert outcomes == ["partial"] * total_ops

    def test_crash_over_existing_build_preserves_it(self, crash_build, tmp_path):
        build, baseline = crash_build
        root = tmp_path / "steady"
        write_snode(build.model, root)
        with faults.activated(FaultPlan(seed=0)) as plan:
            write_snode(build.model, tmp_path / "count")
        total_ops = plan.write_ops

        for index in range(total_ops):
            plan = FaultPlan(seed=200 + index, crash_at_write=index, torn_writes=True)
            with faults.activated(plan):
                with pytest.raises(SimulatedCrash):
                    write_snode(build.model, root)
            # The committed build at `root` must survive every crash intact.
            assert _reopen_outcome(root, baseline) == "lossless"

    def test_build_snode_writes_what_write_snode_writes(
        self, crash_build, tiny_repo, test_refinement_config, tmp_path
    ):
        # The production path adds no write op (no checkpoints) on top of
        # the one-shot serializer of the same model.
        build, _baseline = crash_build
        with faults.activated(FaultPlan(seed=0)) as plan:
            write_snode(build.model, tmp_path / "write")
        options = BuildOptions(refinement=test_refinement_config)
        with faults.activated(FaultPlan(seed=0)) as build_plan:
            build_snode(tiny_repo, tmp_path / "build", options).store.close()
        assert build_plan.write_ops == plan.write_ops

    def test_every_build_snode_crash_is_partial_then_rebuilds_identically(
        self, crash_build, tiny_repo, test_refinement_config, tmp_path
    ):
        build, baseline = crash_build
        options = BuildOptions(refinement=test_refinement_config)
        with faults.activated(FaultPlan(seed=0)) as plan:
            write_snode(build.model, tmp_path / "count")
        for index in range(plan.write_ops):
            root = tmp_path / f"crash_{index}"
            crash = FaultPlan(seed=300 + index, crash_at_write=index, torn_writes=True)
            with faults.activated(crash):
                with pytest.raises(SimulatedCrash):
                    build_snode(tiny_repo, root, options)
            assert _reopen_outcome(root, baseline) == "partial"
            rebuilt = build_snode(tiny_repo, root, options)
            rebuilt.store.close()
            assert rebuilt.manifest["digest"] == build.manifest["digest"]
            assert _reopen_outcome(root, baseline) == "lossless"

    def test_crash_index_beyond_schedule_builds_losslessly(
        self, crash_build, tmp_path
    ):
        build, baseline = crash_build
        root = tmp_path / "after"
        with faults.activated(FaultPlan(seed=1, crash_at_write=10_000)):
            write_snode(build.model, root)
        assert _reopen_outcome(root, baseline) == "lossless"


def _flip_one_bit(root, seed: int) -> None:
    """Flip a seeded random bit inside a random payload index file."""
    rng = random.Random(seed)
    index_files = sorted(root.glob("index_*.dat"))
    path = rng.choice(index_files)
    data = bytearray(path.read_bytes())
    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))


@pytest.fixture(scope="module")
def steady_root(crash_build, tmp_path_factory):
    """A committed build used as the pristine source for corruption copies."""
    root = tmp_path_factory.mktemp("fuzz_base") / "snode"
    build, _baseline = crash_build
    write_snode(build.model, root)
    return root


class TestBitFlipFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_payload_flip_always_raises_corruption_error(
        self, crash_build, steady_root, tmp_path, seed
    ):
        _build, _baseline = crash_build
        root = tmp_path / "flipped"
        shutil.copytree(steady_root, root)
        _flip_one_bit(root, seed)
        with SNodeStore(root) as store:
            with pytest.raises(CorruptionError):
                for _page, _row in store.iterate_all():
                    pass

    def test_aux_table_flip_detected_at_open(self, steady_root, tmp_path):
        for name in ("pointers.bin", "pageid.bin", "newid.bin", "supernode.bin"):
            root = tmp_path / f"aux_{name}"
            shutil.copytree(steady_root, root)
            path = root / name
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x40
            path.write_bytes(bytes(data))
            with pytest.raises(CorruptionError):
                SNodeStore(root)

    def test_truncated_manifest_is_clean_storage_error(self, steady_root, tmp_path):
        root = tmp_path / "truncated"
        shutil.copytree(steady_root, root)
        manifest = root / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[: manifest.stat().st_size // 2])
        with pytest.raises(StorageError, match="JSON"):
            SNodeStore(root)


class TestGracefulDegradation:
    def test_degrade_mode_keeps_serving_unaffected_supernodes(
        self, crash_build, steady_root, tmp_path
    ):
        _build, baseline = crash_build
        root = tmp_path / "degrade"
        shutil.copytree(steady_root, root)
        _flip_one_bit(root, seed=3)
        with SNodeStore(root, on_corruption="degrade") as store:
            answers = {page: row for page, row in store.iterate_all()}
            assert store.metrics.get_total("degraded_reads") > 0
            quarantined = store.quarantined
            assert quarantined
        # Pages of unaffected supernodes answer exactly as the clean build.
        affected = {entry[1] for entry in quarantined}
        with SNodeStore(root) as probe:
            for page, row in baseline.items():
                # A corrupt region degrades only its source supernode's rows.
                if probe.supernode_of(page) in affected:
                    continue
                assert answers[page] == row

    def test_degrade_mode_is_validated(self, steady_root):
        with pytest.raises(ValueError, match="on_corruption"):
            SNodeStore(steady_root, on_corruption="panic")

    def test_fsck_repair_quarantines_exactly_corrupt_regions(
        self, steady_root, tmp_path
    ):
        root = tmp_path / "repair"
        shutil.copytree(steady_root, root)
        _flip_one_bit(root, seed=5)
        report = fsck(root, repair=True)
        assert not report.ok
        assert report.repaired  # exactly the CRC-failing regions
        region_findings = [f for f in report.findings if f.region]
        assert sorted(f.region for f in region_findings) == sorted(report.repaired)
        assert read_quarantine(root) == {tuple(r) for r in report.repaired}
        # A reopened store honours the quarantine even in raise mode: the
        # lost region serves empty instead of raising.
        with SNodeStore(root) as store:
            for _page, _row in store.iterate_all():
                pass
            assert store.metrics.get_total("degraded_reads") > 0

    def test_fsck_clean_build_reports_ok(self, steady_root):
        report = fsck(steady_root)
        assert report.ok
        assert report.state == "valid"
        assert not report.findings
        assert report.regions_checked > 0

    def test_fsck_partial_build_reported(self, crash_build, tmp_path):
        build, _baseline = crash_build
        root = tmp_path / "partial"
        with faults.activated(FaultPlan(seed=9, crash_at_write=2, torn_writes=True)):
            with pytest.raises(SimulatedCrash):
                write_snode(build.model, root)
        report = fsck(root)
        assert not report.ok
        assert report.state == "partial"

