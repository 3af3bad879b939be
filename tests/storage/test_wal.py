"""Graph WAL: framing, scan/repair, truncation, crash-safety sweep.

The durability contract under test (DESIGN.md, "Write path & compaction"):

* ``append`` returning IS the acknowledgement — after any crash, a
  repaired log replays exactly the acknowledged batches: **zero acked
  loss, zero phantom records**, at every possible crash point;
* a torn tail (crash mid-append) is detected by ``scan`` and removed by
  ``repair_tail`` without touching any intact frame;
* prefix truncation (compaction absorbing the log) is atomic — a crash
  during it leaves the original log intact plus a staging leftover that
  ``fsck`` reports.
"""

from __future__ import annotations

import shutil

import pytest

from repro.errors import StorageError
from repro.storage import faults
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.fsck import fsck
from repro.storage.wal import GraphWal, WalRecord, decode_record, encode_record


BATCHES = [
    ("add", [(0, 5), (1, 7), (1, 9)]),
    ("remove", [(2, 3)]),
    ("add", [(4, 0), (4, 1), (4, 2), (7, 7)]),
    ("remove", [(1, 9), (0, 5)]),
    ("add", [(123456, 9876543)]),
]


class TestRecordCodec:
    def test_roundtrip_every_batch(self):
        for op, edges in BATCHES:
            record = decode_record(encode_record(op, edges))
            assert record == WalRecord(op=op, edges=tuple(sorted(set(edges))))

    def test_rejects_bad_input(self):
        with pytest.raises(StorageError):
            encode_record("add", [])
        with pytest.raises(StorageError):
            encode_record("add", [(-1, 2)])
        with pytest.raises(StorageError):
            encode_record("upsert", [(0, 1)])

    def test_rejects_bad_opcode_payload(self):
        payload = bytearray(encode_record("add", [(0, 1)]))
        payload[0] = 0x7F  # no such opcode
        with pytest.raises(StorageError):
            decode_record(bytes(payload))


class TestAppendScan:
    def test_append_then_scan_replays_everything(self, tmp_path):
        wal = GraphWal(tmp_path / "graph.wal")
        assert wal.size_bytes() == 0
        for op, edges in BATCHES:
            wal.append(op, edges)
        scan = wal.scan()
        assert not scan.torn
        assert scan.good_bytes == wal.size_bytes()
        assert [(r.op, r.edges) for r in scan.records] == [
            (op, tuple(sorted(set(edges)))) for op, edges in BATCHES
        ]

    def test_torn_tail_detected_and_repaired(self, tmp_path):
        wal = GraphWal(tmp_path / "graph.wal")
        for op, edges in BATCHES[:2]:
            wal.append(op, edges)
        good = wal.path.read_bytes()
        wal.path.write_bytes(good + b"\x55torn-frame-residue")
        scan = wal.scan()
        assert scan.torn and scan.torn_bytes > 0
        assert len(scan.records) == 2  # intact prefix still replays
        removed = wal.repair_tail()
        assert removed == len(b"\x55torn-frame-residue")
        assert wal.path.read_bytes() == good
        assert wal.repair_tail() == 0  # idempotent on a clean log

    def test_carry_suffix_to_moves_unabsorbed_records(self, tmp_path):
        old = GraphWal(tmp_path / "old" / "graph.wal")
        old.path.parent.mkdir()
        offsets = [old.append(op, edges) for op, edges in BATCHES]
        new = GraphWal(tmp_path / "new" / "graph.wal")
        new.path.parent.mkdir()
        carried = old.carry_suffix_to(new, offsets[1])
        assert carried == offsets[-1] - offsets[1]
        assert old.size_bytes() == 0  # superseded log emptied
        scan = new.scan()
        assert [(r.op, r.edges) for r in scan.records] == [
            (op, tuple(sorted(set(edges)))) for op, edges in BATCHES[2:]
        ]


class TestCrashSweep:
    def test_every_write_op_crash_loses_no_acked_write(self, tmp_path):
        """Zero acked-write loss, zero phantom replay, at every crash point.

        Each append is one guarded write op; crashing at op ``k`` (with a
        seeded torn prefix actually hitting the file) must leave a log
        that — after tail repair — replays exactly the ``k`` acknowledged
        batches, never a record that was not acked and never one fewer.
        """
        # Count the write ops one full run takes.
        with faults.activated(FaultPlan(seed=0)) as plan:
            wal = GraphWal(tmp_path / "count" / "graph.wal")
            wal.path.parent.mkdir()
            for op, edges in BATCHES:
                wal.append(op, edges)
        total_ops = plan.write_ops
        assert total_ops == len(BATCHES)

        for index in range(total_ops):
            root = tmp_path / f"crash_{index}"
            root.mkdir()
            wal = GraphWal(root / "graph.wal")
            acked: list[tuple[str, list]] = []
            plan = FaultPlan(
                seed=200 + index, crash_at_write=index, torn_writes=True
            )
            with faults.activated(plan):
                with pytest.raises(SimulatedCrash):
                    for op, edges in BATCHES:
                        wal.append(op, edges)
                        acked.append((op, edges))
            assert len(acked) == index
            wal.repair_tail()
            scan = wal.scan()
            assert not scan.torn
            assert [(r.op, r.edges) for r in scan.records] == [
                (op, tuple(sorted(set(edges)))) for op, edges in acked
            ], f"crash at write op {index} broke replay"

    def test_crash_during_truncation_preserves_original_log(self, tmp_path):
        wal = GraphWal(tmp_path / "graph.wal")
        for op, edges in BATCHES:
            wal.append(op, edges)
        before = wal.path.read_bytes()
        plan = FaultPlan(seed=7, crash_at_write=0, torn_writes=True)
        with faults.activated(plan):
            with pytest.raises(SimulatedCrash):
                wal.carry_suffix_to(wal, 10)
        # The staging write crashed before the atomic replace: the main
        # log is untouched and fully replayable.
        assert wal.path.read_bytes() == before
        assert len(wal.scan().records) == len(BATCHES)


@pytest.fixture()
def build_with_wal(small_build, tmp_path):
    """A private copy of the committed build (safe to grow a WAL beside)."""
    root = tmp_path / "snode"
    shutil.copytree(small_build.root, root)
    return root


class TestFsckWalPass:
    def test_intact_wal_keeps_build_valid(self, build_with_wal):
        wal = GraphWal.for_build(build_with_wal)
        wal.append("add", [(0, 1)])
        wal.append("remove", [(2, 3)])
        for quick in (False, True):
            report = fsck(build_with_wal, quick=quick)
            assert report.ok, report.render()
        assert fsck(build_with_wal).regions_checked >= 2

    def test_torn_tail_is_a_finding_and_repairable(self, build_with_wal):
        wal = GraphWal.for_build(build_with_wal)
        wal.append("add", [(0, 1)])
        good = wal.path.read_bytes()
        wal.path.write_bytes(good + b"\x99garbage")
        # Detected even in quick mode (the swap-validation path).
        report = fsck(build_with_wal, quick=True)
        assert not report.ok
        assert any("torn tail" in f.problem for f in report.findings)
        repaired = fsck(build_with_wal, repair=True)
        assert repaired.repaired
        assert wal.path.read_bytes() == good
        assert fsck(build_with_wal).ok

    def test_staging_leftover_is_reported_and_removed(self, build_with_wal):
        wal = GraphWal.for_build(build_with_wal)
        wal.append("add", [(0, 1)])
        wal.staging_path.write_bytes(b"interrupted truncation residue")
        report = fsck(build_with_wal)
        assert not report.ok
        assert any("staging" in f.problem for f in report.findings)
        fsck(build_with_wal, repair=True)
        assert not wal.staging_path.exists()
        assert fsck(build_with_wal).ok
