"""Unit tests for the fault-injection layer and the atomic build protocol."""

from __future__ import annotations

import json

import pytest

from repro.errors import CorruptionError, StorageError
from repro.storage import atomic, faults, integrity
from repro.storage.atomic import BuildTransaction, classify_build, require_build
from repro.storage.device import CountedFile, PageDevice
from repro.storage.faults import (
    READ_RETRY_LIMIT,
    FaultPlan,
    SimulatedCrash,
    TransientIOError,
)


@pytest.fixture
def datafile(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(bytes(range(256)) * 4)
    return path


@pytest.fixture(autouse=True)
def _no_sleep(monkeypatch):
    """Retry backoff without wall-clock delay."""
    monkeypatch.setattr("repro.storage.device.time.sleep", lambda _s: None)


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="bit_flip_rate"):
            FaultPlan(bit_flip_rate=1.5)
        with pytest.raises(ValueError, match="eio_rate"):
            FaultPlan(eio_rate=-0.1)

    def test_same_seed_same_faults(self):
        def run(plan: FaultPlan) -> list[bytes]:
            return [plan.on_read("f", 0, bytes(range(32))) for _ in range(16)]

        first = run(FaultPlan(seed=7, bit_flip_rate=0.5, short_read_rate=0.3))
        second = run(FaultPlan(seed=7, bit_flip_rate=0.5, short_read_rate=0.3))
        assert first == second
        assert first != [bytes(range(32))] * 16  # faults actually fired

    def test_inert_plan_counts_write_ops_without_faulting(self, tmp_path):
        with faults.activated(FaultPlan(seed=0)) as plan:
            atomic.write_file(tmp_path / "a.bin", b"hello")
            atomic.write_file(tmp_path / "b.bin", b"world")
        assert plan.write_ops == 2
        assert plan.injected == {}
        assert (tmp_path / "a.bin").read_bytes() == b"hello"

    def test_activation_is_scoped(self):
        plan = FaultPlan(seed=0)
        assert faults.active_plan() is None
        with faults.activated(plan):
            assert faults.active_plan() is plan
        assert faults.active_plan() is None


class TestReadFaults:
    def test_persistent_eio_exhausts_retries(self, datafile):
        device = CountedFile(datafile)
        with faults.activated(FaultPlan(seed=0, eio_rate=1.0)) as plan:
            with pytest.raises(StorageError, match="still failing"):
                device.read_at(0, 16)
        assert device.registry.get("io_retries") == READ_RETRY_LIMIT
        assert device.registry.get("fault_eio") == READ_RETRY_LIMIT + 1
        assert plan.injected["eio"] == READ_RETRY_LIMIT + 1

    def test_transient_eio_absorbed_by_retry(self, datafile):
        # seed=1: the first uniform draw is < 0.5 (EIO), the next is not,
        # so the retry succeeds — the fault is genuinely transient.
        device = CountedFile(datafile)
        with faults.activated(FaultPlan(seed=1, eio_rate=0.5)):
            data = device.read_at(0, 8)
        assert data == bytes(range(8))
        assert device.registry.get("io_retries") == 1
        assert device.registry.get("fault_eio") == 1

    def test_transient_error_is_retryable_eio(self):
        error = TransientIOError("some/file")
        assert isinstance(error, OSError)
        import errno

        assert error.errno == errno.EIO

    def test_persistent_short_reads_surface_as_storage_error(self, datafile):
        device = CountedFile(datafile)
        with faults.activated(FaultPlan(seed=3, short_read_rate=1.0)):
            with pytest.raises(StorageError, match="short read"):
                device.read_at(0, 64)
        assert device.registry.get("io_retries") == READ_RETRY_LIMIT
        assert device.registry.get("fault_short_reads") == READ_RETRY_LIMIT + 1

    def test_genuine_eof_short_read_not_retried(self, datafile):
        device = CountedFile(datafile)
        with pytest.raises(StorageError, match="short read"):
            device.read_at(1020, 100)
        assert device.registry.get("io_retries") == 0

    def test_bit_flip_caught_by_page_checksum(self, tmp_path):
        path = tmp_path / "pages.bin"
        pages = [bytes([value]) * 64 for value in (1, 2, 3)]
        path.write_bytes(b"".join(pages))
        integrity.sidecar_path(path).write_bytes(
            integrity.encode_page_checksums([integrity.crc32(p) for p in pages])
        )
        device = PageDevice(path, page_size=64)
        with faults.activated(FaultPlan(seed=5, bit_flip_rate=1.0)):
            with pytest.raises(CorruptionError, match="checksum mismatch"):
                device.read_page(1)
        assert device.registry.get("fault_bit_flips") >= 1

    def test_faults_recorded_in_event_log(self, datafile):
        """Every injected fault is a counter: each ``EIO`` one
        ``fault_eio``, each absorbed by one ``io_retries``."""
        device = CountedFile(datafile)
        plan = FaultPlan(seed=1, eio_rate=0.5)
        with faults.activated(plan):
            device.read_at(0, 8)
        assert device.registry.get("fault_eio") == plan.injected["eio"] >= 1
        assert device.registry.get("io_retries") == plan.injected["eio"]


class TestSlowReads:
    def test_slow_read_stalls_intact_data(self, datafile, monkeypatch):
        stalls: list[float] = []
        monkeypatch.setattr(
            "repro.storage.faults.time.sleep", stalls.append
        )
        device = CountedFile(datafile)
        plan = FaultPlan(seed=2, slow_read_rate=1.0, slow_read_seconds=0.01)
        with faults.activated(plan):
            data = device.read_at(0, 8)
        # Latency injection only: the payload is untouched.
        assert data == bytes(range(8))
        assert stalls == [0.01]
        assert plan.injected["slow_reads"] == 1
        assert device.registry.get("fault_slow_reads") == 1

    def test_zero_rate_preserves_legacy_fault_placement(self):
        # The slow-read draw is gated on its rate, so a plan without one
        # keeps the historical RNG stream — fault placement of existing
        # seeded scenarios must not move.
        def run(plan: FaultPlan) -> list[bytes]:
            return [plan.on_read("f", 0, bytes(range(32))) for _ in range(16)]

        legacy = run(FaultPlan(seed=7, bit_flip_rate=0.5, short_read_rate=0.3))
        gated = run(
            FaultPlan(
                seed=7,
                bit_flip_rate=0.5,
                short_read_rate=0.3,
                slow_read_rate=0.0,
                slow_read_seconds=0.5,
            )
        )
        assert gated == legacy

    def test_slow_read_params_validated(self):
        with pytest.raises(ValueError, match="slow_read_rate"):
            FaultPlan(slow_read_rate=1.5)
        with pytest.raises(ValueError, match="slow_read_seconds"):
            FaultPlan(slow_read_seconds=-0.1)


class TestWriteFaults:
    def test_crash_leaves_torn_prefix(self, tmp_path):
        path = tmp_path / "out.bin"
        data = bytes(range(200))
        plan = FaultPlan(seed=11, crash_at_write=0, torn_writes=True)
        with faults.activated(plan):
            with pytest.raises(SimulatedCrash):
                atomic.write_file(path, data)
        assert plan.injected.get("torn_writes") == 1
        on_disk = path.read_bytes() if path.exists() else b""
        assert len(on_disk) < len(data)
        assert on_disk == data[: len(on_disk)]

    def test_crash_without_torn_writes_leaves_nothing(self, tmp_path):
        path = tmp_path / "out.bin"
        with faults.activated(FaultPlan(seed=0, crash_at_write=0)):
            with pytest.raises(SimulatedCrash):
                atomic.write_file(path, b"payload")
        assert not path.exists()

    def test_crash_is_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(SimulatedCrash, ReproError)


class TestBuildTransaction:
    def test_commit_publishes_manifest_and_digest(self, tmp_path):
        root = tmp_path / "build"
        with BuildTransaction(root) as transaction:
            transaction.write_file("payload.bin", b"abc")
            manifest = transaction.write_manifest({"scheme": "test"})
            transaction.commit()
        assert classify_build(root) == "valid"
        on_disk = json.loads((root / atomic.MANIFEST_NAME).read_text())
        assert on_disk == manifest
        entry = on_disk["files"]["payload.bin"]
        assert entry == {"bytes": 3, "crc32": integrity.crc32(b"abc")}
        assert on_disk["digest"] == integrity.build_digest(on_disk["files"])

    def test_registered_files_checksummed_from_disk(self, tmp_path):
        root = tmp_path / "build"
        with BuildTransaction(root) as transaction:
            transaction.path("device.bin").write_bytes(b"written by a device")
            transaction.register("device.bin")
            manifest = transaction.write_manifest({})
            transaction.commit()
        assert manifest["files"]["device.bin"]["bytes"] == 19
        assert manifest["files"]["device.bin"]["crc32"] == integrity.crc32(
            b"written by a device"
        )

    def test_exit_without_commit_raises(self, tmp_path):
        with pytest.raises(StorageError, match="without commit"):
            with BuildTransaction(tmp_path / "build") as transaction:
                transaction.write_file("a.bin", b"a")

    def test_commit_before_manifest_rejected(self, tmp_path):
        transaction = BuildTransaction(tmp_path / "build")
        with pytest.raises(StorageError, match="manifest"):
            transaction.commit()

    def test_failed_build_leaves_partial_marker(self, tmp_path):
        root = tmp_path / "build"
        with pytest.raises(RuntimeError):
            with BuildTransaction(root) as transaction:
                transaction.write_file("a.bin", b"a")
                raise RuntimeError("builder died")
        assert classify_build(root) == "partial"
        with pytest.raises(StorageError, match="partial"):
            require_build(root)

    def test_new_transaction_clears_stale_tmp(self, tmp_path):
        root = tmp_path / "build"
        stale = atomic.tmp_root(root)
        stale.mkdir()
        (stale / "junk.bin").write_bytes(b"junk")
        with BuildTransaction(root) as transaction:
            transaction.write_manifest({})
            transaction.commit()
        assert classify_build(root) == "valid"
        assert not stale.exists()

    def test_missing_state(self, tmp_path):
        assert classify_build(tmp_path / "nowhere") == "missing"
        with pytest.raises(StorageError, match="no thing under"):
            require_build(tmp_path / "nowhere", "thing")
