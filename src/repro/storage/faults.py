"""Deterministic fault injection for the storage engine.

A :class:`FaultPlan` is a seeded description of the storage faults a run
should experience: bit flips, short reads and seeded latency injection
("slow reads") on the read path, transient ``EIO`` errors (absorbed by
the bounded retry loop in
:meth:`repro.storage.device.CountedFile.read_at`), torn writes, and a
:class:`SimulatedCrash` at a chosen write-operation index.  The plan slots
*under* :class:`~repro.storage.device.CountedFile` /
:class:`~repro.storage.device.PageDevice` and the whole-file writer in
:mod:`repro.storage.atomic`: while a plan is activated, every read and
write in the process flows through it, so a crash-point sweep can kill a
build at *every* write op and a fuzz run can flip bits under real query
traffic.

Read faults are counted in the reading device's
:class:`~repro.storage.metrics.MetricsRegistry` — ``fault_bit_flips``,
``fault_short_reads``, ``fault_eio`` and ``fault_slow_reads``, plus the
device's own ``io_retries`` — so ``io_stats()`` reports them.  Write-op
indices are global to the plan — a build is one ordered sequence of
write operations regardless of how many files it touches.

Determinism: the same plan (same seed, same rates) against the same
workload injects the same faults, so every failure reproduces.  Under a
single reader that determinism extends to fault *placement*; when a plan
is activated at serve time under the daemon's worker pool, draws from
the shared stream interleave with thread scheduling, so serve-time chaos
gates must be invariant-based (conservation, degraded accounting) rather
than position-based.  The plan's RNG and counters are mutex-guarded so
concurrent readers stay safe.
"""

from __future__ import annotations

import errno
import random
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Bounded retry policy for transient read errors (see CountedFile.read_at).
READ_RETRY_LIMIT = 3
#: Base backoff between retries, in seconds (doubles per attempt).
READ_RETRY_BACKOFF_S = 0.001


class SimulatedCrash(Exception):
    """Injected process death mid-write.

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in the
    library may catch and absorb it, exactly as nothing survives a real
    ``kill -9``.
    """


class TransientIOError(OSError):
    """Injected transient ``EIO`` — retryable by the device layer."""

    def __init__(self, path: Path | str, operation: str = "read") -> None:
        super().__init__(errno.EIO, f"injected transient {operation} error", str(path))


class FaultPlan:
    """Seeded, deterministic storage-fault schedule.

    Rates are per-operation probabilities drawn from one ``random.Random``
    stream, so a given (seed, workload) pair always injects the same
    faults.  ``crash_at_write`` names the global write-op index at which a
    :class:`SimulatedCrash` is raised; with ``torn_writes=True`` a random
    prefix of that final write reaches the disk first — the classic torn
    write a checksummed format must detect.
    """

    def __init__(
        self,
        seed: int = 0,
        bit_flip_rate: float = 0.0,
        short_read_rate: float = 0.0,
        eio_rate: float = 0.0,
        crash_at_write: int | None = None,
        torn_writes: bool = False,
        slow_read_rate: float = 0.0,
        slow_read_seconds: float = 0.0,
    ) -> None:
        for name, rate in (
            ("bit_flip_rate", bit_flip_rate),
            ("short_read_rate", short_read_rate),
            ("eio_rate", eio_rate),
            ("slow_read_rate", slow_read_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if slow_read_seconds < 0.0:
            raise ValueError(
                f"slow_read_seconds must be >= 0, got {slow_read_seconds}"
            )
        self.seed = seed
        self.bit_flip_rate = bit_flip_rate
        self.short_read_rate = short_read_rate
        self.eio_rate = eio_rate
        self.crash_at_write = crash_at_write
        self.torn_writes = torn_writes
        self.slow_read_rate = slow_read_rate
        self.slow_read_seconds = slow_read_seconds
        self._rng = random.Random(seed)
        # Guards the RNG stream, the write-op counter and the injected
        # tallies: serve-time activation runs reads on many worker
        # threads at once.
        self._mutex = threading.Lock()
        #: Global write-operation counter (files + device writes + commits).
        self.write_ops = 0
        #: Faults injected so far, by kind.
        self.injected: dict[str, int] = {}

    def _count(self, kind: str, registry=None) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if registry is not None:
            registry.inc(f"fault_{kind}")

    # -- read path ---------------------------------------------------------

    def on_read(self, path, offset: int, data: bytes, registry=None) -> bytes:
        """Transform (or reject) one device read.

        May raise :class:`TransientIOError`; may return data shortened or
        with one bit flipped; may stall the read (seeded latency
        injection).  Called once per read *attempt*, so a retry re-rolls
        the dice — transient faults are genuinely transient.

        The slow-read draw only consumes randomness when a slow-read rate
        is configured, so plans without one keep their historical fault
        placement bit-for-bit.  The stall itself happens outside the
        mutex: a slow read must not serialise every other reader.
        """
        stall = 0.0
        with self._mutex:
            if self._rng.random() < self.eio_rate:
                self._count("eio", registry)
                raise TransientIOError(path)
            if self.slow_read_rate and self._rng.random() < self.slow_read_rate:
                self._count("slow_reads", registry)
                stall = self.slow_read_seconds
            if data and self._rng.random() < self.short_read_rate:
                self._count("short_reads", registry)
                data = data[: self._rng.randrange(len(data))]
            if data and self._rng.random() < self.bit_flip_rate:
                self._count("bit_flips", registry)
                flipped = bytearray(data)
                position = self._rng.randrange(len(flipped))
                flipped[position] ^= 1 << self._rng.randrange(8)
                data = bytes(flipped)
        if stall > 0.0:
            time.sleep(stall)
        return data

    # -- write path --------------------------------------------------------

    def on_write(self, path, data: bytes, writer) -> None:
        """Run one write operation, honouring the crash schedule.

        ``writer(chunk)`` performs the actual write; at the crash index it
        receives a torn prefix (when ``torn_writes``) and the crash is
        raised before the full data ever lands.
        """
        with self._mutex:
            index = self.write_ops
            self.write_ops += 1
            if index == self.crash_at_write:
                if self.torn_writes and data:
                    torn = data[: self._rng.randrange(len(data))]
                    if torn:
                        writer(torn)
                    self._count("torn_writes")
                raise SimulatedCrash(
                    f"simulated crash at write op {index} ({path})"
                )
        writer(data)

    def on_commit(self, root) -> None:
        """A build commit (rename) is one write op in the crash schedule."""
        with self._mutex:
            index = self.write_ops
            self.write_ops += 1
            if index == self.crash_at_write:
                raise SimulatedCrash(
                    f"simulated crash at commit (write op {index}, {root})"
                )


# -- activation ------------------------------------------------------------
#
# One plan is active per process at a time (builds and stores are
# single-threaded; the lock only guards installation itself).

_lock = threading.Lock()
_plan: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _plan


@contextmanager
def activated(plan: FaultPlan):
    """Scope ``plan`` to a ``with`` block, restoring the previous plan."""
    global _plan
    with _lock:
        previous = _plan
        _plan = plan
    try:
        yield plan
    finally:
        with _lock:
            _plan = previous


# -- hooks called by the storage layer -------------------------------------


def on_read(path, offset: int, data: bytes, registry=None) -> bytes:
    """Read-path hook: no-op unless a plan is active."""
    plan = _plan
    if plan is None:
        return data
    return plan.on_read(path, offset, data, registry)


def guarded_write(path, data: bytes, writer) -> None:
    """Write-path hook: ``writer(data)`` under the active crash schedule."""
    plan = _plan
    if plan is None:
        writer(data)
        return
    plan.on_write(path, data, writer)


def commit(root) -> None:
    """Commit hook: charges one write op to the active crash schedule."""
    plan = _plan
    if plan is not None:
        plan.on_commit(root)


# -- chaos fixtures ---------------------------------------------------------


def corrupt_snode_regions(
    root, stride: int = 1, limit: int | None = None, seed: int = 0
) -> int:
    """Flip one byte inside committed intranode regions of an s-node build.

    Walks the stored pointer table and flips one seeded byte in every
    ``stride``-th non-empty intranode payload region (up to ``limit``
    regions), returning how many were corrupted.  With the default
    stride every intranode region is hit, so *any* adjacency read is
    guaranteed to see a CRC mismatch — the fixture the chaos harness
    uses to prove ``on_corruption="degrade"`` end to end without
    guessing which regions a workload touches.  Corrupt a throwaway
    copy, never the build you mean to keep.
    """
    from repro.snode.storage import read_layout

    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    root = Path(root)
    layout = read_layout(root)
    rng = random.Random(seed)
    corrupted = 0
    for index, location in enumerate(layout.intranode):
        if index % stride or not location.length:
            continue
        if limit is not None and corrupted >= limit:
            break
        path = root / layout.index_files[location.file_index]
        position = location.offset + rng.randrange(location.length)
        with open(path, "r+b") as handle:
            handle.seek(position)
            original = handle.read(1)[0]
            handle.seek(position)
            handle.write(bytes([original ^ (1 << rng.randrange(8))]))
        corrupted += 1
    return corrupted
