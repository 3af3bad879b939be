"""Shared storage engine: counted I/O devices, buffer pool, metrics.

Every graph representation in this repository performs its disk I/O,
byte-budgeted caching and instrumentation through the three layers of
this package:

* :mod:`repro.storage.device` — :class:`CountedFile` / :class:`PageDevice`
  own every ``open``/``seek``/``read`` and implement the paper's
  seek-counting rule exactly once;
* :mod:`repro.storage.bufferpool` — :class:`BufferPool` is the byte-budgeted
  buffer manager (LRU + pinning + typed load accounting) shared by the
  S-Node store, the mini relational database and the Link3 block cache;
* :mod:`repro.storage.metrics` — :class:`MetricsRegistry` holds the named
  counters and distinct-key tallies that experiments read through
  ``GraphRepresentation.io_stats()``.

Because all representations meter through the same layer, cross-scheme
comparisons (Table 2, Figures 11-12) rest on a single cost model.

The hardening layer rides on the same choke points:

* :mod:`repro.storage.faults` — seeded, deterministic fault injection
  (bit flips, short reads, transient ``EIO``, torn writes, simulated
  crashes) under the device read/write paths;
* :mod:`repro.storage.integrity` — CRC32 frame codec, page-checksum
  sidecars and whole-build digests;
* :mod:`repro.storage.atomic` — the tmp-dir / fsync / manifest-last /
  rename build protocol every builder commits through;
* :mod:`repro.storage.fsck` — offline verification (and quarantine
  repair) of any stored representation, behind ``repro fsck``; its
  S-Node pass is :func:`repro.snode.verify.verify_snode`.
"""

from repro.storage.atomic import BuildTransaction, classify_build
from repro.storage.bufferpool import BufferPool
from repro.storage.device import CountedFile, PageDevice
from repro.storage.faults import FaultPlan, SimulatedCrash, activated
from repro.storage.fsck import FsckReport, fsck
from repro.storage.metrics import MetricsRegistry

__all__ = [
    "BufferPool",
    "BuildTransaction",
    "CountedFile",
    "FaultPlan",
    "FsckReport",
    "MetricsRegistry",
    "PageDevice",
    "SimulatedCrash",
    "activated",
    "classify_build",
    "fsck",
]
