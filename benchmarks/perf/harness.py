"""What the four workloads share: sizes, the crawl, rounds, helpers.

**One crawl for every seed.**  The crawl is generated with the fixed
:data:`CORPUS_SEED`; ``--seed`` draws only the operation lists (probe
pages and order, lookup pages, query order, recrawl mutations).  Graph
shape moves a cold probe's cost by ~20 % from one synthetic crawl to the
next, which would drown a 10 % regression bound in input noise.

**Rounds.**  A workload's operation list is fixed by count.  One pass
over it is a *round*; a run repeats whole rounds until ``--seconds`` are
used and reports medians over rounds, so the deterministic work counters
of a round repeat exactly while the timings settle.
"""

from __future__ import annotations

import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import replay
from stats import median

from repro.baselines import SNodeRepresentation
from repro.experiments.harness import experiment_refinement_config
from repro.index.pagerank_index import PageRankIndex
from repro.index.textindex import TextIndex
from repro.query.engine import QueryEngine
from repro.query.workload import PAPER_QUERIES, run_query
from repro.serve.protocol import payload_digest
from repro.snode.build import BuildOptions, build_snode
from repro.webdata.generator import GeneratorConfig, generate_web

CORPUS_SEED = 2003
QUERY_NAMES = tuple(name for name, _function in PAPER_QUERIES)


@dataclass(frozen=True)
class Sizes:
    """What ``--smoke`` shrinks; README.md states the full-size values."""

    pages: int
    #: navigate-cold: buffer bound per direction, well below the decoded
    #: working set (the low end of the paper's Figure 12 sweep).
    cold_buffer_bytes: int
    #: navigate-cold: probes (out + in neighbours of one page) per round.
    probes: int
    #: serve-warm: requests per connection per round.
    requests: int


FULL = Sizes(pages=2000, cold_buffer_bytes=64 * 1024, probes=100, requests=400)
SMOKE = Sizes(pages=1000, cold_buffer_bytes=48 * 1024, probes=60, requests=120)

#: Buffer per direction wherever it must hold the whole working set.
WARM_BUFFER_BYTES = 16 * 1024 * 1024


@dataclass
class Round:
    """What one pass over a workload's fixed operation list measured."""

    #: Seconds for the whole list.
    wall: float
    #: Latencies of the workload's point operation, seconds.
    op_seconds: list
    #: Operations counted by ``ops_per_s`` and the seconds they took.
    primary_count: int
    primary_wall: float
    #: Latencies of the side operation class, by label, seconds.
    side: dict
    #: Work counters that repeat exactly for a given seed (in-process
    #: workloads) or nearly so (served ones).
    counters: dict
    attempted: int
    failed: int
    #: Workload-specific extras (edges scanned, compaction seconds, ...).
    detail: dict = field(default_factory=dict)


def corpus(sizes: Sizes):
    """The crawl every workload runs on."""
    return generate_web(GeneratorConfig(num_pages=sizes.pages, seed=CORPUS_SEED))


def build_store(repository, root: Path, transpose: bool, buffer_bytes: int):
    """One serial S-Node build with the experiments' refinement settings."""
    return build_snode(
        repository,
        root,
        BuildOptions(
            refinement=experiment_refinement_config(),
            buffer_bytes=buffer_bytes,
            transpose=transpose,
            workers=1,
        ),
    )


def pair_bits_per_edge(forward_build, backward_build) -> float:
    """Mean of the WG and WGT cells of the paper's Table 1."""
    return (forward_build.bits_per_edge + backward_build.bits_per_edge) / 2.0


def fresh_engine_digests(repository, forward_root: Path, backward_root: Path) -> dict:
    """Each paper query's payload digest from a fresh serial engine.

    The reference every workload's query answers are checked against: the
    committed pair reopened with the default buffer, new indexes, one
    query at a time.
    """
    forward = SNodeRepresentation.open(forward_root)
    backward = SNodeRepresentation.open(backward_root)
    try:
        engine = QueryEngine(
            repository, TextIndex(repository), PageRankIndex(repository), forward, backward
        )
        return {name: payload_digest(run_query(engine, name).payload) for name in QUERY_NAMES}
    finally:
        forward.close()
        backward.close()


def probe_cycle(num_pages: int, count: int, rng: random.Random) -> list[int]:
    """``count`` pages spread evenly over crawl order; the seed picks the start.

    The pages and their cyclic order are the same for every seed (shuffled
    once with the crawl's seed); ``rng`` only rotates the cycle.  A probe's
    cost ranges over two orders of magnitude with the page probed and with
    what the previous probes left in the buffer, so a seeded sample, or a
    seeded order, of a hundred pages moves the median by 20 % from seed to
    seed.
    """
    stride = max(1, num_pages // count)
    pages = [(index * stride) % num_pages for index in range(count)]
    random.Random(CORPUS_SEED).shuffle(pages)
    start = rng.randrange(count)
    return pages[start:] + pages[:start]


#: Store counters both the in-process stores and the daemon's replies report.
IO_COUNTERS = (
    "loads",
    "intranode_loads",
    "superedge_loads",
    "bytes_read",
    "disk_seeks",
    "buffer_hits",
    "buffer_misses",
    "buffer_evictions",
)


def store_layer_metrics(rounds: list) -> dict:
    """Store, buffer-pool and device work counters summed over ``rounds``."""
    total = {name: sum(r.counters.get(name, 0) for r in rounds) for name in IO_COUNTERS}
    lookups = total["buffer_hits"] + total["buffer_misses"]
    return {
        "snode.store.loads": total["loads"],
        "snode.store.intranode_loads": total["intranode_loads"],
        "snode.store.superedge_loads": total["superedge_loads"],
        "storage.bufferpool.hits": total["buffer_hits"],
        "storage.bufferpool.misses": total["buffer_misses"],
        "storage.bufferpool.evictions": total["buffer_evictions"],
        "storage.bufferpool.hit_rate": total["buffer_hits"] / lookups if lookups else 0.0,
        "storage.device.read_calls": total["loads"],
        "storage.device.bytes_read": total["bytes_read"],
        "storage.device.disk_seeks": total["disk_seeks"],
    }


def query_medians_ms(rounds: list) -> dict:
    """Each paper query's median latency over ``rounds``, milliseconds."""
    return {
        name: median(seconds for r in rounds for seconds in r.side.get(name, ())) * 1e3
        for name in QUERY_NAMES
    }


def note(ok: bool, text: str) -> str:
    """One line of a workload's separation self-check."""
    return f"{'ok  ' if ok else 'FAIL'} {text}"


def own_peak_rss_mb() -> float:
    """This process's high-water resident set."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ReferenceClock:
    """Seconds as a machine running at reference speed would count them.

    The sandbox's cores run at one of two speeds about 1.5x apart and
    change between them every few seconds to minutes, depending on what
    the host's other tenants do; the hypervisor also takes a share of
    wall time away now and then.  Raw timings therefore spread by
    20-50 % between runs of the same code, and no median over rounds sees
    through a state that lasts longer than the run.

    Python code slows with the clock just as a fixed pure-Python loop
    does.  This clock times such a loop every :data:`SAMPLE_EVERY_S` (as a
    side effect of being read; twice, keeping the faster) and advances by
    ``raw seconds x reference loop time / latest loop time``, so an
    interval reads the same in both states.  The loop's own time is not
    counted.  Everything the benchmark times, it times with this clock.
    """

    #: The loop's time on the sandbox this was written on, at full clock.
    REFERENCE_S = 1.5e-3
    SAMPLE_EVERY_S = 0.1
    _LOOP = range(25_000)

    def __init__(self, raw) -> None:
        self._raw = raw
        #: Every loop time sampled, raw seconds (``bench.calibration_ms``).
        self.samples: list = []
        self._now = 0.0
        self._loop_s = self._sample()
        self._read_at = self._sampled_at = raw()

    def _sample(self) -> float:
        """The faster of two loop runs: an interruption only ever adds time."""
        raw = self._raw
        seconds = float("inf")
        for _ in range(2):
            start = raw()
            total = 0
            for value in self._LOOP:
                total += value * value % 7
            seconds = min(seconds, raw() - start)
        self.samples.append(seconds)
        return seconds

    def __call__(self) -> float:
        read_at = self._raw()
        segment = read_at - self._read_at
        loop_s = self._loop_s
        if read_at - self._sampled_at >= self.SAMPLE_EVERY_S:
            # A long segment (one build) is scaled by the mean of the
            # samples at its two ends, a short one by the latest sample.
            self._loop_s = self._sample()
            loop_s = (loop_s + self._loop_s) / 2.0
            read_at = self._sampled_at = self._raw()
        self._read_at = read_at
        self._now += segment * self.REFERENCE_S / loop_s
        return self._now


class Workload:
    """Base of the four workloads; ``run.py`` drives this interface."""

    name = ""
    #: Warm workloads run one unmeasured round first.
    warm = False
    #: What timings are read from, through a :class:`ReferenceClock`:
    #: ``time.process_time`` in process (see inprocess.py), wall-clock for
    #: the served workloads.
    raw_clock = staticmethod(time.perf_counter)
    peak_rss_mb = 0.0
    bits_per_edge = 0.0

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.clock = ReferenceClock(self.raw_clock)
        #: The span recorder while a traced pass runs, None otherwise.
        self.recorder = None

    def setup(self) -> None:
        """Everything the system needs before its first operation (timed)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Operation lists and ground truth (not part of set-up time)."""

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def end_measurement(self) -> None:
        """Read what must be read before checks disturb it (peak RSS)."""
        self.peak_rss_mb = own_peak_rss_mb()

    def verify(self) -> list[str]:
        """Final correctness problems; empty when the run was correct."""
        return []

    def teardown(self) -> None:
        """Release what ``setup`` acquired, however far it got."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def side_ms(self, rounds: list) -> float:
        """The side-class figure (see README.md) over ``rounds``."""
        raise NotImplementedError

    def layer_metrics(self, rounds: list) -> dict:
        """Per-layer metrics from the traced ``rounds`` and live state."""
        return {}

    def replay_rows(self) -> dict:
        """``{source: sorted row}`` the workload handled, for the gap-row replay."""
        raise NotImplementedError

    def replay_metrics(self, recorder) -> dict:
        """Isolated-replay metrics (run after ``verify``)."""
        metrics = replay.primitive_metrics(self.seed)
        metrics.update(replay.gap_row_metrics(self.replay_rows()))
        return metrics

    def separation_notes(self, rounds: list) -> list[str]:
        """Does this workload still stress the layers it was sized for?"""
        return []
