"""A linked visit gives the paper visit's rows.

An ``SNodeStore`` reads every superedge graph's header once, when it
opens.  While its pool is pressed (it has evicted an entry to admit
another since it was last emptied), a lookup loads the intranode graph
and only the superedge graphs whose header lists an asked page, plus
every one whose header is unknown — quarantined, failing its checksum or
its parse at open.  Its oracle is the same store made to read the
paper's visit, every graph of the supernode, by ``paper_visit`` in
``oracle_loader.py``.

Hypothesis drives both over the same generated sequence of probes,
``out_neighbors_many`` groups, scans, single graphs, ``memory_only``
probes and cold resets, through pools from 768 B (pressed by the first
visit) to 4 MiB (never pressed), in both ``cache_decoded`` modes, over a
clean build, a copy with regions quarantined by ``fsck --repair``, and a
copy with one superedge region corrupted before the store opened (in
raise and degrade mode).  After every step the rows, or the error, must
be equal (a ``memory_only`` refusal may differ: the linked visit needs
fewer graphs resident); every region quarantined and every degraded read
too; and while the linked store's pool is not pressed, every counter and
the LRU order.

Seeded mutations, each failing the test named:

* the unknown positions dropped from the link records (a corrupted
  region's graph left out of the visits that do not list the page) —
  ``test_a_region_corrupted_before_open_is_in_every_visit`` and
  ``test_store.py::TestBatchedAccounting::test_degrade_mode_over_corrupted_regions``;
* filtering while the pool is not pressed (``_positions`` ignores
  ``pressed``) — ``test_linked_visit_rows_equal_the_paper_visits``;
* a run read on through a buffered graph of the visit —
  ``test_a_run_reads_through_only_its_own_visits_regions`` and
  ``test_store.py::TestBatchedAccounting::test_bounded_buffer``;
* a run read on through another visit's region (the run loop's gap test
  relaxed to "same file, offset at or past the last end") —
  ``test_a_run_reads_through_only_its_own_visits_regions``;
* the open pass trusting a header whose region fails its checksum —
  ``test_a_region_corrupted_before_open_is_in_every_visit``.
"""

from __future__ import annotations

import shutil

import pytest
from cut_body import append_region, region
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracle_loader import paper_visit, read_through
from test_visit_loader_oracle import MAX_FILE_BYTES, apply, steps

from repro.errors import CodecError, CorruptionError, NotResident
from repro.obs.profile import trace as profile
from repro.snode.build import BuildOptions, build_snode
from repro.snode.encode import _superedge_header
from repro.snode.storage import read_layout
from repro.snode.store import SNodeStore
from repro.storage import faults
from repro.storage.fsck import fsck


def corrupt_a_header(root) -> tuple[int, int]:
    """Flip one bit of a superedge region's header under ``root``, chosen
    so the header still parses but lists other pages — leaving out one it
    truly lists — and the checksum no longer matches; its (source,
    target)."""
    layout = read_layout(root)
    boundaries = layout.boundaries
    for (source, target), (location, _negative) in sorted(layout.superedge.items()):
        size = boundaries[source + 1] - boundaries[source]
        if len(layout.super_adjacency[source]) < 4:
            continue  # a visit with graphs to leave out
        path = root / layout.index_files[location.file_index]
        payload = path.read_bytes()[location.offset : location.offset + location.length]
        sources = set(_superedge_header(payload)[2])
        for bit in range(1, min(16, 8 * len(payload))):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                wrong = set(_superedge_header(bytes(flipped))[2])
            except CodecError:
                continue
            if sources - wrong and wrong and max(wrong) < size and len(wrong) < size:
                with open(path, "r+b") as handle:
                    handle.seek(location.offset)
                    handle.write(flipped)
                return source, target
    raise AssertionError("no superedge header a bit flip leaves parseable")


@pytest.fixture(scope="module")
def roots(tiny_repo, test_refinement_config, tmp_path_factory):
    """A build with small payload files, a copy with regions quarantined
    by ``fsck --repair``, and a copy with one superedge header corrupted."""
    base = tmp_path_factory.mktemp("linked_visit")
    build_snode(
        tiny_repo,
        base / "clean",
        BuildOptions(refinement=test_refinement_config, max_file_bytes=MAX_FILE_BYTES),
    )
    shutil.copytree(base / "clean", base / "quarantined")
    faults.corrupt_snode_regions(base / "quarantined", stride=4, seed=2)
    assert len(fsck(base / "quarantined", repair=True).repaired) > 10
    shutil.copytree(base / "clean", base / "corrupted")
    return {
        "clean": base / "clean",
        "quarantined": base / "quarantined",
        "corrupted": base / "corrupted",
        "bad": corrupt_a_header(base / "corrupted"),
    }


def outcome(store, op):
    """``op``'s rows, or the type of the error it raised."""
    try:
        return apply(store, op)
    except CorruptionError:
        return CorruptionError


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    steps,
    st.sampled_from((768, 3 * 1024, 12 * 1024, 1 << 22)),
    st.booleans(),
    st.sampled_from(("clean", "quarantined", "corrupted")),
    st.sampled_from(("raise", "degrade")),
)
# Pressed by the first probe: the second loads only the linked graphs.
@example([("probe", 0), ("probe", 7), ("many", [1, 2, 250])], 768, True, "clean", "raise")
# Never pressed: the paper's visit, count for count.
@example([("probe", 0), ("many", [5, 6]), ("scan", 3, 2)], 1 << 22, False, "clean", "raise")
# Pressed mid-sequence, then emptied and unpressed again.
@example([("scan", 0, 4), ("probe", 9), ("drop",), ("probe", 9)], 3 * 1024, True, "clean", "raise")
def test_linked_visit_rows_equal_the_paper_visits(roots, program, budget, decoded, root, mode):
    def opened():
        return SNodeStore(
            roots[root], buffer_bytes=budget, cache_decoded=decoded, on_corruption=mode
        )

    paper, linked = paper_visit(opened()), opened()
    try:
        for op in program:
            twins = not linked._pool.pressed and (
                linked._pool._cache.keys() == paper._pool._cache.keys()
            )
            before = paper.metrics.snapshot(), linked.metrics.snapshot()
            want, got = outcome(paper, op), outcome(linked, op)
            if NotResident not in (want, got):
                assert got == want
            assert linked.quarantined == paper.quarantined
            delta = [
                {
                    name: value - start.get(name, 0)
                    for name, value in store.metrics.snapshot().items()
                    if value != start.get(name, 0) and not name.startswith("distinct_")
                }
                for store, start in zip((paper, linked), before)
            ]
            if op[0] != "inline":
                for name in ("degraded_reads", "regions_quarantined"):
                    assert delta[1].get(name, 0) == delta[0].get(name, 0)
            if twins and not linked._pool.pressed:
                assert delta[1] == delta[0]
                assert linked._pool._cache.keys() == paper._pool._cache.keys()
    finally:
        paper.close()
        linked.close()


@pytest.mark.parametrize("decoded", [True, False], ids=["decoded", "encoded"])
@pytest.mark.parametrize("mode", ["raise", "degrade"])
def test_a_region_corrupted_before_open_is_in_every_visit(roots, mode, decoded):
    """The region's header, read at open, fails its checksum, so it is
    unknown: every page of its supernode loads it, linked or not, and
    raises or is served degraded exactly as through the paper's visit —
    although its bytes still parse, as a header listing other pages."""
    source, target = roots["bad"]
    stores = [
        SNodeStore(roots["corrupted"], buffer_bytes=768, cache_decoded=decoded, on_corruption=mode)
        for _ in range(2)
    ]
    paper, linked = paper_visit(stores[0]), stores[1]
    try:
        visit = linked._visits[source]
        position = visit.keys.index(("super", source, target))
        assert all(
            position in visit.links(local) for local in range(len(visit.starts) - 1)
        )
        first, end = linked.supernode_range(source)
        for store in (paper, linked):
            for page in range(store.num_pages):
                if store._pool.pressed:
                    break
                if not first <= page < end:
                    store.out_neighbors(page)
            assert store._pool.pressed
            store.metrics.reset()
        for page in range(first, end):
            want = outcome(paper, ("probe", page))
            assert outcome(linked, ("probe", page)) == want
            assert (want is CorruptionError) == (mode == "raise")
        assert linked.quarantined == paper.quarantined
        for name in ("degraded_reads", "regions_quarantined"):
            assert linked.metrics.get(name) == paper.metrics.get(name)
        if mode == "degrade":  # every graph looked up: the linked visits are shorter

            def lookups(store) -> int:
                return store.metrics.get("buffer_hits") + store.metrics.get("buffer_misses")

            assert lookups(linked) < lookups(paper)
    finally:
        for store in stores:
            store.close()


def test_a_run_reads_through_only_its_own_visits_regions(small_build, tmp_path):
    """A probe whose linked graphs have left-out regions between them reads
    them in one run; once one of its graphs is moved to the end of the
    payload file, the run stops where the visit's regions stop following
    one another — it never reads another visit's region — and a graph
    buffered between two missing ones is not read again."""
    root = tmp_path / "build"
    shutil.copytree(small_build.root, root)
    store = SNodeStore(root, buffer_bytes=24 * 1024)
    store.out_neighbors_many(list(range(store.num_pages)))
    assert store._pool.pressed

    def adjacent(regions) -> bool:
        return all(
            later.file_index == earlier.file_index
            and later.offset == earlier.offset + earlier.length
            for earlier, later in zip(regions, regions[1:])
        )

    # A page whose linked graphs are the intranode graph and two
    # superedge graphs with a left-out region before each, in a visit
    # whose regions follow one another.
    records = (
        (store.supernode_range(supernode)[0] + local, tuple(visit.links(local)))
        for supernode, visit in enumerate(store._visits)
        if adjacent([store._location(key) for key in visit.keys])
        for local in range(len(visit.starts) - 1)
    )
    page, positions = next(
        (page, positions)
        for page, positions in records
        if len(positions) == 3 and positions[1] > 1 and positions[2] > positions[1] + 1
    )
    keys = store._visits[store.supernode_of(page)].keys
    regions = [store._location(key) for key in keys]

    def probe() -> tuple[list, list]:
        store.drop_buffers()
        store.out_neighbors_many(list(range(store.num_pages)))  # presses the pool again
        for key in keys:
            store._pool._cache.pop(key)
        tracer = profile.AccessTracer()
        with profile.activated(tracer):
            rows = store.out_neighbors(page)
        read_through(store, tracer.io_events(), tracer.buffer_events())
        return rows, [(event.offset, event.length) for event in tracer.io_events()]

    answer, reads = probe()
    last = regions[positions[2]]
    assert reads == [(regions[0].offset, last.offset + last.length - regions[0].offset)]

    # A graph of the run buffered: the run stops before it and resumes after.
    store.drop_buffers()
    store.out_neighbors_many(list(range(store.num_pages)))
    for key in keys:
        store._pool._cache.pop(key)
    store.superedge_rows(*keys[positions[1]][1:])
    tracer = profile.AccessTracer()
    with profile.activated(tracer):
        assert store.out_neighbors(page) == answer
    read_through(store, tracer.io_events(), tracer.buffer_events())
    assert [(e.offset, e.length) for e in tracer.io_events()] == [
        (regions[0].offset, regions[0].length),
        (last.offset, last.length),
    ]

    # The last linked graph moved to the end of the file.
    key = keys[positions[2]]
    moved = append_region(store, last.file_index, region(store, last))
    store._layout.superedge[key[1:]] = (moved, store._layout.superedge[key[1:]][1])
    rows, reads = probe()
    assert rows == answer
    assert reads == [
        (regions[0].offset, regions[positions[1]].offset + regions[positions[1]].length - regions[0].offset),
        (moved.offset, moved.length),
    ]
    store.close()

