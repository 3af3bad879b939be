"""A cached superedge graph holds its header; its rows wait for a reader.

``positive_rows_from_payload`` parses the polarity bit and the linked
source list and keeps the rest of the payload undecoded;
``SNodeStore._checked`` puts such an entry at the full decoded charge,
which it learned with the header and the body's row directory the first
time it decoded the graph whole, and builds every later entry of the
graph from those, decoding a linked row and its reference chain when it
is asked for.  Checked here against the eager decoders in
``tests/util/oracle_codecs.py``:

* generated superedge graphs — ``sources``, ``row(local)`` of every local
  and ``linked`` equal the oracle's, and an unlinked ``row`` decodes
  nothing;
* whole stores — two passes over every page of generated crawls, the
  second from the learned headers and directories after
  ``drop_buffers()``, equal the crawl graph at the oracle's pool charge;
  a lookup decodes the rows it asked for and their chains, nothing else;
* a body cut short under a sound header — typed errors, where and how
  often they surface, through an entry alone and through a store that
  learned the header and directory from the sound payload or a fresh
  one, row by row and whole.

The file fails under each of these seeded mutations (applied one at a
time while it was written):

1. ``positive_rows_from_payload`` records the body's bit offset off by one;
2. ``SNodeStore._graph`` learns a negative graph's charge from its stored
   (absent-target) rows instead of the positive ones;
3. ``SNodeStore._adjacency`` passes over a linked source that *was*
   asked for (and so skips graphs that are not disjoint from the call);
4. ``SuperedgeRows.row`` of a header-resident entry skips the membership
   test and reads ``linked``;
5. ``SNodeStore._adjacency`` reads a superedge graph's asked rows one at
   a time even when every source it links was asked for (``read =
   rows.row`` always).
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
import cut_body  # noqa: E402
import oracle_codecs  # noqa: E402
from oracle_loader import paper_scan  # noqa: E402

from repro.errors import CodecError  # noqa: E402
from repro.snode.build import BuildOptions, build_snode  # noqa: E402
from repro.snode.encode import (  # noqa: E402
    encode_superedge,
    positive_rows_from_payload,
)
from repro.snode.model import _superedge_graph  # noqa: E402
from repro.snode.storage import read_layout  # noqa: E402
from repro.snode.store import SNodeStore  # noqa: E402
from repro.util.bitio import BitReader  # noqa: E402
from repro.webdata.generator import GeneratorConfig, generate_web  # noqa: E402


def undecoded(rows) -> bool:
    """True while ``rows`` still holds its payload's body as plain values."""
    return type(rows._rows) is tuple


def stored_decoded(rows) -> set[int]:
    """The linked sources whose stored rows ``rows`` holds decoded."""
    if undecoded(rows):
        return {rows.sources[index] for index in rows._rows[2]}
    return set(rows.sources)


def reference_chains(payload: bytes, sources, locals_) -> set[int]:
    """``locals_`` and the linked sources their stored rows reference,
    transitively, by the oracle's records of ``payload``."""
    records = oracle_codecs.superedge_records(payload)[3]
    chain = {sources.index(local) for local in locals_}
    todo = list(chain)
    while todo:
        record = records[todo.pop()]
        if isinstance(record, tuple) and record[0] not in chain:
            chain.add(record[0])
            todo.append(record[0])
    return {sources[index] for index in chain}


def holds_no_reader(rows) -> bool:
    """No slot of ``rows``, nor a member of one, is a live ``BitReader``."""
    held = [getattr(rows, slot) for slot in rows.__slots__]
    held += [member for value in held if isinstance(value, tuple) for member in value]
    return not any(isinstance(value, BitReader) for value in held)


# -- generated superedge graphs ------------------------------------------------


@st.composite
def superedge_cases(draw):
    """(linked positive rows, source size, target size, force positive?,
    dictionary allowed?) — the model's own polarity choice then applies."""
    source_size = draw(st.integers(1, 24))
    target_size = draw(st.integers(1, 24))
    linked = draw(
        st.one_of(
            st.sets(st.integers(0, source_size - 1), min_size=1),
            st.just(set(range(source_size))),  # every source linked
            st.sets(st.integers(0, source_size - 1), min_size=1, max_size=1),
        )
    )
    # Few distinct rows, many of them dense: shared targets make the
    # dictionary pay, dense rows make the negative form win.
    shapes = draw(
        st.lists(
            st.sets(st.integers(0, target_size - 1), min_size=1), min_size=1, max_size=3
        )
    )
    rows = {local: sorted(draw(st.sampled_from(shapes))) for local in sorted(linked)}
    return rows, source_size, target_size, draw(st.booleans()), draw(st.booleans())


def check_against_oracle(linked_rows, source_size, target_size, force_positive, use_dictionary):
    graph = _superedge_graph(0, 1, linked_rows, source_size, target_size, force_positive)
    payload = encode_superedge(graph, use_dictionary=use_dictionary)
    want = oracle_codecs.linked_rows_from_payload(payload, target_size)
    assert want == linked_rows  # the oracle reads back what the model stored

    rows = positive_rows_from_payload(payload, source_size, target_size)
    assert rows.source_size == source_size
    assert rows.sources == tuple(sorted(want))
    for local in range(source_size):
        if local not in want:
            assert rows.row(local) == []
    assert undecoded(rows)  # header only, however many unlinked locals were read
    assert holds_no_reader(rows)
    assert [rows.row(local) for local in range(source_size)] == [
        want.get(local, []) for local in range(source_size)
    ]
    assert not undecoded(rows) and holds_no_reader(rows)
    assert rows.linked == want
    assert positive_rows_from_payload(payload, source_size, target_size).linked == want
    return graph, payload


@settings(deadline=None, max_examples=300)
@given(superedge_cases())
@example(({3: [0, 2]}, 9, 4, False, True))  # one linked source
@example(({0: [1], 1: [1], 2: [0, 1]}, 3, 2, False, False))  # every source linked
@example(({0: [0, 1, 2], 4: [0, 1, 2, 3]}, 5, 4, True, True))  # dense, forced positive
def test_generated_graphs_match_the_eager_oracle(case):
    check_against_oracle(*case)


def test_the_named_shapes_are_what_they_claim():
    """Both polarities, and a dictionary the encoder did and did not use."""
    dense = {local: [t for t in range(12) if t != local % 12] for local in range(0, 20, 2)}
    negative, _payload = check_against_oracle(dense, 20, 12, False, True)
    forced, _payload = check_against_oracle(dense, 20, 12, True, True)
    assert negative.negative and not forced.negative
    assert negative.linked_sources == tuple(range(0, 20, 2))

    def dictionary_of(payload):
        prefix = oracle_codecs.BitReader(payload)
        prefix.read_bit()
        oracle_codecs._decode_locals(prefix)
        return oracle_codecs._decode_locals(prefix)

    hubs = {local: [2, 5, 9, 11 + local] for local in range(8)}
    _graph, with_dictionary = check_against_oracle(hubs, 8, 24, False, True)
    _graph, without = check_against_oracle(hubs, 8, 24, False, False)
    assert dictionary_of(with_dictionary) and not dictionary_of(without)


# -- whole stores ---------------------------------------------------------------


@pytest.fixture(scope="module", params=[(260, 4), (420, 11), (640, 23)], ids=lambda p: f"{p[0]}p")
def crawl_builds(request, test_refinement_config, tmp_path_factory):
    """A generated crawl, its graph and transpose, and a build of each."""
    pages, seed = request.param
    repository = generate_web(GeneratorConfig(num_pages=pages, seed=seed))
    root = tmp_path_factory.mktemp(f"lazy_{pages}")
    builds = {}
    for name, transpose in (("forward", False), ("transpose", True)):
        build = build_snode(
            repository,
            root / name,
            BuildOptions(refinement=test_refinement_config, transpose=transpose),
        )
        build.store.close()
        truth = repository.transpose() if transpose else repository.graph
        builds[name] = (build, truth)
    return builds


def oracle_charge(root: Path, cache_decoded: bool) -> int:
    """What a pool holding every graph of the build must have charged."""
    layout = read_layout(root)
    sizes = [b - a for a, b in zip(layout.boundaries, layout.boundaries[1:])]
    files = [(root / name).read_bytes() for name in layout.index_files]

    def region(location):
        return files[location.file_index][location.offset : location.offset + location.length]

    if not cache_decoded:
        locations = layout.intranode + [entry[0] for entry in layout.superedge.values()]
        return sum(location.length for location in locations)
    total = 0
    for location in layout.intranode:
        rows = oracle_codecs.decode_intranode(region(location))
        total += 4 * len(rows) + 8 * sum(map(len, rows))
    for (source, target), (location, _negative) in layout.superedge.items():
        rows = oracle_codecs.positive_rows_from_payload(
            region(location), sizes[source], sizes[target]
        )
        total += 4 * len(rows) + 8 * sum(map(len, rows))
    return total


@pytest.mark.parametrize("cache_decoded", [True, False], ids=["decoded", "encoded"])
@pytest.mark.parametrize("direction", ["forward", "transpose"])
def test_two_passes_over_every_page_equal_the_crawl(crawl_builds, direction, cache_decoded):
    build, truth = crawl_builds[direction]
    new_to_old, old_to_new = build.numbering.new_to_old, build.numbering.old_to_new
    pages = range(truth.num_vertices)
    expected = {
        old_to_new[page]: sorted(old_to_new[t] for t in truth.successors_list(page))
        for page in pages
    }
    assert len(new_to_old) == len(expected)
    store = SNodeStore(build.root, buffer_bytes=1 << 26, cache_decoded=cache_decoded)
    charge = oracle_charge(build.root, cache_decoded)
    for _pass in range(2):  # the second finds every charge and header learned
        assert {page: store.out_neighbors(page) for page in pages} == expected
        assert store.buffer_stats()["used_bytes"] == charge
        # A few locals of each supernode at a time: most graphs link none of them.
        for start in range(7):
            group = list(pages[start::7])
            assert store.out_neighbors_many(group) == {page: expected[page] for page in group}
        assert dict(store.iterate_all()) == expected
        assert store.buffer_stats()["used_bytes"] == charge
        store.drop_buffers()
        assert store.buffer_stats()["used_bytes"] == 0
    store.close()


@pytest.mark.parametrize("asked", [1, 3], ids=["point", "grouped"])
def test_a_lookup_decodes_only_the_graphs_that_link_what_it_asked_for(small_build, asked):
    """A re-loaded superedge graph decodes the stored rows of the asked
    locals it links and their reference chains, nothing when it links
    none of them, and its whole body in one pass when every source it
    links was asked for among more locals than it links."""
    store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
    for _page, _row in paper_scan(store):  # every charge and directory learned
        pass
    untouched = partly = whole = 0
    busiest = sorted(
        range(store.num_supernodes), key=lambda s: -len(store.super_adjacency[s])
    )[:8]
    for supernode in busiest:
        store.drop_buffers()
        first, end = store.supernode_range(supernode)
        locals_ = sorted({0, (end - first) // 2, end - first - 1})[:asked]
        store.out_neighbors_many([first + local for local in locals_])
        for target in store.super_adjacency[supernode]:
            rows = store.superedge_rows(supernode, target)
            wanted = set(locals_).intersection(rows.sources)
            decoded = stored_decoded(rows)
            payload = rows._rows[0] if undecoded(rows) else None
            assert wanted <= decoded
            if wanted and payload is not None:
                assert decoded <= reference_chains(payload, rows.sources, wanted)
            assert bool(decoded) == bool(wanted)
            if wanted and len(wanted) == len(rows.sources) < len(locals_):
                assert not undecoded(rows)  # every linked row asked for: one decode
                whole += 1
            untouched += not decoded
            partly += 0 < len(decoded) < len(rows.sources)
    assert untouched > 0 and partly > 0 and whole >= (asked > 1)
    store.close()


# -- a sound header over a body cut short ---------------------------------------


def test_body_cut_at_every_bit_offset():
    """Never ``IndexError``, never a hang; an unlinked row never notices.
    Read alone through the sound payload's directory, each linked row is
    the oracle's row read alone or a typed error."""
    linked_rows = {1: [0, 3, 4, 9], 2: [0, 3, 4, 9, 17], 5: [3, 4, 30], 8: [0, 3, 4, 9]}
    graph = _superedge_graph(0, 1, linked_rows, 11, 40, False)
    payload = encode_superedge(graph)
    body_bit = cut_body.body_bit(payload)
    assert body_bit < 8 * len(payload) - 16
    sound = positive_rows_from_payload(payload, 11, 40)
    assert sound.directory is None
    assert sound.linked == linked_rows  # the whole decode learns the directory
    directory = sound.directory
    dictionary, _body, starts, _records = oracle_codecs.superedge_records(payload)
    errors = 0
    for bit in range(body_bit, 8 * len(payload)):
        data = cut_body.cut_at(payload, bit)
        rows = positive_rows_from_payload(data, 11, 40)
        assert rows.sources == (1, 2, 5, 8)
        assert rows.row(0) == [] and rows.row(10) == [] and undecoded(rows)
        want = cut_body.outcome(oracle_codecs.linked_rows_from_payload, data, 40)
        for _call in range(2):  # a poisoned entry stays typed, call after call
            assert cut_body.outcome(lambda: rows.linked) == want
            assert cut_body.outcome(rows.row, 2) == (
                want if want[0] == "error" else ("ok", want[1][2])
            )
            assert rows.row(0) == []
        assert holds_no_reader(rows)
        alone = positive_rows_from_payload(data, 11, 40, sound.header, directory)
        for _call in range(2):
            for index, local in reversed(list(enumerate(alone.sources))):
                assert cut_body.outcome(alone.row, local) == cut_body.outcome(
                    oracle_codecs.superedge_row, data, starts, index, dictionary, False, 40
                )
        assert holds_no_reader(alone)
        errors += want[0] == "error"
    assert errors > 8 * len(payload) - body_bit - 16  # all but cuts inside the padding


@pytest.mark.parametrize("cache_decoded", [True, False], ids=["decoded", "encoded"])
def test_cut_body_through_the_store_keeps_the_batch_flushed(small_build, cache_decoded):
    """A first load decodes the body whole in either mode, so a cut body
    fails at load time, inside ``_adjacency``'s ``try``: the graphs read
    so far stay charged, and the next call fails the same way."""
    store = SNodeStore(small_build.root, buffer_bytes=1 << 26, cache_decoded=cache_decoded)
    (source, target), keep, local = cut_body.breakable_superedge(store)
    cut_body.truncate_region(store, (source, target), keep)
    position = store.super_adjacency[source].index(target)
    first = store.supernode_range(source)[0]
    read = [store._layout.intranode[source]] + [
        store._layout.superedge[(source, t)][0]
        for t in store.super_adjacency[source][: position + 1]
    ]
    for attempt in range(2):
        store.drop_buffers()
        store.metrics.reset()
        with pytest.raises(CodecError):
            store.out_neighbors(first + local)
        charged = store.metrics.io_stats()
        assert charged["buffer_misses"] == position + 2
        assert charged["bytes_read"] == sum(location.length for location in read)
        assert charged["loads"] == position + 1  # the cut graph's load failed
    # Once the pool is pressed, a page the cut graph does not link never
    # loads it and is answered; the page it links still fails.
    unlinked = next(
        other
        for other in range(store.supernode_range(source)[1] - first)
        if (position + 1) not in store._visits[source].links(other)
    )
    with SNodeStore(small_build.root) as clean:
        answer = clean.out_neighbors(first + unlinked)
    store.set_buffer_bytes(store._pool.pinned_bytes)
    for supernode in range(store.num_supernodes):
        if store._pool.pressed:
            break
        store.intranode_rows(supernode)
    assert store._pool.pressed
    store.metrics.reset()
    assert store.out_neighbors(first + unlinked) == answer
    assert not store._pool.is_cached(("super", source, target))
    assert store.metrics.get("superedge_loads") < len(store.super_adjacency[source])
    with pytest.raises(CodecError):
        store.out_neighbors(first + local)
    store.close()


@pytest.mark.parametrize("cache_decoded", [True, False], ids=["decoded", "encoded"])
@pytest.mark.parametrize("negative", [False, True], ids=["positive", "negative"])
def test_cut_superedge_bodies_fail_typed_through_a_learned_store(
    small_build, tmp_path, negative, cache_decoded
):
    """The superedge twin of ``test_cut_intranode_payloads_fail_typed``: a
    body cut at every bit offset past its header, checksum recomputed,
    served through a store that learned the header and the body's row
    directory from the sound payload and through a fresh store.  Every
    linked row read raises ``CodecError`` (``BitStreamError`` is one) or
    is the oracle's row read alone through the learned directory, and
    every whole read raises or is the oracle's rows — never
    ``IndexError``, never a hang — call after call, and an unlinked row
    stays ``[]``.  A lookup of a linked page through the learned store is
    the sound store's answer exactly when its row read alone is served."""
    root = tmp_path / "build"
    shutil.copytree(small_build.root, root)
    learned = SNodeStore(root, buffer_bytes=1 << 26, cache_decoded=cache_decoded)
    key = cut_body.richest_superedge(learned, negative)
    location, stored_negative = learned._layout.superedge[key]
    payload = cut_body.region(learned, location)
    source_size, target_size = learned._sizes(("super", *key))
    learned.superedge_rows(*key)  # the first load learns the header and directory
    _charge, header, directory = learned._learned[("super", *key)]
    assert header.negative == negative and len(header.sources) > 1
    dictionary, body, starts, _records = oracle_codecs.superedge_records(payload)
    assert (directory.dictionary, directory.body, list(directory.starts)) == (
        dictionary,
        body,
        starts,
    )
    unlinked = [local for local in range(source_size) if local not in header.sources]
    first = learned.supernode_range(key[0])[0]
    with SNodeStore(small_build.root) as clean:
        answers = {local: clean.out_neighbors(first + local) for local in header.sources}
    outcome = cut_body.outcome
    failed = served = alone = 0
    for bit in range(header.body_bit, 8 * len(payload)):
        data = cut_body.cut_at(payload, bit)
        cut = (cut_body.append_region(learned, location.file_index, data), stored_negative)
        want = outcome(oracle_codecs.linked_rows_from_payload, data, target_size)
        rows_want = {
            local: outcome(
                oracle_codecs.superedge_row, data, starts, index, dictionary, negative, target_size
            )
            for index, local in enumerate(header.sources)
        }
        learned._layout.superedge[key] = cut
        learned.drop_buffers()
        entry = learned.superedge_rows(*key)
        assert entry.header is header and entry.directory is directory
        assert undecoded(entry)  # a re-load parses nothing
        fresh = SNodeStore(root, cache_decoded=cache_decoded)
        fresh._layout.superedge[key] = cut
        loaded = outcome(fresh.superedge_rows, *key)  # a first load decodes the body
        entries = [entry]
        if loaded[0] == "ok":
            entries.append(loaded[1])
        else:
            assert loaded == want
        for rows in entries:
            for _call in range(2):
                for local in reversed(header.sources):  # not in row order
                    assert outcome(rows.row, local) == rows_want[local]
                assert outcome(getattr, rows, "linked") == want
                assert [rows.row(local) for local in unlinked] == [[]] * len(unlinked)
        fresh.close()
        learned.drop_buffers()
        for local in header.sources:  # a lookup reads the cut graph's row alone
            read = rows_want[local]
            assert outcome(learned.out_neighbors, first + local) == (
                ("ok", answers[local]) if read[0] == "ok" else read
            )
        failed += want[0] == "error"
        served += want[0] == "ok"
        alone += want[0] == "error" and any(read[0] == "ok" for read in rows_want.values())
    learned.close()
    assert failed > 8 * len(payload) - header.body_bit - 16 and served > 0
    assert alone > 0  # rows read alone are served from bodies cut past them
