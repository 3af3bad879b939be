"""Four fast paths, each against its oracle.

**Pushed span counters.**  A request's counters used to be read off its
spans as the difference of two full snapshots of the connection's session
pair, one at each span edge; now the session registries push every
increment into the innermost open span as it is counted, and a closing
span adds its counters to its parent's.  Hypothesis generates op
sequences over a client view pair — lookups, ``out_neighbors_many``,
nested spans, an overlay with deltas, quarantined regions served in
degrade mode, a pool small enough to evict, and memory-only attempts
whose miss is retried — bound the way the daemon binds a request
(``ClientEngine.bind``) and traced by ``oracle_tracing.py``'s
``SnapshotTracer``, which diffs every span the old way.  Every span's
pushed counters must equal its diffed ones, key for key, zeros dropped.

**Canonical JSON.**  ``protocol.canonicalize`` dispatches on the exact
type and hands containers of scalars to C in one call; the oracle
(``oracle_codecs.canonicalize``) is the ``isinstance`` chain with one
call per item it replaced.  The canonical values must be equal, their
JSON byte-equal, and the errors the same.

**The intranode row decoder.**  A re-loaded intranode graph decodes only
the rows asked for, each by the records of its reference chain that
change it, by the row directory its first, whole decode learned
(``snode.encode.IntranodeRows``): a read jumps past the *pure copies*
(full copies with no extras) and decodes the rest of the chain.
Hypothesis generates row collections — windowed and full-affinity plans
(so forward references occur), the dictionary on and off, dense runs,
empty rows, repeated rows — and every row read through the directory, in
any order and from a partly filled cache, must equal
``oracle_codecs.decode_intranode``'s, and the directory the oracle's
record offsets; a read decodes exactly the rows ``reference_chain``
names, and the far end of a run of 40 identical rows at most 2 records.
A payload cut at every bit offset past its dictionary fails typed
through a store that learned its directory and through a fresh one,
exactly as the oracle's record-by-record read; a scan decodes each graph
in one pass.

**The learned superedge header and directory.**  A re-loaded superedge
graph parses nothing: its entry is built from the ``SuperedgeHeader``
(polarity, linked sources, body offset) and the body's ``RowDirectory``
its first whole decode learned, and decodes a linked row — with its
reference chain — when it is asked for.  Hypothesis generates superedge
graphs — both polarities, the dictionary on and off, nothing and
everything linked, windowed and full-affinity plans (so forward
references occur) — and an entry built from the learned header, with no
``BitReader`` to build one, must equal a freshly parsed entry and the
oracle on ``sources``, ``linked`` and ``row(local)`` for every local;
read through the learned directory, in any order, repeated and from a
partly filled entry, every row must equal
``oracle_codecs.decode_superedge_payload``'s, the entry must hold stored
rows only (never a negative row's complement) and parse no dictionary,
and six threads racing on one entry must read the same.  Every
superedge payload of a build, re-loaded through a store of either
``cache_decoded`` mode after a learning pass, must equal its fresh parse
row by row, and so must a copy with quarantined superedge regions, which
serves those empty.  A learned store's scan and re-loads parse no
superedge dictionary; a first load or scan decodes each graph once.

Seeded mutations, each failing the test named:

* base-registry charges leak in (``ClientEngine.bind`` also binding
  ``view.store.metrics``) — ``test_pushed_counters_equal_the_snapshot_diff``
  and ``test_the_oracle_sees_what_the_push_path_sees``;
* a span does not roll up into its parent (the ``self._stack[-1].charge(
  node.counters)`` line of ``Tracer.span`` deleted) —
  ``test_pushed_counters_equal_the_snapshot_diff``;
* a charge lands on the outermost open span (``self._stack[0]`` in
  ``Tracer.charge``) — ``test_pushed_counters_equal_the_snapshot_diff``;
* the fast path skips sorting a set (``return list(value)`` for a set of
  scalars) — ``test_canonical_json_equals_the_oracle``;
* the fast path passes a tuple through as a tuple (``return value`` for a
  tuple of scalars; its JSON is the same, the value is not) —
  ``test_canonical_json_equals_the_oracle``;
* a row's offset is recorded one bit late (``8 * byte - avail + 1`` in
  ``reference._decode_records``) —
  ``test_row_reads_equal_the_oracle``;
* a forward reference is resolved before its parent (``decode_row`` walks
  its chain from the asked row instead of ``reversed``) —
  ``test_row_reads_equal_the_oracle``;
* a full copy returns the parent's own list (``base`` for ``base[:]`` in
  ``reference._apply_reference``) — ``test_row_reads_equal_the_oracle``;
* a read takes no jump (``range(len(self.starts))`` always in
  ``encode.RowDirectory.row``) — ``test_row_reads_equal_the_oracle`` and
  ``test_a_run_of_identical_rows_reads_past_its_pure_copies``;
* a row read through a jump shares its list (``row[:]`` dropped in
  ``reference.decode_row``) — ``test_row_reads_equal_the_oracle``;
* jumps are taken on a payload of any length (the length rule of
  ``encode.RowDirectory.row`` dropped) —
  ``test_cut_intranode_payloads_fail_typed``;
* a scan decodes row by row (the all-rows rule in
  ``SNodeStore._adjacency`` deleted) —
  ``test_a_scan_decodes_each_intranode_graph_in_one_pass``;
* the learned header's body offset is one bit late (``reader.position +
  1`` in ``encode.positive_rows_from_payload``) —
  ``test_learned_headers_equal_a_fresh_parse``;
* the polarity is dropped from the learned header (the store learns
  ``rows.header._replace(negative=False)``) —
  ``test_every_superedge_payload_reloads_like_a_fresh_parse``;
* the learned sources are a mutable list shared by every entry of a key
  (``sources`` for ``tuple(sources)`` in
  ``encode.positive_rows_from_payload``) —
  ``test_learned_headers_equal_a_fresh_parse`` and
  ``test_every_superedge_payload_reloads_like_a_fresh_parse``;
* a negative row's complement is kept among the stored rows (``row =
  stored[index] = _complement(...)`` in ``SuperedgeRows.row``) —
  ``test_superedge_row_reads_equal_the_oracle``;
* a row is looked up by its local, not its index (``stored.get(local)``
  in ``SuperedgeRows.row``) — ``test_superedge_row_reads_equal_the_oracle``;
* the whole decode re-parses the dictionary (``directory`` not passed to
  ``_collection`` in ``encode._stored_rows``) —
  ``test_a_learned_store_parses_no_superedge_dictionary``.
"""

from __future__ import annotations

import collections
import enum
import random
import shutil
import sys
import threading
from unittest import mock

import cut_body
import oracle_codecs
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracle_loader import paper_scan
from oracle_tracing import SnapshotTracer

from repro.errors import NotResident, ServeError
from repro.obs import tracing
from repro.serve import protocol
from repro.serve.daemon import ClientEngine
from repro.snode import encode, reference
from repro.snode.build import BuildOptions
from repro.snode.delta import DeltaOverlay
from repro.snode.model import _superedge_graph
from repro.snode.pair import SNodePair
from repro.snode.storage import read_layout
from repro.snode.store import SNodeStore
from repro.storage import faults

# -- pushed span counters ----------------------------------------------------

PAGES = 300
#: A pool this small evicts on almost every supernode visit.
SMALL_POOL = 6 * 1024
LARGE_POOL = 4 * 1024 * 1024


@pytest.fixture(scope="module")
def pairs(tiny_repo, test_refinement_config, tmp_path_factory):
    """A committed pair, and a copy with corrupted intranode regions."""
    root = tmp_path_factory.mktemp("oracle_pair")
    options = BuildOptions(refinement=test_refinement_config)
    SNodePair.commit(tiny_repo, root / "pristine", options)
    shutil.copytree(root / "pristine", root / "corrupt")
    for name in ("wg", "wgt"):
        faults.corrupt_snode_regions(root / "corrupt" / name, stride=3, seed=5)
    return {"pristine": root / "pristine", "corrupt": root / "corrupt"}


pages = st.integers(min_value=0, max_value=PAGES - 1)
directions = st.sampled_from(("forward", "backward"))
leaf_ops = st.one_of(
    st.tuples(st.just("lookup"), directions, pages),
    st.tuples(st.just("many"), directions, st.lists(pages, min_size=1, max_size=12)),
    st.tuples(st.just("attempt"), directions, pages),
)
ops = st.recursive(
    leaf_ops,
    lambda children: st.tuples(st.just("span"), st.lists(children, max_size=4)),
    max_leaves=12,
)
edges = st.lists(st.tuples(pages, pages), max_size=20)


def run(op, views, tracer) -> None:
    kind = op[0]
    if kind == "span":
        with tracer.span("nested"):
            for child in op[1]:
                run(child, views, tracer)
        return
    view = getattr(views, op[1])
    if kind == "lookup":
        view.out_neighbors(op[2])
    elif kind == "many":
        view.out_neighbors_many(op[2])
    else:
        # The daemon's memory-only attempt, then the retry after a miss:
        # what the attempt was served before it missed stays counted.
        try:
            with tracer.span("attempt"):
                view.memory_only = True
                try:
                    view.out_neighbors(op[2])
                finally:
                    view.memory_only = False
        except NotResident:
            with tracer.span("retry"):
                view.out_neighbors(op[2])


def traced_session(pair):
    """A client view pair bound, as the daemon binds a request, to a
    tracer that also diffs it."""
    views = pair.session("oracle")
    engine = ClientEngine(None, views.forward, views.backward)
    tracer = SnapshotTracer(registry=engine)
    engine.bind(tracer)
    return views, engine, tracer


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    program=st.lists(ops, min_size=1, max_size=8),
    corrupt=st.booleans(),
    small_pool=st.booleans(),
    delta=edges,
)
def test_pushed_counters_equal_the_snapshot_diff(pairs, program, corrupt, small_pool, delta):
    pair = SNodePair.open(
        pairs["corrupt" if corrupt else "pristine"],
        buffer_bytes=SMALL_POOL if small_pool else LARGE_POOL,
        on_corruption="degrade",
    )
    try:
        if delta:
            for view, overlay in (
                (pair.forward, DeltaOverlay()),
                (pair.backward, DeltaOverlay(transpose=True)),
            ):
                overlay.apply("add", delta[::2])
                overlay.apply("remove", delta[1::2])
                view.attach_overlay(overlay)
        views, engine, tracer = traced_session(pair)
        try:
            with tracing.activated(tracer):
                for op in program:
                    with tracer.span("request"):
                        run(op, views, tracer)
        finally:
            engine.bind()
        pushed = tracer.pushed()
        assert pushed == {span_id: tracer.diffed[span_id] for span_id in pushed}
        # Nothing is charged outside a request: the roots sum to what the
        # session counted.
        totals: dict = {}
        for root in tracer.roots:
            for name, amount in root.counters.items():
                totals[name] = totals.get(name, 0) + amount
        assert totals == {name: value for name, value in engine.snapshot().items() if value}
        engine.close()
    finally:
        pair.close()


def test_the_oracle_sees_what_the_push_path_sees(pairs):
    """Not vacuous: a lookup sweep through a small pool over corrupt
    regions moves counters the push path must charge, and evicts and
    quarantines — which it must not."""
    pair = SNodePair.open(pairs["corrupt"], buffer_bytes=SMALL_POOL, on_corruption="degrade")
    try:
        views, engine, tracer = traced_session(pair)
        with tracer.span("request") as root:
            views.forward.out_neighbors_many(range(0, PAGES, 7))
        engine.bind()
        assert root.counters == tracer.diffed[root.span_id]
        assert root.counters["loads"] > 0 and root.counters["degraded_reads"] > 0
        base = pair.forward.store.metrics
        assert base.get("buffer_evictions") > 0 and base.get("regions_quarantined") > 0
        assert "buffer_evictions" not in root.counters
        assert "regions_quarantined" not in root.counters
        engine.close()
    finally:
        pair.close()


# -- canonical JSON ----------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
#: Sets of mutually ordered items (mixed ones fail to sort on both paths).
scalar_sets = st.one_of(
    st.sets(st.integers() | st.booleans() | st.floats(allow_nan=False)),
    st.frozensets(st.text(max_size=4)),
)
keys = st.one_of(st.text(max_size=4), st.integers(-20, 20), st.booleans())
payloads = st.recursive(
    st.one_of(scalars, scalar_sets),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    ),
    max_leaves=25,
)


def outcome(function, value):
    """``function(value)``, or the type and text of what it raised."""
    try:
        return function(value)
    except (ServeError, TypeError) as error:
        return type(error), str(error)


@settings(max_examples=400, deadline=None)
@given(payloads)
@example({8, 1})
@example((1, "a", None))
@example({1: "a", "1": "b"})
@example({"q": [(1, 2), (3, 4)], 7: {True: {"x"}}})
def test_canonical_json_equals_the_oracle(value):
    assert outcome(protocol.canonicalize, value) == outcome(oracle_codecs.canonicalize, value)
    assert outcome(protocol.canonical_json, value) == outcome(
        oracle_codecs.canonical_json, value
    )


@settings(max_examples=200, deadline=None)
@given(payloads, st.dictionaries(st.text(max_size=4), st.integers(), max_size=4))
def test_a_reply_is_canonical_once(result, server):
    """A reply's frame is the oracle's over the same plain fields, and a
    canonical value inside it is not walked again."""
    try:
        expected = oracle_codecs.canonical_json(
            {"id": 7, "ok": True, "result": result, "server": server}
        )
    except (ServeError, TypeError):
        return
    frame = protocol.encode_frame(protocol.ok_reply(7, result, server=server))
    assert frame[4:].decode("utf-8") == expected
    canonical = protocol.canonicalize({"payload": result})
    assert protocol.canonicalize(canonical) is canonical


class Level(enum.IntEnum):
    LOW = 1


def test_subclasses_take_the_general_path():
    """Exact-type dispatch: a subclass is canonicalized as its base was."""
    Pair = collections.namedtuple("Pair", "a b")
    for value in (
        collections.OrderedDict([("b", 1), ("a", Pair(2, 3))]),
        collections.defaultdict(list, {2: [Level.LOW]}),
        [Pair(1, 2), frozenset({Level.LOW})],
    ):
        assert protocol.canonicalize(value) == oracle_codecs.canonicalize(value)
        assert protocol.canonical_json(value) == oracle_codecs.canonical_json(value)


def test_errors_are_unchanged():
    for value in ({1: "a", "1": "b"}, [b"bytes"], {"k": {object()}}, {3j}, {"x": 1j}):
        expected = outcome(oracle_codecs.canonicalize, value)
        assert outcome(protocol.canonicalize, value) == expected
        assert expected[0] is ServeError


# -- the intranode row decoder ---------------------------------------------------


@st.composite
def row_collections(draw):
    """(rows, window, full-affinity limit, dictionary allowed?, the order
    rows are read in, the rows read first).

    A few shapes, repeated (full copies) or with one more target (a copy
    plus extras, and the partial copy the other way); runs of consecutive
    targets (dense rows); a few hub targets (what a dictionary pays for);
    empty rows.  A full-affinity plan may reference forward, a windowed
    one (limit 0) only backward.
    """
    size = draw(st.integers(1, 40))
    local = st.integers(0, size - 1)
    run = st.tuples(local, st.integers(1, 12)).map(
        lambda run: list(range(run[0], min(size, run[0] + run[1])))
    )
    shapes = draw(st.lists(st.sets(local, max_size=8).map(sorted) | run, min_size=1, max_size=4))
    hubs = draw(st.sets(local, min_size=1, max_size=3))
    row = st.one_of(
        st.sampled_from(shapes),
        st.tuples(st.sampled_from(shapes), local).map(lambda pick: sorted({*pick[0], pick[1]})),
        st.tuples(st.sets(st.sampled_from(sorted(hubs)), min_size=1), local).map(
            lambda pick: sorted({*pick[0], pick[1]})
        ),
        st.just([]),
        run,
    )
    rows = draw(st.lists(row, min_size=size, max_size=size))
    window, limit = draw(st.sampled_from([(8, 96), (2, 96), (8, 0), (1, 0)]))
    order = draw(st.permutations(range(size)))
    first = draw(st.sets(local, max_size=size))
    return rows, window, limit, draw(st.booleans()), order, sorted(first)


#: Named collections: no dictionary, with a forward reference, full
#: copies, a dense row and empty rows; the same read windowed, with a
#: partial copy; a dictionary with sibling references, one forward.
DENSE_AND_FORWARD = [
    [3, 7, 9, 12, 15], [], [3, 7, 9, 12, 15], [3, 7, 9, 12, 15, 20], list(range(4, 20)),
    [3, 7, 12], [], [0, 3, 7, 9, 12, 15, 21],
]
HUBS_AND_FORWARD = [
    [6], [3, 4], [6], [4, 5, 6, 7, 8, 10], [4, 5, 6, 7, 8, 10], [], [6], [4, 6], [], [],
    [0, 6, 10], [4, 5, 6, 7, 8, 10], [4, 5, 6, 7, 8, 10], [],
]


def reference_chain(records, local: int) -> set[int]:
    """``local``, then at each step up its reference chain the first row
    that is not a pure copy (a full copy with no extras): the rows a read
    of ``local`` through a learned directory decodes."""

    def jump(node: int) -> int:
        while isinstance(records[node], tuple) and records[node][1:] == (None, []):
            node = records[node][0]
        return node

    node = jump(local)
    chain = {local, node}
    while isinstance(records[node], tuple):
        node = jump(records[node][0])
        chain.add(node)
    return chain


def check_row_reads(rows, window, limit, use_dictionary, order, first):
    payload = encode.encode_intranode(rows, window, limit, use_dictionary)
    want = oracle_codecs.decode_intranode(payload)
    assert want == rows
    dictionary, body, starts, records = oracle_codecs.intranode_records(payload)
    whole = encode.decode_intranode(payload)  # the first load: every row, directory learned
    assert whole == want and list(whole) == want
    assert (whole.directory.dictionary, whole.directory.body) == (dictionary, body)
    assert list(whole.directory.starts) == starts
    assert len({id(row) for row in whole}) == len(want)  # no row is another's list

    entry = encode.decode_intranode(payload, whole.directory)  # a re-load: nothing decoded
    assert len(entry) == len(want) and entry._rows == {}
    for local in first:
        entry[local]
    for local in order:
        assert entry[local] == want[local] == oracle_codecs.decode_row(
            payload, starts, local, dictionary
        )
    assert len({id(entry[local]) for local in range(len(entry))}) == len(want)
    for local in order[:4]:
        alone = encode.decode_intranode(payload, whole.directory)
        assert alone[local] == want[local]
        assert set(alone._rows) == reference_chain(records, local)  # that row and its chain
    assert entry == want and list(entry) == want
    return payload, records


@settings(max_examples=300, deadline=None)
@given(row_collections())
@example((DENSE_AND_FORWARD, 8, 96, False, list(range(7, -1, -1)), [1, 4]))
@example((DENSE_AND_FORWARD, 2, 0, False, list(range(8)), []))
@example((HUBS_AND_FORWARD, 8, 96, True, list(range(13, -1, -1)), [3, 11]))
def test_row_reads_equal_the_oracle(case):
    check_row_reads(*case)


def test_the_named_collections_are_what_they_claim():
    """Forward references, full and partial copies, dense, empty and
    dictionary rows all occur in the named collections."""

    def kinds(rows, window, limit, use_dictionary):
        payload, records = check_row_reads(
            rows, window, limit, use_dictionary, range(len(rows)), []
        )
        starts = oracle_codecs.intranode_records(payload)[2]
        found = set()
        for y, (start, record) in enumerate(zip(starts, records)):
            if isinstance(record, tuple):
                found.add("forward" if record[0] > y else "backward")
                found.add("full copy" if record[1] is None else "partial copy")
                continue
            flags = oracle_codecs.BitReader(payload, start)
            referenced, dense = flags.read_bit(), flags.read_bit()
            found.add("dictionary" if referenced else "dense" if dense else "sparse")
            if not record:
                found.add("empty")
        return found

    assert {"forward", "full copy", "dense", "empty"} <= kinds(DENSE_AND_FORWARD, 8, 96, False)
    windowed = kinds(DENSE_AND_FORWARD, 2, 0, False)
    assert "partial copy" in windowed and "forward" not in windowed
    assert {"dictionary", "forward", "full copy"} <= kinds(HUBS_AND_FORWARD, 8, 96, True)


def test_a_run_of_identical_rows_reads_past_its_pure_copies(monkeypatch):
    """Without a dictionary, a run of 40 identical rows is encoded as a
    chain of full copies.  Read from a re-loaded entry, the run's first
    row — the far end of a chain of more than 35 records — decodes at
    most 2 records; read record by record it decodes the whole chain."""
    rows = [[1, 4], [0, 2, 3], *([[2, 5, 6, 9]] * 40), [7]]
    payload = encode.encode_intranode(rows, use_dictionary=False)
    records = oracle_codecs.intranode_records(payload)[3]
    directory = encode.decode_intranode(payload).directory
    chain = [2]
    while isinstance(records[chain[-1]], tuple):
        chain.append(records[chain[-1]][0])
    assert len(chain) > 35 and all(records[y][1:] == (None, []) for y in chain[:-1])
    decoded = []
    original = reference._decode_records

    def counting(reader, dictionary, count, ys, *rest):
        decoded.append(len(ys))
        return original(reader, dictionary, count, ys, *rest)

    monkeypatch.setattr(reference, "_decode_records", counting)
    entry = encode.decode_intranode(payload, directory)
    assert entry[2] == rows[2] and sum(decoded) <= 2
    assert set(entry._rows) == reference_chain(records, 2) == {2, chain[-1]}
    assert entry[2] is not entry[chain[-1]]
    decoded.clear()
    one_by_one = reference.decode_row(
        payload, directory.starts, 2, directory.dictionary, {}, range(len(rows))
    )
    assert one_by_one == rows[2] and sum(decoded) == len(chain)


@pytest.mark.parametrize("cache_decoded", [True, False], ids=["decoded", "encoded"])
def test_a_scan_decodes_each_intranode_graph_in_one_pass(small_build, monkeypatch, cache_decoded):
    """With every directory learned, a scan calls ``decode_rows`` once per
    graph it reads rows of and never ``decode_row``; a point lookup in a
    supernode of more than one page decodes its intranode row alone, and
    in every superedge graph that links its page that page's row alone."""
    store = SNodeStore(small_build.root, buffer_bytes=1 << 26, cache_decoded=cache_decoded)
    sources = {key: store.superedge_rows(*key).sources for key in store._layout.superedge}
    for _page, _row in paper_scan(store):  # every graph loaded: every directory learned
        pass
    calls = dict.fromkeys(("decode_rows", "decode_row"), 0)
    for name in calls:
        original = getattr(encode, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(encode, name, counting)

    store.drop_buffers()
    for _page, _row in store.iterate_all():
        pass
    linking = sum(1 for linked in sources.values() if linked)
    assert calls == {"decode_rows": store.num_supernodes + linking, "decode_row": 0}

    store.drop_buffers()
    calls.update(dict.fromkeys(calls, 0))
    single = whole = linking = 0
    for supernode in range(store.num_supernodes):
        first, end = store.supernode_range(supernode)
        local = (end - first) // 2
        store.out_neighbors(first + local)
        single += end - first > 1
        whole += end - first == 1  # asking for its one row is asking for every row
        linking += sum(
            local in sources[(supernode, target)] for target in store.super_adjacency[supernode]
        )
    assert single > 50
    assert calls == {"decode_rows": whole, "decode_row": single + linking}
    store.close()


def test_cut_intranode_payloads_fail_typed(small_build, tmp_path):
    """An intranode payload cut at every bit offset past its dictionary,
    checksum recomputed, served through a store that learned its directory
    from the sound payload and through a fresh store: every row read
    raises ``CodecError`` (``BitStreamError`` is one) or is the oracle's
    row — never ``IndexError`` or ``ValueError``, never a hang."""
    root = tmp_path / "build"
    shutil.copytree(small_build.root, root)
    learned = SNodeStore(root, buffer_bytes=1 << 26)
    supernode = cut_body.richest_intranode(learned)
    location = learned._layout.intranode[supernode]
    payload = cut_body.region(learned, location)
    dictionary, body, starts, _records = oracle_codecs.intranode_records(payload)
    learned.intranode_rows(supernode)  # the first load learns the directory
    count = len(starts)
    order = sorted(range(count), key=lambda local: local * 7 % count)  # not in row order
    outcome = cut_body.outcome
    failed = served = 0
    cuts = [cut_body.cut_at(payload, bit) for bit in range(body, 8 * len(payload))]
    for data in cuts:
        cut = cut_body.append_region(learned, location.file_index, data)
        learned._layout.intranode[supernode] = cut
        learned.drop_buffers()
        entry = learned.intranode_rows(supernode)
        assert entry._rows == {}  # a re-load decodes nothing
        for local in order:
            read = outcome(entry.__getitem__, local)
            assert read == outcome(oracle_codecs.decode_row, data, starts, local, dictionary)
            failed += read[0] == "error"
            served += read[0] == "ok"
        whole = outcome(oracle_codecs.decode_intranode, data)
        assert outcome(list, entry) == whole  # the all-rows decode of the same entry
        fresh = SNodeStore(root)
        fresh._layout.intranode[supernode] = cut
        assert outcome(lambda: list(fresh.intranode_rows(supernode))) == whole
        fresh.close()
    learned.close()
    assert failed > len(cuts) and served > len(cuts)


# -- the learned superedge header --------------------------------------------


@st.composite
def superedge_graphs(draw):
    """(linked positive rows, source size, target size, force positive?,
    dictionary allowed?) — the model's own polarity choice then applies.

    Few distinct rows, many of them dense: shared targets make the
    dictionary pay, dense rows make the negative form win.
    """
    source_size = draw(st.integers(1, 24))
    target_size = draw(st.integers(1, 24))
    linked = draw(
        st.one_of(
            st.just(set()),  # nothing linked
            st.just(set(range(source_size))),  # every source linked
            st.sets(st.integers(0, source_size - 1), min_size=1),
        )
    )
    shapes = draw(
        st.lists(st.sets(st.integers(0, target_size - 1), min_size=1), min_size=1, max_size=3)
    )
    rows = {local: sorted(draw(st.sampled_from(shapes))) for local in sorted(linked)}
    return rows, source_size, target_size, draw(st.booleans()), draw(st.booleans())


def same_entry(entry, want: dict, source_size: int) -> None:
    """``entry`` holds ``want`` (source local -> positive row) and no
    other row; every local is read before ``linked``."""
    assert entry.sources == tuple(want)
    assert [entry.row(local) for local in range(source_size)] == [
        want.get(local, []) for local in range(source_size)
    ]
    assert entry.linked == want


def check_learned_header(linked_rows, source_size, target_size, force_positive, use_dictionary):
    graph = _superedge_graph(0, 1, linked_rows, source_size, target_size, force_positive)
    payload = encode.encode_superedge(graph, use_dictionary=use_dictionary)
    want = oracle_codecs.linked_rows_from_payload(payload, target_size)
    assert want == linked_rows  # the oracle reads back what the model stored

    fresh = encode.positive_rows_from_payload(payload, source_size, target_size)
    header = fresh.header
    negative, sources, _rows = oracle_codecs.decode_superedge_payload(payload)
    assert header == (negative, tuple(sources), cut_body.body_bit(payload))
    hash(header)  # immutable all the way down: every entry of a key shares it

    with mock.patch.object(encode, "BitReader", side_effect=AssertionError("a reader")):
        learned = encode.positive_rows_from_payload(payload, source_size, target_size, header)
        unlinked = [learned.row(local) for local in range(source_size) if local not in want]
    assert unlinked == [[]] * (source_size - len(want))
    assert learned.header is header and learned.sources is header.sources
    assert type(learned._rows) is tuple  # nothing decoded yet
    same_entry(learned, want, source_size)
    same_entry(fresh, want, source_size)
    directory = fresh.directory  # learned by the whole decode
    assert (directory.dictionary, directory.body, list(directory.starts)) == (
        oracle_codecs.superedge_records(payload)[:3]
    )
    with mock.patch.object(
        encode, "_decode_locals", side_effect=AssertionError("a dictionary parse")
    ):
        relearned = encode.positive_rows_from_payload(
            payload, source_size, target_size, header, directory
        )
        same_entry(relearned, want, source_size)
    return graph, payload


#: Named graphs: a dense one (stored negative unless forced positive),
#: hub targets with and without a dictionary, nothing linked, every
#: source linked.
DENSE = {local: [t for t in range(12) if t != local % 12] for local in range(0, 20, 2)}
HUBS = {local: [2, 5, 9, 11 + local] for local in range(8)}


@settings(max_examples=300, deadline=None)
@given(superedge_graphs())
@example((DENSE, 20, 12, False, True))
@example((DENSE, 20, 12, True, True))
@example((HUBS, 8, 24, False, True))
@example((HUBS, 8, 24, False, False))
@example(({}, 9, 4, False, True))
@example(({0: [1], 1: [1], 2: [0, 1]}, 3, 2, False, False))
def test_learned_headers_equal_a_fresh_parse(case):
    check_learned_header(*case)


def test_the_named_superedge_graphs_are_what_they_claim():
    """Both polarities, a dictionary the encoder did and did not use,
    nothing linked and every source linked all occur."""

    def dictionary_of(payload):
        prefix = oracle_codecs.BitReader(payload, cut_body.body_bit(payload))
        return oracle_codecs._decode_locals(prefix)

    dense, _payload = check_learned_header(DENSE, 20, 12, False, True)
    forced, _payload = check_learned_header(DENSE, 20, 12, True, True)
    assert dense.negative and not forced.negative
    _graph, with_dictionary = check_learned_header(HUBS, 8, 24, False, True)
    _graph, without = check_learned_header(HUBS, 8, 24, False, False)
    assert dictionary_of(with_dictionary) and not dictionary_of(without)
    _graph, empty = check_learned_header({}, 9, 4, False, True)
    assert encode.positive_rows_from_payload(empty, 9, 4).sources == ()
    every = {0: [1], 1: [1], 2: [0, 1]}
    _graph, full = check_learned_header(every, 3, 2, False, False)
    assert encode.positive_rows_from_payload(full, 3, 2).sources == (0, 1, 2)


@pytest.mark.parametrize("cache_decoded", [True, False], ids=["decoded", "encoded"])
def test_every_superedge_payload_reloads_like_a_fresh_parse(small_build, cache_decoded):
    """After a learning pass every superedge graph of the build is
    re-loaded from its learned header and directory — a miss and then a
    pool hit, which a payload-caching store also builds from them — and
    equals a fresh parse of its payload, row by row; two entries of a key
    share one immutable ``sources``."""
    store = SNodeStore(small_build.root, buffer_bytes=1 << 26, cache_decoded=cache_decoded)
    for _page, _row in paper_scan(store):  # every header learned
        pass
    store.drop_buffers()
    store.metrics.reset()
    boundaries = store.boundaries
    negative = 0
    for (source, target), (location, stored_negative) in store._layout.superedge.items():
        source_size = boundaries[source + 1] - boundaries[source]
        target_size = boundaries[target + 1] - boundaries[target]
        fresh = encode.positive_rows_from_payload(
            cut_body.region(store, location), source_size, target_size
        )
        _charge, header, directory = store._learned[("super", source, target)]
        assert header == fresh.header and header.negative == stored_negative
        assert type(header.sources) is tuple
        fresh.linked  # the whole decode learns the directory
        assert directory == fresh.directory
        reloaded, hit = (store.superedge_rows(source, target) for _ in range(2))
        assert reloaded.header is header and hit.header is header
        assert reloaded.directory is directory and hit.directory is directory
        assert reloaded.sources is hit.sources
        same_entry(reloaded, fresh.linked, source_size)
        same_entry(hit, fresh.linked, source_size)
        negative += header.negative
    assert negative > 0
    stats = store.metrics.io_stats()
    assert stats["buffer_hits_superedge"] == stats["superedge_loads"] == len(store._layout.superedge)
    store.close()


# -- superedge rows read through the learned directory -----------------------


@st.composite
def superedge_row_reads(draw):
    """A superedge graph as :func:`superedge_graphs` draws it, then the
    encoder's window and full-affinity limit, the locals read first and
    the order the rest are read in — any local, linked or not, repeats
    allowed."""
    case = draw(superedge_graphs())
    source_size = case[1]
    window, limit = draw(st.sampled_from([(8, 96), (2, 96), (8, 0), (1, 0)]))
    local = st.integers(0, source_size - 1)
    first = draw(st.lists(local, max_size=3))
    order = draw(st.lists(local, max_size=2 * source_size))
    return (*case, window, limit, first, order)


def check_superedge_row_reads(
    linked_rows, source_size, target_size, force_positive, use_dictionary, window, limit, first, order
):
    graph = _superedge_graph(0, 1, linked_rows, source_size, target_size, force_positive)
    payload = encode.encode_superedge(graph, window, limit, use_dictionary)
    negative, sources, stored = oracle_codecs.decode_superedge_payload(payload)
    want = oracle_codecs.linked_rows_from_payload(payload, target_size)
    assert want == linked_rows
    dictionary, body, starts, records = oracle_codecs.superedge_records(payload)
    whole = encode.positive_rows_from_payload(payload, source_size, target_size)  # a first load
    assert whole.linked == want
    directory = whole.directory
    assert (directory.dictionary, directory.body, list(directory.starts)) == (
        dictionary,
        body,
        starts,
    )
    entry = encode.positive_rows_from_payload(  # a re-load: nothing decoded
        payload, source_size, target_size, whole.header, directory
    )
    assert entry._rows[2] == {}
    for local in first:
        entry.row(local)
    for local in [*order, *range(source_size)]:
        assert entry.row(local) == want.get(local, [])
    held = entry._rows[2]
    assert held == {index: stored[index] for index in held}  # stored rows, never a complement
    for index, local in enumerate(sources[:4]):
        alone = encode.positive_rows_from_payload(
            payload, source_size, target_size, whole.header, directory
        )
        assert alone.row(local) == want[local]
        assert set(alone._rows[2]) == reference_chain(records, index)  # that row and its chain
    with mock.patch.object(
        encode, "_decode_locals", side_effect=AssertionError("a dictionary parse")
    ):
        assert entry.linked == want  # every row from the body on
    return payload, negative, records


@settings(max_examples=300, deadline=None)
@given(superedge_row_reads())
@example((DENSE, 20, 12, False, True, 8, 96, [4], [18, 0, 2, 1, 2, 18]))
@example((HUBS, 8, 24, False, True, 8, 96, [], [7, 3, 3, 0]))
@example((HUBS, 8, 24, False, False, 2, 0, [5], list(range(8))))
def test_superedge_row_reads_equal_the_oracle(case):
    check_superedge_row_reads(*case)


#: A superedge graph whose full-affinity plan references forward, through
#: the dictionary and from sibling rows, stored positive.
HUBS_FORWARD = {local: row for local, row in enumerate(HUBS_AND_FORWARD) if row}


def test_the_named_superedge_reads_are_what_they_claim():
    """Both polarities, dictionary rows and forward references occur in
    the named superedge graphs."""

    def kinds(linked_rows, source_size, target_size, use_dictionary):
        payload, negative, records = check_superedge_row_reads(
            linked_rows, source_size, target_size, False, use_dictionary, 8, 96, [], []
        )
        starts = oracle_codecs.superedge_records(payload)[2]
        found = {"negative" if negative else "positive"}
        for y, (start, record) in enumerate(zip(starts, records)):
            if isinstance(record, tuple):
                found.add("forward" if record[0] > y else "backward")
            elif oracle_codecs.BitReader(payload, start).read_bit():
                found.add("dictionary")
        return found

    assert {"positive", "dictionary", "forward"} <= kinds(HUBS_FORWARD, 14, 11, True)
    assert {"negative", "backward"} <= kinds(DENSE, 20, 12, True)


@pytest.mark.parametrize("graph", ["dense", "hubs"])
def test_six_threads_race_to_read_one_superedge_entry(graph):
    """Six threads read every local of one re-loaded entry, each in its
    own order, at a 10 µs switch interval: every read is the oracle's row
    and the entry ends holding each stored row once."""
    linked_rows, source_size, target_size = (
        (DENSE, 20, 12) if graph == "dense" else (HUBS_FORWARD, 14, 11)
    )
    model = _superedge_graph(0, 1, linked_rows, source_size, target_size, False)
    payload = encode.encode_superedge(model, 8, 96)
    _negative, _sources, stored = oracle_codecs.decode_superedge_payload(payload)
    whole = encode.positive_rows_from_payload(payload, source_size, target_size)
    assert whole.linked == linked_rows
    for _round in range(20):
        entry = encode.positive_rows_from_payload(
            payload, source_size, target_size, whole.header, whole.directory
        )
        got: list[list] = [[] for _ in range(6)]

        def read(index: int, entry=entry, got=got) -> None:
            for local in sorted(range(source_size), key=lambda local: local * (index + 1) % 7):
                got[index].append((local, entry.row(local)))

        threads = [threading.Thread(target=read, args=(index,)) for index in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for reads in got:
            assert len(reads) == source_size
            assert all(row == linked_rows.get(local, []) for local, row in reads)
        assert entry._rows[2] == dict(enumerate(stored))


def quarantined_copy(root, destination):
    """A copy of the build at ``root`` with one byte flipped in every
    third superedge region; the keys flipped."""
    shutil.copytree(root, destination)
    layout = read_layout(destination)
    flipped = set()
    for number, (key, (location, _negative)) in enumerate(sorted(layout.superedge.items())):
        if number % 3:
            continue
        path = destination / layout.index_files[location.file_index]
        data = bytearray(path.read_bytes())
        data[location.offset + location.length // 2] ^= 0x10
        path.write_bytes(bytes(data))
        flipped.add(("super", *key))
    return flipped


@pytest.mark.parametrize("copy", ["sound", "quarantined"])
@pytest.mark.parametrize("cache_decoded", [True, False], ids=["decoded", "encoded"])
def test_every_superedge_row_reads_alone_like_the_oracle(small_build, tmp_path, cache_decoded, copy):
    """After a learning scan every superedge graph of a build is
    re-loaded from its learned header and directory and read a local at a
    time, in a seeded order, twice: each row is the oracle's and nothing
    is decoded whole.  In a copy whose corrupt superedge regions the scan
    quarantined (degrade mode) those graphs are served empty, each read
    counted degraded, and every other graph reads as in the sound copy."""
    root = small_build.root
    flipped = set()
    if copy == "quarantined":
        root = tmp_path / "copy"
        flipped = quarantined_copy(small_build.root, root)
    store = SNodeStore(
        root, buffer_bytes=1 << 26, cache_decoded=cache_decoded, on_corruption="degrade"
    )
    for _page, _row in store.iterate_all():  # the learning pass
        pass
    assert flipped <= set(store.quarantined)
    store.drop_buffers()
    store.metrics.reset()
    shuffle = random.Random(7).shuffle
    boundaries = store.boundaries
    degraded = 0
    for (source, target), (location, _negative) in store._layout.superedge.items():
        key = ("super", source, target)
        source_size = boundaries[source + 1] - boundaries[source]
        target_size = boundaries[target + 1] - boundaries[target]
        order = list(range(source_size))
        shuffle(order)
        entry = store.superedge_rows(source, target)
        if key in flipped:
            assert [entry.row(local) for local in order] == [[]] * source_size
            degraded += 1
            continue
        want = oracle_codecs.linked_rows_from_payload(
            cut_body.region(store, location), target_size
        )
        assert entry.directory is store._learned[key][2]
        for local in order + order:
            assert entry.row(local) == want.get(local, [])
        assert type(entry._rows) is tuple  # read row by row, never whole
    assert degraded == len(flipped) and store.metrics.get("degraded_reads") == degraded
    store.close()


@pytest.mark.parametrize("cache_decoded", [True, False], ids=["decoded", "encoded"])
def test_a_learned_store_parses_no_superedge_dictionary(small_build, monkeypatch, cache_decoded):
    """A first load decodes each superedge graph once and a first scan
    each graph once; once learned, a scan and re-loads of every graph
    parse no superedge header or dictionary (``_decode_locals``), and a
    re-loaded graph decodes its body whole only when asked for all of it."""
    calls = collections.Counter()
    for name in ("decode_rows", "_decode_locals"):
        original = getattr(encode, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(encode, name, counting)
    keys = list(read_layout(small_build.root).superedge)

    loaded = SNodeStore(small_build.root, buffer_bytes=1 << 26, cache_decoded=cache_decoded)
    calls.clear()
    for key in keys:  # first loads: header, dictionary, every row, once each
        loaded.superedge_rows(*key)
    assert calls == {"decode_rows": len(keys), "_decode_locals": 2 * len(keys)}
    loaded.close()

    store = SNodeStore(small_build.root, buffer_bytes=1 << 26, cache_decoded=cache_decoded)
    graphs = store.num_supernodes + len(keys)
    calls.clear()
    for _page, _row in store.iterate_all():  # a first scan
        pass
    assert calls == {
        "decode_rows": graphs,
        "_decode_locals": store.num_supernodes + 2 * len(keys),
    }
    calls.clear()
    for _page, _row in store.iterate_all():  # a learned scan
        pass
    assert calls == {"decode_rows": graphs}
    calls.clear()
    for key in keys:  # learned re-loads: every row read alone, then all at once
        entry = store.superedge_rows(*key)
        for local in entry.sources:
            entry.row(local)
        entry.linked
    assert calls == {"decode_rows": len(keys)}
    store.close()
