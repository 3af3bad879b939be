"""The served request path's two fast paths, each against its oracle.

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
  ``test_canonical_json_equals_the_oracle``.
"""

from __future__ import annotations

import collections
import enum
import shutil

import oracle_codecs
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracle_tracing import SnapshotTracer

from repro.errors import NotResident, ServeError
from repro.obs import tracing
from repro.serve import protocol
from repro.serve.daemon import ClientEngine
from repro.snode.build import BuildOptions
from repro.snode.delta import DeltaOverlay
from repro.snode.pair import SNodePair
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
