"""Property test: N concurrent sessions over one shared store behave
exactly like a serial run.

The claims (the tentpole's correctness contract):

* every thread's Figure 11 query results are byte-identical (canonical
  digest) to a serial execution on the shared path;
* the pinned supernode graphs are never evicted, however hard the
  navigation buffer churns;
* the buffer pools respect their byte budgets and pass
  ``check_invariants`` while readers hammer them;
* a session pair's counters plus the base registry sum to the shared
  pair's ``shared_totals()`` (conservation), counter for counter, while
  the sessions are open and after they close.
"""

from __future__ import annotations

import threading

import pytest

from repro.query.workload import PAPER_QUERIES, run_query
from repro.serve import protocol
from repro.serve.daemon import ServeContext

QUERY_NAMES = tuple(name for name, _fn in PAPER_QUERIES)

#: Small navigation budget: forces eviction pressure during the run.
BUFFER_BYTES = 64 * 1024
THREADS = 6


@pytest.fixture(scope="module")
def context(tiny_repo, test_refinement_config, tmp_path_factory):
    built = ServeContext.build(
        tiny_repo,
        tmp_path_factory.mktemp("concurrent"),
        buffer_bytes=BUFFER_BYTES,
        refinement=test_refinement_config,
    )
    yield built
    built.close()


def _pool_state(context):
    stats = context.pair.buffer_stats()
    return {
        direction: (s["pinned_entries"], s["pinned_bytes"])
        for direction, s in stats.items()
    }


def test_concurrent_mix_matches_serial(context):
    serial_digests = {
        name: protocol.payload_digest(
            run_query(context.serial_engine(), name).payload
        )
        for name in QUERY_NAMES
    }
    pins_before = _pool_state(context)
    pair = context.pair
    totals_before = pair.shared_totals()

    results: list[dict[str, str]] = [{} for _ in range(THREADS)]
    session_stats: list[dict[str, dict[str, int]]] = [{} for _ in range(THREADS)]
    live_gaps: list[dict] = []
    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS)

    def worker(index: int) -> None:
        try:
            client = context.make_engine(f"thread-{index}")
            try:
                barrier.wait()
                # Full mix, rotated per thread so different queries overlap.
                for j in range(len(QUERY_NAMES)):
                    name = QUERY_NAMES[(index + j) % len(QUERY_NAMES)]
                    result = run_query(client.engine, name)
                    results[index][name] = protocol.payload_digest(
                        result.payload
                    )
                # Invariants hold mid-flight, from any thread.
                for direction in ("forward", "backward"):
                    store = getattr(pair, direction).store
                    store._pool.check_invariants()
                    stats = store.buffer_stats()
                    assert stats["used_bytes"] <= stats["capacity_bytes"]
                session_stats[index] = client.io_stats()
                # An open session is already in the shared totals.
                live = pair.shared_totals()
                live_gaps.extend(
                    (direction, name)
                    for direction, stats in session_stats[index].items()
                    for name, value in stats.items()
                    if live[direction].get(name, 0) - totals_before[direction].get(name, 0)
                    < value
                )
            finally:
                client.close()
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    # 1. Results identical to serial, for every thread and query.
    for digests in results:
        assert digests == serial_digests
    # 2. Pins never evicted: same pinned entries and bytes as before.
    assert _pool_state(context) == pins_before
    # 3. Budgets respected after the storm.
    for direction in ("forward", "backward"):
        store = getattr(pair, direction).store
        store._pool.check_invariants()
        stats = store.buffer_stats()
        assert stats["used_bytes"] <= stats["capacity_bytes"]
    # 4. Conservation: for every counter a session charged, shared growth
    # equals the sum of what the sessions attributed (all sessions are
    # closed, so the totals are in the base).
    assert live_gaps == []
    totals_after = pair.shared_totals()
    for direction in ("forward", "backward"):
        attributed: dict[str, int] = {}
        for stats in session_stats:
            for name, value in stats[direction].items():
                attributed[name] = attributed.get(name, 0) + value
        assert attributed["buffer_hits"] > 0
        assert attributed == {
            name: totals_after[direction].get(name, 0)
            - totals_before[direction].get(name, 0)
            for name in attributed
        }


def test_sessions_see_warm_shared_cache(context):
    # A fresh session benefits from graphs cached by earlier traffic:
    # the pool is shared even though the accounting is per-session.
    with context.pair.session("warm-check") as views:
        assert views.forward.metrics.label == "warm-check/forward"
        assert views.backward.metrics.label == "warm-check/backward"
        for side in (views.forward, views.backward):
            side.out_neighbors(0)
            side.out_neighbors(0)
        assert all(stats.get("buffer_hits", 0) > 0 for stats in views.io_stats().values())
        assert views.total("buffer_hits") == sum(
            stats["buffer_hits"] for stats in views.io_stats().values()
        )
