"""What observing a warm request costs, as counts rather than timings.

The observers' price is deterministic, so it is pinned exactly: per
served request, the spans its trace holds, the windowed histogram
observations its telemetry makes and the registry snapshots anything
takes.  A warm ``neighbors`` lookup holds two spans
(``request.neighbors`` + ``nav.out_neighborhood``); a warm paper query
one plus one per ``QueryEngine.navigation_timer`` block it ran; every
request makes one observation for its op and one per phase it measured;
and no request snapshots a registry — span counters are pushed as they
are counted, not diffed.
"""

from __future__ import annotations

import collections
import time

from repro.baselines.base import RepresentationPair
from repro.obs.flightrecorder import FlightRecorder
from repro.obs.windowed import WindowedHistogram
from repro.query.engine import QueryEngine
from repro.serve.daemon import DaemonHandle, GraphQueryDaemon
from repro.serve.loadgen import ServeClient
from repro.serve.telemetry import ServeTelemetry
from repro.storage.metrics import MetricsRegistry

REQUESTS = [("neighbors", {"page": page}) for page in (0, 5, 17, 42)] + [
    ("query", {"name": f"query{n}"}) for n in range(1, 7)
]

#: What is counted: ``owner.attribute`` wrapped with a call counter.
COUNTED = (
    (MetricsRegistry, "snapshot"),
    (MetricsRegistry, "merged_snapshot"),
    (RepresentationPair, "snapshot"),
    (WindowedHistogram, "record"),
    (QueryEngine, "navigation_timer"),
)
SNAPSHOTS = (
    "MetricsRegistry.snapshot",
    "MetricsRegistry.merged_snapshot",
    "RepresentationPair.snapshot",
)


def test_observer_price_is_counted(serve_context, monkeypatch):
    calls: collections.Counter = collections.Counter()
    for owner, attribute in COUNTED:
        name = f"{owner.__name__}.{attribute}"
        real = getattr(owner, attribute)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counting)

    recorder = FlightRecorder()
    daemon = GraphQueryDaemon(
        serve_context, port=0, workers=2, telemetry=ServeTelemetry(recorder=recorder)
    )

    def filed(count: int) -> None:
        deadline = time.monotonic() + 10.0
        while recorder.recorded < count:
            assert time.monotonic() < deadline, "request never reached the recorder"
            time.sleep(0.002)

    priced = []
    with DaemonHandle(daemon) as handle, ServeClient("127.0.0.1", handle.port) as client:
        # Two passes warm the pool and leave the connection not loading.
        for _ in range(2):
            for op, fields in REQUESTS:
                client.request_ok(op, **fields)
        filed(2 * len(REQUESTS))
        for op, fields in REQUESTS:
            before = calls.copy()
            count = recorder.recorded
            client.request_ok(op, **fields)
            filed(count + 1)
            price = calls - before
            (trace,) = recorder.recent_traces()[-1:]
            priced.append((op, trace, price))

    for op, trace, price in priced:
        roots = [span for span in trace["spans"] if span["parent"] == -1]
        assert [root["name"] for root in roots] == [f"request.{op}"], "not warm"
        assert all(price[name] == 0 for name in SNAPSHOTS), price
        navigations = price["QueryEngine.navigation_timer"]
        assert navigations >= 1
        if op == "neighbors":
            assert [span["name"] for span in trace["spans"]] == [
                "request.neighbors",
                "nav.out_neighborhood",
            ]
        assert len(trace["spans"]) == 1 + navigations
        assert price["WindowedHistogram.record"] == 1 + len(trace["phases_us"])
        assert len(trace["phases_us"]) == 5
