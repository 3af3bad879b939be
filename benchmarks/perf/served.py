"""The two served workloads: ``serve-warm`` and ``serve-mutate``.

Both run the daemon in one child process and drive it closed-loop over
two connections from this single process (see ``wire.py``).
"""

from __future__ import annotations

import random
import shutil

from harness import (
    QUERY_NAMES,
    WARM_BUFFER_BYTES,
    Round,
    Workload,
    build_store,
    corpus,
    fresh_engine_digests,
    note,
    pair_bits_per_edge,
    query_medians_ms,
    store_layer_metrics,
)
import replay
from stats import median, percentile
from wire import Connection, DaemonProcess, drive

from repro.baselines import SNodeRepresentation
from repro.serve.daemon import ServeContext
from repro.serve.protocol import payload_digest
from repro.storage.wal import GraphWal
from repro.webdata.recrawl import RecrawlConfig, recrawl
from repro.webdata.webbase import write_stream

#: Closed-loop connections and daemon worker threads: the sandbox has 2 cores.
CLIENTS = 2
DAEMON_WORKERS = 2
#: Edges per ``add_edges`` / ``remove_edges`` request of serve-mutate.
WRITE_BATCH = 16
#: Share of serve-warm requests that are ``neighbors`` lookups.
LOOKUP_SHARE = 0.6
#: Exponent of the lookup popularity skew (rank by in-degree).
ZIPF_EXPONENT = 1.0
#: Share of links each recrawl step rewires or drops: ~300 write batches
#: a round, so the lookups sent while the writer writes are a real sample.
LINK_CHURN_FRACTION = 0.05
#: Most request/reply pairs kept for the protocol replay.
CAPTURE_LIMIT = 1500

#: Store counters each reply's ``server`` section attributes to its
#: request.  Summed here rather than read from ``stats``, whose store
#: totals restart when a compaction swaps the stores.
_REPLY_COUNTERS = (
    "loads",
    "intranode_loads",
    "superedge_loads",
    "bytes_read",
    "disk_seeks",
    "buffer_hits",
    "buffer_misses",
)
_DAEMON_COUNTERS = ("requests_ok", "requests_failed", "backpressure_replies", "writes_applied")
_MUTATION_STATE = ("wal_bytes", "wal_records", "delta_edges", "overlay_rows")


class ServedWorkload(Workload):
    """Set-up, daemon counters and server-side timings the two workloads share."""

    mutable = False

    def setup(self) -> None:
        self.repository = corpus(self.sizes)
        self.store_dir = self.workdir / "stores"
        forward = build_store(self.repository, self.store_dir / "serve_f", False, WARM_BUFFER_BYTES)
        backward = build_store(self.repository, self.store_dir / "serve_b", True, WARM_BUFFER_BYTES)
        self.bits_per_edge = pair_bits_per_edge(forward, backward)
        forward.store.close()
        backward.store.close()
        write_stream(self.repository, self.workdir / "crawl.wb")
        self.start_daemon()

    def start_daemon(self) -> None:
        self.daemon = DaemonProcess(
            self.workdir / "crawl.wb",
            self.store_dir,
            WARM_BUFFER_BYTES,
            DAEMON_WORKERS,
            self.mutable,
            self.clock,
        )
        self.connections = [Connection(self.daemon.port, self.clock) for _ in range(CLIENTS)]

    def stop_daemon(self, kill: bool = False) -> None:
        for connection in getattr(self, "connections", ()):
            connection.close()
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            daemon.stop(kill)

    def prepare(self) -> None:
        #: Per traced request: (op, client seconds, server phases in us,
        #: navigation seconds of a query).
        self.server_samples: list = []
        #: (request, reply payload bytes) pairs for the protocol replay.
        self.captured: list = []

    def teardown(self) -> None:
        self.stop_daemon()
        super().teardown()

    def end_measurement(self) -> None:
        self.peak_rss_mb = self.daemon.peak_rss_mb()

    def daemon_counters(self) -> dict:
        """The ``stats`` op's request counters and mutation state, flat."""
        result = self.connections[0].call({"id": "stats", "op": "stats"})["result"]
        counters = {name: result["daemon"][name] for name in _DAEMON_COUNTERS}
        for name in _MUTATION_STATE:
            counters[name] = result["mutation"].get(name, 0)
        return counters

    def round_counters(self, before: dict, store: dict) -> dict:
        """One round's counters: daemon differences, mutation state, store work."""
        after = self.daemon_counters()
        counters = {name: after[name] - before[name] for name in _DAEMON_COUNTERS}
        # The stats request that opened the window counts itself.
        counters["requests_ok"] -= 1
        # Absolute, not a difference: compaction truncates the log.
        counters.update({name: after[name] for name in _MUTATION_STATE})
        counters.update(store)
        return counters

    def observe(
        self, request: dict, reply: dict, seconds: float, payload: bytes, store: dict
    ) -> None:
        """Fold one reply's store counters into ``store``; when traced, keep more."""
        server = reply.get("server", {})
        for name, value in server.get("counters", {}).items():
            if name in store:
                store[name] += value
        recorder = self.recorder
        if recorder is None:
            return
        end = self.clock()
        recorder.record(f"wire.{request['op']}", end - seconds, end, str(request["id"]))
        navigation = reply.get("result", {}).get("navigation_seconds", 0.0)
        self.server_samples.append((request["op"], seconds, server.get("phases_us", {}), navigation))
        if len(self.captured) < CAPTURE_LIMIT:
            self.captured.append((request, payload))

    def ping_rtt_us(self, count: int = 200) -> float:
        """Median no-op round trip: pure daemon + protocol overhead."""
        connection = self.connections[0]
        samples = []
        for index in range(count):
            start = self.clock()
            connection.call({"id": index, "op": "ping"})
            samples.append(self.clock() - start)
        return median(samples) * 1e6

    def daemon_layer_metrics(self, rounds: list) -> dict:
        """``serve.daemon.*`` / ``serve.loadgen.*`` from the replies' server sections."""
        lookups = [
            (seconds, phases)
            for op, seconds, phases, _navigation in self.server_samples
            if op == "neighbors"
        ]
        metrics = {}
        total = {"decode": 0, "queue_wait": 0, "execute": 0}
        for phase in total:
            values = [phases.get(phase, 0) for _seconds, phases in lookups]
            total[phase] = sum(values)
            metrics[f"serve.daemon.{phase}_ms_p50"] = median(values) / 1e3
        lifecycle = sum(total.values())
        metrics["serve.daemon.execute_share"] = total["execute"] / lifecycle if lifecycle else 0.0
        metrics["serve.loadgen.client_overhead_us"] = median(
            seconds * 1e6 - sum(phases.get(phase, 0) for phase in total)
            for seconds, phases in lookups
        )
        metrics["serve.daemon.ping_rtt_us"] = self.ping_rtt_us()
        summed = {
            name: sum(r.counters.get(name, 0) for r in rounds)
            for name in _REPLY_COUNTERS + _DAEMON_COUNTERS
        }
        metrics["serve.daemon.backpressure_replies"] = summed["backpressure_replies"]
        probes = sum(len(r.op_seconds) + len(r.detail.get("during_compact", ())) for r in rounds)
        metrics.update(store_layer_metrics(rounds))
        metrics["snode.store.graphs_per_probe"] = summed["loads"] / probes if probes else 0.0
        metrics["util.bitio.bits_decoded"] = summed["bytes_read"] * 8
        return metrics

    def replay_metrics(self, recorder) -> dict:
        metrics = super().replay_metrics(recorder)
        metrics.update(replay.protocol_metrics(self.captured))
        return metrics

    def replay_lookups(self, recorder, representation, pages: list) -> None:
        """The lookups again, in process and traced, on a warmed store.

        The daemon is a separate process, so its store and buffer-pool
        self times cannot be read from here; replaying the same pages
        against the same store gives the hit path's cost by layer.
        """
        for page in pages:
            representation.out_neighbors(page)
        with recorder.installed():
            for page in pages:
                with recorder.root("bench.replay_lookup", f"replay-{page}"):
                    representation.out_neighbors(page)


class ServeWarmWorkload(ServedWorkload):
    """A warmed daemon answering lookups and the six paper queries.

    A round is ``requests`` requests on each of two closed-loop
    connections, in two phases: first the 60 % that are ``neighbors``
    lookups, on pages drawn with a Zipf skew over in-degree rank, then the
    40 % that are the six paper queries in equal shares and seeded order.
    Interleaved, a lookup's latency had two modes — the other connection
    inside a query or not — and its median sat on the edge between them.
    """

    name = "serve-warm"
    warm = True

    def prepare(self) -> None:
        super().prepare()
        rng = random.Random(self.seed)
        graph = self.repository.graph
        transpose = self.repository.transpose()
        by_popularity = sorted(
            range(graph.num_vertices), key=lambda page: (-transpose.out_degree(page), page)
        )
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(by_popularity))]
        lookups = round(self.sizes.requests * LOOKUP_SHARE)
        #: phase -> one script per connection
        self.phases = [[], []]
        for _client in range(CLIENTS):
            pages = rng.choices(by_popularity, weights=weights, k=lookups)
            queries = [
                QUERY_NAMES[index % len(QUERY_NAMES)]
                for index in range(self.sizes.requests - lookups)
            ]
            rng.shuffle(queries)
            self.phases[0].append(
                [{"id": f"l{n}", "op": "neighbors", "page": page} for n, page in enumerate(pages)]
            )
            self.phases[1].append(
                [{"id": f"q{n}", "op": "query", "name": name} for n, name in enumerate(queries)]
            )
        self._expected_rows = {
            request["page"]: graph.successors_list(request["page"])
            for script in self.phases[0]
            for request in script
        }
        self._query_digests = fresh_engine_digests(
            self.repository, self.store_dir / "serve_f", self.store_dir / "serve_b"
        )

    def round(self, index: int) -> Round:
        before = self.daemon_counters()
        store = dict.fromkeys(_REPLY_COUNTERS, 0)
        op_seconds: list = []
        side: dict = {name: [] for name in QUERY_NAMES}
        first_payload: dict = {}
        failed = 0

        def on_reply(client: int, request: dict, reply: dict, seconds: float, payload: bytes):
            nonlocal failed
            self.observe(request, reply, seconds, payload, store)
            if not reply.get("ok"):
                failed += 1
            elif request["op"] == "neighbors":
                op_seconds.append(seconds)
                if reply["result"]["neighbors"] != self._expected_rows[request["page"]]:
                    failed += 1
            else:
                name = request["name"]
                side[name].append(seconds)
                first_payload.setdefault(name, reply["result"]["payload"])
                if reply["result"]["digest"] != self._query_digests[name]:
                    failed += 1

        started = self.clock()
        for scripts in self.phases:
            remaining = [iter(script) for script in scripts]
            drive(self.connections, lambda client: next(remaining[client], None), on_reply)
        wall = self.clock() - started
        # The digest field is the daemon's own; recompute one per query
        # from the payload that actually crossed the wire.
        for name, payload in first_payload.items():
            if payload_digest(payload) != self._query_digests[name]:
                failed += 1
        counters = self.round_counters(before, store)
        attempted = self.sizes.requests * CLIENTS
        return Round(
            wall=wall,
            op_seconds=op_seconds,
            primary_count=attempted,
            primary_wall=wall,
            side=side,
            counters=counters,
            attempted=attempted,
            failed=failed,
        )

    def side_ms(self, rounds: list) -> float:
        """``query_ms``: the six paper queries' median wire latencies, summed."""
        return sum(query_medians_ms(rounds).values())

    def layer_metrics(self, rounds: list) -> dict:
        metrics = self.daemon_layer_metrics(rounds)
        metrics.update({f"query.{name}_ms": ms for name, ms in query_medians_ms(rounds).items()})
        queries = [sample for sample in self.server_samples if sample[0] == "query"]
        executed = sum(phases.get("execute", 0) for _op, _seconds, phases, _nav in queries) / 1e6
        navigated = sum(navigation for _op, _seconds, _phases, navigation in queries)
        metrics["query.navigation_share"] = navigated / executed if executed else 0.0
        return metrics

    def replay_rows(self) -> dict:
        return self._expected_rows

    def replay_metrics(self, recorder) -> dict:
        metrics = super().replay_metrics(recorder)
        forward = SNodeRepresentation.open(
            self.store_dir / "serve_f", buffer_bytes=WARM_BUFFER_BYTES
        )
        try:
            self.replay_lookups(recorder, forward, list(self._expected_rows))
        finally:
            forward.close()
        return metrics

    def separation_notes(self, rounds: list) -> list[str]:
        """Everything must come from the buffer: no reads, no decoding."""
        hits = sum(r.counters["buffer_hits"] for r in rounds)
        misses = sum(r.counters["buffer_misses"] for r in rounds)
        read = sum(r.counters["bytes_read"] for r in rounds)
        hit_rate = hits / (hits + misses)
        return [
            note(hit_rate >= 0.99, f"buffer hit rate {hit_rate:.4f} (want >= 0.99)"),
            note(read == 0, f"{read} bytes read in the measured phase (want 0)"),
        ]


class ServeMutateWorkload(ServedWorkload):
    """A mutable daemon taking recrawl deltas while it answers lookups.

    A round is two seeded ``webdata.recrawl`` steps on the crawl.
    Connection 1 (the writer) sends the first step as ``remove_edges`` /
    ``add_edges`` batches, then one ``compact``, then the second step, so
    the WAL holds unabsorbed writes when the round ends.  Connection 2
    (the reader) issues ``neighbors`` lookups for as long as the writer
    runs, half of them on sources the writer has touched.

    Every round starts from a fresh daemon on the store as built (the
    restart is not timed): carried over, each round's churn made the graph
    less compressible and the next compaction 6 % slower, so a run's
    median depended on how many rounds it had.
    """

    name = "serve-mutate"
    mutable = True

    def prepare(self) -> None:
        super().prepare()
        self._rng = random.Random(self.seed)
        self._fresh = True
        self._rss: list = []
        self.write_batches: list = []

    def _restart(self) -> None:
        """A new daemon on the store as built: no WAL, no compacted pair."""
        self.stop_daemon()
        GraphWal.for_build(self.store_dir / "serve_f").path.unlink(missing_ok=True)
        shutil.rmtree(self.serving_dir, ignore_errors=True)
        self.start_daemon()

    def _writer_script(self, index: int, steps) -> list:
        script = []
        for position, step in enumerate(steps):
            for op, edges in (("remove_edges", step.removed), ("add_edges", step.added)):
                for start in range(0, len(edges), WRITE_BATCH):
                    batch = [list(edge) for edge in edges[start : start + WRITE_BATCH]]
                    script.append({"op": op, "edges": batch})
            if position == 0:
                self.serving_dir = self.workdir / f"compacted-{index}"
                script.append({"op": "compact", "workdir": str(self.serving_dir)})
        for number, request in enumerate(script):
            request["id"] = f"w{number}"
        return script

    def _row_history(self, script: list) -> dict:
        """source -> [(writes applied, row)], oldest first.

        A lookup sent after ``lo`` writes were acknowledged and answered
        when ``hi`` had been sent must equal the source's row at some
        count in ``lo..hi``: the check is exact under concurrency.
        """
        graph = self.repository.graph
        rows: dict = {}
        history: dict = {}
        for applied, request in enumerate(script, start=1):
            if request["op"] == "compact":
                continue
            changed = set()
            for source, target in request["edges"]:
                row = rows.get(source)
                if row is None:
                    row = rows[source] = set(graph.successors_list(source))
                    history[source] = [(0, sorted(row))]
                if request["op"] == "add_edges":
                    row.add(target)
                else:
                    row.discard(target)
                changed.add(source)
            for source in changed:
                history[source].append((applied, sorted(rows[source])))
        return history

    def round(self, index: int) -> Round:
        if not self._fresh:
            self._restart()
        self._fresh = False
        steps = recrawl(
            self.repository,
            RecrawlConfig(
                steps=2, seed=self.seed * 1000 + index, link_churn_fraction=LINK_CHURN_FRACTION
            ),
        )
        script = self._writer_script(index, steps)
        history = self._row_history(script)
        delta = [edge for step in steps for edge in step.added + step.removed]
        self.touched_sources = {source for source, _target in delta}
        self.touched_targets = {target for _source, target in delta}
        graph = self.repository.graph
        touched = sorted(self.touched_sources)
        num_pages = graph.num_vertices
        rng = self._rng

        before = self.daemon_counters()
        store = dict.fromkeys(_REPLY_COUNTERS, 0)
        sent = acked = lookups_sent = 0
        compacting = False
        #: reader connection -> (writes acknowledged at send, sent during compaction)
        in_flight: dict = {}
        wal_length = before["wal_bytes"]
        wal_appended = 0
        op_seconds: list = []
        during_compact: list = []
        write_seconds: list = []
        compact_seconds = writer_done = 0.0
        failed = 0

        def next_request(client: int):
            nonlocal sent, lookups_sent, compacting
            if client == 0:
                if sent >= len(script):
                    return None
                request = script[sent]
                sent += 1
                compacting = request["op"] == "compact"
                return request
            if acked >= len(script):
                return None
            page = rng.choice(touched) if lookups_sent % 2 == 0 else rng.randrange(num_pages)
            lookups_sent += 1
            in_flight[client] = (acked, compacting)
            return {"id": f"r{lookups_sent}", "op": "neighbors", "page": page}

        def on_reply(client: int, request: dict, reply: dict, seconds: float, payload: bytes):
            nonlocal acked, compacting, wal_length, wal_appended
            nonlocal compact_seconds, writer_done, failed
            self.observe(request, reply, seconds, payload, store)
            if not reply.get("ok"):
                failed += 1
            if client == 0:
                acked += 1
                result = reply.get("result", {})
                if request["op"] == "compact":
                    compact_seconds = seconds
                    compacting = False
                    wal_length = result.get("mutation", {}).get("carried_bytes", 0)
                else:
                    write_seconds.append(seconds)
                    now = result.get("wal_bytes", wal_length)
                    wal_appended += now - wal_length
                    wal_length = now
                if acked == len(script):
                    writer_done = self.clock()
                return
            lo, slow = in_flight[client]
            (during_compact if slow else op_seconds).append(seconds)
            if not reply.get("ok"):
                return
            row = reply["result"]["neighbors"]
            versions = history.get(request["page"])
            if versions is None:
                valid = row == graph.successors_list(request["page"])
            else:
                hi = sent
                valid = any(
                    row == candidate
                    for position, (applied, candidate) in enumerate(versions)
                    if applied <= hi
                    and (position + 1 == len(versions) or versions[position + 1][0] > lo)
                )
            if not valid:
                failed += 1

        started = self.clock()
        drive(self.connections, next_request, on_reply)
        counters = self.round_counters(before, store)
        writes = [request for request in script if request["op"] != "compact"]
        counters["edges_written"] = sum(len(request["edges"]) for request in writes)
        self.write_batches = [(request["op"], request["edges"]) for request in writes]
        #: The graph the daemon must serve from here on, crash or not.
        self.current = steps[-1].repository
        self._rss.append(self.daemon.peak_rss_mb())
        script_wall = writer_done - started
        return Round(
            wall=script_wall,
            op_seconds=op_seconds,
            # Sustained ingest: edges made durable per second, the
            # compaction amortised.  Requests per second would count the
            # lookups that squeeze past the rebuild thread, a lottery.
            primary_count=counters["edges_written"],
            primary_wall=script_wall,
            side={"write": write_seconds},
            counters=counters,
            attempted=len(script) + lookups_sent,
            failed=failed,
            detail={
                "compact_seconds": compact_seconds,
                "during_compact": during_compact,
                "wal_appended": wal_appended,
            },
        )

    def verify(self) -> list[str]:
        """Crash the daemon, reopen cold from store + WAL, compare with truth.

        Every acknowledged write must survive the SIGKILL and no edge may
        appear that the recrawl did not add: each touched source's (and,
        on the transpose, target's) adjacency equals the final graph's.
        """
        self.stop_daemon(kill=True)
        context = ServeContext.open(
            self.current, self.serving_dir, buffer_bytes=WARM_BUFFER_BYTES
        )
        try:
            recovered = context.enable_mutation()
            problems = []
            if not recovered["wal_records"]:
                problems.append("the WAL held no unabsorbed writes to recover")
            graph = self.current.graph
            transpose = self.current.transpose()
            for label, pages, representation, truth in (
                ("forward", self.touched_sources, context.forward, graph),
                ("transpose", self.touched_targets, context.backward, transpose),
            ):
                wrong = sum(
                    1
                    for page in pages
                    if representation.out_neighbors(page) != truth.successors_list(page)
                )
                if wrong:
                    problems.append(
                        f"{label}: {wrong} of {len(pages)} touched rows differ after recovery"
                    )
            return problems
        finally:
            context.close()

    def replay_rows(self) -> dict:
        rows: dict = {}
        for _op, edges in self.write_batches:
            for source, target in edges:
                rows.setdefault(source, set()).add(target)
        return {source: sorted(targets) for source, targets in rows.items()}

    def replay_metrics(self, recorder) -> dict:
        metrics = super().replay_metrics(recorder)
        metrics["storage.wal.append_us"] = replay.wal_append_us(
            self.write_batches, self.workdir / "replay" / "graph.wal"
        )
        context = ServeContext.open(
            self.current, self.serving_dir, buffer_bytes=WARM_BUFFER_BYTES
        )
        try:
            context.enable_mutation()
            self.replay_lookups(recorder, context.forward, sorted(self.touched_sources))
        finally:
            context.close()
        return metrics

    def end_measurement(self) -> None:
        """A round's daemon is a fresh process, so its peak is the round's."""
        self.peak_rss_mb = median(self._rss)

    def side_ms(self, rounds: list) -> float:
        """Median acknowledgement latency of a write batch (fsync included)."""
        return median(seconds for r in rounds for seconds in r.side["write"]) * 1e3

    def layer_metrics(self, rounds: list) -> dict:
        metrics = self.daemon_layer_metrics(rounds)
        last = rounds[-1].counters
        edges = sum(r.counters["edges_written"] for r in rounds)
        wal_bytes = sum(r.detail.get("wal_appended", 0) for r in rounds)
        metrics.update(
            {
                "snode.delta.overlay_rows": last["overlay_rows"],
                "snode.delta.delta_edges": last["delta_edges"],
                "storage.wal.wal_bytes": last["wal_bytes"],
                "storage.wal.wal_records": last["wal_records"],
                "storage.wal.bytes_per_edge": wal_bytes / edges if edges else 0.0,
                "serve.daemon.lookup_p95_during_compact_ms": percentile(
                    [s for r in rounds for s in r.detail["during_compact"]], 0.95
                )
                * 1e3,
                "bench.write_ack_p95_ms": percentile(
                    [s for r in rounds for s in r.side["write"]], 0.95
                )
                * 1e3,
                "bench.compact_s": median(r.detail["compact_seconds"] for r in rounds),
            }
        )
        return metrics
