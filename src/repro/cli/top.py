"""``repro top`` — live terminal dashboard over a running daemon.

Polls the daemon's inline ``metrics`` op (never queued, so it works even
when the query pool is saturated) and renders the operator's view:
QPS and shed rate over the decay window, in-flight and queue depth,
per-op p50/p99 (windowed next to cumulative — a live spike shows in the
windowed column long before it moves the lifetime percentile), the
request lifecycle phase breakdown, buffer-pool pressure and the
slowest recent requests with their request ids.

``--once`` prints a single snapshot and exits (scripts, CI smoke);
``--prometheus`` prints the Prometheus text exposition instead.

In the refresh loop a lost connection (the daemon restarted, e.g.
around a store swap) is ridden out: the dashboard reconnects under the
shared :class:`~repro.serve.retry.RetryPolicy` instead of exiting, and
only gives up (exit 2) when the daemon stays away for the whole retry
schedule.  The *initial* connect stays a single attempt — pointing top
at nothing should fail fast, and scripts rely on that.
"""

from __future__ import annotations

import argparse
import time


def _ms(value: float) -> str:
    return f"{value * 1000.0:8.2f}"


def _rate(value: float) -> str:
    return f"{value:7.1f}/s"


def render_top(snapshot: dict) -> str:
    """Human-readable dashboard text for one ``metrics`` snapshot."""
    from repro.experiments.harness import format_table

    gauges = snapshot.get("gauges", {})
    outcomes = snapshot.get("outcomes", {})

    def outcome(name: str, key: str):
        return outcomes.get(name, {}).get(key, 0)

    lines = [
        f"repro top — uptime {snapshot.get('uptime_seconds', 0.0):.0f}s, "
        f"window {snapshot.get('windows', 0)} x "
        f"{snapshot.get('window_seconds', 0.0):.0f}s",
        f"qps {_rate(outcome('ok', 'per_second'))} ok"
        f"  {_rate(outcome('backpressure', 'per_second'))} shed"
        f"  {_rate(outcome('bad_request', 'per_second') + outcome('server_error', 'per_second'))} err"
        f"  {_rate(outcome('degraded', 'per_second'))} degraded",
        f"inflight {gauges.get('inflight', 0)}"
        f"  queue {gauges.get('queue_depth', 0)}/{gauges.get('queue_limit', 0)}"
        f"  workers {gauges.get('workers', 0)}"
        f"  connections live {len(snapshot.get('connections', {}))}"
        f" total {gauges.get('connections_total', 0)}"
        f"  inline_replies {gauges.get('inline_replies', 0)}",
    ]
    pool = [
        f"{direction[len('buffer_'):-len('_used_bytes')]} "
        f"{gauges[direction] // 1024}K/"
        f"{gauges[direction.replace('used', 'capacity')] // 1024}K "
        f"(+{gauges[direction.replace('used', 'pinned')] // 1024}K pinned)"
        for direction in sorted(gauges)
        if direction.startswith("buffer_") and direction.endswith("_used_bytes")
    ]
    if pool:
        lines.append("buffer pool: " + "  ".join(pool))
    if "wal_bytes" in gauges:
        # Mutable serving: WAL growth, pending delta, compaction progress.
        lines.append(
            f"mutation: wal {gauges.get('wal_bytes', 0)}B"
            f"  delta edges {gauges.get('delta_edges', 0)}"
            f" over {gauges.get('overlay_rows', 0)} rows"
            f"  compactions {gauges.get('compactions', 0)}"
            f" (last gen {gauges.get('last_compaction_generation', 0)})"
        )
    storage = snapshot.get("storage", {})
    if storage:
        # I/O-resilience counters: transparent retries absorbed by the
        # storage layer, injected faults seen, quarantined-region reads.
        lines.append(
            "storage: "
            + "  ".join(
                f"{name} {int(value)}" for name, value in sorted(storage.items())
            )
        )

    ops = snapshot.get("ops", {})
    op_rows = []
    phase_rows = []
    for name in sorted(ops):
        data = ops[name]
        windowed = data.get("windowed", {})
        cumulative = data.get("cumulative", {})
        row = (
            name.removeprefix("phase:"),
            cumulative.get("count", 0),
            _ms(windowed.get("p50", 0.0)),
            _ms(windowed.get("p99", 0.0)),
            _ms(cumulative.get("p50", 0.0)),
            _ms(cumulative.get("p99", 0.0)),
        )
        (phase_rows if name.startswith("phase:") else op_rows).append(row)
    headers = ["op", "count", "win p50ms", "win p99ms", "cum p50ms", "cum p99ms"]
    if op_rows:
        lines.append("")
        lines.append(format_table(headers, op_rows))
    if phase_rows:
        lines.append("")
        lines.append(format_table(["phase"] + headers[1:], phase_rows))

    # Per-op slowest-bucket exemplars: the concrete trace id behind the
    # worst live latency bucket — feed it to `repro trace <id>`.
    exemplar_rows = []
    for name in sorted(ops):
        if name.startswith("phase:"):
            continue
        exemplars = ops[name].get("exemplars") or {}
        if not exemplars:
            continue
        bucket = max(exemplars, key=lambda key: int(key))
        entry = exemplars[bucket]
        exemplar_rows.append(
            f"  {name}: trace={entry.get('trace')} "
            f"({entry.get('value', 0.0) * 1000.0:.2f} ms)"
        )
    if exemplar_rows:
        lines.append("")
        lines.append("slowest-bucket exemplars (repro trace <id>):")
        lines.extend(exemplar_rows)

    slow = snapshot.get("slow_queries", {})
    if slow:
        lines.append("")
        lines.append(
            f"slow queries (>= {slow.get('threshold_ms', 0.0):.0f} ms): "
            f"{slow.get('slow', 0)} of {slow.get('observed', 0)}"
        )
        for entry in slow.get("top", [])[:5]:
            trace = entry.get("trace")
            lines.append(
                f"  rid={entry.get('rid')} "
                + (f"trace={trace} " if trace else "")
                + f"op={entry.get('op')} "
                f"outcome={entry.get('outcome')} "
                f"server={entry.get('server_us', 0) / 1000.0:.2f} ms"
            )
    access = snapshot.get("access_log", {})
    if access:
        lines.append(
            f"access log: {access.get('logged', 0)} logged of "
            f"{access.get('offered', 0)} offered "
            f"(1 in {access.get('sample_every', 1)})"
        )
    return "\n".join(lines)


def _cmd_top(arguments: argparse.Namespace) -> int:
    import contextlib
    import sys

    from repro.errors import ServeError
    from repro.serve.loadgen import ServeClient
    from repro.serve.retry import RetryPolicy

    try:
        client = ServeClient(arguments.host, arguments.port)
    except OSError as exc:
        # No daemon there: say so and fail, instead of rendering an
        # empty dashboard a script would happily treat as healthy.
        print(
            f"repro top: cannot connect to daemon at "
            f"{arguments.host}:{arguments.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    # Reconnect policy for the refresh loop: patient enough to ride out
    # a daemon restart (~20 jittered attempts capped at 2 s each), but
    # it does give up eventually.
    policy = RetryPolicy(base_s=0.2, cap_s=2.0, max_attempts=20)
    try:
        if arguments.prometheus:
            print(client.request_ok("metrics", format="text")["text"], end="")
            return 0
        while True:
            try:
                snapshot = client.request_ok("metrics")
            except (ServeError, OSError) as exc:
                if arguments.once:
                    raise
                with contextlib.suppress(Exception):
                    client.close()
                print(
                    f"repro top: lost daemon at "
                    f"{arguments.host}:{arguments.port} ({exc}); "
                    f"reconnecting...",
                    file=sys.stderr,
                    flush=True,
                )
                try:
                    client = ServeClient.connect(
                        arguments.host, arguments.port, policy=policy
                    )
                except ServeError as giveup:
                    print(f"repro top: {giveup}", file=sys.stderr)
                    return 2
                continue
            text = render_top(snapshot)
            if arguments.once:
                print(text)
                return 0
            # ANSI clear-screen + home keeps the dashboard in place.
            print(f"\x1b[2J\x1b[H{text}", flush=True)
            try:
                time.sleep(arguments.interval)
            except KeyboardInterrupt:
                return 0
    finally:
        with contextlib.suppress(Exception):
            client.close()


def register(commands) -> None:
    """Attach the ``top`` subparser."""
    top = commands.add_parser(
        "top", help="live dashboard polling a running daemon's metrics op"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7411)
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh interval in seconds (default 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (no screen clearing)",
    )
    top.add_argument(
        "--prometheus", action="store_true",
        help="print the Prometheus text exposition once and exit",
    )
    top.set_defaults(handler=_cmd_top)
