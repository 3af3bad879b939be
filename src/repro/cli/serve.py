"""``repro serve`` and ``repro loadgen``."""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
import tempfile
from pathlib import Path


def _cmd_serve(arguments: argparse.Namespace) -> int:
    import signal

    from repro.experiments.harness import dataset, sweep_sizes
    from repro.obs.flightrecorder import FlightRecorder
    from repro.serve.daemon import SERVE_NAMES, GraphQueryDaemon, ServeContext
    from repro.serve.telemetry import ServeTelemetry
    from repro.storage import faults

    size = arguments.size or sweep_sizes()[3]
    if not arguments.quiet:
        print(f"[serve] synthesizing {size}-page repository...", file=sys.stderr)
    repository = dataset(size)
    own_tmp = (
        tempfile.TemporaryDirectory() if arguments.workdir is None else None
    )
    base = Path(arguments.workdir or own_tmp.name)
    try:
        if not arguments.quiet:
            print("[serve] building S-Node stores (forward + transpose)...",
                  file=sys.stderr)
        context = ServeContext.build(
            repository,
            base,
            buffer_bytes=arguments.buffer_kb * 1024,
            on_corruption=arguments.on_corruption,
        )
        if arguments.corrupt_pages:
            # Chaos fixture: flip bytes inside committed payload regions,
            # then reopen the stores cold so every read re-verifies CRCs.
            context.close()
            corrupted = 0
            for name in SERVE_NAMES:
                corrupted += faults.corrupt_snode_regions(
                    base / name,
                    limit=arguments.corrupt_pages,
                    seed=arguments.fault_seed,
                )
            if not arguments.quiet:
                print(
                    f"[serve] corrupted {corrupted} stored regions "
                    f"(on_corruption={arguments.on_corruption})",
                    file=sys.stderr,
                )
            context = ServeContext.open(
                repository,
                base,
                buffer_bytes=arguments.buffer_kb * 1024,
                on_corruption=arguments.on_corruption,
            )
        if arguments.mutable:
            # Mutable serving: open/replay the WAL sidecar and accept
            # add_edges/remove_edges/compact ops.
            opened = context.enable_mutation()
            if not arguments.quiet:
                print(
                    f"[serve] mutation enabled: replayed "
                    f"{opened['wal_records']} WAL records "
                    f"({opened['wal_bytes']} bytes, "
                    f"{opened['repaired_bytes']} torn bytes repaired)",
                    file=sys.stderr,
                )
        fault_plan = None
        if arguments.fault_eio_rate or arguments.fault_slow_rate:
            fault_plan = faults.FaultPlan(
                seed=arguments.fault_seed,
                eio_rate=arguments.fault_eio_rate,
                slow_read_rate=arguments.fault_slow_rate,
                slow_read_seconds=arguments.fault_slow_ms / 1000.0,
            )
        recorder = FlightRecorder(
            recent=arguments.flight_recent,
            slow_threshold_s=arguments.slow_threshold_ms / 1000.0,
            slow_top=arguments.slow_top,
            sample_every=arguments.access_sample,
            access_log=arguments.access_log,
            slow_log=arguments.slow_log,
        )
        try:
            daemon = GraphQueryDaemon(
                context,
                host=arguments.host,
                port=arguments.port,
                workers=arguments.workers,
                queue_limit=arguments.queue_limit,
                telemetry=ServeTelemetry(
                    window_seconds=arguments.window_seconds,
                    windows=arguments.windows,
                    recorder=recorder,
                ),
            )

            async def serve() -> None:
                await daemon.start()
                stop = asyncio.Event()
                loop = asyncio.get_running_loop()
                # SIGINT and SIGTERM (`kill`, Ctrl-C, service managers)
                # take the same graceful path: stop accepting, drain
                # in-flight work, then write the shutdown debug bundle.
                for signum in (signal.SIGINT, signal.SIGTERM):
                    with contextlib.suppress(
                        NotImplementedError, ValueError, RuntimeError
                    ):
                        loop.add_signal_handler(signum, stop.set)

                def _swap_done(task: asyncio.Task) -> None:
                    try:
                        outcome = task.result()
                    except Exception as exc:  # noqa: BLE001 — report, keep serving
                        print(f"[serve] store swap failed: {exc}",
                              file=sys.stderr, flush=True)
                    else:
                        print(
                            f"[serve] swapped stores to "
                            f"{outcome['workdir']} (generation "
                            f"{outcome['generation']}, drained "
                            f"{outcome['drained']} in-flight)",
                            file=sys.stderr, flush=True,
                        )

                def _on_hup() -> None:
                    task = loop.create_task(
                        daemon.swap_stores(arguments.swap_dir)
                    )
                    task.add_done_callback(_swap_done)

                if arguments.swap_dir and hasattr(signal, "SIGHUP"):
                    with contextlib.suppress(
                        NotImplementedError, ValueError, RuntimeError
                    ):
                        loop.add_signal_handler(signal.SIGHUP, _on_hup)
                print(
                    f"serving {repository.num_pages} pages on "
                    f"{arguments.host}:{daemon.bound_port} "
                    f"(workers={daemon.workers}, "
                    f"queue_limit={daemon.queue_limit})",
                    flush=True,
                )
                try:
                    await stop.wait()
                finally:
                    await daemon.stop()

            # Fallback for platforms without add_signal_handler: turn
            # SIGTERM into the KeyboardInterrupt that asyncio.run already
            # handles (add_signal_handler, where supported, overrides it).
            def _terminate(signum, frame):
                raise KeyboardInterrupt

            with contextlib.suppress(ValueError):  # non-main thread
                signal.signal(signal.SIGTERM, _terminate)

            plan_scope = (
                faults.activated(fault_plan)
                if fault_plan is not None
                else contextlib.nullcontext()
            )
            with plan_scope, contextlib.suppress(KeyboardInterrupt):
                asyncio.run(serve())
            if arguments.debug_bundle:
                path = daemon.dump_debug_bundle(arguments.debug_bundle)
                if not arguments.quiet:
                    print(f"[serve] debug bundle written to {path}",
                          file=sys.stderr)
        finally:
            recorder.close()
            context.close()
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
    return 0


def _cmd_loadgen(arguments: argparse.Namespace) -> int:
    from repro.experiments.harness import emit_report
    from repro.serve.loadgen import run_load

    # The chaos preset: deadlines on every third request, at the budget
    # the chaos sweep gates on.  Explicit flags (an explicit 0 too) win.
    deadline_ms, deadline_every = (250.0, 3) if arguments.chaos else (None, 0)
    if arguments.deadline_ms is not None:
        deadline_ms = arguments.deadline_ms
    if arguments.deadline_every is not None:
        deadline_every = arguments.deadline_every
    load = run_load(
        arguments.host,
        arguments.port,
        concurrency=arguments.concurrency,
        requests_per_client=arguments.requests,
        deadline_ms=deadline_ms,
        deadline_every=deadline_every,
        retry_seed=arguments.retry_seed,
        retry_budget=arguments.retry_budget,
    )
    summary = load.summary()
    client_hist = load.latency_histogram()
    print(
        f"requests ok {load.requests_ok} / "
        f"{load.concurrency * load.requests_per_client}, "
        f"degraded {load.requests_degraded}, "
        f"timeout {load.requests_timeout}, "
        f"failed {load.requests_failed}, "
        f"backpressure retries {load.shed_retries}"
    )
    if load.deadline_requests:
        print(
            f"deadlines: {load.deadline_requests} requests carried "
            f"{deadline_ms:g} ms, {load.requests_timeout} timed out, "
            f"honored: {load.deadline_honored()}"
        )
    if client_hist.count:
        print(
            f"throughput {load.throughput_qps:.1f} q/s, client latency p50 "
            f"{summary['client_latency']['latency_ms_p50']:.1f} ms, p99 "
            f"{summary['client_latency']['latency_ms_p99']:.1f} ms"
        )
        print(
            f"server latency p50 "
            f"{summary['server_latency']['latency_ms_p50']:.1f} ms, p99 "
            f"{summary['server_latency']['latency_ms_p99']:.1f} ms "
            f"(queue wait p99 "
            f"{summary['server_latency']['queue_wait_ms_p99']:.1f} ms)"
        )
    else:
        print("throughput 0.0 q/s (no request succeeded)")
    consistent = load.consistent()
    print(f"results consistent across clients: {consistent}")
    for client in load.clients:
        if client.error:
            print(f"client {client.client_index}: ERROR {client.error}")
    emit_report(
        arguments.json_dir,
        "loadgen",
        summary,
        params={
            "host": arguments.host,
            "port": arguments.port,
            "concurrency": arguments.concurrency,
            "requests_per_client": arguments.requests,
            "deadline_ms": deadline_ms,
            "deadline_every": deadline_every,
            "retry_seed": arguments.retry_seed,
        },
        histograms={
            "client_latency": client_hist.to_dict(),
            "server_latency": load.server_latency_histogram().to_dict(),
            "queue_wait": load.queue_wait_histogram().to_dict(),
        },
    )
    failed = (
        load.requests_failed > 0
        or not consistent
        or not load.deadline_honored()
        or any(client.error for client in load.clients)
    )
    return 1 if failed else 0


def register(commands) -> None:
    """Attach the ``serve`` and ``loadgen`` subparsers."""
    from repro.experiments.harness import add_report_arguments
    from repro.obs.flightrecorder import (
        DEFAULT_RECENT,
        DEFAULT_SAMPLE_EVERY,
        DEFAULT_SLOW_THRESHOLD_S,
        DEFAULT_SLOW_TOP,
    )
    from repro.obs.windowed import DEFAULT_WINDOW_SECONDS, DEFAULT_WINDOWS

    serve = commands.add_parser(
        "serve", help="run the graph query daemon over a synthesized store"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7411, help="0 picks a free port"
    )
    serve.add_argument("--size", type=int, default=None,
                       help="repository pages (default: the Figure 11 size)")
    serve.add_argument("--buffer-kb", type=int, default=512)
    serve.add_argument("--workers", type=int, default=8)
    serve.add_argument("--queue-limit", type=int, default=32)
    serve.add_argument("--workdir", default=None,
                       help="build directory (default: temporary)")
    serve.add_argument(
        "--window-seconds", type=float, default=DEFAULT_WINDOW_SECONDS,
        help="telemetry window width (seconds)",
    )
    serve.add_argument(
        "--windows", type=int, default=DEFAULT_WINDOWS,
        help="live windows retained (the decay horizon)",
    )
    serve.add_argument(
        "--access-log", default=None, metavar="FILE",
        help="append sampled request records as JSONL to FILE",
    )
    serve.add_argument(
        "--access-sample", type=int, default=DEFAULT_SAMPLE_EVERY,
        metavar="N", help="log every Nth request (default: every request)",
    )
    serve.add_argument(
        "--slow-log", default=None, metavar="FILE",
        help="append slow-query records as JSONL to FILE",
    )
    serve.add_argument(
        "--slow-threshold-ms", type=float,
        default=DEFAULT_SLOW_THRESHOLD_S * 1000.0,
        help="slow-query threshold in milliseconds (default 100)",
    )
    serve.add_argument(
        "--slow-top", type=int, default=DEFAULT_SLOW_TOP,
        help="slowest requests retained in memory (default 32)",
    )
    serve.add_argument(
        "--flight-recent", type=int, default=DEFAULT_RECENT, metavar="N",
        help="recent request traces retained by the flight recorder "
             "(slow/error traces are retained separately)",
    )
    serve.add_argument(
        "--debug-bundle", default=None, metavar="DIR",
        help="write a debug bundle (traces + stats + config + slow log) "
             "to DIR on shutdown",
    )
    serve.add_argument(
        "--swap-dir", default=None, metavar="DIR",
        help="on SIGHUP, hot-swap onto the serve_f/serve_b pair under DIR "
             "(validate, open, drain, switch — no dropped requests; with "
             "--mutable the WAL hand-off rides the same generation bump)",
    )
    serve.add_argument(
        "--mutable", action="store_true",
        help="serve mutably: replay/append the graph.wal sidecar and "
             "accept add_edges/remove_edges/compact ops",
    )
    serve.add_argument(
        "--on-corruption", choices=("raise", "degrade"), default="raise",
        help="corrupt-region policy of the serving stores (degrade = "
             "quarantine and answer without the region)",
    )
    serve.add_argument(
        "--corrupt-pages", type=int, default=0, metavar="N",
        help="chaos fixture: flip one byte in N stored regions per "
             "direction after the build, then reopen cold",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the injected-fault schedule (and --corrupt-pages)",
    )
    serve.add_argument(
        "--fault-eio-rate", type=float, default=0.0,
        help="probability of an injected transient EIO per read",
    )
    serve.add_argument(
        "--fault-slow-rate", type=float, default=0.0,
        help="probability of an injected slow read per read",
    )
    serve.add_argument(
        "--fault-slow-ms", type=float, default=5.0,
        help="stall of each injected slow read (milliseconds)",
    )
    serve.add_argument("--quiet", action="store_true")
    serve.set_defaults(handler=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen", help="drive a running daemon with the Figure 11 mix"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7411)
    loadgen.add_argument("--concurrency", type=int, default=8)
    loadgen.add_argument("--requests", type=int, default=12,
                         help="query requests per client")
    loadgen.add_argument(
        "--chaos", action="store_true",
        help="chaos preset: attach a 250 ms deadline to every third "
             "request (explicit --deadline-* flags override)",
    )
    loadgen.add_argument(
        "--deadline-ms", type=float, default=None,
        help="deadline budget attached to requests (default: none)",
    )
    loadgen.add_argument(
        "--deadline-every", type=int, default=None, metavar="K",
        help="attach the deadline to every Kth request (0 = all)",
    )
    loadgen.add_argument(
        "--retry-seed", type=int, default=0,
        help="seed of the backpressure retry jitter streams",
    )
    loadgen.add_argument(
        "--retry-budget", type=int, default=None, metavar="TOKENS",
        help="shared cap on total backpressure retries (default: none)",
    )
    add_report_arguments(loadgen)
    loadgen.set_defaults(handler=_cmd_loadgen)
