"""Child-process entry point of the served workloads.

Opens the store pair the benchmark built, starts the query daemon on an
ephemeral port, prints that port on stdout and serves until killed.  It
adds nothing to the daemon: the parent drives and measures it only
through the wire protocol.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.serve.daemon import GraphQueryDaemon, ServeContext  # noqa: E402
from repro.webdata.webbase import read_repository  # noqa: E402


async def _serve(daemon: GraphQueryDaemon) -> None:
    await daemon.start()
    print(daemon.bound_port, flush=True)
    await daemon.serve_forever()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", required=True, help="WebBase stream of the crawl")
    parser.add_argument("--workdir", required=True, help="holds serve_f/ and serve_b/")
    parser.add_argument("--buffer-bytes", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--mutable", action="store_true")
    arguments = parser.parse_args()
    context = ServeContext.open(
        read_repository(arguments.corpus),
        arguments.workdir,
        buffer_bytes=arguments.buffer_bytes,
    )
    if arguments.mutable:
        context.enable_mutation()
    daemon = GraphQueryDaemon(context, workers=arguments.workers)
    try:
        asyncio.run(_serve(daemon))
    except KeyboardInterrupt:
        pass
    finally:
        context.close()


if __name__ == "__main__":
    main()
