"""``repro generate`` and ``repro build`` — stream synthesis and builds."""

from __future__ import annotations

import argparse


def _cmd_generate(arguments: argparse.Namespace) -> int:
    from repro.webdata.generator import GeneratorConfig, generate_web
    from repro.webdata.webbase import write_stream

    repository = generate_web(
        GeneratorConfig(num_pages=arguments.pages, seed=arguments.seed)
    )
    size = write_stream(repository, arguments.out)
    print(
        f"wrote {repository.num_pages} pages / {repository.num_links} links "
        f"({size} bytes) to {arguments.out}"
    )
    return 0


def _cmd_build(arguments: argparse.Namespace) -> int:
    from repro.experiments.harness import trace_session
    from repro.obs import tracing
    from repro.obs.progress import ProgressReporter
    from repro.snode.build import BuildOptions, build_snode
    from repro.webdata.webbase import read_repository

    progress = None if arguments.quiet else ProgressReporter(label="build")
    with trace_session(arguments, "build"):
        with tracing.span("build.stream", path=str(arguments.stream)):
            repository = read_repository(
                arguments.stream, limit=arguments.limit, progress=progress
            )
        options = BuildOptions(
            transpose=arguments.transpose, workers=arguments.workers
        )
        build = build_snode(repository, arguments.out, options, progress=progress)
    direction = "WGT (backlinks)" if arguments.transpose else "WG"
    print(
        f"built {direction}: {build.model.num_supernodes} supernodes, "
        f"{build.model.num_superedges} superedges, "
        f"{build.bits_per_edge:.2f} bits/edge -> {arguments.out}"
    )
    build.store.close()
    return 0


def register(commands) -> None:
    """Attach the ``generate`` and ``build`` subparsers."""
    from repro.experiments.harness import add_trace_arguments

    generate = commands.add_parser("generate", help="synthesize a crawl stream")
    generate.add_argument("--pages", type=int, default=10_000)
    generate.add_argument("--seed", type=int, default=2003)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_generate)

    build = commands.add_parser("build", help="build an S-Node representation")
    build.add_argument("--stream", required=True, help="WebBase stream file")
    build.add_argument("--out", required=True, help="output directory")
    build.add_argument("--limit", type=int, default=None, help="crawl prefix")
    build.add_argument("--transpose", action="store_true", help="build WGT")
    build.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="encode-stage worker processes (default: 1 = serial; output "
        "bytes are identical for any N)",
    )
    add_trace_arguments(build)
    build.set_defaults(handler=_cmd_build)
