"""Worker-pool plumbing for the parallel encode stage.

``workers == 1`` never touches ``multiprocessing`` — shards run inline,
so the serial path has zero parallelism overhead and works on platforms
where process pools are restricted.  For ``workers > 1`` shards fan out
over a process pool and results stream back **in task order**
(``imap``), letting the parent append payloads to the index files while
later shards are still encoding.

The worker count is explicit (``BuildOptions.workers`` / ``--workers``)
and defaults to the serial 1: at the sizes this repo builds, three
measurements in a row had the pool slower than serial.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.errors import BuildError
from repro.snode.model import SNodeModel
from repro.snode.pipeline import shard as shard_mod
from repro.snode.pipeline.shard import ShardResult, ShardTask, encode_shard

def resolve_workers(workers: int) -> int:
    """The worker count, validated."""
    if workers < 1:
        raise BuildError(f"worker count must be >= 1, got {workers}")
    return workers


def _pool_context():
    """Prefer fork (cheap, shares the frozen codec pages); spawn fallback."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context("spawn")


def run_shards(
    tasks: Sequence[ShardTask], workers: int, model: SNodeModel
) -> Iterator[ShardResult]:
    """Encode ``model``'s shards, yielding results in task order.

    The ordered stream is the determinism anchor: whatever the pool's
    completion order, the consumer sees shard 0's payloads first, so the
    index files come out byte-identical to a serial run.

    Workers get the model out-of-band (fork inheritance of the installed
    module global, or one initializer hand-off per spawn worker); tasks
    themselves are a few integers each.
    """
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield encode_shard(task, model)
        return
    context = _pool_context()
    processes = min(workers, len(tasks))
    if context.get_start_method() == "fork":
        shard_mod.install_model(model)
        try:
            with context.Pool(processes=processes) as pool:
                yield from pool.imap(encode_shard, tasks)
        finally:
            shard_mod.install_model(None)
    else:  # pragma: no cover - spawn-only platforms
        with context.Pool(
            processes=processes,
            initializer=shard_mod.install_model,
            initargs=(model,),
        ) as pool:
            yield from pool.imap(encode_shard, tasks)
