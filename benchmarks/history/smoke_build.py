"""CI gate: the smoke ``build`` round does byte for byte the committed work.

    python3 benchmarks/perf/run.py --smoke --workload build --traced | tee build-traced.txt
    python3 benchmarks/history/smoke_build.py build-traced.txt            # exit 1 on any difference
    python3 benchmarks/history/smoke_build.py build-traced.txt --write    # re-record

What is compared with ``smoke-build.json`` (no wall clock among it): the
work counters the benchmark prints for one round, the rows the traced
rounds handed to ``encode_rows`` — a whole multiple of one round's, the
number of traced rounds being the runner's speed — and, from the same
smoke crawl's forward and transpose stores built here with the
benchmark's own ``build_store``, one round's rows and both manifest
digests.  A write-side change
that claims "same plans, same bytes" must leave the record as it is.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RECORD = HERE / "smoke-build.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

from harness import SMOKE, WARM_BUFFER_BYTES, build_store, corpus  # noqa: E402

from repro.snode import encode  # noqa: E402


def printed_work(report: str) -> tuple[dict, int]:
    """(work counters of one round, rows encoded over the traced rounds)."""
    counters = re.findall(r"work counters of one round: (.*)", report)
    rows = re.search(r"^\s*snode\.reference\.rows_encoded\s+(\d+) count", report, re.M)
    if not counters or rows is None:
        sys.exit("no traced build report in the input")
    pairs = (item.split("=") for item in counters[-1].split(", "))
    return {name: int(value) for name, value in pairs}, int(rows.group(1))


def built_here() -> dict:
    """The smoke crawl's forward and transpose stores built here: their
    manifest digests and the rows the pair handed to ``encode_rows``."""
    repository = corpus(SMOKE)
    found = {"digests": {}, "rows_encoded_per_round": 0}

    def counting(writer, rows, *arguments, **options):
        found["rows_encoded_per_round"] += len(rows)
        return encode_rows(writer, rows, *arguments, **options)

    encode_rows = encode.encode_rows
    with tempfile.TemporaryDirectory() as scratch, mock.patch.object(
        encode, "encode_rows", counting
    ):
        for name, transpose in (("forward", False), ("transpose", True)):
            build = build_store(repository, Path(scratch) / name, transpose, WARM_BUFFER_BYTES)
            found["digests"][name] = build.manifest["digest"]
            build.store.close()
    return found


def main(arguments: list[str]) -> int:
    counters, rows_encoded = printed_work(Path(arguments[0]).read_text(encoding="utf-8"))
    found = {"counters": counters, **built_here()}
    if "--write" in arguments[1:]:
        RECORD.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    problems = [
        f"{name}: {found[name]} != {record[name]}" for name in record if found[name] != record[name]
    ]
    per_round = record["rows_encoded_per_round"]
    if rows_encoded <= 0 or rows_encoded % per_round:
        problems.append(f"traced rows_encoded {rows_encoded} is no multiple of {per_round}")
    for problem in problems:
        print(f"smoke build differs from {RECORD.name}: {problem}")
    if not problems:
        print(f"smoke build matches {RECORD.name}: {found}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
