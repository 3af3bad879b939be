"""CI gate: the smoke ``navigate-cold`` round does the committed work, reading less.

    python3 benchmarks/perf/run.py --smoke --workload navigate-cold --traced | tee navigate-traced.txt
    python3 benchmarks/history/smoke_navigate.py navigate-traced.txt            # exit 1 on any difference
    python3 benchmarks/history/smoke_navigate.py navigate-traced.txt --write    # re-record

``smoke-navigate.json`` holds the work of one round — its ``counters`` and
``graphs_decoded_per_round`` — recorded where a lookup under a pressed
buffer pool loads only the superedge graphs that link its pages.  It also
holds bounds recorded where every lookup loaded the paper's visit, every
graph of its supernode, and every load decoded every row of its graph:
``rows_decoded_per_round`` and ``paper_visit``'s ``loads`` and
``bytes_read``.  With no wall clock involved:

* the work counters the benchmark prints for one round are equal — same
  loads, misses, evictions, seeks and bytes, so the pool saw the same
  keys at the same charges;
* over the traced rounds (their number is the runner's speed, read off
  ``snode.store.loads``) ``storage.device.bytes_read`` and
  ``snode.encode.graphs_decoded`` are that many times the record's;
* a round's ``loads`` and ``bytes_read`` are strictly below the paper
  visit's;
* ``snode.reference.rows_decoded`` per round is strictly below the eager
  store's: a re-loaded graph parses nothing its first load parsed — a
  superedge graph is built from its learned header and decodes rows only
  when a linked source is asked for.

The traced rounds follow at least one untraced round, whose scans read
every graph and learn what its first load would, so each of them runs
with every pool charge already learned and decodes the same rows.  A
scan reads past the pool, so a round's loads, misses, evictions and
graphs decoded are its probes' and queries' only.  ``--write`` re-records the round's work and
keeps the bounds; it belongs to a change that means to move that work.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

RECORD = Path(__file__).resolve().parent / "smoke-navigate.json"


def printed(value: float) -> float:
    """``value`` as the report's ``%.6g`` column shows it."""
    return float(f"{value:.6g}")


def traced_report(report: str) -> tuple[dict, dict]:
    """(work counters of one round, per-layer totals over the traced rounds)."""
    start = report.find("== navigate-cold (traced)")
    if start < 0:
        sys.exit("no traced navigate-cold report in the input")
    report = report[start:]
    counters = re.search(r"work counters of one round: (.*)", report)
    totals = {
        name: float(value)
        for name, value in re.findall(r"^\s+(\S+)\s+([0-9.e+]+) (?:count|bytes)$", report, re.M)
    }
    if counters is None or "snode.store.loads" not in totals:
        sys.exit("the traced navigate-cold report is incomplete")
    pairs = (item.split("=") for item in counters.group(1).split(", "))
    return {name: int(value) for name, value in pairs}, totals


def main(arguments: list[str]) -> int:
    counters, totals = traced_report(Path(arguments[0]).read_text(encoding="utf-8"))
    rounds, rest = divmod(totals["snode.store.loads"], counters["loads"])
    if rounds < 1 or rest:
        sys.exit(f"traced loads {totals['snode.store.loads']:g} are no multiple of {counters['loads']}")
    found = {
        "counters": counters,
        "graphs_decoded_per_round": totals["snode.encode.graphs_decoded"] / rounds,
        "rows_decoded_per_round": totals["snode.reference.rows_decoded"] / rounds,
    }
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    if "--write" in arguments[1:]:
        for name in ("counters", "graphs_decoded_per_round"):
            record[name] = found[name]
        RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    problems = [
        f"{name}: {found[name]} != {record[name]}"
        for name in ("counters", "graphs_decoded_per_round")
        if found[name] != record[name]
    ]
    bytes_read = printed(rounds * record["counters"]["bytes_read"])
    if totals["storage.device.bytes_read"] != bytes_read:
        problems.append(
            f"storage.device.bytes_read {totals['storage.device.bytes_read']:g} over "
            f"{rounds:g} traced rounds, recorded {bytes_read:g}"
        )
    for name, bound in record["paper_visit"].items():
        if not counters[name] < bound:
            problems.append(f"{name} {counters[name]} is not below the paper visit's {bound}")
    if not found["rows_decoded_per_round"] < record["rows_decoded_per_round"]:
        problems.append(
            f"rows_decoded_per_round {found['rows_decoded_per_round']:g} is not below "
            f"the eager {record['rows_decoded_per_round']:g}"
        )
    for problem in problems:
        print(f"smoke navigate-cold differs from {RECORD.name}: {problem}")
    if not problems:
        print(
            f"smoke navigate-cold matches {RECORD.name} over {rounds:g} traced rounds: "
            f"{found['rows_decoded_per_round']:g} rows decoded a round "
            f"(eager: {record['rows_decoded_per_round']:g})"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
