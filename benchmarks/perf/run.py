"""The repo's benchmark: four workloads, one command.

Driver form (one workload, one JSON object as the last line of stdout)::

    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1

By hand (all four workloads unless ``--workload`` names one)::

    python3 benchmarks/perf/run.py --seed S [--traced] [--repeat N] [--smoke]

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` spends half of ``--seconds`` untraced and half
under the span recorder and reports the per-layer metrics, the tracing
overhead among them.  Metric names, units and regression bounds are read
from ``BENCHMARK.json``; README.md in this directory is the glossary.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # The benchmark measures the program in this checkout, never an
    # installed copy: without the sources there is nothing to measure.
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from harness import FULL, SMOKE  # noqa: E402
from inprocess import BuildWorkload, NavigateColdWorkload  # noqa: E402
from served import ServeMutateWorkload, ServeWarmWorkload  # noqa: E402
from spans import Recorder  # noqa: E402
from stats import median, percentile, quartile_spread  # noqa: E402

WORKLOADS = {
    workload.name: workload
    for workload in (BuildWorkload, NavigateColdWorkload, ServeWarmWorkload, ServeMutateWorkload)
}
OUT = HERE / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

# Span name -> per-layer metric holding its self time.
_SPAN_SECONDS = {
    "snode.reference.plan_references": "snode.reference.plan_references_s",
    "snode.reference.minimum_arborescence": "snode.reference.minimum_arborescence_s",
    "snode.reference.encode_rows": "snode.reference.encode_rows_s",
    "snode.reference.decode_rows": "snode.reference.decode_rows_s",
    "snode.encode.encode_intranode": "snode.encode.encode_intranode_s",
    "snode.encode.encode_superedge": "snode.encode.encode_superedge_s",
    "snode.encode.decode_intranode": "snode.encode.decode_intranode_s",
    "snode.encode.positive_rows_from_payload": "snode.encode.positive_rows_from_payload_s",
    "snode.store.out_neighbors": "snode.store.out_neighbors_self_s",
    "snode.store.out_neighbors_many": "snode.store.out_neighbors_many_self_s",
    "snode.store.intranode_rows": "snode.store.intranode_rows_self_s",
    "snode.store.superedge_rows": "snode.store.superedge_rows_self_s",
    "storage.bufferpool.get": "storage.bufferpool.get_s",
    "storage.bufferpool.put": "storage.bufferpool.put_s",
    "storage.device.read_at": "storage.device.read_at_s",
    "snode.delta.merge": "snode.delta.merge_s",
}
_DECODERS = ("snode.encode.decode_intranode", "snode.encode.positive_rows_from_payload")


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def stolen_jiffies() -> tuple[int, int]:
    """(all, stolen) CPU time of the machine so far, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return sum(fields), fields[7]


def measure(workload, seconds: float, first_index: int) -> list:
    """Whole rounds until ``seconds`` are used (to within half a round)."""
    rounds = []
    started = time.perf_counter()
    while True:
        all_before, stolen_before = stolen_jiffies()
        one = workload.round(first_index + len(rounds))
        all_after, stolen_after = stolen_jiffies()
        one.steal_share = (stolen_after - stolen_before) / max(1, all_after - all_before)
        rounds.append(one)
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return rounds


def span_metrics(recorder: Recorder) -> dict:
    """Per-layer metrics read straight off the recorder's aggregates."""
    metrics = {metric: recorder.self_seconds(span) for span, metric in _SPAN_SECONDS.items()}
    metrics["baselines.base.adapter_self_s"] = recorder.self_seconds(
        "baselines.base.out_neighbors"
    ) + recorder.self_seconds("baselines.base.out_neighbors_many")
    metrics["bench.root_self_s"] = sum(
        totals[2] for name, totals in recorder.totals.items() if name.startswith("bench.")
    )
    metrics["snode.reference.rows_encoded"] = recorder.work.get("snode.reference.encode_rows", 0)
    metrics["snode.reference.rows_decoded"] = recorder.work.get("snode.reference.decode_rows", 0)
    metrics["snode.encode.graphs_decoded"] = sum(recorder.calls(name) for name in _DECODERS)
    decoded_bytes = sum(recorder.work.get(name, 0) for name in _DECODERS)
    metrics["snode.encode.payload_bytes_decoded"] = decoded_bytes
    metrics["util.bitio.bits_decoded"] = decoded_bytes * 8
    metrics["snode.delta.merge_calls"] = recorder.calls("snode.delta.merge")
    return metrics


class Outcome:
    """One run of one workload: verdict, counts, metric values."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        #: The separation self-check: about the benchmark's sizes, not
        #: the program, so it is printed and never fails a run.
        self.notes: list = []
        self.counters: dict = {}
        self.samples: dict = {}
        self.rounds = 0
        #: How the machine behaved meanwhile (speed samples, stolen time).
        self.machine = ""

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def tally(self, rounds: list) -> None:
        self.attempted += sum(r.attempted for r in rounds)
        self.failed += sum(r.failed for r in rounds)
        self.rounds += len(rounds)


def end_to_end(workload, rounds: list, setup_seconds: list) -> tuple[dict, dict]:
    """The end-to-end metric values and the sample count behind each."""
    ops = [seconds for r in rounds for seconds in r.op_seconds]
    metrics = {
        "setup_s": median(setup_seconds),
        "peak_rss_mb": workload.peak_rss_mb,
        "bits_per_edge": workload.bits_per_edge,
        "round_s": median(r.wall for r in rounds),
        "ops_per_s": median(r.primary_count / r.primary_wall for r in rounds),
        "op_p50_ms": median(ops) * 1e3,
        "side_ms": workload.side_ms(rounds),
    }
    side = sum(len(values) for r in rounds for values in r.side.values())
    samples = {
        "setup_s": len(setup_seconds),
        "round_s": len(rounds),
        "ops_per_s": len(rounds),
        "op_p50_ms": len(ops),
        "side_ms": side,
    }
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> Outcome:
    """Set up, measure, check and tear down one workload."""
    sizes = SMOKE if smoke else FULL
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    workload = WORKLOADS[name](sizes, seed, workdir)
    outcome = Outcome()
    setup_seconds = []
    repeats = 1 if traced or smoke else SETUP_REPEATS
    try:
        for attempt in range(repeats):
            if attempt:
                workload.teardown()
            workdir.mkdir(exist_ok=True)
            started = workload.clock()
            workload.setup()
            setup_seconds.append(workload.clock() - started)
        workload.prepare()
        if workload.warm:
            outcome.tally([workload.round(-1)])
        if not traced:
            rounds = measure(workload, seconds, 0)
            outcome.tally(rounds)
            workload.end_measurement()
            outcome.metrics, outcome.samples = end_to_end(workload, rounds, setup_seconds)
            outcome.problems = workload.verify()
        else:
            plain = measure(workload, seconds / 2.0, 0)
            recorder = Recorder(workload.clock)
            workload.recorder = recorder
            with recorder.installed():
                rounds = measure(workload, seconds / 2.0, len(plain))
            workload.recorder = None
            outcome.tally(plain + rounds)
            workload.end_measurement()
            from_rounds = workload.layer_metrics(rounds)
            outcome.problems = workload.verify()
            from_replay = workload.replay_metrics(recorder)
            untraced = median(r.wall for r in plain)
            outcome.metrics = {
                **span_metrics(recorder),
                **from_rounds,
                **from_replay,
                "bench.trace_overhead_share": (median(r.wall for r in rounds) - untraced)
                / untraced,
                "bench.calibration_ms": median(workload.clock.samples) * 1e3,
                "bench.steal_share": sum(r.steal_share for r in plain + rounds)
                / len(plain + rounds),
                "bench.op_p95_ms": percentile(
                    [seconds for r in rounds for seconds in r.op_seconds], 0.95
                )
                * 1e3,
            }
            outcome.notes = workload.separation_notes(rounds)
            recorder.write_jsonl(OUT / f"trace-{name}.jsonl")
        outcome.counters = rounds[0].counters
        loops = sorted(workload.clock.samples)
        outcome.machine = (
            f"reference loop took {loops[0] * 1e3:.2f}-{loops[-1] * 1e3:.2f} ms "
            f"(median {median(loops) * 1e3:.2f}, reference "
            f"{workload.clock.REFERENCE_S * 1e3:.2f}); the hypervisor stole "
            f"{max(r.steal_share for r in rounds):.1%} of CPU time in the worst round"
        )
    finally:
        workload.teardown()
    return outcome


def shape(values: dict, declared: list, workload: str) -> dict:
    """``values`` in the manifest's order, with units.

    A per-layer metric of a layer the workload does not exercise reads 0;
    a value the manifest does not declare is a bug here, so it is loud.
    """
    names = {entry["name"] for entry in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise SystemExit(f"{workload}: values for undeclared metrics {unknown}")
    return {
        entry["name"]: {"value": values.get(entry["name"], 0), "unit": entry["unit"]}
        for entry in declared
    }


def report(name: str, outcome: Outcome, shaped: dict, out=sys.stdout) -> None:
    """The by-hand view: every metric by name with its unit."""
    verdict = "correct" if outcome.correct else "WRONG"
    print(
        f"== {name}: {verdict}, {outcome.rounds} rounds, "
        f"{outcome.attempted} operations attempted, {outcome.failed} failed",
        file=out,
    )
    print(f"   {outcome.machine}", file=out)
    for problem in outcome.problems:
        print(f"   problem: {problem}", file=out)
    for line in outcome.notes:
        print(f"   separation: {line}", file=out)
    for metric, entry in shaped.items():
        count = outcome.samples.get(metric)
        suffix = f"  (n={count})" if count else ""
        print(f"   {metric:<46} {entry['value']:>14.6g} {entry['unit']}{suffix}", file=out)
    counters = ", ".join(f"{key}={value}" for key, value in sorted(outcome.counters.items()))
    print(f"   work counters of one round: {counters}", file=out)


def repeat_report(manifest: dict, sets: list, out=sys.stdout) -> bool:
    """Median, quartiles and spread per metric over ``sets``; True when steady."""
    steady = True
    bounds = {entry["name"]: entry["bound"] for entry in manifest["end_to_end"]}
    for name in sets[0]:
        print(f"== {name}: {len(sets)} sets", file=out)
        for metric, bound in bounds.items():
            values = [one[name].metrics[metric] for one in sets]
            spread = quartile_spread(values)
            flag = ""
            if metric != "setup_s" and spread > bound:
                flag = f"  SPREAD EXCEEDS BOUND {bound:g}"
                steady = False
            print(
                f"   {metric:<16} median {median(values):>12.6g}  "
                f"q1 {percentile(values, 0.25):>12.6g}  q3 {percentile(values, 0.75):>12.6g}  "
                f"spread {spread:7.4f}{flag}",
                file=out,
            )
        if name in ("build", "navigate-cold"):
            counters = [one[name].counters for one in sets]
            if any(other != counters[0] for other in counters[1:]):
                print("   WORK COUNTERS DIFFER ACROSS SETS", file=out)
                steady = False
            else:
                print("   work counters identical across sets", file=out)
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="driver form: print one JSON object last"
    )
    parser.add_argument("--traced", action="store_true", help="also run the traced pass")
    parser.add_argument("--repeat", type=int, default=1, help="run N sets, report the spread")
    parser.add_argument("--smoke", action="store_true", help="small sizes, a few seconds in all")
    arguments = parser.parse_args()
    manifest = load_manifest()
    seconds = arguments.seconds or (1.5 if arguments.smoke else float(manifest["run_seconds"]))
    names = [arguments.workload] if arguments.workload else [w["name"] for w in manifest["workloads"]]

    if arguments.trace is not None:
        if not arguments.workload:
            parser.error("--trace needs --workload")
        traced = bool(arguments.trace)
        outcome = run_workload(names[0], arguments.seed, seconds, traced, arguments.smoke)
        declared = manifest["per_layer" if traced else "end_to_end"]
        shaped = shape(outcome.metrics, declared, names[0])
        report(names[0], outcome, shaped, out=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": outcome.correct,
                    "attempted": outcome.attempted,
                    "failed": outcome.failed,
                    "metrics": shaped,
                }
            )
        )
        return 0 if outcome.correct else 1

    correct = True
    sets = []
    for _ in range(arguments.repeat):
        one = {}
        for name in names:
            outcome = run_workload(name, arguments.seed, seconds, False, arguments.smoke)
            report(name, outcome, shape(outcome.metrics, manifest["end_to_end"], name))
            correct = correct and outcome.correct
            one[name] = outcome
            if arguments.traced:
                outcome = run_workload(name, arguments.seed, seconds, True, arguments.smoke)
                report(
                    f"{name} (traced)", outcome, shape(outcome.metrics, manifest["per_layer"], name)
                )
                correct = correct and outcome.correct
        sets.append(one)
    if arguments.repeat > 1:
        correct = repeat_report(manifest, sets) and correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
