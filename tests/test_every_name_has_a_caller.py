"""Every public function, class and method under ``src/repro`` is loaded
by name in ``src/`` outside its own definition — an ``ast.Name`` or
``ast.Attribute`` load, so docstrings, comments, string literals, dict
keys, parameter names and re-exports do not count — or is named as a
word in ``examples/``, ``benchmarks/`` or ``README.md`` (the perf spans
name callables by string).  The allowlist holds the names a test or an
oracle uses to check some other behaviour, one reason each."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"[A-Za-z_]\w*")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ALLOWED = {
    "graph/communities.py::reachability_profile": "paper 1.2 global computation; ROADMAP 9(b)",
    "graph/digraph.py::Digraph.has_edge": "test setup (communities, delta overlay)",
    "obs/flightrecorder.py::FlightRecorder.recent_traces": "read by test_observer_price.py",
    "obs/flightrecorder.py::FlightRecorder.slow_traces": "the slow trail's reader in tests",
    "obs/flightrecorder.py::FlightRecorder.error_traces": "read by test_tracing_attribution.py",
    "obs/histogram.py::HistogramSet.from_dict": "checks HistogramSet.to_dict round-trips",
    "obs/tracing.py::current_tracer": "checks no tracer outlives a request",
    "partition/partition.py::Partition.element_of": "test setup",
    "partition/partition.py::Partition.trivial": "test setup",
    "partition/partition.py::Partition.from_assignment": "test setup in test_lossless.py",
    "serve/protocol.py::read_frame": "checks write_frame's framing",
    "serve/retry.py::RetryPolicy.retryable": "the clients' idempotency rule (safety)",
    "snode/model.py::decode_superedge": "checks build_model keeps every edge",
    "snode/numbering.py::Numbering.local_index": "used by the model oracle",
    "snode/storage.py::write_snode": "the crash-sweep driver",
    "storage/bufferpool.py::BufferPool.check_invariants": "checks the pool after loads",
    "storage/metrics.py::MetricsRegistry.distinct_keys": "checks which graphs a store's loads tallied",
    "util/huffman.py::HuffmanCodec.code_length": "checks from_frequencies' code lengths",
    "util/huffman.py::HuffmanCodec.lengths": "checks serialize_lengths round-trips",
    "util/rle.py::bitvector_cost": "the pricing oracle's RLE cost",
    "util/varint.py::decode_minimal_binary": "checks encode_minimal_binary",
    "util/varint.py::encode_minimal_binary": "the writer oracle's dictionary indexes",
    "webdata/corpus.py::Repository.from_parts": "test setup",
    "webdata/urls.py::url_prefix_depth": "generator tests",
    "webdata/urls.py::in_domain": "corpus tests",
}


def test_every_public_name_has_a_caller():
    package = ROOT / "src" / "repro"
    elsewhere = [*(ROOT / "examples").rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]
    outside = {w for p in [ROOT / "README.md", *elsewhere] for w in WORD.findall(p.read_text())}
    references, definitions = {}, []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.setdefault(name, []).append((path, node.lineno))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for child, owner in [(node, ""), *((c, node.name + ".") for c in members)]:
                if isinstance(child, DEFS) and not re.search(r"(^|\.)_", owner + child.name):
                    definitions.append((f"{path.relative_to(package)}::{owner}{child.name}", path, child))
    assert set(ALLOWED) <= {name for name, _path, _node in definitions}, "allowlisted name gone"
    uncalled = [
        name for name, path, node in definitions
        if name not in ALLOWED and node.name not in outside and all(
            where == path and node.lineno <= line <= node.end_lineno
            for where, line in references.get(node.name, ()))
    ]
    assert not uncalled, "no caller outside its own tests: " + ", ".join(uncalled)
