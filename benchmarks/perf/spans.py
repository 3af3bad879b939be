"""The benchmark's own span recorder.

Nothing under ``src/`` knows about it: while a traced pass runs, the
recorder rebinds the public callables in :data:`LAYER_CALLABLES` to
timing wrappers — on their defining module or class *and* on every
``repro`` module that imported the name (``repro.snode.store`` holds its
own reference to ``decode_intranode``) — and puts the originals back when
the pass ends, so untraced passes run unmodified code.

A span is ``(id, name, start, end, parent, probe)``.  Parents come from a
per-thread stack, ``probe`` is whatever the benchmark set with
:meth:`Recorder.root` (one probe, query or scan).  A layer's *self time*
is its spans' duration minus the part their child spans cover; it is
accumulated as spans close, so it stays exact even when the span list is
capped.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: What a span additionally counts, from the call's arguments and result.
WORK_COUNTS = {
    "snode.reference.encode_rows": lambda args, result: len(args[1]),
    "snode.reference.decode_rows": lambda args, result: len(result),
    "snode.encode.decode_intranode": lambda args, result: len(args[0]),
    "snode.encode.positive_rows_from_payload": lambda args, result: len(args[0]),
}

#: (span name, module, class or None, attribute).  Span names are
#: ``<module>.<callable>``, the vocabulary of the per-layer metrics.
LAYER_CALLABLES = (
    ("snode.reference.plan_references", "repro.snode.reference", None, "plan_references"),
    ("snode.reference.minimum_arborescence", "repro.snode.reference", None, "minimum_arborescence"),
    ("snode.reference.encode_rows", "repro.snode.reference", None, "encode_rows"),
    ("snode.reference.decode_rows", "repro.snode.reference", None, "decode_rows"),
    ("snode.encode.encode_intranode", "repro.snode.encode", None, "encode_intranode"),
    ("snode.encode.encode_superedge", "repro.snode.encode", None, "encode_superedge"),
    ("snode.encode.decode_intranode", "repro.snode.encode", None, "decode_intranode"),
    (
        "snode.encode.positive_rows_from_payload",
        "repro.snode.encode",
        None,
        "positive_rows_from_payload",
    ),
    ("snode.store.out_neighbors", "repro.snode.store", "SNodeStore", "out_neighbors"),
    ("snode.store.out_neighbors_many", "repro.snode.store", "SNodeStore", "out_neighbors_many"),
    ("snode.store.intranode_rows", "repro.snode.store", "SNodeStore", "intranode_rows"),
    ("snode.store.superedge_rows", "repro.snode.store", "SNodeStore", "superedge_rows"),
    ("baselines.base.out_neighbors", "repro.baselines.base", "SNodeRepresentation", "out_neighbors"),
    (
        "baselines.base.out_neighbors_many",
        "repro.baselines.base",
        "SNodeRepresentation",
        "out_neighbors_many",
    ),
    ("storage.bufferpool.get", "repro.storage.bufferpool", "BufferPool", "get"),
    ("storage.bufferpool.put", "repro.storage.bufferpool", "BufferPool", "put"),
    ("storage.device.read_at", "repro.storage.device", "CountedFile", "read_at"),
    ("snode.delta.merge", "repro.snode.delta", "DeltaOverlay", "merge"),
    ("query.workload.run_query", "repro.query.workload", None, "run_query"),
)

#: Spans kept for ``trace-<workload>.jsonl``; later ones only aggregate.
MAX_SPANS = 300_000

NO_PARENT = -1


class Recorder:
    """In-memory span store plus per-name call / total / self aggregates."""

    def __init__(self, clock=time.perf_counter) -> None:
        #: The workload's clock, so span times add up to its timings.
        self.clock = clock
        self.spans: list[tuple] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: name -> rows or payload bytes handled (see WORK_COUNTS)
        self.work: dict[str, int] = {}
        self._local = threading.local()
        self._next_id = 0
        self._restore: list[tuple] = []
        self._epoch = clock()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.probe = None
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else NO_PARENT
        # [id, name, parent, child seconds, start]
        frame = [span_id, name, parent, 0.0, 0.0]
        stack.append(frame)
        frame[4] = self.clock()
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        stack = self._local.stack
        stack.pop()
        span_id, name, parent, child_seconds, start = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_seconds
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent, self._local.probe))
        else:
            self.dropped += 1

    def wrap(self, name: str, function):
        """A timing wrapper around ``function`` recording ``name`` spans."""

        count = WORK_COUNTS.get(name)

        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(frame)
            if count is not None:
                self.work[name] = self.work.get(name, 0) + count(args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    @contextmanager
    def root(self, name: str, probe):
        """A span opened by the benchmark around one operation."""
        self._stack()
        previous = self._local.probe
        self._local.probe = probe
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)
            self._local.probe = previous

    def record(self, name: str, start: float, end: float, probe) -> None:
        """A parentless span timed by the caller (a request on the wire)."""
        span_id = self._next_id
        self._next_id += 1
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += end - start
        totals[2] += end - start
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, NO_PARENT, probe))
        else:
            self.dropped += 1

    # -- rebinding ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind every layer callable for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        for name, module_name, class_name, attribute in LAYER_CALLABLES:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                setattr(owner, attribute, self.wrap(name, original))
                self._restore.append((owner, attribute, original))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(name, original)
            for other_name, other in list(sys.modules.items()):
                if other is None or not other_name.startswith("repro"):
                    continue
                if other.__dict__.get(attribute) is original:
                    setattr(other, attribute, wrapper)
                    self._restore.append((other, attribute, original))

    def _uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def self_snapshot(self) -> dict:
        """``{name: self seconds so far}``, for per-phase differences."""
        return {name: totals[2] for name, totals in self.totals.items()}

    def write_jsonl(self, path: Path) -> None:
        """Header line, then one span per line; times in microseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "format": "perf-spans",
                "version": 1,
                "spans": len(self.spans),
                "dropped": self.dropped,
                "fields": ["id", "name", "start_us", "end_us", "parent", "probe"],
            }
            handle.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent, probe in self.spans:
                row = [
                    span_id,
                    name,
                    round((start - self._epoch) * 1e6, 3),
                    round((end - self._epoch) * 1e6, 3),
                    parent,
                    probe,
                ]
                handle.write(json.dumps(row) + "\n")
