"""Flight recorder: the one place a finished request is kept.

The serving daemon leaves one record per request, read as a **trace
document** — a plain JSON-ready dict joining the request's lifecycle
(phases, outcome, attributed session counters) with its span tree
(:func:`repro.obs.tracing.span_records`).  A
:class:`FlightRecorder` keeps the records *after* the reply has been
sent, so a slow request can be explained hours later without re-running
it:

* a **recent ring** — the last N traces regardless of speed (context for
  "what was the daemon doing around then");
* a **slow top-K** — the K slowest traces at or above a threshold, a
  min-heap keyed on server time;
* an **error ring** — the last traces whose outcome was not ``ok``;

and writes two optional JSONL **trails** as it files them:

* the **access trail** — 1-in-``sample_every`` of the offered stream,
  deterministically (request 0, N, 2N, ...), so a replayed run samples
  the same requests;
* the **slow trail** — every request at or above the threshold, never
  sampled: the top-K bounds memory, not the trail on disk.

A trail line is the trace document without ``parent`` and ``spans`` —
the request's id, trace id, op, outcome, phases and counters, which
join back to the retained trace by ``rid`` / ``trace``.  Span trees stay
in memory and in debug bundles, so a trail grows by one short line per
request however deep a query's navigation went.

Recording is always on and near-zero cost for fast requests: one lock,
one deque append, one modulo, one threshold comparison.  Documents and
trail lines are built only when read (or written to a trail).

A recorder (plus surrounding state) dumps to a **debug bundle**: one
directory holding ``MANIFEST.json``, ``traces.jsonl`` (schema header
line + one trace per line), ``stats.json``, ``config.json`` and
``slow.jsonl`` — everything needed to reproduce a "why was this slow"
investigation offline.  :func:`write_debug_bundle` /
:func:`read_debug_bundle` are the two directions;
:func:`render_waterfall` and :func:`fold_traces` turn traces back into
something a human reads (the ``repro trace`` CLI).
"""

from __future__ import annotations

import heapq
import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import IO

from repro.obs.tracing import ROOT_PARENT

#: Schema name/version of a trace document and of ``traces.jsonl``.
TRACE_SCHEMA = "repro-trace"
TRACE_SCHEMA_VERSION = 1

#: Schema name/version of a debug-bundle manifest.
BUNDLE_SCHEMA = "repro-debug-bundle"
BUNDLE_SCHEMA_VERSION = 1

#: File names inside a debug bundle.
BUNDLE_MANIFEST = "MANIFEST.json"
BUNDLE_TRACES = "traces.jsonl"
BUNDLE_STATS = "stats.json"
BUNDLE_CONFIG = "config.json"
BUNDLE_SLOW = "slow.jsonl"

#: Request lifecycle phases in order (``repro.serve.telemetry`` imports
#: this one definition).
PHASES = ("decode", "queue_wait", "execute", "encode", "reply")

#: Defaults for the three retention classes and the two trails.
DEFAULT_RECENT = 256
DEFAULT_SLOW_TOP = 32
DEFAULT_ERRORS = 64
DEFAULT_SLOW_THRESHOLD_S = 0.100
#: Default access sampling: every request (operators tune this down).
DEFAULT_SAMPLE_EVERY = 1


def _open_trail(path) -> IO[str] | None:
    if path is None:
        return None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("a")


def _append(trail: IO[str], record) -> None:
    line = json.dumps(record.log_view(), sort_keys=True, separators=(",", ":"))
    trail.write(line + "\n")
    trail.flush()


class FlightRecorder:
    """Bounded retention of finished request records, plus their trails.

    ``record()`` takes one finished, never again changed
    :class:`~repro.serve.telemetry.RequestRecord` and files it in up to
    three places: the recent ring (always), the slow top-K heap (when
    its server time meets the threshold) and the error ring (when
    ``outcome`` is not ``ok``).  All three are bounded, so an
    arbitrarily long serving run holds flat memory.  With ``access_log``
    / ``slow_log`` paths it also appends the sampled / slow requests'
    trail lines; :meth:`close` flushes and closes both (idempotent).
    """

    def __init__(
        self,
        recent: int = DEFAULT_RECENT,
        slow_threshold_s: float = DEFAULT_SLOW_THRESHOLD_S,
        slow_top: int = DEFAULT_SLOW_TOP,
        errors: int = DEFAULT_ERRORS,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        access_log: Path | str | None = None,
        slow_log: Path | str | None = None,
    ) -> None:
        if recent < 1:
            raise ValueError(f"recent must be >= 1, got {recent}")
        if slow_top < 1:
            raise ValueError(f"slow_top must be >= 1, got {slow_top}")
        if errors < 1:
            raise ValueError(f"errors must be >= 1, got {errors}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        if slow_threshold_s < 0:
            raise ValueError(
                f"slow_threshold_s must be >= 0, got {slow_threshold_s}"
            )
        self.slow_threshold_s = float(slow_threshold_s)
        self.slow_top = slow_top
        self.sample_every = sample_every
        #: Traces ever offered to :meth:`record`.
        self.recorded = 0
        #: Traces sampled into the access trail (counted with no path too).
        self.logged = 0
        #: Traces that met the slow threshold (not all are retained).
        self.slow_seen = 0
        self._lock = threading.Lock()
        self._recent: deque = deque(maxlen=recent)
        #: Min-heap of (server_us, seq, record): the root is the *fastest*
        #: retained slow request, evicted first when a slower one arrives.
        self._slow: list[tuple] = []
        self._errors: deque = deque(maxlen=errors)
        self._access = _open_trail(access_log)
        self._slow_trail = _open_trail(slow_log)

    def record(self, record) -> None:
        """File one finished request (thread-safe, O(log K))."""
        server_us = round(record.server_s * 1e6)
        with self._lock:
            seq = self.recorded
            self.recorded += 1
            self._recent.append(record)
            if seq % self.sample_every == 0:
                self.logged += 1
                if self._access is not None:
                    _append(self._access, record)
            if server_us >= self.slow_threshold_s * 1e6:
                self.slow_seen += 1
                entry = (server_us, seq, record)
                if len(self._slow) < self.slow_top:
                    heapq.heappush(self._slow, entry)
                elif server_us > self._slow[0][0]:
                    heapq.heapreplace(self._slow, entry)
                if self._slow_trail is not None:
                    _append(self._slow_trail, record)
            if record.outcome != "ok":
                self._errors.append(record)

    def close(self) -> None:
        """Flush and close both trails (retained traces survive)."""
        with self._lock:
            for trail in (self._access, self._slow_trail):
                if trail is not None:
                    trail.close()
            self._access = self._slow_trail = None

    # -- views ---------------------------------------------------------------

    def _slowest_first(self) -> list:
        with self._lock:
            ordered = sorted(self._slow, key=lambda e: (-e[0], e[1]))
        return [record for _us, _seq, record in ordered]

    def _documents(self, ring) -> list[dict]:
        with self._lock:
            records = list(ring)
        return [record.trace_view() for record in records]

    def recent_traces(self) -> list[dict]:
        """The recent ring's trace documents, oldest first."""
        return self._documents(self._recent)

    def slow_traces(self) -> list[dict]:
        """Retained slow requests' trace documents, slowest first."""
        return [record.trace_view() for record in self._slowest_first()]

    def slow_entries(self) -> list[dict]:
        """Retained slow requests as trail lines, slowest first."""
        return [record.log_view() for record in self._slowest_first()]

    def error_traces(self) -> list[dict]:
        """The error ring's trace documents, oldest first."""
        return self._documents(self._errors)

    def traces(self) -> list[dict]:
        """Every retained request's trace document, each request once.

        Recent requests first (oldest to newest), then slow and error
        requests that have already aged out of the recent ring — so the
        dump is a superset of every retention class.  Identity is the
        key: two attempts under one trace id (a shed request and its
        retry) are two records and both stay.
        """
        with self._lock:
            recent, errors = list(self._recent), list(self._errors)
        ordered = recent + self._slowest_first() + errors
        unique = {id(record): record for record in ordered}
        return [record.trace_view() for record in unique.values()]

    def snapshot(self) -> dict:
        """Counts + retained trace ids (the ``debug`` op's summary)."""
        slow_ids = [str(r.trace) for r in self._slowest_first()]
        with self._lock:
            recent_ids = [str(r.trace) for r in self._recent]
            error_ids = [str(r.trace) for r in self._errors]
        return {
            "recorded": self.recorded,
            "slow_seen": self.slow_seen,
            "slow_threshold_ms": self.slow_threshold_s * 1e3,
            "retained": {
                "recent": recent_ids,
                "slow": slow_ids,
                "errors": error_ids,
            },
        }


# -- debug bundles -----------------------------------------------------------


def write_debug_bundle(
    directory,
    traces: list[dict],
    stats: dict | None = None,
    config: dict | None = None,
    slow_entries: list[dict] | None = None,
) -> Path:
    """Write a debug bundle directory and return its path.

    ``traces`` is typically :meth:`FlightRecorder.traces`; ``stats`` a
    daemon stats/metrics snapshot; ``config`` the serving configuration;
    ``slow_entries`` :meth:`FlightRecorder.slow_entries`.  Every file
    is optional except the manifest and ``traces.jsonl`` (which may hold
    zero traces — the header line still records that).
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    header = {
        "schema": TRACE_SCHEMA,
        "version": TRACE_SCHEMA_VERSION,
        "traces": len(traces),
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(trace, sort_keys=True) for trace in traces)
    (path / BUNDLE_TRACES).write_text("\n".join(lines) + "\n")

    files = [BUNDLE_TRACES]
    if stats is not None:
        (path / BUNDLE_STATS).write_text(
            json.dumps(stats, sort_keys=True, indent=2) + "\n"
        )
        files.append(BUNDLE_STATS)
    if config is not None:
        (path / BUNDLE_CONFIG).write_text(
            json.dumps(config, sort_keys=True, indent=2) + "\n"
        )
        files.append(BUNDLE_CONFIG)
    if slow_entries is not None:
        slow_text = "\n".join(
            json.dumps(entry, sort_keys=True) for entry in slow_entries
        )
        (path / BUNDLE_SLOW).write_text(slow_text + "\n" if slow_text else "")
        files.append(BUNDLE_SLOW)

    manifest = {
        "schema": BUNDLE_SCHEMA,
        "version": BUNDLE_SCHEMA_VERSION,
        "created_unix": time.time(),
        "traces": len(traces),
        "files": files,
    }
    (path / BUNDLE_MANIFEST).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return path


def read_debug_bundle(directory) -> dict:
    """Read a debug bundle back into memory.

    Returns ``{"manifest", "traces", "stats", "config", "slow"}`` with
    absent optional files as None/empty.  Raises :class:`ValueError` on
    a missing manifest or a schema mismatch — the errors a CLI user sees
    when pointing ``repro trace`` at the wrong directory.
    """
    path = Path(directory)
    manifest_path = path / BUNDLE_MANIFEST
    if not manifest_path.is_file():
        raise ValueError(f"not a debug bundle (no {BUNDLE_MANIFEST}): {path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(
            f"unexpected bundle schema {manifest.get('schema')!r} in {path}"
        )
    return {
        "manifest": manifest,
        "traces": load_traces(path / BUNDLE_TRACES),
        "stats": _read_json(path / BUNDLE_STATS),
        "config": _read_json(path / BUNDLE_CONFIG),
        "slow": _read_jsonl(path / BUNDLE_SLOW),
    }


def load_traces(path) -> list[dict]:
    """Read a ``traces.jsonl`` file (validating its schema header)."""
    path = Path(path)
    if not path.is_file():
        return []
    traces: list[dict] = []
    with open(path) as handle:
        first = True
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if first:
                first = False
                if record.get("schema") == TRACE_SCHEMA:
                    continue  # header line
            traces.append(record)
    return traces


def _read_json(path: Path):
    return json.loads(path.read_text()) if path.is_file() else None


def _read_jsonl(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


# -- rendering ---------------------------------------------------------------


def _span_children(spans: list[dict]) -> tuple[list[dict], dict[int, list[dict]]]:
    """Rebuild the span tree from stable ids: (roots, parent -> children)."""
    children: dict[int, list[dict]] = {}
    roots: list[dict] = []
    for span in spans:
        parent = span.get("parent", ROOT_PARENT)
        if parent == ROOT_PARENT:
            roots.append(span)
        else:
            children.setdefault(parent, []).append(span)
    return roots, children


def _bar(offset_us: float, duration_us: float, total_us: float, width: int) -> str:
    """One waterfall bar: position and length proportional to the total."""
    if total_us <= 0:
        return " " * width
    start = int(round(offset_us / total_us * width))
    start = min(max(start, 0), width - 1)
    length = int(round(duration_us / total_us * width))
    length = max(length, 1)
    length = min(length, width - start)
    return " " * start + "#" * length + " " * (width - start - length)


def _fmt_counters(counters: dict) -> str:
    items = sorted((k, v) for k, v in counters.items() if v)
    return " ".join(f"{k}={v}" for k, v in items)


def render_waterfall(trace: dict, width: int = 48) -> str:
    """Render one trace document as a phase + span waterfall.

    Lifecycle phases render as bars over the request's server time; the
    span tree (recorded during the execute phase) renders beneath,
    offset to the execute phase's start, each span carrying its
    attributed storage counters.  This is the "explain this request"
    view of ``repro trace``.
    """
    phases_us: dict = trace.get("phases_us", {})
    total_us = float(trace.get("server_us", sum(phases_us.values())))
    lines = [
        "trace={trace} rid={rid} op={op} outcome={outcome} "
        "client={client} server={ms:.3f}ms".format(
            trace=trace.get("trace", "-"),
            rid=trace.get("rid", "-"),
            op=trace.get("op", "-"),
            outcome=trace.get("outcome", "-"),
            client=trace.get("client", "-"),
            ms=total_us / 1e3,
        )
    ]
    if trace.get("error"):
        lines.append(f"error: {trace['error']}")
    counters = trace.get("counters", {})
    if counters:
        lines.append(f"counters: {_fmt_counters(counters)}")

    offset_us = 0.0
    execute_offset_us = 0.0
    ordered = [p for p in PHASES if p in phases_us]
    ordered += [p for p in sorted(phases_us) if p not in PHASES]
    for phase in ordered:
        duration_us = float(phases_us[phase])
        if phase == "execute":
            execute_offset_us = offset_us
        bar = _bar(offset_us, duration_us, total_us, width)
        lines.append(f"  {phase:<26s} {duration_us / 1e3:9.3f}ms |{bar}|")
        offset_us += duration_us

    spans: list[dict] = trace.get("spans", [])
    if spans:
        lines.append("  spans (within execute):")
        roots, children = _span_children(spans)

        def emit(span: dict, depth: int) -> None:
            start_us = float(span.get("start_s", 0.0)) * 1e6
            duration_us = float(span.get("duration_s", 0.0)) * 1e6
            bar = _bar(
                execute_offset_us + start_us, duration_us, total_us, width
            )
            name = "  " * depth + span.get("name", "?")
            extra = ""
            span_counters = span.get("counters", {})
            notes = span.get("notes", {})
            detail = _fmt_counters({**notes, **span_counters})
            if detail:
                extra = f"  [{detail}]"
            status = span.get("status", "ok")
            if status != "ok":
                extra += f"  !{status}"
            lines.append(
                f"  {name:<26s} {duration_us / 1e3:9.3f}ms |{bar}|{extra}"
            )
            for child in sorted(
                children.get(span.get("id"), []), key=lambda s: s.get("id", 0)
            ):
                emit(child, depth + 1)

        for root in sorted(roots, key=lambda s: s.get("id", 0)):
            emit(root, 1)
    return "\n".join(lines)


def fold_traces(traces: list[dict]) -> str:
    """Fold many traces into flamegraph input (``stack µs`` lines).

    Stacks root at the op name, branch into lifecycle phases, and nest
    the span tree under ``execute`` — so a folded view over a bundle
    answers "where does query time go, across every retained request".
    Weights are *self* time in integer microseconds, matching
    :meth:`repro.obs.tracing.Tracer.to_folded`.
    """
    folded: dict[str, int] = {}

    def add(path: str, us: float) -> None:
        us = int(us)
        if us <= 0:
            return
        folded[path] = folded.get(path, 0) + us

    for trace in traces:
        op = str(trace.get("op", "?"))
        phases_us: dict = trace.get("phases_us", {})
        spans: list[dict] = trace.get("spans", [])
        roots, children = _span_children(spans)

        def emit(span: dict, prefix: str) -> None:
            path = f"{prefix};{span.get('name', '?')}"
            kids = children.get(span.get("id"), [])
            self_us = float(span.get("duration_s", 0.0)) * 1e6 - sum(
                float(child.get("duration_s", 0.0)) * 1e6 for child in kids
            )
            add(path, self_us)
            for child in kids:
                emit(child, path)

        for phase, duration_us in phases_us.items():
            path = f"{op};{phase}"
            if phase == "execute" and roots:
                roots_us = sum(
                    float(root.get("duration_s", 0.0)) * 1e6 for root in roots
                )
                add(path, float(duration_us) - roots_us)
                for root in roots:
                    emit(root, path)
            else:
                add(path, float(duration_us))

    return "\n".join(f"{path} {us}" for path, us in sorted(folded.items()))
