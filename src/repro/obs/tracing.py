"""Nested span tracing for build and query hot paths.

A :class:`Tracer` records a bounded tree of :class:`Span` objects.  Spans
nest (``with tracer.span("build.refine"): ...``), carry arbitrary
attributes, measure wall time, and carry the counters charged to the
innermost open span (:meth:`Tracer.charge`, which a
:class:`~repro.storage.metrics.MetricsRegistry` whose ``tracer`` is set
calls on every increment), a closing span's added to its parent's.

Instrumented library code does not thread tracer objects through every
call.  Instead it uses the module-level helpers:

* :func:`activated` — context manager installing a tracer as *current*;
* :func:`span` — open a span on the current tracer (no-op when none);
* :func:`note` — attach a span-local event count to the innermost open
  span (how the buffer pool's load events become span-attributed).

The span tree is bounded (default 10 000 nodes).  Once full, new spans
are no longer *stored* but are still *aggregated* into the per-name
summary, so ``summary()`` stays exact for arbitrarily long runs while
memory stays flat.

Spans carry **stable ids**: every span is numbered when it is *opened*
(``span_id``, with ``parent_id`` linking to the enclosing span), so an
exported tree survives reordering, filtering and concatenation of its
JSONL lines — the ids are properties of the spans, not of the export
walk.  The id sequence also covers spans dropped by the tree bound, so
ids reveal gaps where spans were not stored.

The *current tracer* is tracked per thread / async task (a
``contextvars.ContextVar``): activating a tracer on one daemon worker
thread is invisible to every other thread, which is what makes
request-scoped tracing sound — two concurrent requests each see only
their own tracer.  Code that never activates a tracer pays one context
variable read per hook call and allocates nothing.

Exporters: :meth:`Tracer.to_jsonl` emits a schema-version header line
followed by one JSON object per span (depth-first, with ``id``/
``parent`` links) and :meth:`Tracer.render` produces the indented text
tree shown by ``repro build --trace``.
"""

from __future__ import annotations

import contextvars
import json
import time
from contextlib import contextmanager
from typing import Iterator

#: Default bound on stored span-tree nodes.
DEFAULT_MAX_SPANS = 10_000

#: Version of the span JSONL export schema.  Version 2 added the header
#: line and stable span ids (ids assigned at span open, not at export).
SPAN_SCHEMA_VERSION = 2

#: ``parent`` value of root spans in the JSONL export.
ROOT_PARENT = -1


class Span:
    """One timed, attributed node of the span tree."""

    __slots__ = (
        "name",
        "attrs",
        "start_s",
        "duration_s",
        "status",
        "children",
        "counters",
        "notes",
        "span_id",
        "parent_id",
    )

    def __init__(
        self,
        name: str,
        attrs: dict,
        start_s: float,
        span_id: int = 0,
        parent_id: int = ROOT_PARENT,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = start_s
        self.duration_s = 0.0
        self.status = "ok"
        self.children: list[Span] = []
        #: Stable id assigned when the span was opened (export order and
        #: tree walks never renumber it).
        self.span_id = span_id
        #: The enclosing span's ``span_id`` (:data:`ROOT_PARENT` for roots).
        self.parent_id = parent_id
        #: Counters charged while it was open, its children's included.
        self.counters: dict[str, int] = {}
        #: Span-local event counts attached via :func:`note`.
        self.notes: dict[str, int] = {}

    def note(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to this span's local event count ``name``."""
        self.notes[name] = self.notes.get(name, 0) + amount

    def charge(self, counts: dict[str, int]) -> None:
        """Add every nonzero ``{name: amount}`` to this span's counters."""
        counters = self.counters
        for name, amount in counts.items():
            if amount:
                counters[name] = counters.get(name, 0) + amount

    def to_dict(self) -> dict:
        """JSON-serializable view of this span (children excluded)."""
        out: dict = {
            "name": self.name,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
            "status": self.status,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.counters:
            out["counters"] = self.counters
        if self.notes:
            out["notes"] = self.notes
        return out


def span_records(roots: list[Span]) -> list[dict]:
    """The trees under ``roots`` as JSON-ready dicts, depth-first, each
    with its stable ``id`` and ``parent`` (:data:`ROOT_PARENT` for roots),
    so a consumer can rebuild the tree from the records in any order."""
    records = []
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        record = {"id": node.span_id, "parent": node.parent_id}
        record.update(node.to_dict())
        records.append(record)
        stack.extend(reversed(node.children))
    return records


class Tracer:
    """Bounded span-tree recorder with per-name aggregate summaries."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans <= 0:
            raise ValueError(f"max_spans must be > 0, got {max_spans}")
        self.max_spans = max_spans
        self.roots: list[Span] = []
        self.dropped = 0
        self._stack: list[Span] = []
        self._stored = 0
        self._next_span_id = 0
        self._origin = time.perf_counter()
        # Per-name aggregates, exact even after the tree bound is hit:
        # name -> [count, total_s, max_s, error_count].
        self._summary: dict[str, list[float]] = {}

    # -- recording ---------------------------------------------------------

    def restart(self) -> None:
        """Time the spans opened from now on from this moment.

        For a tracer made ahead of the work it traces, or handed from
        one execution of that work to the next: each execution's spans
        start near zero, spans already recorded keep their times.
        """
        self._origin = time.perf_counter()

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested span; exception-safe (status records the error)."""
        started = time.perf_counter()
        span_id = self._next_span_id
        self._next_span_id += 1
        parent_id = self._stack[-1].span_id if self._stack else ROOT_PARENT
        node = Span(name, attrs, started - self._origin, span_id, parent_id)
        stored = self._stored < self.max_spans
        if stored:
            self._stored += 1
            if self._stack:
                self._stack[-1].children.append(node)
            else:
                self.roots.append(node)
        else:
            self.dropped += 1
        self._stack.append(node)
        try:
            yield node
        except BaseException as exc:
            node.status = f"error:{type(exc).__name__}"
            raise
        finally:
            self._stack.pop()
            node.duration_s = time.perf_counter() - started
            if self._stack and node.counters:
                self._stack[-1].charge(node.counters)  # the child's are the parent's
            entry = self._summary.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += node.duration_s
            entry[2] = max(entry[2], node.duration_s)
            if node.status != "ok":
                entry[3] += 1

    def charge(self, counts: dict[str, int]) -> None:
        """Add the nonzero ``{name: amount}`` to the innermost open span."""
        if self._stack:
            self._stack[-1].charge(counts)

    def note(self, name: str, amount: int = 1) -> None:
        """Attach an event count to the innermost open span (if any)."""
        if self._stack:
            self._stack[-1].note(name, amount)

    def absorb_summary(self, summary: dict, prefix: str = "") -> None:
        """Merge another tracer's :meth:`summary` into this tracer.

        The bridge between encode workers and the parent trace: a worker
        process records spans on its own :class:`Tracer`, ships the
        per-name aggregates back in its result, and the parent absorbs
        them here — so ``repro build --trace`` and bench-report span
        sections account for work done in child processes instead of
        silently dropping it.  ``prefix`` namespaces the absorbed span
        names (e.g. ``worker.``); totals and counts add, maxima combine,
        and the merged names participate in :meth:`summary` exactly like
        locally recorded spans (they do not appear in the stored tree).
        """
        for name, stats in summary.items():
            entry = self._summary.setdefault(f"{prefix}{name}", [0, 0.0, 0.0, 0])
            entry[0] += int(stats.get("count", 0))
            entry[1] += float(stats.get("total_s", 0.0))
            entry[2] = max(entry[2], float(stats.get("max_s", 0.0)))
            entry[3] += int(stats.get("errors", 0))

    # -- views -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-span-name aggregates: count, total/max seconds, errors.

        Counts every span ever opened, including those dropped from the
        bounded tree.
        """
        return {
            name: {
                "count": int(entry[0]),
                "total_s": entry[1],
                "max_s": entry[2],
                "errors": int(entry[3]),
            }
            for name, entry in sorted(self._summary.items())
        }

    def to_jsonl(self) -> str:
        """Schema header line + one JSON object per stored span.

        The first line is ``{"schema": "repro-spans", "version": ...}``
        with the stored/dropped counts; every following line is one span
        with its stable ``id``/``parent`` links, depth-first.  A reader
        reconstructs the tree from the ids alone — line order carries no
        information beyond the header coming first.
        """
        header = {
            "schema": "repro-spans",
            "version": SPAN_SCHEMA_VERSION,
            "spans": self._stored,
            "dropped": self.dropped,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for record in span_records(self.roots):
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines)

    def write_jsonl(self, path) -> None:
        """Write :meth:`to_jsonl` (plus trailing newline) to ``path``."""
        text = self.to_jsonl()
        with open(path, "w") as handle:
            if text:
                handle.write(text + "\n")

    def to_folded(self) -> str:
        """Folded-stacks export: ``root;child;leaf <self-time-µs>`` lines.

        The standard flamegraph input format (Brendan Gregg's
        ``flamegraph.pl``, speedscope, inferno): one line per distinct
        span stack, weighted by *self* time — span duration minus the
        time spent in its stored children — in integer microseconds.
        Stacks recurring in the tree are aggregated into one line.
        """
        folded: dict[str, float] = {}

        def emit(node: Span, prefix: str) -> None:
            path = f"{prefix};{node.name}" if prefix else node.name
            self_s = node.duration_s - sum(
                child.duration_s for child in node.children
            )
            folded[path] = folded.get(path, 0.0) + max(self_s, 0.0)
            for child in node.children:
                emit(child, path)

        for root in self.roots:
            emit(root, "")
        return "\n".join(
            f"{path} {int(seconds * 1e6)}" for path, seconds in folded.items()
        )

    def write_folded(self, path) -> None:
        """Write :meth:`to_folded` (plus trailing newline) to ``path``."""
        text = self.to_folded()
        with open(path, "w") as handle:
            if text:
                handle.write(text + "\n")

    def render(self, max_depth: int | None = None) -> str:
        """Indented text tree (the ``repro build --trace`` output)."""
        lines: list[str] = []

        def emit(node: Span, depth: int) -> None:
            if max_depth is not None and depth > max_depth:
                return
            attrs = "".join(f" {k}={v}" for k, v in node.attrs.items())
            extra = ""
            if node.notes:
                extra = " [" + " ".join(
                    f"{k}={v}" for k, v in sorted(node.notes.items())
                ) + "]"
            status = "" if node.status == "ok" else f" !{node.status}"
            lines.append(
                f"{'  ' * depth}{node.name:<28s} "
                f"{node.duration_s * 1000.0:9.2f} ms{attrs}{extra}{status}"
            )
            for child in node.children:
                emit(child, depth + 1)

        for root in self.roots:
            emit(root, 0)
        if self.dropped:
            lines.append(f"... {self.dropped} spans dropped (tree bound)")
        return "\n".join(lines)

    def summary_dict(self) -> dict:
        """Serializable bundle for bench reports: summary + drop count."""
        return {"spans": self.summary(), "dropped": self.dropped}


# -- module-level current tracer -------------------------------------------
#
# The active-tracer stack is a ContextVar, so it is confined to the
# current thread (and async task): a request-scoped tracer activated on
# one daemon worker thread can never capture another thread's spans or
# notes.  The default is the empty tuple, so the no-tracer fast path is
# one contextvar read.

_ACTIVE: contextvars.ContextVar[tuple[Tracer, ...]] = contextvars.ContextVar(
    "repro_active_tracers", default=()
)


def current_tracer() -> Tracer | None:
    """The innermost tracer activated in this thread/task, or None."""
    stack = _ACTIVE.get()
    return stack[-1] if stack else None


@contextmanager
def activated(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the current tracer for the enclosed block.

    Activation is scoped to the current thread / async task: other
    threads keep (or lack) their own active tracers independently.
    """
    token = _ACTIVE.set(_ACTIVE.get() + (tracer,))
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


class _NullSpan:
    """Shared no-op context manager returned when no tracer is active."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open a span on the current tracer; cheap no-op when none is active."""
    stack = _ACTIVE.get()
    if not stack:
        return _NULL_SPAN
    return stack[-1].span(name, **attrs)


def note(name: str, amount: int = 1) -> None:
    """Attach an event count to the current tracer's open span, if any."""
    stack = _ACTIVE.get()
    if stack:
        stack[-1].note(name, amount)


def absorb_summary(summary: dict, prefix: str = "") -> None:
    """Merge a child span summary into the current tracer (no-op when none)."""
    stack = _ACTIVE.get()
    if stack:
        stack[-1].absorb_summary(summary, prefix)
