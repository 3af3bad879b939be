"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything this package raises with a single handler while still
being able to distinguish sub-categories.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class CodecError(ReproError):
    """A bit-level codec was asked to encode/decode malformed input."""


class BitStreamError(CodecError):
    """Attempt to read past the end of a bit stream, or stream corruption."""


class GraphError(ReproError):
    """Invalid graph construction or access (e.g. vertex id out of range)."""


class PartitionError(ReproError):
    """A partition invariant was violated (overlap, missing pages, ...)."""


class StorageError(ReproError):
    """On-disk layout is missing, corrupt, or inconsistent with its manifest."""


class CorruptionError(StorageError):
    """A checksum-verified region failed its CRC check.

    Distinguished from plain :class:`StorageError` so callers can choose a
    degradation policy for detected bit rot (quarantine the region, keep
    serving) while still treating structural problems as fatal.
    """


class BufferCapacityError(StorageError):
    """A buffer-pool resize asked for a budget below the pinned floor.

    Pinned entries (the supernode graph, B+tree meta pages) are resident
    for the lifetime of the store; a budget that cannot even cover them
    is an operator error, raised as a typed exception so sweeps can skip
    the infeasible point explicitly instead of silently evicting pins or
    driving the accounting negative.
    """


class NotResident(ReproError):
    """A memory-only read needed a graph that is not in the buffer pool.

    Raised before the read moved a counter or touched a file, so the
    caller can run the same read again where blocking is allowed (the
    query daemon: on a worker thread instead of the event loop).  Not a
    :class:`StorageError` — nothing is wrong with the store — and never
    a reply: it is a question answered "no", not a failure.
    """


class EmptyHistogramError(ReproError):
    """A percentile was requested of a histogram with no observations.

    An empty distribution has no percentiles; silently returning 0 made
    a daemon that served nothing look like one serving in zero time.
    Callers that want a placeholder for display catch this and render
    one explicitly (serialized histograms emit 0.0 with ``count: 0`` so
    the reader can tell).
    """


class QueryError(ReproError):
    """A complex query was malformed or referenced unknown pages/domains."""


class ServeError(ReproError):
    """The graph query daemon or its client hit a protocol-level problem."""


class DeadlineError(ServeError):
    """A request's ``deadline_ms`` expired before it finished executing.

    Typed so the daemon can map it to the wire-level ``timeout`` reply
    (and count it separately from real failures): a deadline miss is the
    *client's* latency contract expiring, not a server fault — the work
    was shed or abandoned, never half-done.
    """


class BackpressureError(ServeError):
    """Admission control shed a request: the daemon's queue is full.

    Typed for the same reason as :class:`DeadlineError`: it maps to the
    wire-level ``backpressure`` reply and its own counter.  Nothing
    failed — the client is told to retry later.
    """


class BuildError(ReproError):
    """The S-Node build pipeline could not complete."""


class ReportError(ReproError):
    """A bench report is missing, malformed, or fails schema validation."""
