"""Wire protocol of the graph query daemon.

Frames are **length-prefixed JSON**: a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON.  JSON keeps the protocol
inspectable (``printf '...' | nc`` debugging works) while the length
prefix gives exact message boundaries over TCP without sentinel parsing.

Requests carry ``{"id": <client-chosen>, "op": <name>, ...}``; replies
echo the id with either ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": {"type": ..., "message": ...}}``.  Error types
are part of the protocol: ``backpressure`` (admission control shed the
request — retry later), ``bad_request`` (malformed frame or unknown
op/query), ``server_error`` (the query raised), ``timeout`` (the
request's ``deadline_ms`` expired before it finished — the work was
shed or abandoned, never half-applied).

**Deadlines.**  A request may carry ``deadline_ms`` — a relative budget
in milliseconds, measured from the moment the daemon accepted the frame.
The daemon enforces it across queue-wait and execution: work whose
deadline has already passed is shed before it ever runs, and a request
still executing at its deadline gets a typed ``timeout`` reply at the
deadline while the abandoned execution drains in the background.
:func:`parse_deadline_ms` is *strict* (unlike trace context): a deadline
changes semantics, so a malformed one is a ``bad_request``.

**Request ids and server telemetry.**  Every request additionally gets a
*request id*: the client's ``rid`` field if it sent one (a string or
int), else one the daemon generates.  Replies echo it inside a
``server`` section along with the request's measured lifecycle —
outcome, per-phase timings in microseconds and the session counter
deltas it caused — so a client can compare its observed latency against
the server-side spend (queue-wait explains the difference under load)
and join its requests against the daemon's access and slow-query logs.

**Trace context.**  A request may carry a ``trace`` section —
``{"trace": {"id": <string>, "parent": <span id>}}`` — propagating the
client's trace id (and optionally the client-side span the request
belongs under) into the daemon's per-request span tree.
:func:`parse_trace_context` extracts it *leniently*: the section is
observability metadata, so a missing, malformed or future-versioned
context never fails a request — unknown fields are ignored (forward
compatibility) and a request without one simply gets a server-generated
trace id.

**Canonical JSON.** Query payloads contain sets, tuples and int-keyed
dicts; :func:`canonicalize` maps them onto plain JSON (sorted lists,
lists, string keys) deterministically, and :func:`payload_digest` hashes
that canonical form — two runs returning the same answer produce the
same digest regardless of thread interleaving, which is how the serve
benchmark proves concurrent results match the serial run byte-for-byte.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import struct
from typing import NamedTuple

from repro.errors import ServeError

#: Upper bound on one frame's JSON payload; a peer announcing more is
#: protocol-broken (or hostile) and the connection is dropped.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Protocol error types (the ``error.type`` field of failure replies).
ERROR_BACKPRESSURE = "backpressure"
ERROR_BAD_REQUEST = "bad_request"
ERROR_SERVER = "server_error"
ERROR_TIMEOUT = "timeout"

#: ``parent`` value meaning "no client-side parent span".
NO_PARENT_SPAN = -1


class TraceContext(NamedTuple):
    """Trace context propagated in a request's ``trace`` section."""

    #: The client's trace id, or None when the request carried none
    #: (the daemon then generates one).
    trace_id: str | None
    #: Client-side parent span id (:data:`NO_PARENT_SPAN` when absent).
    parent: int


def parse_trace_context(request) -> TraceContext:
    """Extract the trace context from a request, leniently.

    Observability metadata must never fail a request: a missing or
    malformed ``trace`` section yields an empty context, and fields this
    protocol version does not know are ignored — a newer client can add
    them without breaking an older daemon.
    """
    raw = request.get("trace") if isinstance(request, dict) else None
    if not isinstance(raw, dict):
        return TraceContext(None, NO_PARENT_SPAN)
    trace_id = raw.get("id")
    if isinstance(trace_id, (str, int)) and not isinstance(trace_id, bool):
        trace_id = str(trace_id)
    else:
        trace_id = None
    parent = raw.get("parent")
    if not isinstance(parent, int) or isinstance(parent, bool):
        parent = NO_PARENT_SPAN
    return TraceContext(trace_id, parent)


def parse_deadline_ms(request) -> float | None:
    """Extract and validate a request's ``deadline_ms`` field.

    Returns the budget in milliseconds, or None when the request carries
    no deadline.  Unlike trace context this is parsed *strictly* — a
    deadline changes what the daemon does, so a non-numeric or negative
    value raises :class:`ServeError` (mapped to ``bad_request``).
    """
    raw = request.get("deadline_ms") if isinstance(request, dict) else None
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ServeError(
            f"deadline_ms must be a number of milliseconds, got {raw!r}"
        )
    if raw < 0:
        raise ServeError(f"deadline_ms must be >= 0, got {raw!r}")
    return float(raw)


#: Exact types :func:`canonicalize` passes through unchanged.
_SCALARS = frozenset((int, float, str, bool, type(None)))
_STR = frozenset((str,))

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, made once.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class _CanonicalDict(dict):
    """Plain JSON all the way down, as :func:`canonicalize` and the reply
    constructors build it: canonicalizing it again returns it as it is."""

    __slots__ = ()


def canonicalize(value):
    """Map a query payload onto deterministic plain-JSON values.

    Sets become sorted lists, tuples become lists, non-string dict keys
    become strings (entries sorted by that string key).  The result
    round-trips through ``json`` unchanged, so digests computed on
    either side of the wire agree.  A container of scalars is copied or
    sorted in one C-level call, and a dict this function made comes back
    as it is: a payload canonicalized for its digest is not walked again.
    """
    if type(value) in _SCALARS or type(value) is _CanonicalDict:
        return value
    if isinstance(value, dict):
        if _STR.issuperset(map(type, value)):
            canonical = _CanonicalDict()
            for key in sorted(value):
                item = value[key]
                canonical[key] = item if type(item) in _SCALARS else canonicalize(item)
            return canonical
        items = [(str(key), canonicalize(item)) for key, item in value.items()]
        items.sort(key=lambda kv: kv[0])
        if len({key for key, _ in items}) != len(items):
            raise ServeError("payload dict keys collide after stringification")
        return _CanonicalDict(items)
    if isinstance(value, (set, frozenset, list, tuple)):
        items = value if _SCALARS.issuperset(map(type, value)) else map(canonicalize, value)
        return sorted(items) if isinstance(value, (set, frozenset)) else list(items)
    if isinstance(value, (int, float, str)) or value is None:
        return value
    raise ServeError(f"cannot canonicalize payload value of type {type(value).__name__}")


def canonical_json(value) -> str:
    """Deterministic JSON text of ``value`` (after :func:`canonicalize`)."""
    return _CANONICAL_JSON.encode(canonicalize(value))


def canonical_digest(canonical) -> str:
    """:func:`payload_digest` of a value :func:`canonicalize` already made
    (canonicalizing is idempotent, so the digests agree)."""
    text = _CANONICAL_JSON.encode(canonical)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_digest(value) -> str:
    """sha256 hex digest of the canonical JSON form of ``value``."""
    return canonical_digest(canonicalize(value))


def encode_frame(message) -> bytes:
    """One wire frame: length header + canonical JSON payload."""
    payload = canonical_json(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ServeError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes):
    """Parse one frame payload; raises :class:`ServeError` on bad JSON."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"malformed frame payload: {exc}") from exc


# -- asyncio side (daemon) --------------------------------------------------


async def read_frame_raw(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame's payload bytes; None on clean EOF before a header.

    Split from :func:`read_frame` so the daemon can time the decode
    phase separately from the socket read.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServeError("connection closed mid-header") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServeError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ServeError("connection closed mid-frame") from exc


async def read_frame(reader: asyncio.StreamReader):
    """Read one frame; returns None on clean EOF before a header."""
    payload = await read_frame_raw(reader)
    if payload is None:
        return None
    return decode_payload(payload)


async def write_frame(writer: asyncio.StreamWriter, message) -> None:
    """Write one frame and drain the transport."""
    writer.write(encode_frame(message))
    await writer.drain()


# -- blocking-socket side (clients) -----------------------------------------


def _recv_exactly(sock: socket.socket, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ServeError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, message) -> None:
    """Blocking-socket frame send (load generator / CLI client)."""
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket):
    """Blocking-socket frame receive; None on clean EOF before a header."""
    first = sock.recv(_HEADER.size)
    if not first:
        return None
    header = first + (
        _recv_exactly(sock, _HEADER.size - len(first))
        if len(first) < _HEADER.size
        else b""
    )
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServeError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    return decode_payload(_recv_exactly(sock, length))


def error_reply(
    request_id, error_type: str, message: str, server: dict | None = None
) -> dict:
    """A failure reply frame (``server`` echoes the request telemetry);
    canonical as built — the decoded ``id``, a plain-JSON ``server``."""
    reply = _CanonicalDict(
        id=request_id, ok=False, error={"type": error_type, "message": message}
    )
    if server is not None:
        reply["server"] = server
    return reply


def ok_reply(request_id, result, server: dict | None = None) -> dict:
    """A success reply frame (``server`` echoes the request telemetry);
    ``result`` is canonicalized here, the rest as in :func:`error_reply`."""
    reply = _CanonicalDict(id=request_id, ok=True, result=canonicalize(result))
    if server is not None:
        reply["server"] = server
    return reply
