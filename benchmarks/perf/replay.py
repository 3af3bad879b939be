"""Isolated replay: timings of callables too hot to wrap in a span.

``bitio``, ``huffman`` and ``deltacodec`` functions run millions of times
per build; a span around each call would measure the span.  They are
timed here instead by calling the same public functions directly, in a
tight loop, over a seeded stream (the bit and Huffman primitives) or over
the rows, batches and messages the workload actually handled (gap rows,
WAL appends, protocol frames).  Every figure is a best-of-three mean.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from stats import median

from repro.serve import protocol
from repro.storage.wal import GraphWal
from repro.util.bitio import BitReader, BitWriter
from repro.util.deltacodec import decode_gap_row, encode_gap_row
from repro.util.huffman import HuffmanCodec

_PRIMITIVE_CALLS = 20_000
_REPEATS = 3


def _best_ns(function, calls: int) -> float:
    """Best of three runs of ``function``, as nanoseconds per call."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best * 1e9 / calls if calls else 0.0


def primitive_metrics(seed: int) -> dict:
    """``util.bitio.*_ns`` and ``util.huffman.*_ns`` over a seeded stream."""
    rng = random.Random(seed)
    widths = [rng.randint(1, 24) for _ in range(_PRIMITIVE_CALLS)]
    values = [rng.getrandbits(width) for width in widths]
    unaries = [min(int(rng.expovariate(0.5)), 30) for _ in range(_PRIMITIVE_CALLS)]

    def write_bits():
        writer = BitWriter()
        for value, width in zip(values, widths):
            writer.write_bits(value, width)
        return writer

    fixed = write_bits().to_bytes()
    unary_writer = BitWriter()
    for value in unaries:
        unary_writer.write_unary(value)
    unary = unary_writer.to_bytes()

    def read_bits():
        reader = BitReader(fixed)
        for width in widths:
            reader.read_bits(width)

    def read_unary():
        reader = BitReader(unary)
        for _ in unaries:
            reader.read_unary()

    def peek_skip():
        reader = BitReader(fixed)
        for width in widths:
            reader.peek_bits(width)
            reader.skip(width)

    # A skewed 64-symbol alphabet, like the supernode graph's in-degrees.
    frequencies = {symbol: max(1, 4096 // (symbol + 1)) for symbol in range(64)}
    codec = HuffmanCodec.from_frequencies(frequencies)
    symbols = rng.choices(list(frequencies), weights=list(frequencies.values()), k=_PRIMITIVE_CALLS)

    def encode_symbols():
        writer = BitWriter()
        for symbol in symbols:
            codec.encode_symbol(writer, symbol)
        return writer

    coded = encode_symbols().to_bytes()

    def decode_symbols():
        reader = BitReader(coded)
        for _ in symbols:
            codec.decode_symbol(reader)

    return {
        "util.bitio.read_bits_ns": _best_ns(read_bits, _PRIMITIVE_CALLS),
        "util.bitio.read_unary_ns": _best_ns(read_unary, _PRIMITIVE_CALLS),
        "util.bitio.peek_skip_ns": _best_ns(peek_skip, _PRIMITIVE_CALLS),
        "util.bitio.write_bits_ns": _best_ns(write_bits, _PRIMITIVE_CALLS),
        "util.huffman.decode_symbol_ns": _best_ns(decode_symbols, _PRIMITIVE_CALLS),
        "util.huffman.encode_symbol_ns": _best_ns(encode_symbols, _PRIMITIVE_CALLS),
    }


def gap_row_metrics(rows: dict) -> dict:
    """``util.deltacodec.*_ns_per_edge`` over ``{source: sorted row}``."""
    items = [(source, row) for source, row in rows.items() if row]
    edges = sum(len(row) for _source, row in items)

    def encode():
        writer = BitWriter()
        for source, row in items:
            encode_gap_row(writer, source, row)
        return writer

    coded = encode().to_bytes()

    def decode():
        reader = BitReader(coded)
        for source, _row in items:
            decode_gap_row(reader, source)

    return {
        "util.deltacodec.encode_gap_row_ns_per_edge": _best_ns(encode, edges),
        "util.deltacodec.decode_gap_row_ns_per_edge": _best_ns(decode, edges),
    }


def protocol_metrics(captured: list) -> dict:
    """``serve.protocol.*`` over the captured (request, reply payload) pairs.

    ``encode_frame`` is timed on the decoded replies (the daemon's side of
    each exchange), ``decode_payload`` on the reply bytes as they arrived
    (the client's side).
    """
    if not captured:
        return {}
    payloads = [payload for _request, payload in captured]
    replies = [protocol.decode_payload(payload) for payload in payloads]

    def encode():
        for reply in replies:
            protocol.encode_frame(reply)

    def decode():
        for payload in payloads:
            protocol.decode_payload(payload)

    return {
        "serve.protocol.encode_frame_us": _best_ns(encode, len(replies)) / 1e3,
        "serve.protocol.decode_payload_us": _best_ns(decode, len(payloads)) / 1e3,
        "serve.protocol.reply_bytes": sum(map(len, payloads)) / len(payloads),
    }


def wal_append_us(batches: list, scratch: Path) -> float:
    """Median ``GraphWal.append`` of the run's own batches into a scratch log.

    Same code path as the daemon's writes, fsync per append included.
    """
    scratch.parent.mkdir(parents=True, exist_ok=True)
    wal = GraphWal(scratch)
    samples = []
    for op, edges in batches:
        start = time.perf_counter()
        wal.append("add" if op == "add_edges" else "remove", [tuple(edge) for edge in edges])
        samples.append(time.perf_counter() - start)
    scratch.unlink(missing_ok=True)
    return median(samples) * 1e6
