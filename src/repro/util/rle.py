"""Run-length-encoded bit vectors.

The paper uses RLE bit vectors as one of the "easy to decode bit level
compression techniques" applied inside reference encoding (the copy bit
vector of a reference-coded adjacency list) and inside negative superedge
graphs.  Runs are gamma-coded; the first stored run is always the run of
the leading bit value, whose value is stored explicitly.  A stored
vector carries a scheme flag: RLE (1) only when shorter than the plain
bits (0).  This module reads and prices them; the build writes them
inside the record writer, ``snode.reference.encode_rows``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import CodecError
from repro.util.bitio import BitReader, refill
from repro.util.varint import decode_gamma, gamma_cost


def runs_of(bits: Sequence[int]) -> list[int]:
    """Return the run lengths of ``bits`` (alternating, first run first)."""
    runs: list[int] = []
    current = None
    length = 0
    for bit in bits:
        value = 1 if bit else 0
        if value == current:
            length += 1
        else:
            if current is not None:
                runs.append(length)
            current = value
            length = 1
    if current is not None:
        runs.append(length)
    return runs


def decode_rle(reader: BitReader) -> list[int]:
    """Read a bit vector written as (length, first bit, runs).

    The run lengths are decoded on the reader's window held in local
    variables (see ``util.bitio``); a gamma code's field is the run
    length itself, the code being that of ``run - 1``.
    """
    total = decode_gamma(reader)
    if total == 0:
        return []
    value = reader.read_bit()
    data = reader._data
    byte, window, avail = reader._byte, reader._window, reader._avail
    bits: list[int] = []
    decoded = 0
    while decoded < total:
        rest = 2 * window.bit_length() - avail - 1
        while rest < 0:
            byte, window, avail = refill(data, byte, window, avail)
            rest = 2 * window.bit_length() - avail - 1
        avail = rest
        run = window >> avail
        window -= run << avail
        decoded += run
        if decoded > total:
            raise CodecError("RLE runs exceed declared bit-vector length")
        bits += [value] * run
        value ^= 1
    reader._byte, reader._window, reader._avail = byte, window, avail
    return bits


def rle_cost(bits: Sequence[int]) -> int:
    """Exact bit cost of ``bits`` as (length, first bit, runs)."""
    cost = gamma_cost(len(bits))
    if not bits:
        return cost
    cost += 1
    for run in runs_of(bits):
        cost += gamma_cost(run - 1)
    return cost


def plain_cost(bits: Sequence[int]) -> int:
    """Bit cost of storing ``bits`` verbatim with a gamma length prefix."""
    return gamma_cost(len(bits)) + len(bits)


def decode_bitvector(reader: BitReader) -> list[int]:
    """Read a bit vector stored with a 1-bit scheme flag: RLE (1) if
    that was cheaper, else plain (0)."""
    if reader.read_bit():
        return decode_rle(reader)
    total = decode_gamma(reader)
    field = reader.read_bits(total)
    return [field >> shift & 1 for shift in range(total - 1, -1, -1)]


def bitvector_cost(bits: Sequence[int]) -> int:
    """Bit cost of ``bits`` behind a scheme flag, in the cheaper scheme."""
    return 1 + min(rle_cost(bits), plain_cost(bits))
