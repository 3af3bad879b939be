"""The method-per-bit codec kernels, kept as the test oracle.

These are the decoders ``util.varint``, ``util.rle``, ``snode.reference``
and ``snode.encode`` shipped before they were fused onto the reader's
window, moved here verbatim: they touch a reader only through
``read_bit`` / ``read_bits`` / ``read_unary``, and the payload decoders
build the bit-by-bit :class:`oracle_bitio.BitReader`, so nothing here
shares code with what it checks.  ``positive_rows_from_payload`` is the
dense form (a list per source page) the store used to cache; its
``4 * rows + 8 * edges`` is what the buffer charge must keep matching.
``linked_rows_from_payload`` is the sparse form ``snode.encode`` built
eagerly, whole payload at once, before a cached superedge graph held
only its header until a linked row was asked for.  ``decode_row`` reads
one row of a collection from its record's bit offset, recursing along
its reference chain — the per-row reader an intranode entry, and a
superedge entry through ``superedge_row``, must match.

Then the *encoders* as they were before the write side was one kernel
on a local accumulator: ``encode_gamma`` as a unary prefix plus a
field, ``encode_ascending`` choosing between gamma gaps and the bit
vector it builds over the list's whole span (as it did before the write
side was priced from a list's entries), ``encode_bitvector`` writing a
plain vector bit by bit, and ``encode_rows`` with its per-field
helpers, one writer method call per flag and one ``encode_gamma`` call
per gamma code.  They take any writer with ``write_bit`` /
``write_bits`` / ``write_unary``; the tests hand them the bit-by-bit
:class:`oracle_bitio.BitWriter`.  The plan is not theirs to check:
``encode_rows`` takes ``snode.reference.plan_references``'s.

Last, the serve protocol's ``canonicalize`` / ``canonical_json`` as they
were before the type-dispatched fast path.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from oracle_bitio import BitReader

from repro.errors import CodecError, ServeError
from repro.snode.reference import (
    DEFAULT_FULL_AFFINITY_LIMIT,
    DEFAULT_WINDOW,
    DICTIONARY_PARENT,
    EncodingPlan,
    plan_references,
)
from repro.util.rle import plain_cost, rle_cost, runs_of
from repro.util.varint import encode_minimal_binary, gamma_cost


def decode_gamma(reader: BitReader) -> int:
    """Read an Elias gamma code written by :func:`encode_gamma`."""
    width = reader.read_unary()
    rest = reader.read_bits(width) if width else 0
    return (1 << width) + rest - 1


def decode_minimal_binary(reader: BitReader, bound: int) -> int:
    """Read a value written with :func:`encode_minimal_binary`."""
    if bound < 1:
        raise CodecError(f"minimal binary bound must be >= 1, got {bound}")
    if bound == 1:
        return 0
    width = (bound - 1).bit_length()
    cutoff = (1 << width) - bound
    value = reader.read_bits(width - 1) if width > 1 else 0
    if value < cutoff:
        return value
    value = (value << 1) | reader.read_bit()
    return value - cutoff


def decode_rle(reader: BitReader) -> list[int]:
    """Read a bit vector written with :func:`encode_rle`."""
    total = decode_gamma(reader)
    if total == 0:
        return []
    value = reader.read_bit()
    bits: list[int] = []
    while len(bits) < total:
        run = decode_gamma(reader) + 1
        if len(bits) + run > total:
            raise CodecError("RLE runs exceed declared bit-vector length")
        bits.extend([value] * run)
        value ^= 1
    return bits


def decode_bitvector(reader: BitReader) -> list[int]:
    """Inverse of :func:`encode_bitvector`."""
    if reader.read_bit():
        return decode_rle(reader)
    total = decode_gamma(reader)
    return [reader.read_bit() for _ in range(total)]


def _decode_dictionary_body(
    reader: BitReader, dictionary: Sequence[int]
) -> list[int]:
    """Inverse of :func:`_encode_dictionary_body`; returns the full row."""
    if reader.read_bit():  # full copy
        copied = list(dictionary)
    else:
        count = decode_gamma(reader)
        copied = [
            dictionary[decode_minimal_binary(reader, len(dictionary))]
            for _ in range(count)
        ]
    extras = _decode_extras(reader)
    return sorted(set(copied) | set(extras))


def _decode_extras(reader: BitReader) -> list[int]:
    count = decode_gamma(reader)
    extras: list[int] = []
    previous = -1
    for _ in range(count):
        previous = previous + 1 + decode_gamma(reader)
        extras.append(previous)
    return extras


def decode_rows(
    reader: BitReader, dictionary: Sequence[int] | None = None
) -> list[list[int]]:
    """Decode a row collection written by :func:`encode_rows`.

    ``dictionary`` must match what the encoder was given (present for
    superedge graphs, absent for intranode graphs).
    """
    count = decode_gamma(reader)
    parsed = [_read_record(reader, y, count, dictionary) for y in range(count)]
    # Resolve reference chains iteratively (forward references allowed).
    resolved: list[list[int] | None] = [
        entry if isinstance(entry, list) else None for entry in parsed
    ]
    for y in range(count):
        if resolved[y] is not None:
            continue
        chain = [y]
        node = y
        while resolved[node] is None:
            parent = parsed[node][0]  # type: ignore[index]
            if parent in chain:
                raise CodecError("cyclic reference chain in encoded rows")
            chain.append(parent)
            node = parent
        for position in range(len(chain) - 2, -1, -1):
            current = chain[position]
            parent, copy_bits, extras = parsed[current]  # type: ignore[misc]
            base = resolved[parent]
            assert base is not None
            resolved[current] = _referenced_row(base, copy_bits, extras)
    return [row if row is not None else [] for row in resolved]


def _read_record(
    reader: BitReader, y: int, count: int, dictionary: Sequence[int] | None
) -> tuple[int, list[int] | None, list[int]] | list[int]:
    """Row ``y``'s record: the row, or (parent, copy bits, extras)."""
    if reader.read_bit():
        if dictionary and reader.read_bit():
            return _decode_dictionary_body(reader, dictionary)
        distance = decode_gamma(reader) + 1
        backward = reader.read_bit()
        parent = y - distance if backward else y + distance
        if not 0 <= parent < count:
            raise CodecError(f"row {y} references out-of-range row {parent}")
        copy_bits, extras = _decode_reference_body(reader)
        return parent, copy_bits, extras
    if reader.read_bit():  # dense mode
        bits = decode_bitvector(reader)
        return [i for i, bit in enumerate(bits) if bit]
    length = decode_gamma(reader)
    row: list[int] = []
    previous = -1
    for _ in range(length):
        previous = previous + 1 + decode_gamma(reader)
        row.append(previous)
    return row


def _referenced_row(
    base: list[int], copy_bits: list[int] | None, extras: list[int]
) -> list[int]:
    if copy_bits is None:  # full copy
        copied = list(base)
    else:
        copied = [value for value, bit in zip(base, copy_bits) if bit]
    return sorted(set(copied) | set(extras))


def decode_row(
    data: bytes,
    starts: Sequence[int],
    y: int,
    dictionary: Sequence[int] | None,
    seen: tuple[int, ...] = (),
) -> list[int]:
    """Row ``y`` of a collection whose records start at the bit offsets
    ``starts``: its record read alone, its parent's recursively."""
    if y in seen:
        raise CodecError("cyclic reference chain in encoded rows")
    record = _read_record(BitReader(data, starts[y]), y, len(starts), dictionary)
    if isinstance(record, list):
        return record
    parent, copy_bits, extras = record
    base = decode_row(data, starts, parent, dictionary, (*seen, y))
    return _referenced_row(base, copy_bits, extras)


def _decode_reference_body(
    reader: BitReader,
) -> tuple[list[int] | None, list[int]]:
    """Inverse of :func:`_encode_reference_body`; None = full copy."""
    full_copy = bool(reader.read_bit())
    copy_bits = None if full_copy else decode_bitvector(reader)
    extras_count = decode_gamma(reader)
    extras: list[int] = []
    previous = -1
    for _ in range(extras_count):
        previous = previous + 1 + decode_gamma(reader)
        extras.append(previous)
    return copy_bits, extras


def decode_intranode(data: bytes) -> list[list[int]]:
    """Inverse of :func:`encode_intranode`."""
    reader = BitReader(data)
    dictionary = _decode_locals(reader)
    return decode_rows(reader, dictionary=dictionary)


def intranode_records(data: bytes) -> tuple[list[int], int, list[int], list]:
    """(dictionary, bit offset of the row count, bit offset of every row's
    record, the records) of an intranode payload, read one record after
    the other; a record is a row or (parent, copy bits, extras)."""
    return _records(BitReader(data))


def superedge_records(data: bytes) -> tuple[list[int], int, list[int], list]:
    """:func:`intranode_records` of the row collection a superedge
    payload's body stores, past its polarity bit and linked sources."""
    reader = BitReader(data)
    reader.read_bit()
    _decode_locals(reader)
    return _records(reader)


def superedge_row(
    data: bytes,
    starts: Sequence[int],
    index: int,
    dictionary: Sequence[int],
    negative: bool,
    target_size: int,
) -> list[int]:
    """The positive row of the ``index``-th linked source of a superedge
    payload, its stored row read by :func:`decode_row`."""
    row = decode_row(data, starts, index, dictionary)
    if negative:
        absent = set(row)
        return [t for t in range(target_size) if t not in absent]
    return row


def _records(reader: BitReader) -> tuple[list[int], int, list[int], list]:
    dictionary = _decode_locals(reader)
    body = reader.position
    count = decode_gamma(reader)
    starts: list[int] = []
    records: list = []
    for y in range(count):
        starts.append(reader.position)
        records.append(_read_record(reader, y, count, dictionary))
    return dictionary, body, starts, records


def _decode_locals(reader: BitReader) -> list[int]:
    """Inverse of :func:`_encode_locals`."""
    if reader.read_bit():
        bits = decode_bitvector(reader)
        return [i for i, bit in enumerate(bits) if bit]
    count = decode_gamma(reader)
    locals_list: list[int] = []
    previous = -1
    for _ in range(count):
        previous = previous + 1 + decode_gamma(reader)
        locals_list.append(previous)
    return locals_list


def decode_superedge_payload(data: bytes) -> tuple[bool, list[int], list[list[int]]]:
    """Decode a superedge payload to (negative?, linked locals, their rows)."""
    reader = BitReader(data)
    negative = bool(reader.read_bit())
    linked = _decode_locals(reader)
    dictionary = _decode_locals(reader)
    rows = decode_rows(reader, dictionary=dictionary)
    if len(rows) != len(linked):
        raise CodecError("superedge row count mismatch")
    return negative, linked, rows


def positive_rows_from_payload(
    data: bytes, source_size: int, target_size: int
) -> list[list[int]]:
    """Decode a superedge payload straight to positive rows (all sources)."""
    negative, linked, rows = decode_superedge_payload(data)
    result: list[list[int]] = [[] for _ in range(source_size)]
    if negative:
        for local, missing in zip(linked, rows):
            absent = set(missing)
            result[local] = [t for t in range(target_size) if t not in absent]
    else:
        for local, row in zip(linked, rows):
            result[local] = list(row)
    return result


def linked_rows_from_payload(data: bytes, target_size: int) -> dict[int, list[int]]:
    """Decode a superedge payload to ``source local -> positive row``,
    linked sources only (what ``SuperedgeRows.linked`` must equal)."""
    negative, linked, rows = decode_superedge_payload(data)
    if negative:
        targets = range(target_size)
        rows = [
            [t for t in targets if t not in absent] for absent in map(set, rows)
        ]
    return dict(zip(linked, rows))


# ---------------------------------------------------------------------------
# encoders (any writer with write_bit / write_bits / write_unary)
# ---------------------------------------------------------------------------


def encode_gamma(writer, value: int) -> None:
    """Write ``value >= 0`` as an Elias gamma code (internally shifted +1)."""
    if value < 0:
        raise CodecError(f"gamma cannot encode {value}")
    shifted = value + 1
    width = shifted.bit_length()
    writer.write_unary(width - 1)
    # The leading 1 bit is implied by the unary prefix; write the rest.
    writer.write_bits(shifted - (1 << (width - 1)), width - 1)


def encode_rle(writer, bits: Sequence[int]) -> None:
    """Write ``bits`` as (length, first-bit, gamma-coded run lengths)."""
    encode_gamma(writer, len(bits))
    if not bits:
        return
    writer.write_bit(1 if bits[0] else 0)
    for run in runs_of(bits):
        encode_gamma(writer, run - 1)


def encode_bitvector(writer, bits: Sequence[int]) -> None:
    """Store ``bits`` with a 1-bit scheme flag: RLE if cheaper, else plain.

    This is the adaptive choice the paper alludes to ("wherever applicable,
    we employ other easy to decode bit level compression techniques such as
    run length encoding (RLE) bit vectors").
    """
    if rle_cost(bits) < plain_cost(bits):
        writer.write_bit(1)
        encode_rle(writer, bits)
    else:
        writer.write_bit(0)
        encode_gamma(writer, len(bits))
        for bit in bits:
            writer.write_bit(bit)


def encode_ascending(writer, locals_list: list[int]) -> None:
    """Sorted local-index list: gamma gaps or RLE bit vector, cheaper wins."""
    previous = -1
    gaps_cost = gamma_cost(len(locals_list))
    for local in locals_list:
        if local <= previous:
            raise CodecError("linked sources must be strictly increasing")
        gaps_cost += gamma_cost(local - previous - 1)
        previous = local
    bits: list[int] = []
    if locals_list:
        bits = [0] * (locals_list[-1] + 1)
        for local in locals_list:
            bits[local] = 1
    if locals_list and 1 + min(rle_cost(bits), plain_cost(bits)) < gaps_cost:
        writer.write_bit(1)
        encode_bitvector(writer, bits)
    else:
        writer.write_bit(0)
        encode_gamma(writer, len(locals_list))
        previous = -1
        for local in locals_list:
            encode_gamma(writer, local - previous - 1)
            previous = local


def encode_rows(
    writer,
    rows: Sequence[Sequence[int]],
    plan: EncodingPlan | None = None,
    window: int = DEFAULT_WINDOW,
    full_affinity_limit: int = DEFAULT_FULL_AFFINITY_LIMIT,
    dictionary: Sequence[int] | None = None,
) -> EncodingPlan:
    """Encode a row collection; returns the plan that was used.

    Layout: gamma(row count), then per row either a direct or a referenced
    record as described in the module docstring.  When ``dictionary`` is
    given (superedge graphs), referenced rows carry one extra bit choosing
    between a sibling-row reference and a dictionary reference; the
    dictionary itself is serialized by the caller, not here.
    """
    if plan is None:
        plan = plan_references(rows, window, full_affinity_limit, dictionary)
    if len(plan.parents) != len(rows):
        raise CodecError("encoding plan does not match row count")
    if plan.used_dictionary and not dictionary:
        raise CodecError("plan uses a dictionary that was not given")
    # Flag-bit layout depends on whether dictionary mode is active.
    dictionary = list(dictionary) if (dictionary and plan.used_dictionary) else None
    positions = {value: index for index, value in enumerate(dictionary or ())}
    encode_gamma(writer, len(rows))
    for y, row in enumerate(rows):
        parent = plan.parents[y]
        if parent == DICTIONARY_PARENT:
            if not dictionary:
                raise CodecError("plan references a dictionary that was not given")
            writer.write_bit(1)
            writer.write_bit(1)  # dictionary reference
            _encode_dictionary_body(writer, row, positions)
        elif parent < 0:
            writer.write_bit(0)
            encode_ascending(writer, row)
        else:
            writer.write_bit(1)
            if dictionary:
                writer.write_bit(0)  # sibling-row reference
            distance = abs(y - parent)
            encode_gamma(writer, distance - 1)
            writer.write_bit(1 if parent < y else 0)  # 1 = backward
            _encode_reference_body(writer, row, rows[parent])
    return plan


def _encode_reference_body(
    writer, row: Sequence[int], reference_row: Sequence[int]
) -> None:
    """Full-copy flag, copy bit vector (unless full copy), extras."""
    row_set = set(row)
    copy_bits = [1 if value in row_set else 0 for value in reference_row]
    reference_set = set(reference_row)
    extras = [value for value in row if value not in reference_set]
    full_copy = bool(copy_bits) and all(copy_bits)
    writer.write_bit(1 if full_copy else 0)
    if not full_copy:
        encode_bitvector(writer, copy_bits)
    _encode_extras(writer, extras)


def _encode_dictionary_body(
    writer, row: Sequence[int], positions: dict[int, int]
) -> None:
    """Full-copy flag or minimal-binary index list, then extras;
    ``positions`` maps a dictionary entry to its index."""
    indexes = sorted(positions[value] for value in row if value in positions)
    full_copy = len(indexes) == len(positions)
    writer.write_bit(1 if full_copy else 0)
    if not full_copy:
        encode_gamma(writer, len(indexes))
        for index in indexes:
            encode_minimal_binary(writer, index, len(positions))
    _encode_extras(writer, [value for value in row if value not in positions])


def _encode_extras(writer, extras: Sequence[int]) -> None:
    encode_gamma(writer, len(extras))
    previous = -1
    for value in extras:
        encode_gamma(writer, value - previous - 1)
        previous = value


# ---------------------------------------------------------------------------
# the wire's canonical JSON, as it was before its type-dispatched fast path
# ---------------------------------------------------------------------------


def canonicalize(value):
    """``serve.protocol.canonicalize`` as it was: one ``isinstance`` chain,
    one call per item of every container."""
    if isinstance(value, dict):
        items = [(str(key), canonicalize(item)) for key, item in value.items()]
        items.sort(key=lambda kv: kv[0])
        if len({key for key, _ in items}) != len(items):
            raise ServeError("payload dict keys collide after stringification")
        return dict(items)
    if isinstance(value, (set, frozenset)):
        return sorted(canonicalize(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    raise ServeError(f"cannot canonicalize payload value of type {type(value).__name__}")


def canonical_json(value) -> str:
    """Deterministic JSON text of ``value`` (after :func:`canonicalize`)."""
    return json.dumps(canonicalize(value), sort_keys=True, separators=(",", ":"))
