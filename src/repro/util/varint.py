"""Integer codes used throughout the compressed representations.

The paper's encoders lean on a small toolbox of classical codes
("Managing Gigabytes", Witten/Moffat/Bell):

* Elias gamma      - gap-encoded adjacency lists (the workhorse)
* Elias delta      - the bit cost of the baselines' offset directories
  (:func:`delta_cost`; no stored stream uses the code itself)
* variable-byte    - byte-aligned offsets in index files
* nybble           - the 4-bit-at-a-time code used by the Link3 scheme
* minimal binary   - values with a known exclusive upper bound

All codes here operate on *non-negative* integers.  Gamma and delta cannot
represent 0 natively, so both apply a +1 shift: the caller works with
values >= 0.
"""

from __future__ import annotations

from repro.errors import BitStreamError, CodecError
from repro.util.bitio import BitReader, BitWriter

# ---------------------------------------------------------------------------
# Elias gamma
# ---------------------------------------------------------------------------


def encode_gamma(writer: BitWriter, value: int) -> None:
    """Write ``value >= 0`` as an Elias gamma code (internally shifted +1)."""
    if value < 0:
        raise CodecError(f"gamma cannot encode {value}")
    shifted = value + 1
    # One field: the unary prefix is the field's leading zeros, and its
    # terminating one bit is the leading bit of ``value + 1``.
    writer.write_bits(shifted, 2 * shifted.bit_length() - 1)


def decode_gamma(reader: BitReader) -> int:
    """Read an Elias gamma code written by :func:`encode_gamma`.

    A code is ``zeros`` zero bits and then the ``zeros + 1`` bits of
    ``value + 1``.  In the reader's window (see ``util.bitio``) the
    leading one bit sits ``bit_length`` bits from the right end and
    ``avail - bit_length`` zeros precede it, so the code ends
    ``2 * bit_length - avail - 1`` bits from the right end, and what is
    left of that point *is* ``value + 1``: one ``bit_length``, one shift.
    """
    window = reader._window
    rest = 2 * window.bit_length() - reader._avail - 1
    if rest < 0:
        return _decode_gamma_refilling(reader)
    reader._avail = rest
    shifted = window >> rest
    reader._window = window - (shifted << rest)
    return shifted - 1


def _decode_gamma_refilling(reader: BitReader) -> int:
    """:func:`decode_gamma` for a code that is not yet wholly in the window."""
    start = reader.position
    try:
        width = reader.read_unary()
        return (1 << width) + reader.read_bits(width) - 1
    except BitStreamError:
        reader.seek(start)
        raise


def gamma_cost(value: int) -> int:
    """Number of bits :func:`encode_gamma` uses for ``value`` (>= 0)."""
    if value < 0:
        raise CodecError(f"gamma cannot encode {value}")
    return 2 * (value + 1).bit_length() - 1


# ---------------------------------------------------------------------------
# Elias delta
# ---------------------------------------------------------------------------


def delta_cost(value: int) -> int:
    """Number of bits the Elias delta code of ``value`` (>= 0) uses: the
    gamma code of the width of ``value + 1``, then that number's bits
    after its leading one."""
    if value < 0:
        raise CodecError(f"delta cannot encode {value}")
    width = (value + 1).bit_length()
    return gamma_cost(width - 1) + width - 1


# ---------------------------------------------------------------------------
# minimal binary (truncated binary)
# ---------------------------------------------------------------------------


def encode_minimal_binary(writer: BitWriter, value: int, bound: int) -> None:
    """Write ``0 <= value < bound`` using ceil(log2 bound) or one fewer bits."""
    if bound < 1:
        raise CodecError(f"minimal binary bound must be >= 1, got {bound}")
    if not 0 <= value < bound:
        raise CodecError(f"value {value} outside [0, {bound})")
    if bound == 1:
        return  # zero bits needed: the only possible value is 0
    width = (bound - 1).bit_length()
    cutoff = (1 << width) - bound
    if value < cutoff:
        writer.write_bits(value, width - 1)
    else:
        writer.write_bits(value + cutoff, width)


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


# ---------------------------------------------------------------------------
# variable-byte (byte-aligned, used for file offsets)
# ---------------------------------------------------------------------------


def encode_vbyte(value: int) -> bytes:
    """Encode ``value >= 0`` into a little-endian 7-bit-per-byte varint."""
    if value < 0:
        raise CodecError(f"vbyte cannot encode {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_vbyte(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data[offset:]``; returns (value, next_offset)."""
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise CodecError("truncated vbyte")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def decode_vbytes(data: bytes) -> list[int]:
    """Every varint of ``data``, which holds nothing else, in order."""
    values = []
    value = shift = 0
    for byte in data:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            values.append(value)
            value = shift = 0
    if shift:
        raise CodecError("truncated vbyte")
    return values


# ---------------------------------------------------------------------------
# nybble code (Link3's 4-bit groups: 3 data bits + 1 continuation bit)
# ---------------------------------------------------------------------------


def encode_nibble(writer: BitWriter, value: int) -> None:
    """Write ``value >= 0`` in 4-bit groups, 3 data bits + continuation bit.

    This is the code the Connectivity Server's Link3 database uses for its
    gap and counter fields (Randall et al., DCC 2002).
    """
    if value < 0:
        raise CodecError(f"nibble cannot encode {value}")
    groups = [value & 0b111]
    value >>= 3
    while value:
        groups.append(value & 0b111)
        value >>= 3
    for index in range(len(groups) - 1, 0, -1):
        writer.write_bits(groups[index], 3)
        writer.write_bit(1)  # continuation
    writer.write_bits(groups[0], 3)
    writer.write_bit(0)  # terminator


def decode_nibble(reader: BitReader) -> int:
    """Read a nybble code written by :func:`encode_nibble`."""
    value = 0
    while True:
        group = reader.read_bits(3)
        more = reader.read_bit()
        value = (value << 3) | group
        if not more:
            return value
