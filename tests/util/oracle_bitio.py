"""The bit-by-bit ``BitWriter`` / ``BitReader``, kept as the test oracle.

This is the implementation ``repro.util.bitio`` shipped before it became
word-at-a-time, moved here verbatim: every bit goes through
``write_bit`` / ``read_bit``, so its behaviour is easy to audit by eye.
``test_bitio_oracle.py`` drives random operation sequences through both
and requires equal values, positions, bytes and points of failure.
"""

from __future__ import annotations

from repro.errors import BitStreamError

_BYTE_BITS = 8


class BitWriter:
    """Accumulates bits MSB-first and yields the packed ``bytes``.

    Example
    -------
    >>> w = BitWriter()
    >>> w.write_bit(1)
    >>> w.write_bits(0b101, 3)
    >>> w.to_bytes()[0] >> 4
    13
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._current = 0  # bits accumulated into the in-progress byte
        self._filled = 0  # number of valid bits in ``_current``

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * _BYTE_BITS + self._filled

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far (alias of ``len``)."""
        return len(self)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (any truthy value counts as 1)."""
        self._current = (self._current << 1) | (1 if bit else 0)
        self._filled += 1
        if self._filled == _BYTE_BITS:
            self._buffer.append(self._current)
            self._current = 0
            self._filled = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits holding ``value`` (MSB first).

        ``value`` must fit in ``width`` bits and be non-negative.
        """
        if width < 0:
            raise BitStreamError(f"negative width {width}")
        if value < 0 or (width < value.bit_length()):
            raise BitStreamError(f"value {value} does not fit in {width} bits")
        # Fast path: flush whole bytes when the write is byte-aligned.
        while width >= _BYTE_BITS and self._filled == 0:
            width -= _BYTE_BITS
            self._buffer.append((value >> width) & 0xFF)
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_unary(self, value: int) -> None:
        """Append ``value`` zero bits followed by a terminating one bit."""
        if value < 0:
            raise BitStreamError(f"unary cannot encode negative value {value}")
        for _ in range(value):
            self.write_bit(0)
        self.write_bit(1)

    def extend(self, other: "BitWriter") -> None:
        """Append every bit written to ``other`` onto this writer."""
        data = other._buffer
        if self._filled == 0:
            self._buffer.extend(data)
        else:
            for byte in data:
                self.write_bits(byte, _BYTE_BITS)
        if other._filled:
            self.write_bits(other._current, other._filled)

    def to_bytes(self) -> bytes:
        """Return the packed stream, zero-padding the final partial byte."""
        if self._filled == 0:
            return bytes(self._buffer)
        tail = self._current << (_BYTE_BITS - self._filled)
        return bytes(self._buffer) + bytes([tail])


class BitReader:
    """Reads bits MSB-first from a ``bytes``-like object.

    The reader tracks its absolute bit position, which lets callers jump to
    recorded offsets inside a concatenated stream (used by the on-disk index
    files, where each graph records its starting bit offset).
    """

    def __init__(self, data: bytes, start_bit: int = 0) -> None:
        self._data = bytes(data)
        self._nbits = len(self._data) * _BYTE_BITS
        self._pos = 0
        if start_bit:
            self.seek(start_bit)

    @property
    def position(self) -> int:
        """Current absolute bit offset from the start of the stream."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of bits left before the end of the underlying buffer."""
        return self._nbits - self._pos

    def seek(self, bit_offset: int) -> None:
        """Jump to an absolute bit offset."""
        if not 0 <= bit_offset <= self._nbits:
            raise BitStreamError(
                f"seek to bit {bit_offset} outside stream of {self._nbits} bits"
            )
        self._pos = bit_offset

    def read_bit(self) -> int:
        """Read one bit; raises :class:`BitStreamError` past end of stream."""
        if self._pos >= self._nbits:
            raise BitStreamError("read past end of bit stream")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits and return them as an unsigned integer."""
        if width < 0:
            raise BitStreamError(f"negative width {width}")
        if self._pos + width > self._nbits:
            raise BitStreamError("read past end of bit stream")
        value = 0
        pos = self._pos
        data = self._data
        remaining = width
        # Consume up to the next byte boundary bit-by-bit, then whole bytes.
        while remaining and (pos & 7):
            byte = data[pos >> 3]
            value = (value << 1) | ((byte >> (7 - (pos & 7))) & 1)
            pos += 1
            remaining -= 1
        while remaining >= _BYTE_BITS:
            value = (value << _BYTE_BITS) | data[pos >> 3]
            pos += _BYTE_BITS
            remaining -= _BYTE_BITS
        while remaining:
            byte = data[pos >> 3]
            value = (value << 1) | ((byte >> (7 - (pos & 7))) & 1)
            pos += 1
            remaining -= 1
        self._pos = pos
        return value

    def read_unary(self) -> int:
        """Read a unary code (count of zero bits before the first one bit)."""
        count = 0
        while not self.read_bit():
            count += 1
        return count

    def peek_bits(self, width: int) -> int:
        """Read ``width`` bits without advancing; short reads are zero-padded.

        Used by the table-driven Huffman decoder, which peeks a fixed window
        that may extend past the logical end of the last code word.
        """
        save = self._pos
        available = min(width, self._nbits - self._pos)
        value = self.read_bits(available) if available > 0 else 0
        self._pos = save
        return value << (width - available)

    def skip(self, width: int) -> None:
        """Advance the cursor by ``width`` bits."""
        self.seek(self._pos + width)
