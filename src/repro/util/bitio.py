"""MSB-first bit stream writer and reader.

Every compressed structure in this library (Huffman-coded supernode graph,
reference-encoded intranode/superedge graphs, RLE bit vectors) is serialized
through these two classes.  Bits are packed most-significant-bit first, the
conventional order for prefix codes, so that a canonical Huffman decoder can
consume the stream by peeking fixed-width windows.

Both classes move whole fields, not single bits.  The writer shifts each
field into an integer accumulator and spills whole bytes once a few words
have gathered.  The reader keeps a *window*: an integer holding exactly
the next ``_avail`` unread bits, topped up :data:`REFILL_BYTES` at a time
from the byte buffer, so a read is one shift and one subtraction whatever
the length of the payload.

**The window invariant** — what the fused decode kernels in
``util.varint``, ``util.rle``, ``util.huffman`` and ``snode.reference``
rely on when they take the reader's state into local variables:

* ``0 <= _window < 1 << _avail``: consumed bits are cleared, so the next
  field of ``width`` bits is ``_window >> (_avail - width)`` with nothing
  to mask, and the length of a unary prefix is
  ``_avail - _window.bit_length()``;
* ``_byte`` is the index of the first byte not yet in the window, so the
  cursor is ``8 * _byte - _avail`` and a refill never moves it;
* bits enter the window through :func:`refill` only (and through
  :meth:`BitReader.seek`, which loads the rest of the byte it lands in).

A kernel copies ``_data, _byte, _window, _avail`` out, decodes with
local arithmetic, calls :func:`refill` when a field needs more bits than
``avail``, and writes ``_byte, _window, _avail`` back before it returns.

**The accumulator invariant** — the write-side mirror, what the record
writer ``snode.reference.encode_rows`` relies on:

* ``0 <= _current < 1 << _filled``: the bits not yet in ``_buffer``,
  the last written lowest, so a field of ``width`` bits holding
  ``value < 1 << width`` is appended by ``current << width | value``
  with nothing to mask;
* the stream is ``_buffer`` then those ``_filled`` bits, so its length
  is ``8 * len(_buffer) + _filled``;
* whole bytes leave the accumulator through :func:`spill` only, which
  the writer calls once ``_filled`` reaches :data:`SPILL_BITS` (a kernel
  at least once per record), so shifts stay on short integers.

A kernel copies ``_buffer, _current, _filled`` out, appends fields with
local arithmetic, spills into the same ``_buffer`` and writes
``_current, _filled`` back before it returns.
"""

from __future__ import annotations

from repro.errors import BitStreamError

_BYTE_BITS = 8

#: The writer spills its accumulator to the byte buffer past this many bits.
SPILL_BITS = 256

#: Bytes a refill moves into the reader's window.
REFILL_BYTES = 32

_PAST_END = "read past end of bit stream"


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

    __slots__ = ("_buffer", "_current", "_filled")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._current = 0  # bits not yet spilled into ``_buffer``
        self._filled = 0  # number of valid bits in ``_current``

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * _BYTE_BITS + self._filled

    def _spill(self) -> None:
        """Move the accumulator's whole bytes into the byte buffer."""
        self._current, self._filled = spill(self._buffer, self._current, self._filled)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (any truthy value counts as 1)."""
        self._current = (self._current << 1) | (1 if bit else 0)
        self._filled += 1
        if self._filled >= SPILL_BITS:
            self._spill()

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits holding ``value`` (MSB first).

        ``value`` must fit in ``width`` bits and be non-negative.
        """
        if width < 0:
            raise BitStreamError(f"negative width {width}")
        if value < 0 or (width < value.bit_length()):
            raise BitStreamError(f"value {value} does not fit in {width} bits")
        self._current = (self._current << width) | value
        self._filled += width
        if self._filled >= SPILL_BITS:
            self._spill()

    def write_unary(self, value: int) -> None:
        """Append ``value`` zero bits followed by a terminating one bit."""
        if value < 0:
            raise BitStreamError(f"unary cannot encode negative value {value}")
        self._current = (self._current << (value + 1)) | 1
        self._filled += value + 1
        if self._filled >= SPILL_BITS:
            self._spill()

    def to_bytes(self) -> bytes:
        """Return the packed stream, zero-padding the final partial byte."""
        pad = -self._filled & 7
        tail = (self._current << pad).to_bytes((self._filled + pad) >> 3, "big")
        return bytes(self._buffer) + tail


def spill(buffer: bytearray, current: int, filled: int) -> tuple[int, int]:
    """Move a writer accumulator's whole bytes to ``buffer``; returns the
    new ``(current, filled)``, fewer than 8 bits."""
    tail = filled & 7
    buffer += (current >> tail).to_bytes(filled >> 3, "big")
    return current & ((1 << tail) - 1), tail


def refill(data: bytes, byte: int, window: int, avail: int) -> tuple[int, int, int]:
    """Top a reader window up from ``data``; returns ``(byte, window, avail)``.

    Raises :class:`BitStreamError` when the buffer has no byte left, which
    is how a kernel that asks for more bits than the stream holds fails.
    """
    chunk = data[byte : byte + REFILL_BYTES]
    if not chunk:
        raise BitStreamError(_PAST_END)
    bits = len(chunk) * _BYTE_BITS
    return (
        byte + len(chunk),
        (window << bits) | int.from_bytes(chunk, "big"),
        avail + bits,
    )


class BitReader:
    """Reads bits MSB-first from a ``bytes``-like object.

    The reader tracks its absolute bit position, which lets callers jump to
    recorded offsets inside a concatenated stream (used by the on-disk index
    files, where each graph records its starting bit offset).  A read that
    fails raises :class:`BitStreamError` and leaves the position where it
    was.
    """

    __slots__ = ("_data", "_nbits", "_byte", "_window", "_avail")

    def __init__(self, data: bytes, start_bit: int = 0) -> None:
        self._data = bytes(data)
        self._nbits = len(self._data) * _BYTE_BITS
        self._byte = 0  # first byte of ``_data`` not yet in the window
        self._window = 0  # the next ``_avail`` unread bits
        self._avail = 0
        if start_bit:
            self.seek(start_bit)

    @property
    def position(self) -> int:
        """Current absolute bit offset from the start of the stream."""
        return self._byte * _BYTE_BITS - self._avail

    @property
    def remaining(self) -> int:
        """Number of bits left before the end of the underlying buffer."""
        return self._nbits - self._byte * _BYTE_BITS + self._avail

    def seek(self, bit_offset: int) -> None:
        """Jump to an absolute bit offset."""
        if not 0 <= bit_offset <= self._nbits:
            raise BitStreamError(
                f"seek to bit {bit_offset} outside stream of {self._nbits} bits"
            )
        byte, used = divmod(bit_offset, _BYTE_BITS)
        if used:
            self._window = self._data[byte] & (0xFF >> used)
            self._avail = _BYTE_BITS - used
            self._byte = byte + 1
        else:
            self._window = 0
            self._avail = 0
            self._byte = byte

    def _fill(self, need: int) -> int:
        """Top the window up to ``need`` bits, or to the end of the stream.

        Returns the new ``_avail``; the cursor does not move.
        """
        data = self._data
        byte, window, avail = self._byte, self._window, self._avail
        while avail < need and byte < len(data):
            byte, window, avail = refill(data, byte, window, avail)
        self._byte, self._window, self._avail = byte, window, avail
        return avail

    def read_bit(self) -> int:
        """Read one bit; raises :class:`BitStreamError` past end of stream."""
        avail = self._avail
        if not avail:
            avail = self._fill(1)
            if not avail:
                raise BitStreamError(_PAST_END)
        avail -= 1
        self._avail = avail
        bit = self._window >> avail
        if bit:
            self._window -= 1 << avail
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits and return them as an unsigned integer."""
        avail = self._avail
        if not 0 <= width <= avail:
            if width < 0:
                raise BitStreamError(f"negative width {width}")
            if width > self.remaining:  # checked first: the window stays bounded
                raise BitStreamError(_PAST_END)
            avail = self._fill(width)
        avail -= width
        self._avail = avail
        value = self._window >> avail
        self._window -= value << avail
        return value

    def read_unary(self) -> int:
        """Read a unary code (count of zero bits before the first one bit)."""
        window = self._window
        if not window:
            return self._read_unary_refilling()
        avail = self._avail
        zeros = avail - window.bit_length()
        avail -= zeros + 1
        self._avail = avail
        self._window = window - (1 << avail)
        return zeros

    def _read_unary_refilling(self) -> int:
        """:meth:`read_unary` when the window holds zeros only.

        Zero bits are counted and dropped a window at a time, so a long
        run costs no more memory than a short one.
        """
        start = self.position
        zeros = 0
        while not self._window:
            zeros += self._avail
            self._avail = 0
            if not self._fill(1):
                self.seek(start)
                raise BitStreamError(_PAST_END)
        return zeros + self.read_unary()

    def peek_bits(self, width: int) -> int:
        """Read ``width`` bits without advancing; short reads are zero-padded.

        Used by the table-driven Huffman decoder, which peeks a fixed window
        that may extend past the logical end of the last code word.
        """
        avail = self._avail
        if width > avail:
            avail = self._fill(width)
            if width > avail:
                return self._window << (width - avail)
        return self._window >> (avail - width)

    def skip(self, width: int) -> None:
        """Advance the cursor by ``width`` bits."""
        avail = self._avail
        if 0 <= width <= avail:
            avail -= width
            self._avail = avail
            self._window &= (1 << avail) - 1
        else:
            self.seek(self.position + width)
