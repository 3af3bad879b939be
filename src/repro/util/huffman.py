"""Canonical Huffman coding.

Used in two places, mirroring the paper:

* the supernode graph is stored as Huffman-coded adjacency lists where
  supernodes with high in-degree receive short codes (paper section 3.3);
* the "Plain Huffman" baseline representation assigns per-page codes by
  in-degree (paper section 4).

The implementation builds optimal code lengths with the standard two-queue
Huffman construction, optionally limits the maximum code length (simple
level-rebalancing), assigns canonical codes, and decodes with a one-shot
lookup table over a fixed peek window for speed.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping

from repro.errors import BitStreamError, CodecError
from repro.util.bitio import BitReader, BitWriter, refill

_MAX_TABLE_BITS = 16


def huffman_code_lengths(frequencies: Mapping[int, int]) -> dict[int, int]:
    """Compute optimal prefix-code lengths for ``symbol -> frequency``.

    Zero-frequency symbols are still assigned a code (treated as frequency
    one) so every symbol stays decodable; a single-symbol alphabet gets a
    one-bit code.
    """
    symbols = sorted(frequencies)
    if not symbols:
        return {}
    if len(symbols) == 1:
        return {symbols[0]: 1}
    heap: list[tuple[int, int, list[int]]] = []
    for order, symbol in enumerate(symbols):
        weight = max(1, frequencies[symbol])
        heapq.heappush(heap, (weight, order, [symbol]))
    depths = {symbol: 0 for symbol in symbols}
    tiebreak = len(symbols)
    while len(heap) > 1:
        w1, _, group1 = heapq.heappop(heap)
        w2, _, group2 = heapq.heappop(heap)
        merged = group1 + group2
        for symbol in merged:
            depths[symbol] += 1
        heapq.heappush(heap, (w1 + w2, tiebreak, merged))
        tiebreak += 1
    return depths


def limit_code_lengths(lengths: dict[int, int], max_length: int) -> dict[int, int]:
    """Clamp code lengths to ``max_length`` while keeping Kraft feasibility.

    Uses the simple heuristic of clamping over-long codes and then repairing
    the Kraft sum by lengthening the shortest codes until the sum is <= 1.
    The result is fed into the canonical assignment, which only needs valid
    lengths, not optimal ones.
    """
    if not lengths:
        return {}
    if max_length < 1:
        raise CodecError(f"max_length must be >= 1, got {max_length}")
    clamped = {s: min(l, max_length) for s, l in lengths.items()}
    scale = 1 << max_length
    kraft = sum(scale >> l for l in clamped.values())
    if kraft <= scale:
        return clamped
    # Lengthen the currently-shortest codes until Kraft holds.
    by_length = sorted(clamped, key=lambda s: (clamped[s], s))
    index = 0
    while kraft > scale:
        symbol = by_length[index % len(by_length)]
        if clamped[symbol] < max_length:
            kraft -= scale >> clamped[symbol]
            clamped[symbol] += 1
            kraft += scale >> clamped[symbol]
        index += 1
        if index > 4 * len(by_length) * max_length:
            raise CodecError("cannot satisfy Kraft inequality under length limit")
    return clamped


class HuffmanCodec:
    """Canonical Huffman encoder/decoder over integer symbols."""

    def __init__(self, lengths: Mapping[int, int]) -> None:
        if not lengths:
            raise CodecError("empty Huffman alphabet")
        self._lengths = dict(lengths)
        self._max_length = max(self._lengths.values())
        if self._max_length > _MAX_TABLE_BITS:
            raise CodecError(
                f"code length {self._max_length} exceeds decoder window "
                f"{_MAX_TABLE_BITS}; limit lengths first"
            )
        self._codes = self._assign_canonical()
        self._table = self._build_decode_table()

    @classmethod
    def from_frequencies(cls, frequencies: Mapping[int, int]) -> "HuffmanCodec":
        """Build a codec straight from symbol frequencies, lengths limited
        to the decoder's window."""
        lengths = huffman_code_lengths(frequencies)
        return cls(limit_code_lengths(lengths, _MAX_TABLE_BITS))

    # -- construction -----------------------------------------------------

    def _assign_canonical(self) -> dict[int, tuple[int, int]]:
        """Assign canonical codes: shorter codes first, ties by symbol id."""
        ordered = sorted(self._lengths.items(), key=lambda kv: (kv[1], kv[0]))
        codes: dict[int, tuple[int, int]] = {}
        code = 0
        previous_length = ordered[0][1]
        for symbol, length in ordered:
            code <<= length - previous_length
            if code >= (1 << length):
                raise CodecError("code lengths violate Kraft inequality")
            codes[symbol] = (code, length)
            code += 1
            previous_length = length
        return codes

    def _build_decode_table(self) -> list[tuple[int, int]]:
        """Dense (symbol, length) table indexed by a max-length bit window."""
        window = self._max_length
        table: list[tuple[int, int]] = [(-1, 0)] * (1 << window)
        for symbol, (code, length) in self._codes.items():
            base = code << (window - length)
            for offset in range(1 << (window - length)):
                table[base + offset] = (symbol, length)
        return table

    # -- public API --------------------------------------------------------

    @property
    def lengths(self) -> dict[int, int]:
        """Mapping symbol -> canonical code length in bits."""
        return dict(self._lengths)

    @property
    def max_length(self) -> int:
        """Longest code length in the codec."""
        return self._max_length

    def code_length(self, symbol: int) -> int:
        """Length in bits of ``symbol``'s code."""
        try:
            return self._lengths[symbol]
        except KeyError as exc:
            raise CodecError(f"symbol {symbol} not in Huffman alphabet") from exc

    def encode_symbol(self, writer: BitWriter, symbol: int) -> None:
        """Append the code for ``symbol`` to ``writer``."""
        try:
            code, length = self._codes[symbol]
        except KeyError as exc:
            raise CodecError(f"symbol {symbol} not in Huffman alphabet") from exc
        writer.write_bits(code, length)

    def encode_sequence(self, writer: BitWriter, symbols: Iterable[int]) -> None:
        """Append codes for every symbol in ``symbols``."""
        for symbol in symbols:
            self.encode_symbol(writer, symbol)

    def decode_symbol(self, reader: BitReader) -> int:
        """Decode one symbol from ``reader``."""
        window = reader.peek_bits(self._max_length)
        symbol, length = self._table[window]
        if symbol < 0:
            raise CodecError("invalid Huffman code word in stream")
        reader.skip(length)
        return symbol

    def decode_sequence(self, reader: BitReader, count: int) -> list[int]:
        """Decode exactly ``count`` symbols.

        One table look-up per symbol on the reader's window held in local
        variables (see ``util.bitio``); near the end of the stream the
        look-up index is zero-padded, as :meth:`BitReader.peek_bits` does.
        """
        table = self._table
        width = self._max_length
        data = reader._data
        size = len(data)
        byte, window, avail = reader._byte, reader._window, reader._avail
        symbols: list[int] = []
        for _ in range(count):
            if avail < width and byte < size:
                byte, window, avail = refill(data, byte, window, avail)
            if avail >= width:
                symbol, length = table[window >> (avail - width)]
            else:
                symbol, length = table[window << (width - avail)]
            if symbol < 0:
                raise CodecError("invalid Huffman code word in stream")
            if length > avail:
                raise BitStreamError("read past end of bit stream")
            avail -= length
            window &= (1 << avail) - 1
            symbols.append(symbol)
        reader._byte, reader._window, reader._avail = byte, window, avail
        return symbols

    # -- serialization of the code table itself ----------------------------

    def serialize_lengths(self, writer: BitWriter) -> None:
        """Write the (symbol, length) table compactly (gamma-coded).

        Symbols are assumed to be a dense-ish range; we store the max symbol
        and a length-per-symbol array (0 = absent).
        """
        from repro.util.varint import encode_gamma

        max_symbol = max(self._lengths)
        encode_gamma(writer, max_symbol)
        for symbol in range(max_symbol + 1):
            encode_gamma(writer, self._lengths.get(symbol, 0))

    @classmethod
    def deserialize_lengths(cls, reader: BitReader) -> "HuffmanCodec":
        """Inverse of :meth:`serialize_lengths`."""
        from repro.util.varint import decode_gamma

        max_symbol = decode_gamma(reader)
        lengths: dict[int, int] = {}
        for symbol in range(max_symbol + 1):
            length = decode_gamma(reader)
            if length:
                lengths[symbol] = length
        return cls(lengths)
