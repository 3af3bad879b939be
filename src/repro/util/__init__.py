"""Low-level utilities: bit I/O, integer codes (gamma, vbyte, nybble,
minimal binary), Huffman, RLE, LRU."""

from repro.util.bitio import BitReader, BitWriter
from repro.util.lru import LRUCache
from repro.util.varint import (
    decode_gamma,
    decode_minimal_binary,
    decode_nibble,
    decode_vbyte,
    encode_gamma,
    encode_minimal_binary,
    encode_nibble,
    encode_vbyte,
    gamma_cost,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "LRUCache",
    "encode_gamma",
    "decode_gamma",
    "gamma_cost",
    "encode_vbyte",
    "decode_vbyte",
    "encode_nibble",
    "decode_nibble",
    "encode_minimal_binary",
    "decode_minimal_binary",
]
