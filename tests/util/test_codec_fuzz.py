"""Seeded round-trip fuzzing across the whole codec stack.

Every encoder in ``repro.util`` must invert exactly under its decoder for
randomized inputs *and* for the edge shapes that have historically broken
bit-level codecs: empty input, a single symbol, all-identical symbols, and
maximum-gap values.  Seeds are fixed so failures reproduce.  The RLE and
bit-vector writers are the oracle's (``oracle_codecs``): the build writes
its bit vectors inside ``snode.reference.encode_rows``.
"""

from __future__ import annotations

import random

import pytest
from oracle_codecs import encode_bitvector, encode_rle

from repro.util.bitio import BitReader, BitWriter
from repro.util.huffman import HuffmanCodec
from repro.util.rle import decode_bitvector, decode_rle
from repro.util.varint import (
    decode_gamma,
    decode_minimal_binary,
    decode_nibble,
    decode_vbyte,
    encode_gamma,
    encode_minimal_binary,
    encode_nibble,
    encode_vbyte,
)

SEEDS = range(6)

#: Largest magnitude the fuzzers exercise (max-gap shape: a jump from the
#: first to the last page id of a billion-page crawl).
MAX_GAP = 2**40


def _value_shapes(rng: random.Random) -> list[list[int]]:
    """Integer-sequence edge shapes plus a randomized batch."""
    return [
        [],  # empty
        [0],  # single symbol, smallest
        [MAX_GAP],  # single symbol, largest
        [7] * 50,  # all identical
        [0, MAX_GAP, 0, MAX_GAP],  # alternating extremes
        [rng.randrange(MAX_GAP) for _ in range(200)],
        [rng.choice([0, 1, 2]) for _ in range(200)],  # small-value heavy
    ]


class TestVarintRoundTrips:
    CODES = [
        ("gamma", encode_gamma, decode_gamma, MAX_GAP),
        ("nibble", encode_nibble, decode_nibble, MAX_GAP),
    ]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name,encode,decode,bound", CODES, ids=[code[0] for code in CODES])
    def test_round_trip(self, seed, name, encode, decode, bound):
        rng = random.Random(seed)
        for values in _value_shapes(rng):
            values = [min(v, bound) for v in values]
            writer = BitWriter()
            for value in values:
                encode(writer, value)
            reader = BitReader(writer.to_bytes())
            assert [decode(reader) for _ in values] == values, (name, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_minimal_binary_round_trip(self, seed):
        rng = random.Random(seed)
        for bound in (1, 2, 3, 100, MAX_GAP):
            values = [rng.randrange(bound) for _ in range(100)] + [0, bound - 1]
            writer = BitWriter()
            for value in values:
                encode_minimal_binary(writer, value, bound)
            reader = BitReader(writer.to_bytes())
            assert [
                decode_minimal_binary(reader, bound) for _ in values
            ] == values, (bound, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_vbyte_round_trip(self, seed):
        rng = random.Random(seed)
        for values in _value_shapes(rng):
            blob = b"".join(encode_vbyte(value) for value in values)
            offset = 0
            decoded = []
            for _ in values:
                value, offset = decode_vbyte(blob, offset)
                decoded.append(value)
            assert decoded == values
            assert offset == len(blob)  # no trailing garbage consumed


class TestRleRoundTrips:
    def _bit_shapes(self, rng: random.Random) -> list[list[int]]:
        return [
            [],  # empty
            [0],
            [1],  # single bit
            [1] * 200,  # all identical
            [0] * 200,
            [0, 1] * 100,  # worst case for RLE: run length 1 throughout
            [0] * 199 + [1],  # max-gap: one set bit at the very end
            [1] + [0] * 199,
            [rng.randrange(2) for _ in range(300)],
            [1 if rng.random() < 0.05 else 0 for _ in range(300)],  # sparse
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rle_round_trip(self, seed):
        rng = random.Random(seed)
        for bits in self._bit_shapes(rng):
            writer = BitWriter()
            encode_rle(writer, bits)
            assert decode_rle(BitReader(writer.to_bytes())) == bits

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitvector_round_trip(self, seed):
        rng = random.Random(seed)
        for bits in self._bit_shapes(rng):
            writer = BitWriter()
            encode_bitvector(writer, bits)
            assert decode_bitvector(BitReader(writer.to_bytes())) == bits

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concatenated_streams_decode_in_order(self, seed):
        # Codecs must not over-read: several vectors share one stream.
        rng = random.Random(seed)
        shapes = self._bit_shapes(rng)
        writer = BitWriter()
        for bits in shapes:
            encode_rle(writer, bits)
        reader = BitReader(writer.to_bytes())
        for bits in shapes:
            assert decode_rle(reader) == bits


class TestHuffmanRoundTrips:
    def _codec_and_symbols(
        self, rng: random.Random, alphabet: int, count: int
    ) -> tuple[HuffmanCodec, list[int]]:
        frequencies = {s: rng.randrange(1, 1000) for s in range(alphabet)}
        symbols = [rng.randrange(alphabet) for _ in range(count)]
        return HuffmanCodec.from_frequencies(frequencies), symbols

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequence_round_trip(self, seed):
        rng = random.Random(seed)
        for alphabet in (1, 2, 17, 256):
            codec, symbols = self._codec_and_symbols(rng, alphabet, 500)
            for sequence in ([], symbols[:1], [0] * 100, symbols):
                writer = BitWriter()
                codec.encode_sequence(writer, sequence)
                reader = BitReader(writer.to_bytes() + b"\x00\x00")
                assert codec.decode_sequence(reader, len(sequence)) == sequence

    @pytest.mark.parametrize("seed", SEEDS)
    def test_skewed_frequencies_round_trip(self, seed):
        # Extreme skew produces max-length codes — the decoder window edge.
        rng = random.Random(seed)
        frequencies = {s: 2**s for s in range(16)}
        codec = HuffmanCodec.from_frequencies(frequencies)
        symbols = [rng.randrange(16) for _ in range(500)]
        writer = BitWriter()
        codec.encode_sequence(writer, symbols)
        reader = BitReader(writer.to_bytes() + b"\x00\x00")
        assert codec.decode_sequence(reader, len(symbols)) == symbols

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serialized_lengths_rebuild_identical_codec(self, seed):
        rng = random.Random(seed)
        codec, symbols = self._codec_and_symbols(rng, 50, 200)
        writer = BitWriter()
        codec.serialize_lengths(writer)
        codec.encode_sequence(writer, symbols)
        reader = BitReader(writer.to_bytes() + b"\x00\x00")
        rebuilt = HuffmanCodec.deserialize_lengths(reader)
        assert rebuilt.lengths == codec.lengths
        assert rebuilt.decode_sequence(reader, len(symbols)) == symbols


class TestCrcFrameCodec:
    """Property tests for the storage-integrity frame codec.

    The frame (``vbyte(len) + payload + crc32``) guards every auxiliary
    table on disk, so its two properties are load-bearing: exact inversion
    for arbitrary payloads, and detection of *every* single-bit flip
    anywhere in the frame — header, payload or checksum.
    """

    def _payload_shapes(self, rng: random.Random) -> list[bytes]:
        return [
            b"",  # empty payload (header + CRC only)
            b"\x00",  # single zero byte
            b"\xff" * 300,  # all ones, multi-byte vbyte header
            bytes(rng.randrange(256) for _ in range(1)),
            bytes(rng.randrange(256) for _ in range(257)),
            rng.randbytes(1000),
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip(self, seed):
        from repro.storage.integrity import decode_frame, encode_frame

        rng = random.Random(seed)
        for payload in self._payload_shapes(rng):
            frame = encode_frame(payload)
            decoded, position = decode_frame(frame)
            assert decoded == payload
            assert position == len(frame)  # no trailing garbage consumed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concatenated_frames_decode_in_order(self, seed):
        from repro.storage.integrity import decode_frame, encode_frame

        rng = random.Random(seed)
        payloads = self._payload_shapes(rng)
        blob = b"".join(encode_frame(payload) for payload in payloads)
        position = 0
        for payload in payloads:
            decoded, position = decode_frame(blob, position)
            assert decoded == payload
        assert position == len(blob)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_single_bit_flip_detected(self, seed):
        from repro.errors import CorruptionError
        from repro.storage.integrity import decode_frame, encode_frame

        rng = random.Random(seed)
        payload = rng.randbytes(64)
        frame = encode_frame(payload)
        for byte_index in range(len(frame)):
            for bit in range(8):
                corrupt = bytearray(frame)
                corrupt[byte_index] ^= 1 << bit
                # A header flip may still parse as some other length; the
                # CRC must then catch the mismatch — decoding any flipped
                # frame without an error is the failure.
                with pytest.raises(CorruptionError):
                    decode_frame(bytes(corrupt))

    def test_truncation_detected_at_every_length(self):
        from repro.errors import CorruptionError
        from repro.storage.integrity import decode_frame, encode_frame

        frame = encode_frame(bytes(range(64)))
        for cut in range(len(frame)):
            with pytest.raises(CorruptionError):
                decode_frame(frame[:cut])


class TestBitioRoundTrips:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_width_writes_round_trip(self, seed):
        rng = random.Random(seed)
        fields = []
        writer = BitWriter()
        for _ in range(500):
            width = rng.randrange(1, 64)
            value = rng.randrange(1 << width)
            fields.append((value, width))
            writer.write_bits(value, width)
        reader = BitReader(writer.to_bytes())
        for value, width in fields:
            assert reader.read_bits(width) == value

    @pytest.mark.parametrize("seed", SEEDS)
    def test_recorded_positions_seek_back_exactly(self, seed):
        # The on-disk index files jump to recorded bit offsets; writing a
        # stream and re-reading each field from its recorded offset (in
        # random order) must reproduce every value.
        rng = random.Random(seed)
        writer = BitWriter()
        fields = []
        for _ in range(200):
            width = rng.randrange(1, 33)
            value = rng.randrange(1 << width)
            fields.append((len(writer), value, width))
            writer.write_bits(value, width)
        reader = BitReader(writer.to_bytes())
        rng.shuffle(fields)
        for offset, value, width in fields:
            reader.seek(offset)
            assert reader.read_bits(width) == value

    def test_zero_width_fields(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        writer.write_bits(1, 1)
        writer.write_bits(0, 0)
        reader = BitReader(writer.to_bytes())
        assert reader.read_bits(0) == 0
        assert reader.read_bit() == 1
