"""Tests for canonical Huffman coding."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import CodecError
from repro.util.bitio import BitReader, BitWriter
from repro.util.huffman import (
    HuffmanCodec,
    huffman_code_lengths,
    limit_code_lengths,
)


class TestCodeLengths:
    def test_empty_alphabet(self):
        assert huffman_code_lengths({}) == {}

    def test_single_symbol_gets_one_bit(self):
        assert huffman_code_lengths({7: 100}) == {7: 1}

    def test_skewed_frequencies_give_shorter_codes_to_frequent(self):
        lengths = huffman_code_lengths({0: 1000, 1: 10, 2: 10, 3: 1})
        assert lengths[0] < lengths[3]

    def test_uniform_frequencies_give_balanced_code(self):
        lengths = huffman_code_lengths({i: 5 for i in range(8)})
        assert all(length == 3 for length in lengths.values())

    def test_kraft_inequality_holds(self):
        lengths = huffman_code_lengths({i: i + 1 for i in range(33)})
        assert sum(2.0 ** -l for l in lengths.values()) <= 1.0 + 1e-12

    def test_zero_frequency_symbols_still_coded(self):
        lengths = huffman_code_lengths({0: 0, 1: 100})
        assert 0 in lengths and 1 in lengths


class TestLimitLengths:
    def test_no_change_when_within_limit(self):
        lengths = {0: 2, 1: 2, 2: 2, 3: 2}
        assert limit_code_lengths(lengths, 4) == lengths

    def test_clamp_repairs_kraft(self):
        # Degenerate chain: lengths 1,2,3,...  Clamping to 4 forces repair.
        lengths = {i: i + 1 for i in range(8)}
        limited = limit_code_lengths(lengths, 4)
        assert max(limited.values()) <= 4
        assert sum(2.0 ** -l for l in limited.values()) <= 1.0 + 1e-12

    def test_invalid_limit_rejected(self):
        with pytest.raises(CodecError):
            limit_code_lengths({0: 1}, 0)


class TestHuffmanCodec:
    def test_roundtrip_skewed(self):
        codec = HuffmanCodec.from_frequencies({i: 2**i for i in range(10)})
        symbols = [9, 0, 3, 9, 9, 1, 5]
        writer = BitWriter()
        codec.encode_sequence(writer, symbols)
        reader = BitReader(writer.to_bytes())
        assert codec.decode_sequence(reader, len(symbols)) == symbols

    def test_unknown_symbol_rejected(self):
        codec = HuffmanCodec.from_frequencies({0: 1, 1: 1})
        with pytest.raises(CodecError):
            codec.encode_symbol(BitWriter(), 5)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(CodecError):
            HuffmanCodec({})

    def test_canonical_codes_are_prefix_free(self):
        codec = HuffmanCodec.from_frequencies({i: (i % 5) + 1 for i in range(40)})
        codes = {
            symbol: format(code, f"0{length}b")
            for symbol, (code, length) in codec._codes.items()
        }
        values = list(codes.values())
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert not a.startswith(b) and not b.startswith(a)

    def test_high_in_degree_symbol_gets_short_code(self):
        frequencies = {i: 1 for i in range(100)}
        frequencies[42] = 10_000
        codec = HuffmanCodec.from_frequencies(frequencies)
        assert codec.code_length(42) == min(codec.lengths.values())

    def test_serialize_lengths_roundtrip(self):
        codec = HuffmanCodec.from_frequencies({i: i + 1 for i in range(25)})
        writer = BitWriter()
        codec.serialize_lengths(writer)
        restored = HuffmanCodec.deserialize_lengths(BitReader(writer.to_bytes()))
        assert restored.lengths == codec.lengths

    def test_sparse_alphabet_serialization(self):
        codec = HuffmanCodec.from_frequencies({3: 5, 17: 1, 90: 2})
        writer = BitWriter()
        codec.serialize_lengths(writer)
        restored = HuffmanCodec.deserialize_lengths(BitReader(writer.to_bytes()))
        assert restored.lengths == codec.lengths


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=10_000),
        min_size=2,
        max_size=80,
    ),
    st.data(),
)
def test_property_roundtrip_random_alphabets(frequencies, data):
    codec = HuffmanCodec.from_frequencies(frequencies)
    symbols = data.draw(
        st.lists(st.sampled_from(sorted(frequencies)), max_size=50)
    )
    writer = BitWriter()
    codec.encode_sequence(writer, symbols)
    reader = BitReader(writer.to_bytes())
    assert codec.decode_sequence(reader, len(symbols)) == symbols
