"""Tests for the integer codes (gamma, delta cost, vbyte, nybble, minimal
binary)."""

from __future__ import annotations

import oracle_bitio
import oracle_codecs
import pytest
from hypothesis import given, strategies as st

from repro.errors import CodecError
from repro.util.bitio import BitReader, BitWriter
from repro.util.varint import (
    decode_gamma,
    decode_minimal_binary,
    decode_nibble,
    decode_vbyte,
    decode_vbytes,
    delta_cost,
    encode_gamma,
    encode_minimal_binary,
    encode_nibble,
    encode_vbyte,
    gamma_cost,
)

VALUES = [0, 1, 2, 3, 7, 8, 63, 64, 100, 1023, 1024, 10**6]


@pytest.mark.parametrize("value", VALUES)
def test_gamma_roundtrip(value):
    writer = BitWriter()
    encode_gamma(writer, value)
    assert decode_gamma(BitReader(writer.to_bytes())) == value


@pytest.mark.parametrize("value", VALUES)
def test_gamma_cost_is_exact(value):
    writer = BitWriter()
    encode_gamma(writer, value)
    assert len(writer) == gamma_cost(value)


#: Elias delta code lengths of ``value + 1`` (floor(log2 n) +
#: 2 floor(log2(floor(log2 n) + 1)) + 1 for n = value + 1).
DELTA_LENGTHS = {
    0: 1, 1: 4, 2: 4, 3: 5, 7: 8, 8: 8, 63: 11, 64: 11, 100: 11,
    1023: 17, 1024: 17, 10**6: 28,
}


@pytest.mark.parametrize("value", VALUES)
def test_delta_cost_is_exact(value):
    assert delta_cost(value) == DELTA_LENGTHS[value]


@pytest.mark.parametrize("value", VALUES)
def test_nibble_cost_is_exact(value):
    """Four bits per 3-bit group of the value, at least one group."""
    writer = BitWriter()
    encode_nibble(writer, value)
    assert len(writer) == 4 * max(1, -(-value.bit_length() // 3))


def test_gamma_is_the_unary_prefix_and_field_bit_for_bit():
    """One ``write_bits`` per code against the bit-by-bit writer's unary
    prefix plus field: every value to 2**16, then around every power of
    two to 2**40, as one stream and code by code."""
    edges = [2**k + d for k in range(1, 41) for d in (-1, 0, 1)]
    writer, expected = BitWriter(), oracle_bitio.BitWriter()
    for value in [*range(2**16 + 1), *edges]:
        encode_gamma(writer, value)
        oracle_codecs.encode_gamma(expected, value)
    assert len(writer) == len(expected)
    assert writer.to_bytes() == expected.to_bytes()
    for value in [0, 1, 2, 2**16, *edges]:
        writer, expected = BitWriter(), oracle_bitio.BitWriter()
        encode_gamma(writer, value)
        oracle_codecs.encode_gamma(expected, value)
        assert (len(writer), writer.to_bytes()) == (len(expected), expected.to_bytes())


def test_gamma_rejects_negative():
    with pytest.raises(CodecError):
        encode_gamma(BitWriter(), -1)
    with pytest.raises(CodecError):
        gamma_cost(-1)


class TestMinimalBinary:
    @pytest.mark.parametrize("bound", [1, 2, 3, 5, 8, 13, 256])
    def test_roundtrip_all_values(self, bound):
        for value in range(bound):
            writer = BitWriter()
            encode_minimal_binary(writer, value, bound)
            assert decode_minimal_binary(BitReader(writer.to_bytes()), bound) == value

    def test_bound_one_uses_zero_bits(self):
        writer = BitWriter()
        encode_minimal_binary(writer, 0, 1)
        assert len(writer) == 0

    def test_non_power_of_two_uses_short_codes(self):
        # bound 5 -> values 0..2 get 2 bits, 3..4 get 3 bits
        writer = BitWriter()
        encode_minimal_binary(writer, 0, 5)
        assert len(writer) == 2
        writer = BitWriter()
        encode_minimal_binary(writer, 4, 5)
        assert len(writer) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(CodecError):
            encode_minimal_binary(BitWriter(), 5, 5)


class TestVByte:
    @pytest.mark.parametrize("value", VALUES + [2**35])
    def test_roundtrip(self, value):
        data = encode_vbyte(value)
        decoded, offset = decode_vbyte(data)
        assert decoded == value
        assert offset == len(data)

    def test_concatenated_stream(self):
        blob = b"".join(encode_vbyte(v) for v in VALUES)
        position = 0
        out = []
        while position < len(blob):
            value, position = decode_vbyte(blob, position)
            out.append(value)
        assert out == VALUES
        assert decode_vbytes(blob) == VALUES

    def test_truncated_raises(self):
        with pytest.raises(CodecError):
            decode_vbyte(b"\x80")
        with pytest.raises(CodecError):
            decode_vbytes(b"\x01\x80")


@given(st.lists(st.integers(min_value=0, max_value=2**30), max_size=50))
def test_property_gamma_stream(values):
    writer = BitWriter()
    for value in values:
        encode_gamma(writer, value)
    reader = BitReader(writer.to_bytes())
    assert [decode_gamma(reader) for _ in values] == values


@given(st.lists(st.integers(min_value=0, max_value=2**30), max_size=50))
def test_property_nibble_stream(values):
    writer = BitWriter()
    for value in values:
        encode_nibble(writer, value)
    reader = BitReader(writer.to_bytes())
    assert [decode_nibble(reader) for _ in values] == values


@given(st.integers(min_value=0, max_value=2**20))
def test_property_gamma_monotone_cost(value):
    # gamma codes never shrink when the value grows by an order of magnitude
    assert gamma_cost(value * 2 + 1) >= gamma_cost(value)
