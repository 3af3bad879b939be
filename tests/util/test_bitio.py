"""Unit and property tests for the MSB-first bit stream."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import BitStreamError
from repro.util.bitio import BitReader, BitWriter


class TestBitWriter:
    def test_empty_writer_produces_no_bytes(self):
        assert BitWriter().to_bytes() == b""

    def test_single_bit_padded_to_byte(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.to_bytes() == b"\x80"

    def test_bits_are_msb_first(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        assert writer.to_bytes() == bytes([0b1011_0000])

    def test_bit_length_tracks_every_write(self):
        writer = BitWriter()
        writer.write_bit(0)
        writer.write_bits(0b101, 3)
        writer.write_unary(2)
        assert len(writer) == 1 + 3 + 3

    def test_value_too_wide_rejected(self):
        writer = BitWriter()
        with pytest.raises(BitStreamError):
            writer.write_bits(8, 3)

    def test_negative_width_rejected(self):
        with pytest.raises(BitStreamError):
            BitWriter().write_bits(0, -1)

    def test_negative_unary_rejected(self):
        with pytest.raises(BitStreamError):
            BitWriter().write_unary(-1)

    def test_byte_aligned_fast_path(self):
        writer = BitWriter()
        writer.write_bits(0xABCD, 16)
        assert writer.to_bytes() == b"\xab\xcd"


class TestBitReader:
    def test_read_single_bits(self):
        reader = BitReader(b"\xa0")  # 1010 0000
        assert [reader.read_bit() for _ in range(4)] == [1, 0, 1, 0]

    def test_read_past_end_raises(self):
        reader = BitReader(b"")
        with pytest.raises(BitStreamError):
            reader.read_bit()

    def test_read_bits_crossing_byte_boundary(self):
        reader = BitReader(b"\xff\x00")
        assert reader.read_bits(12) == 0xFF0

    def test_seek_and_position(self):
        reader = BitReader(b"\x0f")
        reader.seek(4)
        assert reader.position == 4
        assert reader.read_bits(4) == 0xF

    def test_seek_out_of_range_raises(self):
        with pytest.raises(BitStreamError):
            BitReader(b"\x00").seek(9)

    def test_peek_does_not_advance(self):
        reader = BitReader(b"\xc0")
        assert reader.peek_bits(2) == 0b11
        assert reader.position == 0

    def test_peek_past_end_zero_pads(self):
        reader = BitReader(b"\x80")
        reader.seek(7)
        assert reader.peek_bits(8) == 0

    def test_unary_roundtrip(self):
        writer = BitWriter()
        for value in (0, 1, 5, 13):
            writer.write_unary(value)
        reader = BitReader(writer.to_bytes())
        assert [reader.read_unary() for _ in range(4)] == [0, 1, 5, 13]


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
def test_property_bit_roundtrip(bits):
    writer = BitWriter()
    for bit in bits:
        writer.write_bit(bit)
    reader = BitReader(writer.to_bytes())
    assert [reader.read_bit() for _ in range(len(bits))] == bits


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**40), st.integers(1, 48)),
        max_size=60,
    )
)
def test_property_mixed_width_roundtrip(pairs):
    pairs = [(value & ((1 << width) - 1), width) for value, width in pairs]
    writer = BitWriter()
    for value, width in pairs:
        writer.write_bits(value, width)
    reader = BitReader(writer.to_bytes())
    assert [reader.read_bits(width) for _, width in pairs] == [v for v, _ in pairs]
