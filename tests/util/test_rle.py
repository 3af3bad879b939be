"""Tests for RLE bit vectors and the adaptive bit-vector codec.

The writers are the oracle's (``oracle_codecs``): the build writes its
bit vectors inside ``snode.reference.encode_rows``."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st
from oracle_codecs import encode_bitvector, encode_rle

from repro.errors import CodecError
from repro.util.bitio import BitReader, BitWriter
from repro.util.rle import (
    bitvector_cost,
    decode_bitvector,
    decode_rle,
    plain_cost,
    rle_cost,
    runs_of,
)


class TestRuns:
    def test_empty(self):
        assert runs_of([]) == []

    def test_single_run(self):
        assert runs_of([1, 1, 1]) == [3]

    def test_alternating(self):
        assert runs_of([0, 1, 0, 1]) == [1, 1, 1, 1]

    def test_mixed(self):
        assert runs_of([1, 1, 0, 0, 0, 1]) == [2, 3, 1]


class TestRLE:
    @pytest.mark.parametrize(
        "bits",
        [
            [],
            [0],
            [1],
            [1] * 50,
            [0] * 50,
            [1, 0] * 25,
            [1, 1, 0, 0, 0, 0, 1, 1, 1],
        ],
    )
    def test_roundtrip(self, bits):
        writer = BitWriter()
        encode_rle(writer, bits)
        assert decode_rle(BitReader(writer.to_bytes())) == bits

    def test_rle_cost_is_exact(self):
        bits = [1] * 20 + [0] * 5 + [1]
        writer = BitWriter()
        encode_rle(writer, bits)
        assert len(writer) == rle_cost(bits)

    def test_long_runs_beat_plain(self):
        bits = [1] * 200
        assert rle_cost(bits) < plain_cost(bits)

    def test_alternating_bits_prefer_plain(self):
        bits = [1, 0] * 40
        assert plain_cost(bits) < rle_cost(bits)

    def test_corrupt_run_length_raises(self):
        # Declare 2 bits but encode a 3-bit run.
        writer = BitWriter()
        from repro.util.varint import encode_gamma

        encode_gamma(writer, 2)  # declared length
        writer.write_bit(1)  # first value
        encode_gamma(writer, 2)  # run of 3 > declared 2
        with pytest.raises(CodecError):
            decode_rle(BitReader(writer.to_bytes()))


class TestAdaptiveBitvector:
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=120))
    def test_property_roundtrip(self, bits):
        writer = BitWriter()
        encode_bitvector(writer, bits)
        assert decode_bitvector(BitReader(writer.to_bytes())) == bits

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=120))
    def test_property_cost_is_exact(self, bits):
        writer = BitWriter()
        encode_bitvector(writer, bits)
        assert len(writer) == bitvector_cost(bits)

    def test_picks_cheaper_scheme(self):
        dense_runs = [1] * 100
        assert bitvector_cost(dense_runs) == 1 + rle_cost(dense_runs)
        noisy = [1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1]
        assert bitvector_cost(noisy) == 1 + plain_cost(noisy)
