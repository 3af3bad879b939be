"""Differential tests: rows priced from their entries against rows priced
from the bit vector over their span.

``reference._row_vector_cost`` reads a row's runs of ones and zeros off
its gaps; the oracle (``tests/util/oracle_planner.py``,
``tests/util/oracle_codecs.py``) builds the 0/1 list and counts.  The
costs must be equal, and so must every choice made on them — dense or
sparse — down to the bytes written.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
import oracle_codecs  # noqa: E402
import oracle_planner  # noqa: E402
from oracle_bitio import BitWriter as OracleBitWriter  # noqa: E402

from repro.errors import CodecError  # noqa: E402
from repro.snode import reference  # noqa: E402
from repro.snode.encode import _encode_locals  # noqa: E402
from repro.util.bitio import BitWriter  # noqa: E402
from repro.util.rle import bitvector_cost  # noqa: E402
from repro.util.varint import gamma_cost  # noqa: E402

TABLE = len(reference._GAMMA_COST)

SHAPES = [
    [],
    [0],
    [7],
    [TABLE - 2],
    [TABLE - 1],
    [TABLE],
    [3 * TABLE],
    list(range(12)),  # one run of ones from the start
    list(range(5, 40)),  # one run after a gap
    list(range(0, 60, 2)),  # alternating
    list(range(1, 61, 2)),
    [0, 1, 2, 10, 11, 40],
    list(range(TABLE - 3, TABLE + 3)),  # a run across the table's end
    list(range(TABLE + 2)),  # a run longer than the table
    [0, TABLE + 1],  # a gap longer than the table
    [5, 2 * TABLE, 2 * TABLE + 1, 5 * TABLE],
]


@st.composite
def ascending_rows(draw):
    """Ascending rows as runs and gaps, some of them past the gamma table."""
    length = st.integers(1, 6) | st.integers(TABLE - 2, TABLE + 2)
    row: list[int] = []
    position = draw(st.integers(0, 3) | st.just(TABLE))
    for run, gap in draw(st.lists(st.tuples(length, length), max_size=5)):
        row.extend(range(position, position + run))
        position += run + gap
    return row


def assert_priced_alike(row):
    assert reference._row_vector_cost(row) == bitvector_cost(oracle_planner._row_bits(row))
    assert reference._gaps_cost(row) == oracle_planner._gaps_cost(row)
    assert reference.direct_cost(row) == oracle_planner.direct_cost(row)


def assert_locals_written_alike(row):
    writer, expected = BitWriter(), OracleBitWriter()
    _encode_locals(writer, row)
    oracle_codecs.encode_ascending(expected, row)
    assert len(writer) == len(expected)
    assert writer.to_bytes() == expected.to_bytes()
    # A direct row's body is the same choice behind the direct flag.
    rows_writer = BitWriter()
    reference.encode_rows(rows_writer, [row], plan=reference.EncodingPlan([-1], 0))
    assert len(rows_writer) == gamma_cost(1) + 1 + len(expected)  # row count, direct flag
    assert len(expected) == reference.direct_cost(row) - 1


@pytest.mark.parametrize("row", SHAPES, ids=lambda row: f"{len(row)}-entries")
def test_shapes(row):
    assert_priced_alike(row)
    assert_locals_written_alike(row)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 300), max_size=60, unique=True).map(sorted))
def test_generated_rows(row):
    assert_priced_alike(row)
    assert_locals_written_alike(row)


@settings(deadline=None, max_examples=60)
@given(ascending_rows())
def test_generated_runs_and_gaps(row):
    assert_priced_alike(row)
    assert_locals_written_alike(row)


@pytest.mark.parametrize("row", [[3, 1], [2, 2], [9, 1, 5], [TABLE + 7, 3]])
def test_rows_out_of_order_are_refused(row):
    with pytest.raises(CodecError):
        reference.direct_cost(row)
    with pytest.raises(CodecError):
        reference.encode_rows(BitWriter(), [row], plan=reference.EncodingPlan([-1], 0))
