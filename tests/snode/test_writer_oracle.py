"""Differential tests: the record writer against the per-field writers kept
in ``tests/util/oracle_codecs.py``.

``reference.encode_rows`` writes a whole collection on the writer's
accumulator held in local variables, and ``encode_ascending`` a list's
mode bit and body as one field; the oracle writes one flag, one gamma
code, one bit of a plain vector at a time on the bit-by-bit
``oracle_bitio.BitWriter``.  Given the same plan both must write the same
bits, whatever the writer held before: payload bytes may not move.
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
import oracle_bitio  # noqa: E402
import oracle_codecs  # noqa: E402

from repro.errors import CodecError  # noqa: E402
from repro.snode import encode, reference  # noqa: E402
from repro.snode.build import BuildOptions, build_snode  # noqa: E402
from repro.snode.reference import DICTIONARY_PARENT, EncodingPlan  # noqa: E402
from repro.util import bitio  # noqa: E402
from repro.util.bitio import BitWriter  # noqa: E402
from repro.webdata.generator import GeneratorConfig, generate_web  # noqa: E402


def written(module, encoder, prefix, *arguments):
    """The bytes and bit count of ``prefix`` bits then ``encoder(writer,
    *arguments)`` on a fresh writer of ``module``."""
    writer = module.BitWriter()
    for bit in prefix:
        writer.write_bit(bit)
    encoder(writer, *arguments)
    return writer.to_bytes(), len(writer)


def assert_same_bits(rows, plan, dictionary, prefix=()):
    got = written(bitio, reference.encode_rows, prefix, rows, plan, 8, 96, dictionary)
    expected = written(
        oracle_bitio, oracle_codecs.encode_rows, prefix, rows, plan, 8, 96, dictionary
    )
    assert got == expected


@st.composite
def collections(draw):
    """Rows over a small target space — empty rows, dense stretches, copies
    of one another — with a plan whose parents are arbitrary: forward
    references, partial copies of every shape, and, with a dictionary
    (none, one entry, or the frequent targets), dictionary references
    that copy all of it or some."""
    space = draw(st.integers(min_value=1, max_value=70))
    targets = st.integers(0, space - 1)
    pool = draw(
        st.lists(
            st.lists(targets, max_size=12, unique=True).map(sorted)
            | st.tuples(targets, targets).map(lambda ends: list(range(min(ends), max(ends) + 1)))
            | st.just([]),
            min_size=1,
            max_size=5,
        )
    )
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    kind = draw(st.sampled_from(["none", "one", "frequent", "drawn"]))
    dictionary = {
        "none": None,
        "one": [draw(targets)],
        "frequent": reference.build_dictionary(rows),
        "drawn": sorted(draw(st.sets(targets, min_size=1, max_size=9))),
    }[kind]
    if dictionary:
        # a dictionary full copy, and rows holding some of it
        rows.append(list(dictionary))
        rows.append(sorted({*dictionary[:1], *rows[0]}))
    choices = [-1, *range(len(rows))]
    parents = []
    for y, row in enumerate(rows):
        options = [x for x in choices if x != y]
        if dictionary and row:
            options.append(DICTIONARY_PARENT)
        parents.append(draw(st.sampled_from(options)))
    return rows, EncodingPlan(parents, 0, bool(dictionary)), dictionary


@settings(deadline=None, max_examples=400)
@given(collections(), st.lists(st.integers(0, 1), max_size=300))
def test_generated_collections(collection, prefix):
    rows, plan, dictionary = collection
    assert_same_bits(rows, plan, dictionary, prefix)


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.lists(st.integers(0, 50), max_size=10, unique=True).map(sorted), max_size=30),
    st.booleans(),
    st.sampled_from([0, 5, 96]),
)
def test_planned_collections(rows, with_dictionary, limit):
    """The plans the planner makes, windowed and full, with and without a
    dictionary."""
    dictionary = reference.build_dictionary(rows) if with_dictionary else None
    plan = reference.plan_references(rows, 3, limit, dictionary)
    assert_same_bits(rows, plan, dictionary if plan.used_dictionary else [])


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.integers(0, 300), max_size=40, unique=True).map(sorted)
    | st.tuples(st.integers(0, 300), st.integers(1, 300)).map(
        lambda p: list(range(p[0], p[0] + p[1]))  # dense: RLE
    )
    | st.integers(1, 150).map(lambda n: list(range(0, 2 * n, 2)))  # dense: plain
    | st.sets(st.integers(0, 11), min_size=5).map(sorted),  # short and dense
    st.lists(st.integers(0, 1), max_size=20),
)
# The bit vector beats the gaps and its RLE ties the plain bits: plain.
@example([1, 2, 3, 4, 5, 6, 8], [])
@example([0, 2, 4, 5, 6, 7, 8, 9], [1])
def test_ascending_lists(row, prefix):
    """A direct row's or a locals list's mode bit and body, each body."""
    got = written(bitio, reference.encode_ascending, prefix, row)
    assert got == written(oracle_bitio, oracle_codecs.encode_ascending, prefix, row)


def test_rows_out_of_order_are_refused():
    for rows, parents in (([[3, 1]], [-1]), ([[0, 1, 2], [5, 4]], [-1, 0])):
        with pytest.raises(CodecError):
            reference.encode_rows(BitWriter(), rows, EncodingPlan(parents, 0))
    with pytest.raises(CodecError):
        reference.encode_ascending(BitWriter(), [2, 2])


def test_entries_past_the_gamma_table():
    big = len(reference._GAMMA_COST)
    rows = [[3, big + 5, 3 * big], [3, big + 5], [], [big + 5, 3 * big], list(range(big + 40))]
    for parents in ([-1, 0, -1, 0, -1], [1, -1, 3, -1, 0], [4, 4, 4, 4, 0]):
        assert_same_bits(rows, EncodingPlan(parents, 0), None)


@pytest.mark.parametrize("transpose", [False, True], ids=["forward", "transpose"])
def test_every_collection_of_a_build(transpose, test_refinement_config, tmp_path):
    """Every collection a 600-page build writes, as the build writes it:
    after the bits its payload already holds."""
    calls = []
    encode_rows = reference.encode_rows

    def checking(writer, rows, plan, window, full_affinity_limit, dictionary):
        prefix = oracle_bitio.BitWriter()
        data, length = writer.to_bytes(), len(writer)
        for index in range(length):
            prefix.write_bit(data[index >> 3] >> (7 - (index & 7)) & 1)
        result = encode_rows(writer, rows, plan, window, full_affinity_limit, dictionary)
        oracle_codecs.encode_rows(prefix, rows, plan, window, full_affinity_limit, dictionary)
        calls.append(writer.to_bytes() == prefix.to_bytes() and len(writer) == len(prefix))
        return result

    repository = generate_web(GeneratorConfig(num_pages=600, seed=23))
    options = BuildOptions(refinement=test_refinement_config, transpose=transpose)
    with mock.patch.object(encode, "encode_rows", checking):
        build_snode(repository, tmp_path / "store", options).store.close()
    assert len(calls) > 100
    assert all(calls)
