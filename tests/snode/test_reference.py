"""Tests for reference encoding: costs, plans, Edmonds, serialization."""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
from oracle_planner import reference_cost  # noqa: E402

from repro.errors import CodecError  # noqa: E402
from repro.snode import reference  # noqa: E402
from repro.snode.reference import (  # noqa: E402
    DICTIONARY_PARENT,
    EncodingPlan,
    _CollectionCosts,
    build_dictionary,
    decode_rows,
    direct_cost,
    encode_rows,
    minimum_arborescence,
    plan_references,
)
from repro.util.bitio import BitReader, BitWriter  # noqa: E402
from repro.util.varint import gamma_cost  # noqa: E402


def rows_strategy():
    """Random row collections over a shared small target space."""
    return st.integers(min_value=1, max_value=40).flatmap(
        lambda space: st.lists(
            st.lists(
                st.integers(0, space - 1), max_size=10, unique=True
            ).map(sorted),
            max_size=20,
        )
    )


class TestCosts:
    def test_direct_cost_matches_encoding(self):
        rows = [[0, 3, 7], [], [1]]
        plan = EncodingPlan(parents=[-1, -1, -1], total_bits=0)
        writer = BitWriter()
        encode_rows(writer, rows, plan=plan)
        expected = gamma_cost(len(rows)) + sum(direct_cost(r) for r in rows)
        assert len(writer) == expected

    def test_reference_cost_cheap_for_identical_rows(self):
        row = list(range(0, 30, 2))
        assert _CollectionCosts([row, row]).reference_cost(1, 0) < direct_cost(row)

    def test_reference_cost_counts_extras(self):
        base = [0, 2, 4]
        more = [0, 2, 4, 30]
        extra = _CollectionCosts([base, more]).reference_cost(1, 0)
        assert extra > _CollectionCosts([base, base]).reference_cost(1, 0)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_disjoint_parent_never_beats_direct(self, data):
        """The planner's pruning lemma: no shared target, no candidate."""
        space = data.draw(st.integers(min_value=2, max_value=60))
        targets = st.integers(0, space - 1)
        row = sorted(data.draw(st.lists(targets, min_size=1, unique=True)))
        parent = sorted(set(data.draw(st.lists(targets))) - set(row))
        distance = data.draw(st.integers(min_value=1, max_value=300))
        assert reference_cost(row, parent, distance) > direct_cost(row)

    @settings(deadline=None, max_examples=400)
    @given(st.data())
    def test_pair_floor_never_exceeds_the_kernel(self, data):
        """The planner prices a pair only when its floor is below the direct
        cost: the floor must never exceed the kernel's price, and no
        reference may cost under ``_MIN_REFERENCE_BITS``.

        The copy vectors drawn reach the floor's every case: one shared
        entry, all entries but one shared, alternating bits (every run a
        single bit, where RLE is dearest), and parents longer than the
        table of fewest run bits, where the floor charges
        ``min(length, 3)``."""
        big = len(reference._GAMMA_COST)
        offset = data.draw(st.sampled_from([0, big - 6]))
        space = data.draw(st.sampled_from([6, 40]))
        targets = st.integers(0, space).map(
            lambda value: value + offset
        ) | st.sampled_from([3 * big, 3 * big + 1])
        row = sorted(set(data.draw(st.lists(targets, max_size=12))))
        ascending = st.lists(targets, max_size=14, unique=True).map(sorted)
        shapes = [
            st.lists(targets, min_size=1, max_size=3, unique=True).map(sorted),
            ascending,
            st.sampled_from([row, []]),  # a full copy, an empty parent
            st.lists(st.booleans(), min_size=len(row), max_size=len(row)).map(
                lambda keep: list(itertools.compress(row, keep))  # some of the row
            ),
            ascending.map(lambda more: sorted({*row, *more})),  # all of it
        ]
        outside = sorted({3 * big + 2, *range(offset, offset + space + 2)} - set(row))
        long = len(reference._FEWEST_RUN_BITS) + 2
        if row:
            others = st.lists(st.sampled_from(outside), min_size=1, max_size=8, unique=True)
            shapes += [
                # one shared entry
                st.tuples(st.sampled_from(row), others).map(lambda p: sorted({p[0], *p[1]})),
                # all entries but one shared
                st.sampled_from(outside).map(lambda other: sorted({*row, other})),
                # longer than the table: the row and a stretch of others
                st.integers(0, 3).map(
                    lambda shift: sorted({*row, *range(offset + shift, offset + shift + long)})
                ),
                st.sampled_from(row).map(lambda one: sorted({one, *range(5 * big, 5 * big + long)})),
            ]
            if data.draw(st.booleans()):
                # alternating: the row is every other target of a stretch
                start = data.draw(st.integers(0, space)) + offset
                stretch = range(start, start + 2 * data.draw(st.integers(1, 70)))
                row = list(stretch[::2])
                shapes = [st.just(list(stretch)), st.just(list(stretch)[1:] + [stretch[-1] + 1])]
        parents = data.draw(st.lists(st.one_of(shapes), min_size=1, max_size=6))
        gamma = reference._gamma_costs(
            max([len(row), *(value + 1 for entries in (row, *parents) for value in entries)])
        )
        holders = {target: [] for target in row}
        for index, parent in enumerate(parents):
            for target in parent:
                if target in holders:
                    holders[target].append(index)
        floors = reference._parent_floors(
            row, holders, [len(parent) for parent in parents], gamma
        )
        for index, parent in enumerate(parents):
            if set(row).isdisjoint(parent):
                # No floor: the pruning lemma rules the pair out.
                assert index not in floors
            else:
                kernel = reference._reference_base_cost(
                    row, frozenset(row), parent, frozenset(parent), gamma
                )
                assert floors[index] <= kernel
            for distance in (1, 2, 3, big + 9):
                assert reference_cost(row, parent, distance) >= (
                    reference._MIN_REFERENCE_BITS
                )

    def test_fewest_run_bits(self):
        """The table against every split of up to 12 bits into runs."""

        def splits(n):
            if not n:
                yield []
            for run in range(1, n + 1):
                for rest in splits(n - run):
                    yield [run, *rest]

        expected = [
            min(sum(gamma_cost(run - 1) for run in split) for split in splits(n))
            for n in range(13)
        ]
        assert list(reference._FEWEST_RUN_BITS[:13]) == expected
        assert expected[1:] == [1, 2, 3, 4, 5, 5, 5, 6, 7, 7, 7, 7]
        table = reference._FEWEST_RUN_BITS
        assert all(
            table[n] == min(gamma_cost(run - 1) + table[n - run] for run in range(1, n + 1))
            for n in range(1, len(table))
        )


class TestArborescence:
    def test_star_from_root(self):
        edges = [(3, 0, 1), (3, 1, 1), (3, 2, 1)]
        parents = minimum_arborescence(4, edges, 3)
        assert parents == {0: 3, 1: 3, 2: 3}

    def test_prefers_cheap_chain(self):
        edges = [(2, 0, 1), (0, 1, 1), (2, 1, 5)]
        parents = minimum_arborescence(3, edges, 2)
        assert parents == {0: 2, 1: 0}

    def test_cycle_contraction(self):
        # 0 -> 1 -> 0 cheap cycle; root can only enter through 0.
        edges = [(2, 0, 10), (0, 1, 1), (1, 0, 1), (2, 1, 10)]
        parents = minimum_arborescence(3, edges, 2)
        assert parents[1] == 0 or parents[0] == 1
        total = 0
        for target, source in parents.items():
            total += next(w for s, t, w in edges if s == source and t == target)
        assert total == 11

    def test_unreachable_node_raises(self):
        with pytest.raises(CodecError):
            minimum_arborescence(3, [(2, 0, 1)], 2)

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_property_matches_brute_force(self, data):
        n = data.draw(st.integers(min_value=2, max_value=5))
        root = n - 1
        weights = {}
        for source in range(n):
            for target in range(n - 1):  # root has no incoming edges
                if source == target:
                    continue
                weights[(source, target)] = data.draw(
                    st.integers(min_value=1, max_value=9)
                )
        edges = [(s, t, w) for (s, t), w in weights.items()]
        parents = minimum_arborescence(n, edges, root)
        got = sum(weights[(parents[t], t)] for t in range(n - 1))
        # Brute force: every node picks any parent; keep assignments that
        # form an arborescence (no cycles, all reachable from root).
        best = None
        non_roots = list(range(n - 1))
        choices = [
            [s for s in range(n) if s != t and (s, t) in weights]
            for t in non_roots
        ]
        for assignment in itertools.product(*choices):
            parent_of = dict(zip(non_roots, assignment))
            # check acyclic/reachable
            valid = True
            for node in non_roots:
                seen = set()
                cursor = node
                while cursor != root:
                    if cursor in seen:
                        valid = False
                        break
                    seen.add(cursor)
                    cursor = parent_of[cursor]
                if not valid:
                    break
            if not valid:
                continue
            cost = sum(weights[(parent_of[t], t)] for t in non_roots)
            best = cost if best is None else min(best, cost)
        assert got == best


class TestPlans:
    def test_empty_collection(self):
        plan = plan_references([])
        assert plan.parents == []
        assert plan.total_bits == 0

    def test_similar_rows_get_references(self):
        base = list(range(0, 40, 2))
        rows = [base, base, base, sorted(base[:-1] + [39])]
        plan = plan_references(rows)
        assert sum(1 for p in plan.parents if p != -1) >= 2

    def test_windowed_mode_references_backward_only(self):
        rows = [[i % 5] for i in range(50)]
        plan = plan_references(rows, window=4, full_affinity_limit=10)
        for y, parent in enumerate(plan.parents):
            if parent >= 0:
                assert y - 4 <= parent < y

    def test_full_mode_beats_or_ties_windowed(self):
        rng = random.Random(0)
        base = sorted(rng.sample(range(100), 12))
        rows = [sorted(set(base) | {rng.randrange(100)}) for _ in range(30)]
        rng.shuffle(rows)
        full = plan_references(rows, full_affinity_limit=100)
        windowed = plan_references(rows, window=4, full_affinity_limit=0)
        assert full.total_bits <= windowed.total_bits

    def test_dictionary_plan_flags_usage(self):
        rows = [[7]] * 20
        dictionary = build_dictionary(rows)
        plan = plan_references(rows, dictionary=dictionary)
        assert plan.used_dictionary
        assert DICTIONARY_PARENT in plan.parents

    def test_dictionary_rejected_when_useless(self):
        rows = [[i] for i in range(20)]  # no repeated targets
        dictionary = build_dictionary(rows)
        assert dictionary == []
        plan = plan_references(rows, dictionary=dictionary)
        assert not plan.used_dictionary


class TestBuildDictionary:
    def test_frequent_targets_only(self):
        rows = [[1, 2], [2, 3], [2], [9]]
        assert build_dictionary(rows) == [2]

    def test_cap_keeps_most_frequent(self):
        rows = [[i, 99] for i in range(50)] + [[i, 99] for i in range(50)]
        dictionary = build_dictionary(rows, max_entries=3)
        assert 99 in dictionary
        assert len(dictionary) == 3

    def test_sorted_output(self):
        rows = [[5, 1], [5, 1], [3], [3]]
        assert build_dictionary(rows) == [1, 3, 5]


class TestSerialization:
    @settings(deadline=None, max_examples=60)
    @given(rows_strategy())
    def test_property_roundtrip_plain(self, rows):
        writer = BitWriter()
        encode_rows(writer, rows)
        assert decode_rows(BitReader(writer.to_bytes())) == rows

    @settings(deadline=None, max_examples=60)
    @given(rows_strategy())
    def test_property_roundtrip_with_dictionary(self, rows):
        dictionary = build_dictionary(rows)
        plan = plan_references(rows, dictionary=dictionary)
        stored = dictionary if plan.used_dictionary else []
        writer = BitWriter()
        encode_rows(writer, rows, plan=plan, dictionary=stored)
        assert decode_rows(BitReader(writer.to_bytes()), dictionary=stored) == rows

    @settings(deadline=None, max_examples=40)
    @given(rows_strategy())
    def test_property_windowed_roundtrip(self, rows):
        writer = BitWriter()
        encode_rows(writer, rows, window=3, full_affinity_limit=2)
        assert decode_rows(BitReader(writer.to_bytes())) == rows

    def test_plan_mismatch_rejected(self):
        with pytest.raises(CodecError):
            encode_rows(
                BitWriter(),
                [[0], [1]],
                plan=EncodingPlan(parents=[-1], total_bits=0),
            )

    def test_forward_references_resolve(self):
        # Force row 0 to reference row 1 (a forward reference).
        rows = [[0, 1, 2], [0, 1, 2]]
        plan = EncodingPlan(parents=[1, -1], total_bits=0)
        writer = BitWriter()
        encode_rows(writer, rows, plan=plan)
        assert decode_rows(BitReader(writer.to_bytes())) == rows

    @settings(deadline=None, max_examples=120)
    @given(rows_strategy(), st.booleans(), st.sampled_from([0, 5, 96]))
    def test_total_bits_matches_actual_encoding(self, rows, with_dictionary, limit):
        """Exact without a dictionary; in dictionary mode an upper bound
        (the plan charges full-width indexes, the encoder writes
        minimal-binary ones — see ``EncodingPlan``)."""
        dictionary = build_dictionary(rows) if with_dictionary else None
        plan = plan_references(
            rows, window=3, full_affinity_limit=limit, dictionary=dictionary
        )
        writer = BitWriter()
        encode_rows(writer, rows, plan=plan, dictionary=dictionary)
        written = len(writer) - gamma_cost(len(rows))
        if plan.used_dictionary:
            assert written <= plan.total_bits
        else:
            assert written == plan.total_bits
