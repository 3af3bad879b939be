"""Differential tests: the reference planner against the pair-by-pair
planner kept in ``tests/util/oracle_planner.py``.

The planner under ``src/`` memoises costs by row content, enumerates a
row's parents from a target index instead of trying every pair and
contracts cycles incrementally; none of that may show in its answers.
Plans must be equal field for field, the edge list handed to
``minimum_arborescence`` edge for edge in order, and arborescences parent
for parent — equal weight is not enough, because the bytes written
depend on which of two equally cheap parents wins.

The planner under ``src/`` also skips Edmonds where its answer cannot
matter: a collection whose every non-empty row takes the dictionary
whatever its parent (the all-dictionary shortcut) and an affinity graph
with no edge but the root's.  Wherever it skips, the oracle's plan must
be the all-dictionary plan or the oracle's graph the root's star.
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
import oracle_planner  # noqa: E402

from repro.errors import CodecError  # noqa: E402
from repro.snode import encode, reference  # noqa: E402
from repro.snode.build import BuildOptions, build_snode  # noqa: E402
from repro.webdata.generator import GeneratorConfig, generate_web  # noqa: E402


def planned(module, *arguments):
    """``module.plan_references(*arguments)`` and the ``(num_nodes, edges,
    root)`` it handed to ``module.minimum_arborescence``, if it did."""
    handed = []
    solve = module.minimum_arborescence

    def capturing(num_nodes, edges, root):
        handed.append((num_nodes, list(edges), root))
        return solve(num_nodes, edges, root)

    with mock.patch.object(module, "minimum_arborescence", capturing):
        return module.plan_references(*arguments), handed


def all_dictionary(rows, plan):
    """Whether ``plan`` sends every non-empty row of ``rows`` to the
    dictionary and every empty one to the root."""
    return plan.used_dictionary and plan.parents == [
        reference.DICTIONARY_PARENT if row else -1 for row in rows
    ]


def assert_same_plan(rows, window, full_affinity_limit, dictionary):
    expected, expected_graph = planned(
        oracle_planner, rows, window, full_affinity_limit, dictionary
    )
    plan, graph = planned(reference, rows, window, full_affinity_limit, dictionary)
    assert plan.parents == expected.parents
    assert plan.total_bits == expected.total_bits
    assert plan.used_dictionary == expected.used_dictionary
    if graph or not expected_graph:
        # The affinity graph edge for edge *in order*: the arborescence
        # breaks ties by position in the list.
        assert graph == expected_graph
    else:
        ((num_nodes, edges, root),) = expected_graph
        assert all_dictionary(rows, expected) or all(
            source == root for source, _, _ in edges
        )
    return plan


def collections_of_a_build(transpose, refinement, root):
    """The ``plan_references`` arguments of every intranode and superedge
    collection of a 600-page build, and the build's model."""
    repository = generate_web(GeneratorConfig(num_pages=600, seed=23))
    options = BuildOptions(refinement=refinement, transpose=transpose)
    build = build_snode(repository, root, options)
    build.store.close()
    model = build.model
    collections = []

    def capturing(rows, window, full_affinity_limit, dictionary):
        collections.append((rows, window, full_affinity_limit, dictionary))
        return reference.plan_references(rows, window, full_affinity_limit, dictionary)

    # Re-encode in this process whatever pool the build itself ran on.
    with mock.patch.object(encode, "plan_references", capturing):
        for supernode in range(model.num_supernodes):
            encode.encode_intranode(model.intranode[supernode])
            for target in model.super_adjacency[supernode]:
                encode.encode_superedge(model.superedges[(supernode, target)])
    return model, collections


@pytest.mark.parametrize("transpose", [False, True], ids=["forward", "transpose"])
def test_every_collection_of_a_build(transpose, test_refinement_config, tmp_path):
    """Every intranode and superedge collection of a 600-page build."""
    model, collections = collections_of_a_build(
        transpose, test_refinement_config, tmp_path / "store"
    )
    superedge_graphs = sum(map(len, model.super_adjacency))
    assert superedge_graphs
    assert len(collections) == model.num_supernodes + superedge_graphs
    assert max(len(rows) for rows, *_ in collections) > 1
    for arguments in collections:
        assert_same_plan(*arguments)


def test_a_build_plans_with_less_work_than_the_oracle(test_refinement_config, tmp_path):
    """On the collections of a 600-page build, the planner under ``src/``
    prices fewer pairs (a pinned count) and hands Edmonds fewer edges than
    the oracle, and skips Edmonds for full-affinity collections the oracle
    hands it, some of them by the all-dictionary shortcut."""
    _, collections = collections_of_a_build(False, test_refinement_config, tmp_path / "store")
    work = {}
    for module, kernel in (
        (reference, "_reference_base_cost"),
        (oracle_planner, "reference_cost"),
    ):
        priced = []
        price = getattr(module, kernel)

        def counting(*arguments, price=price):
            priced.append(None)
            return price(*arguments)

        edges = 0
        skipped = []  # per skipped full-affinity collection: all-dictionary?
        with mock.patch.object(module, kernel, counting):
            for rows, window, full_affinity_limit, dictionary in collections:
                plan, graph = planned(module, rows, window, full_affinity_limit, dictionary)
                if graph:
                    edges += sum(len(graph_edges) for _, graph_edges, _ in graph)
                elif len(rows) <= full_affinity_limit:
                    skipped.append(all_dictionary(rows, plan))
        work[module.__name__] = (len(priced), edges, skipped)
    kernel_runs, edges, skipped = work["repro.snode.reference"]
    oracle_runs, oracle_edges, oracle_skipped = work["oracle_planner"]
    # The count floor of ``_parent_floors`` rules out about half of the
    # pairs the ``min(length, 3)`` body floor left to price (3 395).
    assert kernel_runs == 1736
    assert kernel_runs < oracle_runs
    assert edges < oracle_edges
    assert not oracle_skipped
    assert any(skipped)


@st.composite
def tie_prone_collections(draw):
    """Rows drawn from a small pool — so duplicates abound — with empties,
    a row covering the whole target space, and single-entry variations."""
    space = draw(st.integers(min_value=1, max_value=40))
    targets = st.integers(0, space - 1)
    pool = draw(
        st.lists(st.lists(targets, max_size=10, unique=True), min_size=1, max_size=5)
    )
    pool += [[], list(range(space))]
    limit = draw(st.sampled_from([6, 96]))
    size = draw(st.sampled_from([0, 1, 2, limit - 1, limit, limit + 1]))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    varied = draw(st.lists(st.none() | targets, min_size=size, max_size=size))
    rows = [
        sorted({*pool[pick]} if extra is None else {*pool[pick], extra})
        for pick, extra in zip(picks, varied)
    ]
    return rows, limit


@settings(deadline=None, max_examples=150)
@given(tie_prone_collections(), st.sampled_from([1, 4, 8]), st.booleans())
def test_generated_collections(collection, window, with_dictionary):
    rows, limit = collection
    dictionary = reference.build_dictionary(rows) if with_dictionary else None
    assert_same_plan(rows, window, limit, dictionary)


@st.composite
def repeated_rows(draw):
    """Copies of one row — about as many as its gap-coded body has bits,
    where the all-dictionary shortcut turns on — with empty rows and at
    times one other row, which keeps the shortcut off.

    A non-empty row can only cost under the ``1 + _MIN_REFERENCE_BITS``
    the shortcut needs per row as a full copy of the dictionary without
    extras (4 bits, against at least 6 direct), and such a collection's
    dictionary, from ``build_dictionary``, is the repeated row.  The
    shortcut then fires exactly when the copies outnumber the bits of the
    dictionary's own record.
    """
    space = draw(st.integers(min_value=1, max_value=300))
    row = sorted(draw(st.sets(st.integers(0, space - 1), min_size=1, max_size=3)))
    threshold = reference._gaps_cost(row)
    near = st.sampled_from([threshold, threshold + 1, threshold - 1, threshold + 2])
    copies = draw(near | st.integers(2, 2 * threshold))
    rows = [row] * copies + [[]] * draw(st.integers(0, 3))
    if draw(st.booleans()):
        rows.append(sorted(draw(st.sets(st.integers(0, space - 1), max_size=4))))
    limit = draw(st.sampled_from([6, 96]))
    return draw(st.permutations(rows)), limit


@settings(deadline=None, max_examples=150)
@given(repeated_rows(), st.sampled_from([1, 8]))
def test_generated_repeated_rows(collection, window):
    rows, limit = collection
    assert_same_plan(rows, window, limit, reference.build_dictionary(rows))


@pytest.mark.parametrize("limit", [6, 96], ids=["windowed", "full"])
@pytest.mark.parametrize(
    "rows, fires",
    [
        # [0] is gap-coded in 4 bits: the dictionary plan needs 5 copies
        ([[0]] * 4, False),
        ([[0]] * 5, True),
        ([[0]] * 5 + [[], []], True),
        ([[0]] * 12 + [[1]], False),  # [1] is no full copy
        # the cheapest row that is not a bare full copy: 7 bits, 1 extra
        ([[1]] * 12 + [[0, 1]], False),
        # [3, 9]: gamma(2) + gamma(3) + gamma(5) = 3 + 5 + 5 bits
        ([[3, 9]] * 13, False),
        ([[3, 9]] * 14, True),
    ],
)
def test_all_dictionary_shortcut_at_its_bounds(rows, fires, limit):
    """Each strict comparison of the shortcut, on both sides."""
    dictionary = reference.build_dictionary(rows)
    plan, graph = planned(reference, rows, 8, limit, dictionary)
    assert assert_same_plan(rows, 8, limit, dictionary) == plan
    costs = reference._CollectionCosts(rows)
    shortcut = reference._all_dictionary_plan(
        rows, costs.direct, costs.dictionary_costs(dictionary), dictionary
    )
    assert (shortcut is not None) == fires
    if fires:
        assert shortcut == plan and all_dictionary(rows, plan) and not graph
    elif limit == 96:
        assert graph  # the copies reference each other for less than direct


def test_entries_past_the_gamma_table():
    """Targets and distances the module-level cost table does not reach."""
    big = len(reference._GAMMA_COST)
    rows = [[3, big + 5, 3 * big], [3, big + 5], [], [big + 5, 3 * big], [3, big + 5]]
    for limit in (0, 96):
        assert_same_plan(rows, 4, limit, reference.build_dictionary(rows))
    long_collection = [[7]] + [[]] * (big + 2) + [[7]]
    assert_same_plan(long_collection, big + 8, 0, None)
    gamma = reference._gamma_costs(3 * big + 1)
    for row, parent in ((rows[0], rows[1]), (rows[1], rows[0]), (rows[0], rows[2])):
        expected = oracle_planner.reference_cost(row, parent, big + 9)
        kernel = reference._reference_base_cost(
            row, frozenset(row), parent, frozenset(parent), gamma
        )
        assert kernel + gamma[big + 8] == expected
        costs = reference._CollectionCosts([parent, *[[]] * (big + 8), row])
        if set(row).isdisjoint(parent):
            assert costs.reference_cost(big + 9, 0) >= reference._NO_SHARED_TARGET
        else:
            assert costs.reference_cost(big + 9, 0) == expected


@st.composite
def tied_graphs(draw):
    """Dense small digraphs with few distinct integer weights."""
    num_nodes = draw(st.integers(min_value=2, max_value=12))
    root = draw(st.integers(0, num_nodes - 1))
    # Weight 0 stands for "no such edge"; some nodes may be unreachable,
    # which both implementations must report the same way.
    weights = draw(
        st.lists(
            st.integers(0, draw(st.integers(1, 4))),
            min_size=num_nodes * num_nodes,
            max_size=num_nodes * num_nodes,
        )
    )
    edges = [
        (index // num_nodes, index % num_nodes, weight)
        for index, weight in enumerate(weights)
        if weight
    ]
    parallel = draw(st.lists(st.sampled_from(edges), max_size=8)) if edges else []
    return num_nodes, draw(st.permutations(edges + parallel)), root


@settings(deadline=None, max_examples=400)
@given(tied_graphs())
def test_arborescence_parent_for_parent(graph):
    num_nodes, edges, root = graph
    try:
        expected = oracle_planner.minimum_arborescence(num_nodes, edges, root)
    except CodecError as error:
        with pytest.raises(CodecError, match=str(error)):
            reference.minimum_arborescence(num_nodes, edges, root)
    else:
        assert reference.minimum_arborescence(num_nodes, edges, root) == expected
