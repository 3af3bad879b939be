"""Differential tests: the reference planner against the pair-by-pair
planner kept in ``tests/util/oracle_planner.py``.

The planner under ``src/`` memoises costs by row content, enumerates a
row's parents from a target index instead of trying every pair and
contracts cycles incrementally; none of that may show in its answers.
Plans must be equal field for field, the edge list handed to
``minimum_arborescence`` edge for edge in order, and arborescences parent
for parent — equal weight is not enough, because the bytes written
depend on which of two equally cheap parents wins.
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


def assert_same_plan(rows, window, full_affinity_limit, dictionary):
    expected, expected_graph = planned(
        oracle_planner, rows, window, full_affinity_limit, dictionary
    )
    plan, graph = planned(reference, rows, window, full_affinity_limit, dictionary)
    # The affinity graph edge for edge *in order*: the arborescence breaks
    # ties by position in the list.
    assert graph == expected_graph
    assert plan.parents == expected.parents
    assert plan.total_bits == expected.total_bits
    assert plan.used_dictionary == expected.used_dictionary
    return plan


@pytest.mark.parametrize("transpose", [False, True], ids=["forward", "transpose"])
def test_every_collection_of_a_build(
    transpose, test_refinement_config, tmp_path, monkeypatch
):
    """Every intranode and superedge collection of a 600-page build."""
    repository = generate_web(GeneratorConfig(num_pages=600, seed=23))
    options = BuildOptions(refinement=test_refinement_config, transpose=transpose)
    build = build_snode(repository, tmp_path / "store", options)
    build.store.close()
    model = build.model
    checked = []

    def checking_planner(rows, window, full_affinity_limit, dictionary):
        checked.append(len(rows))
        return assert_same_plan(rows, window, full_affinity_limit, dictionary)

    # Re-encode in this process whatever pool the build itself ran on.
    monkeypatch.setattr(encode, "plan_references", checking_planner)
    superedge_graphs = 0
    for supernode in range(model.num_supernodes):
        encode.encode_intranode(model.intranode[supernode])
        for target in model.super_adjacency[supernode]:
            encode.encode_superedge(model.superedges[(supernode, target)])
            superedge_graphs += 1
    assert superedge_graphs
    assert len(checked) == model.num_supernodes + superedge_graphs
    assert max(checked) > 1


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


def test_entries_past_the_gamma_table():
    """Targets and distances the module-level cost table does not reach."""
    big = len(reference._GAMMA_COST)
    rows = [[3, big + 5, 3 * big], [3, big + 5], [], [big + 5, 3 * big], [3, big + 5]]
    for limit in (0, 96):
        assert_same_plan(rows, 4, limit, reference.build_dictionary(rows))
    long_collection = [[7]] + [[]] * (big + 2) + [[7]]
    assert_same_plan(long_collection, big + 8, 0, None)
    for row, parent in ((rows[0], rows[1]), (rows[1], rows[0]), (rows[0], rows[2])):
        assert reference.reference_cost(row, parent, big + 9) == (
            oracle_planner.reference_cost(row, parent, big + 9)
        )


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
