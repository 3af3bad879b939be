"""Differential tests: ``build_model`` against the per-edge builder kept
in ``tests/util/oracle_model.py``.

The builder under ``src/`` renumbers and sorts a page's targets and walks
them once; the model it returns — supernode graph, every intranode row,
every superedge graph with its polarity, rows and linked sources, both
counts — must equal the oracle's, whatever the crawl.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
import oracle_model  # noqa: E402

from repro.partition.refine import refine_partition  # noqa: E402
from repro.snode.model import build_model  # noqa: E402
from repro.snode.numbering import build_numbering  # noqa: E402
from repro.webdata.generator import GeneratorConfig, generate_web  # noqa: E402
from repro.webdata.recrawl import RecrawlConfig, recrawl  # noqa: E402


def assert_same_model(repository, refinement_config):
    partition = refine_partition(repository, refinement_config).partition
    numbering = build_numbering(repository, partition)
    superedges = negatives = 0
    for graph in (repository.graph, repository.graph.transpose()):
        for force_positive in (False, True):
            model = build_model(graph, numbering, force_positive=force_positive)
            assert model == oracle_model.build_model(graph, numbering, force_positive)
            superedges += len(model.superedges)
            negatives += model.negative_count
    return superedges, negatives


@pytest.mark.parametrize("pages, seed", [(300, 17), (700, 5), (1200, 99)])
def test_generated_crawls(pages, seed, test_refinement_config):
    repository = generate_web(GeneratorConfig(num_pages=pages, seed=seed))
    superedges, negatives = assert_same_model(repository, test_refinement_config)
    assert superedges > negatives > 0  # both polarities were compared


def test_after_recrawl_steps(tiny_repo, test_refinement_config):
    for step in recrawl(tiny_repo, RecrawlConfig(steps=3, seed=5)):
        assert_same_model(step.repository, test_refinement_config)
