"""Tests for the Partition data type."""

from __future__ import annotations

import pytest

from repro.errors import PartitionError
from repro.partition.partition import Element, Partition, split_element


class TestElement:
    def test_empty_rejected(self):
        with pytest.raises(PartitionError):
            Element(pages=(), domain="a.com")

    def test_unsorted_rejected(self):
        with pytest.raises(PartitionError):
            Element(pages=(2, 1), domain="a.com")

    def test_duplicates_rejected(self):
        with pytest.raises(PartitionError):
            Element(pages=(1, 1), domain="a.com")

    def test_len(self):
        assert len(Element(pages=(0, 3, 5), domain="a.com")) == 3


class TestPartition:
    def test_trivial_partition(self):
        partition = Partition.trivial(5)
        assert partition.num_elements == 1
        assert partition.element_of(3) == 0

    def test_overlap_rejected(self):
        with pytest.raises(PartitionError):
            Partition(
                3,
                [
                    Element(pages=(0, 1), domain=""),
                    Element(pages=(1, 2), domain=""),
                ],
            )

    def test_uncovered_pages_rejected(self):
        with pytest.raises(PartitionError):
            Partition(3, [Element(pages=(0, 1), domain="")])

    def test_out_of_range_rejected(self):
        with pytest.raises(PartitionError):
            Partition(2, [Element(pages=(0, 1, 5), domain="")])

    def test_by_domain_groups_correctly(self):
        domains = ["a.com", "b.com", "a.com", "b.com", "a.com"]
        partition = Partition.by_domain(domains)
        assert partition.num_elements == 2
        groups = {e.domain: e.pages for e in partition.elements()}
        assert groups["a.com"] == (0, 2, 4)
        assert groups["b.com"] == (1, 3)

    def test_from_assignment(self):
        partition = Partition.from_assignment([0, 1, 0, 2])
        assert partition.sizes() == [2, 1, 1]

    def test_assignment_roundtrip(self):
        partition = Partition.from_assignment([1, 0, 1, 1])
        assignment = partition.assignment()
        rebuilt = Partition.from_assignment(assignment)
        assert [e.pages for e in rebuilt.elements()] == [
            e.pages for e in partition.elements()
        ]

    def test_element_of_out_of_range(self):
        with pytest.raises(PartitionError):
            Partition.trivial(3).element_of(7)


class TestSplitElement:
    def test_inherits_metadata(self):
        element = Element(pages=(0, 1, 2), domain="a.com", url_depth=1)
        children = split_element(element, [[0], [1, 2]])
        assert all(c.domain == "a.com" for c in children)
        assert all(c.url_depth == 1 for c in children)

    def test_overrides_metadata(self):
        element = Element(pages=(0, 1), domain="a.com")
        children = split_element(
            element, [[0], [1]], url_depth=2, url_split_exhausted=True
        )
        assert all(c.url_depth == 2 and c.url_split_exhausted for c in children)

    def test_skips_empty_groups(self):
        element = Element(pages=(0, 1), domain="a.com")
        children = split_element(element, [[], [0, 1]])
        assert len(children) == 1

    def test_all_empty_rejected(self):
        element = Element(pages=(0,), domain="a.com")
        with pytest.raises(PartitionError):
            split_element(element, [[]])
