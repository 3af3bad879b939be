"""Tests for the positional inverted index."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.index.textindex import TextIndex
from repro.webdata.corpus import Repository


@pytest.fixture()
def index():
    urls = [f"http://a.com/p{i}.html" for i in range(5)]
    terms = [
        ("mobile", "networking", "is", "fun"),
        ("networking", "mobile", "devices"),          # reversed: no phrase
        ("the", "mobile", "networking", "lab"),
        ("peanuts", "and", "snoopy"),
        (),
    ]
    repo = Repository.from_parts(urls, [], terms)
    return TextIndex(repo)


class TestTermLookup:
    def test_pages_with_term(self, index):
        assert index.pages_with_term("mobile") == {0, 1, 2}

    def test_case_insensitive(self, index):
        assert index.pages_with_term("MOBILE") == {0, 1, 2}

    def test_unknown_term_empty(self, index):
        assert index.pages_with_term("quantum") == set()

class TestConjunction:
    def test_all_terms(self, index):
        assert index.pages_with_all(["mobile", "networking"]) == {0, 1, 2}

    def test_empty_conjunction_rejected(self, index):
        with pytest.raises(QueryError):
            index.pages_with_all([])

    def test_disjoint_terms(self, index):
        assert index.pages_with_all(["mobile", "snoopy"]) == set()


class TestPhrase:
    def test_phrase_requires_adjacency_in_order(self, index):
        assert index.pages_with_phrase(["mobile", "networking"]) == {0, 2}

    def test_single_word_phrase(self, index):
        assert index.pages_with_phrase(["snoopy"]) == {3}

    def test_empty_phrase_rejected(self, index):
        with pytest.raises(QueryError):
            index.pages_with_phrase([])

    def test_three_word_phrase(self):
        urls = ["http://a.com/x", "http://a.com/y"]
        terms = [
            ("computer", "music", "synthesis"),
            ("computer", "music", "and", "synthesis"),
        ]
        index = TextIndex(Repository.from_parts(urls, [], terms))
        assert index.pages_with_phrase(["computer", "music", "synthesis"]) == {0}

    def test_repeated_words_in_page(self):
        urls = ["http://a.com/x"]
        terms = [("a", "b", "a", "b", "c")]
        index = TextIndex(Repository.from_parts(urls, [], terms))
        assert index.pages_with_phrase(["b", "a"]) == {0}
        assert index.pages_with_phrase(["b", "c"]) == {0}
        assert index.pages_with_phrase(["c", "a"]) == set()


class TestAtLeastK:
    def test_two_of_three_words(self, index):
        words = ("mobile", "networking", "snoopy")
        assert index.pages_with_at_least(words, 2) == {0, 1, 2}

    def test_phrase_entries_count_once(self):
        urls = ["http://a.com/x", "http://a.com/y"]
        terms = [
            ("charlie", "brown", "peanuts"),
            ("charlie", "is", "brown"),  # no "charlie brown" phrase
        ]
        index = TextIndex(Repository.from_parts(urls, [], terms))
        hits = index.pages_with_at_least(("charlie brown", "peanuts"), 2)
        assert hits == {0}

    def test_invalid_k(self, index):
        with pytest.raises(QueryError):
            index.pages_with_at_least(("a",), 0)

    def test_k_greater_than_entries(self, index):
        assert index.pages_with_at_least(("mobile",), 2) == set()
