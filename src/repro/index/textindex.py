"""Inverted text index with positional phrase matching.

Supports the three text predicates the paper's workload uses:

* phrase search ("pages containing the phrase 'Mobile networking'");
* at-least-k-of-a-word-set matching (Analysis 2: "pages that contain at
  least two of the words in Cw");
* plain conjunctive word search.

Positions are stored per (term, page) so phrases are exact consecutive
matches, the way a repository-grade index (e.g. the WebBase text index)
resolves them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import QueryError
from repro.webdata.corpus import Repository


class TextIndex:
    """Positional inverted index over a repository's page terms."""

    def __init__(self, repository: Repository) -> None:
        # term -> {page_id -> sorted positions}
        self._postings: dict[str, dict[int, list[int]]] = {}
        self._num_pages = repository.num_pages
        for page in repository.pages:
            for position, term in enumerate(page.terms):
                term_map = self._postings.setdefault(term, {})
                term_map.setdefault(page.page_id, []).append(position)

    def pages_with_term(self, term: str) -> set[int]:
        """Pages containing ``term`` at least once."""
        return set(self._postings.get(term.lower(), {}))

    def pages_with_all(self, terms: Sequence[str]) -> set[int]:
        """Pages containing every term in ``terms`` (conjunction)."""
        if not terms:
            raise QueryError("empty term conjunction")
        sets = sorted(
            (self.pages_with_term(term) for term in terms), key=len
        )
        result = sets[0]
        for other in sets[1:]:
            result &= other
            if not result:
                break
        return result

    def pages_with_phrase(self, phrase: Sequence[str]) -> set[int]:
        """Pages containing ``phrase`` as consecutive terms."""
        words = [word.lower() for word in phrase]
        if not words:
            raise QueryError("empty phrase")
        if len(words) == 1:
            return self.pages_with_term(words[0])
        candidates = self.pages_with_all(words)
        result: set[int] = set()
        first_postings = self._postings.get(words[0], {})
        for page in candidates:
            positions = set(first_postings.get(page, ()))
            if not positions:
                continue
            for offset, word in enumerate(words[1:], start=1):
                next_positions = self._postings.get(word, {}).get(page, ())
                positions &= {p - offset for p in next_positions}
                if not positions:
                    break
            if positions:
                result.add(page)
        return result

    def pages_with_at_least(self, words: Iterable[str], k: int) -> set[int]:
        """Pages containing at least ``k`` distinct words of ``words``.

        Multi-word entries (e.g. "charlie brown") count as phrases.
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        counts: dict[int, int] = {}
        for entry in words:
            parts = entry.split()
            pages = (
                self.pages_with_phrase(parts)
                if len(parts) > 1
                else self.pages_with_term(entry)
            )
            for page in pages:
                counts[page] = counts.get(page, 0) + 1
        return {page for page, count in counts.items() if count >= k}
