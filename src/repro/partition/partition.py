"""Partition data type with refinement bookkeeping.

A :class:`Partition` is a family of disjoint, non-empty page sets covering
``0..n-1``.  Elements carry the metadata the refinement driver needs:

* ``domain`` — every page of an element shares it (Property 2 is enforced
  structurally: P0 groups by domain and refinement only ever subdivides);
* ``url_depth`` — how many directory levels of URL prefix produced this
  element (URL split uses a prefix one level longer; depth >= 3 switches
  the element to clustered split);
* ``url_split_exhausted`` — URL split could not subdivide further.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

from repro.errors import PartitionError


@dataclass(frozen=True)
class Element:
    """One element (future supernode): an immutable set of page ids."""

    pages: tuple[int, ...]
    domain: str
    url_depth: int = 0
    url_split_exhausted: bool = False

    def __post_init__(self) -> None:
        if not self.pages:
            raise PartitionError("partition element cannot be empty")
        if list(self.pages) != sorted(set(self.pages)):
            raise PartitionError("element pages must be sorted and unique")

    def __len__(self) -> int:
        return len(self.pages)


class Partition:
    """A partition of pages ``0..n-1`` supporting element replacement."""

    def __init__(self, num_pages: int, elements: Sequence[Element]) -> None:
        self._num_pages = num_pages
        self._elements: list[Element] = list(elements)
        self._validate()
        self._rebuild_index()

    def _validate(self) -> None:
        seen: set[int] = set()
        total = 0
        for element in self._elements:
            for page in element.pages:
                if not 0 <= page < self._num_pages:
                    raise PartitionError(f"page {page} out of range")
            total += len(element.pages)
            seen.update(element.pages)
        if total != len(seen):
            raise PartitionError("partition elements overlap")
        if len(seen) != self._num_pages:
            raise PartitionError(
                f"partition covers {len(seen)} of {self._num_pages} pages"
            )

    def _rebuild_index(self) -> None:
        self._element_of = [0] * self._num_pages
        for index, element in enumerate(self._elements):
            for page in element.pages:
                self._element_of[page] = index

    # -- accessors -------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of pages partitioned."""
        return self._num_pages

    @property
    def num_elements(self) -> int:
        """Number of elements (future supernodes)."""
        return len(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def elements(self) -> list[Element]:
        """All elements (shallow copy of the list)."""
        return list(self._elements)

    def element_of(self, page: int) -> int:
        """Index of the element containing ``page``."""
        if not 0 <= page < self._num_pages:
            raise PartitionError(f"page {page} out of range")
        return self._element_of[page]

    def assignment(self) -> list[int]:
        """Dense page -> element-index array."""
        return list(self._element_of)

    def sizes(self) -> list[int]:
        """Element sizes, in element order."""
        return [len(e) for e in self._elements]

    # -- constructors ------------------------------------------------------------

    @classmethod
    def trivial(cls, num_pages: int, domain: str = "") -> "Partition":
        """Single-element partition containing every page."""
        return cls(
            num_pages,
            [Element(pages=tuple(range(num_pages)), domain=domain)],
        )

    @classmethod
    def from_assignment(
        cls,
        assignment: Sequence[int],
        domains: Sequence[str] | None = None,
    ) -> "Partition":
        """Build from a page -> group-label array (labels need not be dense)."""
        groups: dict[int, list[int]] = {}
        for page, label in enumerate(assignment):
            groups.setdefault(int(label), []).append(page)
        elements = []
        for label in sorted(groups):
            pages = tuple(groups[label])
            domain = domains[pages[0]] if domains is not None else ""
            elements.append(Element(pages=pages, domain=domain))
        return cls(len(assignment), elements)

    @classmethod
    def by_domain(cls, page_domains: Sequence[str]) -> "Partition":
        """The paper's initial partition P0: group pages by registered domain."""
        groups: dict[str, list[int]] = {}
        for page, domain in enumerate(page_domains):
            groups.setdefault(domain, []).append(page)
        elements = [
            Element(pages=tuple(pages), domain=domain)
            for domain, pages in sorted(groups.items())
        ]
        return cls(len(page_domains), elements)


def split_element(
    element: Element,
    groups: Iterable[Sequence[int]],
    url_depth: int | None = None,
    url_split_exhausted: bool | None = None,
) -> list[Element]:
    """Turn grouped page lists into child elements inheriting metadata."""
    children = []
    for pages in groups:
        if not pages:
            continue
        children.append(
            replace(
                element,
                pages=tuple(sorted(pages)),
                url_depth=element.url_depth if url_depth is None else url_depth,
                url_split_exhausted=(
                    element.url_split_exhausted
                    if url_split_exhausted is None
                    else url_split_exhausted
                ),
            )
        )
    if not children:
        raise PartitionError("split produced no non-empty groups")
    return children
