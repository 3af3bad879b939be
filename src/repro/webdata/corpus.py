"""The :class:`Repository` — pages, URLs, terms, and the link graph.

A repository is the unit every experiment operates on: an ordered list of
pages (crawl order), each with a URL and a bag of text terms, plus the Web
graph over those pages.  Crawl-prefix subsets implement the paper's
experimental-setup rule of "reading the repository sequentially from the
beginning" to obtain the 25/50/75/100/115-million-page datasets (here at a
scaled-down page count).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.graph.digraph import Digraph, GraphBuilder
from repro.webdata.urls import host_of, registered_domain


@dataclass(frozen=True)
class Page:
    """One Web page: crawl-order id, URL, and its text as a term sequence."""

    page_id: int
    url: str
    terms: tuple[str, ...] = ()

    @property
    def host(self) -> str:
        """Full host name of the page's URL."""
        return host_of(self.url)

    @property
    def domain(self) -> str:
        """Registered (two-level) domain of the page's URL."""
        return registered_domain(self.url)


@dataclass
class Repository:
    """Pages in crawl order plus the Web graph over their ids."""

    pages: list[Page]
    graph: Digraph
    _domain_members: dict[str, list[int]] = field(default_factory=dict, repr=False)
    _host_members: dict[str, list[int]] = field(default_factory=dict, repr=False)
    #: Page id -> registered domain (:meth:`domain_of`'s table).
    _page_domains: list[str] = field(default_factory=list, repr=False)
    _transpose: Digraph | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if len(self.pages) != self.graph.num_vertices:
            raise QueryError(
                f"{len(self.pages)} pages but graph has "
                f"{self.graph.num_vertices} vertices"
            )
        for index, page in enumerate(self.pages):
            if page.page_id != index:
                raise QueryError(
                    f"page at position {index} has id {page.page_id}; ids must "
                    "be dense crawl-order"
                )
        self._rebuild_maps()

    def _rebuild_maps(self) -> None:
        self._domain_members = {}
        self._host_members = {}
        self._page_domains = []
        for page in self.pages:
            host = page.host
            domain = sys.intern(registered_domain(host))  # one string per domain
            self._host_members.setdefault(host, []).append(page.page_id)
            self._domain_members.setdefault(domain, []).append(page.page_id)
            self._page_domains.append(domain)

    # -- basic accessors ----------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of pages (== graph vertices)."""
        return len(self.pages)

    @property
    def num_links(self) -> int:
        """Number of hyperlinks (== graph edges)."""
        return self.graph.num_edges

    def page(self, page_id: int) -> Page:
        """Page by id."""
        try:
            return self.pages[page_id]
        except IndexError as exc:
            raise QueryError(f"page id {page_id} out of range") from exc

    def domain_of(self, page_id: int) -> str:
        """:attr:`Page.domain` of ``pages[page_id]``, from a table."""
        return self._page_domains[page_id]

    def domains(self) -> list[str]:
        """All registered domains present, sorted."""
        return sorted(self._domain_members)

    def pages_in_domain(self, domain: str) -> list[int]:
        """Ids of pages whose registered domain equals ``domain``.

        Subdomain membership (``cs.stanford.edu`` in ``stanford.edu``) is
        included because the registered domain collapses DNS levels.
        """
        domain = domain.lower()
        exact = self._domain_members.get(domain)
        if exact is not None:
            return list(exact)
        # A full host, a deeper sub-domain suffix or a domain the crawl
        # never saw: match the distinct hosts, not every page's URL.
        suffix = "." + domain
        return sorted(
            page_id
            for host, members in self._host_members.items()
            if host == domain or host.endswith(suffix)
            for page_id in members
        )

    def transpose(self) -> Digraph:
        """Backlink graph, computed once and cached."""
        if self._transpose is None:
            self._transpose = self.graph.transpose()
        return self._transpose

    # -- crawl-prefix subsets -------------------------------------------------

    def crawl_prefix(self, num_pages: int) -> "Repository":
        """First ``num_pages`` pages in crawl order, links restricted to them.

        This mirrors the paper's dataset construction: "Each data set was
        created by reading the repository sequentially from the beginning."
        Links that point outside the prefix are dropped, exactly as a crawl
        cut off after n pages would lack those targets.
        """
        if not 0 <= num_pages <= self.num_pages:
            raise QueryError(
                f"prefix size {num_pages} outside [0, {self.num_pages}]"
            )
        builder = GraphBuilder(num_pages)
        for source in range(num_pages):
            for target in self.graph.successors(source):
                if target < num_pages:
                    builder.add_edge(source, int(target))
        return Repository(pages=self.pages[:num_pages], graph=builder.build())

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        urls: Sequence[str],
        edges: Iterable[tuple[int, int]],
        terms: Sequence[Sequence[str]] | None = None,
    ) -> "Repository":
        """Convenience constructor from URL list + edge list (+ terms)."""
        pages = [
            Page(
                page_id=i,
                url=url,
                terms=tuple(terms[i]) if terms is not None else (),
            )
            for i, url in enumerate(urls)
        ]
        graph = Digraph.from_edges(len(urls), edges)
        return cls(pages=pages, graph=graph)
