"""Tests for Repository and Page."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.webdata.corpus import Page, Repository
from repro.webdata.recrawl import RecrawlConfig, recrawl
from repro.webdata.urls import host_of, in_domain, registered_domain


def make_repository() -> Repository:
    urls = [
        "http://www.stanford.edu/a.html",
        "http://cs.stanford.edu/b.html",
        "http://www.amazon.com/c.html",
        "http://www.stanford.edu/d.html",
    ]
    edges = [(0, 1), (0, 2), (1, 3), (2, 0)]
    terms = [("hello", "world"), ("mobile", "networking"), (), ("hello",)]
    return Repository.from_parts(urls, edges, terms)


class TestRepository:
    def test_basic_counts(self):
        repo = make_repository()
        assert repo.num_pages == 4
        assert repo.num_links == 4

    def test_page_lookup(self):
        repo = make_repository()
        page = repo.page(1)
        assert page.host == "cs.stanford.edu"
        assert page.domain == "stanford.edu"

    def test_page_out_of_range(self):
        with pytest.raises(QueryError):
            make_repository().page(10)

    def test_domains(self):
        repo = make_repository()
        assert repo.domains() == ["amazon.com", "stanford.edu"]

    def test_pages_in_domain_includes_subdomains(self):
        repo = make_repository()
        assert repo.pages_in_domain("stanford.edu") == [0, 1, 3]

    def test_pages_in_unknown_domain(self):
        assert make_repository().pages_in_domain("nothing.net") == []

    def test_transpose_cached(self):
        repo = make_repository()
        assert repo.transpose() is repo.transpose()
        assert sorted(repo.transpose().edges()) == sorted(
            (t, s) for s, t in repo.graph.edges()
        )

    def test_non_dense_page_ids_rejected(self):
        pages = [Page(page_id=1, url="http://a.com/x")]
        from repro.graph.digraph import Digraph
        import numpy as np

        with pytest.raises(QueryError):
            Repository(
                pages=pages,
                graph=Digraph(np.array([0, 0]), np.array([], dtype=np.int64)),
            )

    def test_page_graph_mismatch_rejected(self):
        from repro.graph.digraph import GraphBuilder

        with pytest.raises(QueryError):
            Repository(pages=[], graph=GraphBuilder(2).build())


class TestCrawlPrefix:
    def test_prefix_drops_external_links(self):
        repo = make_repository()
        prefix = repo.crawl_prefix(2)
        assert prefix.num_pages == 2
        # edge (0,1) survives; (0,2) and (1,3) point outside the prefix
        assert sorted(prefix.graph.edges()) == [(0, 1)]

    def test_full_prefix_is_identity(self):
        repo = make_repository()
        prefix = repo.crawl_prefix(repo.num_pages)
        assert prefix.num_pages == repo.num_pages
        assert sorted(prefix.graph.edges()) == sorted(repo.graph.edges())

    def test_invalid_prefix_size(self):
        with pytest.raises(QueryError):
            make_repository().crawl_prefix(99)

    def test_prefix_is_monotone(self, small_repo):
        smaller = small_repo.crawl_prefix(200)
        larger = small_repo.crawl_prefix(400)
        # Every link of the smaller prefix exists in the larger one.
        small_edges = set(smaller.graph.edges())
        large_edges = set(larger.graph.edges())
        assert small_edges <= large_edges


def scanned_pages_in_domain(repository: Repository, domain: str) -> list[int]:
    """``pages_in_domain`` as it was before the host index: the registered
    domain's members, else a suffix test of every page's URL."""
    exact = [p.page_id for p in repository.pages if p.domain == domain.lower()]
    return exact or [p.page_id for p in repository.pages if in_domain(p.url, domain)]


def domains_to_ask(repository: Repository) -> list[str]:
    """Registered domains, full hosts, sub-domain suffixes, mixed case, unknowns."""
    hosts = sorted({p.host for p in repository.pages})
    asked = set(hosts) | {registered_domain(host) for host in hosts}
    for host in hosts:
        labels = host.split(".")
        asked.update(".".join(labels[start:]) for start in range(1, len(labels)))
    asked |= {name.upper() for name in asked} | {name.title() for name in asked}
    asked |= {"doonesbury.com", "www.nowhere.example", "edu.", "", "stanford"}
    return sorted(asked)


class CountingPage:
    """A page that counts how often its URL is read."""

    reads = 0

    def __init__(self, page_id: int, url: str) -> None:
        self.page_id = page_id
        self._url = url

    @property
    def url(self) -> str:
        CountingPage.reads += 1
        return self._url

    @property
    def host(self) -> str:
        return host_of(self.url)

    @property
    def domain(self) -> str:
        return registered_domain(self.url)


class TestPagesInDomainContract:
    def test_handmade_hosts(self):
        urls = [
            "http://www.stanford.edu/a.html",
            "http://db.cs.stanford.edu/b.html",
            "http://WWW.Amazon.com/c.html",
            "http://cs.stanford.edu/d.html",
            "http://xcs.stanford.edu/e.html",
            "http://localhost/f.html",
        ]
        repo = Repository.from_parts(urls, [])
        assert repo.pages_in_domain("cs.stanford.edu") == [1, 3]  # not xcs.
        assert repo.pages_in_domain("CS.Stanford.EDU") == [1, 3]
        assert repo.pages_in_domain("db.cs.stanford.edu") == [1]
        assert repo.pages_in_domain("www.amazon.com") == [2]
        assert repo.pages_in_domain("localhost") == [5]
        assert repo.pages_in_domain("s.stanford.edu") == []
        for domain in domains_to_ask(repo):
            assert repo.pages_in_domain(domain) == scanned_pages_in_domain(repo, domain)

    def test_generated_crawl_and_prefix_agree_with_the_scan(self, small_repo):
        for repo in (small_repo, small_repo.crawl_prefix(300)):
            asked = domains_to_ask(repo)
            assert len(asked) > 300
            for domain in asked:
                assert repo.pages_in_domain(domain) == scanned_pages_in_domain(
                    repo, domain
                ), domain

    def test_recrawl_steps_rebuild_the_host_index(self, tiny_repo):
        for step in recrawl(tiny_repo, RecrawlConfig(steps=2, seed=5)):
            repo = step.repository
            assert repo is not tiny_repo
            for domain in domains_to_ask(repo):
                assert repo.pages_in_domain(domain) == scanned_pages_in_domain(
                    repo, domain
                ), domain

    def test_unknown_domain_and_full_host_read_no_page_url(self, small_repo):
        pages = [CountingPage(p.page_id, p.url) for p in small_repo.pages]
        repo = Repository(pages=pages, graph=small_repo.graph)
        host = small_repo.page(0).host
        assert host != small_repo.page(0).domain
        CountingPage.reads = 0
        assert repo.pages_in_domain("doonesbury.com") == []
        assert repo.pages_in_domain(host) == small_repo.pages_in_domain(host) != []
        assert CountingPage.reads == 0


class TestDomainTable:
    """``Repository.domain_of`` reads a per-page table built with the
    host index; it must say what ``Page.domain`` says, URL re-parsed."""

    URLS = [
        "http://www.stanford.edu/a.html",
        "HTTP://WWW.Amazon.COM/b.html",
        "http://CS.Stanford.EDU/",
        "http://localhost/f.html",
        "http://intranet",
        "http://a.b.c.d/deep/er/page.html",
        "http://10.0.0.1/x",
        "ftp://Files.Example.org/pub/",
        "plainhost.com/page.html",
        "BareHost",
    ]

    def test_table_is_page_domain_for_handmade_hosts(self):
        repo = Repository.from_parts(self.URLS, [])
        for page in repo.pages:
            assert repo.domain_of(page.page_id) == page.domain
        assert [repo.domain_of(n) for n in (1, 3, 5, 9)] == [
            "amazon.com",
            "localhost",
            "c.d",
            "barehost",
        ]
        with pytest.raises(IndexError):
            repo.domain_of(len(self.URLS))

    def test_benchmark_crawl_and_its_prefix_have_their_own_tables(self):
        from repro.webdata.generator import GeneratorConfig, generate_web

        crawl = generate_web(GeneratorConfig(num_pages=2000, seed=2003))
        prefix = crawl.crawl_prefix(700)
        for repo in (crawl, prefix):
            assert [repo.domain_of(p.page_id) for p in repo.pages] == [
                p.domain for p in repo.pages
            ]
        with pytest.raises(IndexError):
            prefix.domain_of(700)
        assert crawl.domain_of(699) == prefix.domain_of(699)

    def test_query_answers_are_unchanged(self, small_repo, tmp_path):
        """The six paper queries' digests on ``small_repo``, as the engine
        gave them when ``domain_of`` re-parsed each page's URL."""
        from repro.baselines import FlatFileRepresentation
        from repro.index.pagerank_index import PageRankIndex
        from repro.index.textindex import TextIndex
        from repro.query.engine import QueryEngine
        from repro.query.workload import PAPER_QUERIES, run_query
        from repro.serve.protocol import payload_digest

        forward = FlatFileRepresentation(small_repo.graph, tmp_path / "f")
        backward = FlatFileRepresentation(small_repo.transpose(), tmp_path / "b")
        engine = QueryEngine(
            small_repo, TextIndex(small_repo), PageRankIndex(small_repo), forward, backward
        )
        try:
            digests = {
                name: payload_digest(run_query(engine, name).payload)
                for name, _function in PAPER_QUERIES
            }
        finally:
            forward.close()
            backward.close()
        assert digests == {
            "query1": "d7893c54dc74b3a041de59f67fb52624d86edd955c9f26ee3f0314be20055d76",
            "query2": "f81e020c13461c39f4d4fcd76153ed5e92c4dff275ac78ef0b6438be923a556c",
            "query3": "6991d4be0cdb11e07dd4d61e115738327cdc2b851eab8934fb6a9ae651db76ab",
            "query4": "fd1a422ac5aab2514a3fd544dfa76f9b5f398ff5ebe862c82d5c21672f106c83",
            "query5": "4708d015db02b6177c46dfd36977443e95c88d9bc0a9101fc349533bd5c48192",
            "query6": "f39a29f7974ca75a4ddd51cfbdc99c6f3e36ad5bd350ab1eee71c9877d96d67d",
        }
