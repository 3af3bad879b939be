"""Synthetic Web-repository generator.

The paper's experiments run on a 120-million-page Stanford WebBase crawl we
do not have.  This generator is the documented substitution (DESIGN.md): a
seeded *evolving copying model* (Ravi Kumar et al., FOCS 2000) decorated
with the structural regularities the S-Node scheme exploits:

* **Link copying** — each new page picks a prototype page and copies a
  fraction of its adjacency list, producing clusters of pages with similar
  adjacency lists (paper Observation 1).
* **Domain and URL locality** — roughly three-quarters of a page's links
  stay on its own host (Suel & Yuan's measurement, Observation 2), and
  intra-host links favour pages at lexicographically-nearby URLs.
* **Directory-structured URLs** — every host grows a directory tree up to a
  few levels deep, so URL split has real structure to exploit.
* **Zipfian host sizes and preferential attachment** — popular pages keep
  attracting links, giving the heavy-tailed in-degree distribution that
  makes in-degree-ordered Huffman codes effective.
* **Topical text** — hosts carry topic mixtures and configurable seeded
  phrases so the paper's six complex queries (``"Mobile networking"`` in
  ``stanford.edu``, comic-strip characters, ...) have non-empty answers.

Pages are emitted in generation order, which doubles as crawl order: a
crawl-prefix subset of the output is exactly an earlier snapshot of the
evolving graph, mirroring the paper's "first few days of the crawl" subsets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.graph.digraph import GraphBuilder
from repro.webdata.corpus import Page, Repository

# Real-looking organizations so the paper's queries read naturally.  The
# first entries are the domains the paper's workload names explicitly.
_NAMED_HOSTS: tuple[tuple[str, float], ...] = (
    ("www.stanford.edu", 3.0),
    ("cs.stanford.edu", 2.0),
    ("ee.stanford.edu", 1.2),
    ("www.mit.edu", 2.2),
    ("csail.mit.edu", 1.2),
    ("www.berkeley.edu", 2.0),
    ("eecs.berkeley.edu", 1.2),
    ("www.caltech.edu", 1.4),
    ("www.cmu.edu", 1.4),
    ("www.dilbert.com", 0.8),
    ("www.doonesbury.com", 0.6),
    ("www.snoopy.com", 0.6),
    ("www.amazon.com", 2.4),
    ("www.yahoo.com", 2.6),
    ("news.yahoo.com", 1.2),
    ("www.archive.org", 1.0),
    ("www.ietf.org", 0.9),
    ("www.w3.org", 0.9),
)

# Generic vocabulary for page bodies (Zipf-sampled).
_VOCABULARY: tuple[str, ...] = (
    "the of and to a in for is on that by this with you it not or be are "
    "from at as your all have new more an was we will home can us about if "
    "page my has search free but our one other do no information time they "
    "site he up may what which their news out use any there see only so his "
    "when contact here business who web also now help get view online first "
    "am been would how were me services some these click its like service "
    "than find price date back top people had list name just over state year "
    "day into email two health world re next used go work last most products "
    "music buy data make them should product system post her city add policy "
    "number such please available copyright support message after best "
    "software then jan good video well where info rights public books high "
    "school through each links she review years order very privacy book "
    "items company read group sex need many user said de does set under "
    "general research university mail full map reviews program life know "
    "games way days management part could great united hotel real item "
    "international center ebay must store travel comments made development "
    "report off member details line terms before hotels did send right type "
    "because local those using results office education national car design "
    "take posted internet address community within states area want phone "
    "shipping reserved subject between forum family long based code show "
    "even black check special prices website index being women much sign "
    "file link open today technology south case project same pages version "
    "section own found sports house related security both county american "
    "photo game members power while care network down computer systems"
).split()

# Topic phrases seeded into specific domains so every paper query has hits.
# (phrase-words, domain-or-None, probability a page of that domain gets it)
_DEFAULT_TOPICS: tuple[tuple[tuple[str, ...], str | None, float], ...] = (
    (("mobile", "networking"), "stanford.edu", 0.05),
    (("mobile", "networking"), None, 0.002),
    (("internet", "censorship"), None, 0.01),
    (("quantum", "cryptography"), "stanford.edu", 0.03),
    (("quantum", "cryptography"), "mit.edu", 0.03),
    (("quantum", "cryptography"), "berkeley.edu", 0.03),
    (("quantum", "cryptography"), "caltech.edu", 0.03),
    (("computer", "music", "synthesis"), None, 0.008),
    (("optical", "interferometry"), "stanford.edu", 0.03),
    (("optical", "interferometry"), "berkeley.edu", 0.03),
    (("dilbert",), "stanford.edu", 0.04),
    (("dogbert",), "stanford.edu", 0.02),
    (("the", "boss"), "stanford.edu", 0.02),
    (("dilbert",), "dilbert.com", 0.9),
    (("dogbert",), "dilbert.com", 0.5),
    (("doonesbury",), "stanford.edu", 0.03),
    (("zonker",), "stanford.edu", 0.015),
    (("doonesbury",), "doonesbury.com", 0.9),
    (("peanuts",), "stanford.edu", 0.035),
    (("snoopy",), "stanford.edu", 0.02),
    (("charlie", "brown"), "stanford.edu", 0.015),
    (("peanuts",), "snoopy.com", 0.9),
    (("snoopy",), "snoopy.com", 0.7),
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic Web generator.

    The defaults reproduce the empirical constants the paper cites: mean
    out-degree ~14 (WebBase measurement), ~75 % intra-host links (Suel &
    Yuan), copy factor and preferential attachment as in the copying model.
    """

    num_pages: int = 10_000
    seed: int = 2003
    # Defaults are tuned so the *realized* graph lands near the paper's
    # empirical values (mean out-degree ~14, ~3/4 intra-host links): link
    # copying adds edges on top of the sampled degree and global
    # preferential links dilute locality, so the knobs sit above/below
    # their realized targets.
    mean_out_degree: float = 12.0
    intra_host_fraction: float = 0.9
    copy_probability: float = 0.6  # chance a new page copies from a prototype
    copy_link_fraction: float = 0.7  # fraction of prototype links retained
    # New hosts appear at a *decaying* rate (probability
    # ``new_host_rate / sqrt(1 + pages_so_far)``), so the number of hosts —
    # and hence domain-partition elements — grows like sqrt(n).  Real
    # crawls discover new sites sublinearly, and this is what gives the
    # paper its sublinear supernode growth (Figure 9).
    new_host_rate: float = 1.1
    max_url_depth: int = 4
    directory_fanout: int = 5
    terms_per_page: int = 40
    # Probability that one of a new page's same-host targets links back to
    # it (pages get updated with "see also" links).  A pure evolving
    # copying model is acyclic; reciprocal links create the cycles — and
    # eventually the giant strongly-connected component — that Broder et
    # al.'s bow-tie analysis (the paper's reference [8]) reports.
    reciprocal_link_probability: float = 0.3
    topics: tuple[tuple[tuple[str, ...], str | None, float], ...] = _DEFAULT_TOPICS
    named_hosts: tuple[tuple[str, float], ...] = _NAMED_HOSTS


@dataclass
class _Host:
    """Mutable per-host state during generation."""

    name: str
    weight: float
    pages: list[int] = field(default_factory=list)
    directories: list[str] = field(default_factory=lambda: [""])
    # Directory -> pages inside it.  Pages of one directory link densely to
    # each other (a site section is a topical cluster), which is what makes
    # URL split produce well-connected supernodes.
    pages_by_directory: dict[str, list[int]] = field(default_factory=dict)
    # The host's recurring external references (partner sites, navigation
    # and footer links): most off-host links on a real site point at the
    # same small set of external pages from every page of the site.  This
    # is the off-host face of Observation 1 (link copying) and is what
    # makes superedge graphs dense rather than fragmenting one graph per
    # stray link.
    external_pool: list[int] = field(default_factory=list)


class _WebGenerator:
    """Stateful generator; one instance per :func:`generate_web` call."""

    def __init__(self, config: GeneratorConfig) -> None:
        if config.num_pages < 1:
            raise QueryError(f"num_pages must be >= 1, got {config.num_pages}")
        self._config = config
        self._rng = random.Random(config.seed)
        self._hosts: list[_Host] = [
            _Host(name=name, weight=weight) for name, weight in config.named_hosts
        ]
        self._host_weights: list[float] = [h.weight for h in self._hosts]
        self._synthetic_host_counter = 0
        self._urls: list[str] = []
        self._terms: list[tuple[str, ...]] = []
        self._adjacency: list[list[int]] = []
        self._page_host: list[int] = []
        self._edge_targets: list[int] = []  # multiset for preferential attachment
        # Zipf weights for the generic vocabulary.
        self._vocab_weights = [1.0 / (rank + 1) for rank in range(len(_VOCABULARY))]

    # -- hosts and URLs -------------------------------------------------------

    def _new_synthetic_host(self) -> int:
        self._synthetic_host_counter += 1
        count = self._synthetic_host_counter
        tld = self._rng.choice(("com", "com", "com", "org", "net", "edu"))
        name = f"www.site{count:04d}.{tld}"
        host = _Host(name=name, weight=0.5)
        self._hosts.append(host)
        self._host_weights.append(host.weight)
        return len(self._hosts) - 1

    def _choose_host(self) -> int:
        pages_so_far = len(self._urls)
        birth_probability = self._config.new_host_rate / (1.0 + pages_so_far) ** 0.5
        if self._rng.random() < birth_probability:
            return self._new_synthetic_host()
        # Rich-get-richer: weight = base weight + pages already on the host.
        weights = [
            self._host_weights[i] + len(self._hosts[i].pages)
            for i in range(len(self._hosts))
        ]
        return self._rng.choices(range(len(self._hosts)), weights=weights, k=1)[0]

    def _choose_directory(self, host: _Host) -> str:
        """Pick an existing directory or grow the tree one level deeper."""
        config = self._config
        directory = self._rng.choice(host.directories)
        depth = directory.count("/") + (1 if directory else 0)
        if depth < config.max_url_depth - 1 and self._rng.random() < 0.3:
            child_name = f"d{self._rng.randrange(config.directory_fanout)}"
            child = f"{directory}/{child_name}" if directory else child_name
            if child not in host.directories:
                host.directories.append(child)
            directory = child
        return directory

    def _make_url(self, host_index: int, page_id: int) -> tuple[str, str]:
        host = self._hosts[host_index]
        directory = self._choose_directory(host)
        leaf = f"page{page_id:06d}.html"
        if directory:
            return f"http://{host.name}/{directory}/{leaf}", directory
        return f"http://{host.name}/{leaf}", directory

    # -- links ---------------------------------------------------------------

    def _sample_out_degree(self) -> int:
        """Heavy-tailed out-degree with the configured mean.

        A geometric body plus an occasional hub keeps the mean close to the
        target while producing the variance real link data shows.
        """
        mean = self._config.mean_out_degree
        if self._rng.random() < 0.02:
            return int(mean * self._rng.uniform(3.0, 8.0))
        # Geometric with success prob 1/mean' chosen so the mixture mean ~= mean.
        body_mean = max(1.0, mean * 0.9)
        probability = 1.0 / body_mean
        degree = 1
        while self._rng.random() > probability:
            degree += 1
            if degree > 40 * body_mean:
                break
        return degree

    def _preferential_target(self, limit: int) -> int:
        """Sample a page proportional to in-degree (rare uniform fallback).

        The low uniform-fallback rate matters: global links on the real Web
        concentrate on a small set of popular pages, which keeps the number
        of distinct superedges per supernode — and hence superedge-graph
        overhead — low.
        """
        if self._edge_targets and self._rng.random() < 0.95:
            return self._rng.choice(self._edge_targets)
        return self._rng.randrange(limit)

    def _local_pool(self, host: _Host, page_id: int, directory: str) -> list[int]:
        """Candidate intra-host targets: own directory plus an id window.

        Directory members come first and are tripled in weight — a site
        section links densely to itself — and a lexicographic window over
        the host's page list supplies the near-URL remainder.
        """
        same_directory = [
            p for p in host.pages_by_directory.get(directory, ()) if p != page_id
        ]
        candidates = host.pages
        window_pages: list[int] = []
        if candidates:
            try:
                position = candidates.index(page_id)
            except ValueError:
                position = len(candidates) - 1
            # Observation 2 says lexicographically *close* — "within a few
            # entries"; a window proportional to host size would let links
            # span the whole site and destroy the locality the paper's
            # partition exploits.
            window = max(4, min(24, len(candidates) // 16))
            low = max(0, position - window)
            high = min(len(candidates), position + window + 1)
            window_pages = [p for p in candidates[low:high] if p != page_id]
        return same_directory * 3 + window_pages

    def _build_links(self, page_id: int, host_index: int, directory: str) -> list[int]:
        config = self._config
        rng = self._rng
        host = self._hosts[host_index]
        links: set[int] = set()
        if page_id == 0:
            return []
        # Phase 1: copy from a prototype (Observation 1 — link copying).
        # Prefer a prototype from the same directory so copied neighbours
        # share the new page's locality.
        if rng.random() < config.copy_probability:
            same_directory = host.pages_by_directory.get(directory, ())
            if same_directory and rng.random() < 0.7:
                prototype = rng.choice(same_directory)
            elif host.pages and rng.random() < 0.8:
                prototype = rng.choice(host.pages)
            else:
                prototype = rng.randrange(page_id)
            for target in self._adjacency[prototype]:
                if rng.random() < config.copy_link_fraction:
                    links.add(target)
        # Phase 2: fresh links with domain locality (Observation 2).  The
        # local share is drawn *without replacement* from the locality pool
        # so small hosts saturate gracefully instead of burning attempts on
        # duplicates; the remainder goes to global preferential targets.
        degree = self._sample_out_degree()
        wanted_local = sum(
            1 for _ in range(degree) if rng.random() < config.intra_host_fraction
        )
        pool = self._local_pool(host, page_id, directory)
        distinct_pool = [p for p in dict.fromkeys(pool) if p not in links]
        take = min(wanted_local, len(distinct_pool))
        if take:
            # Weighted sample without replacement (directory pages carry
            # triple weight in the pool).
            chosen: set[int] = set()
            guard = 0
            while len(chosen) < take and guard < 20 * take:
                guard += 1
                candidate = rng.choice(pool)
                if candidate not in links and candidate != page_id:
                    chosen.add(candidate)
            links.update(chosen)
        # Unfulfilled local quota mostly evaporates (a five-page site has
        # five-page navigation, not extra global links); only a quarter
        # converts to global links.
        shortfall = wanted_local - take
        global_wanted = (degree - wanted_local) + (shortfall + 3) // 4
        added_global = 0
        attempts = 0
        while added_global < global_wanted and attempts < 4 * degree + 20:
            attempts += 1
            target = self._global_target(host, page_id)
            if target != page_id and target not in links:
                links.add(target)
                added_global += 1
        return sorted(links)

    def _global_target(self, host: _Host, page_id: int) -> int:
        """Off-host target: mostly from the host's external-reference pool.

        The pool grows slowly (square root of the host's size, plus a
        floor), seeded by preferential attachment — a site's pages keep
        linking to the same partners, so off-host links concentrate on few
        (source-host, target) pairs.
        """
        rng = self._rng
        pool_cap = 4 + int(len(host.pages) ** 0.5)
        if host.external_pool and (
            len(host.external_pool) >= pool_cap or rng.random() < 0.85
        ):
            return rng.choice(host.external_pool)
        target = self._preferential_target(page_id)
        if target not in host.external_pool:
            host.external_pool.append(target)
        return target

    # -- text ----------------------------------------------------------------

    def _add_reciprocal_links(
        self, page_id: int, links: list[int], host_index: int
    ) -> None:
        """Make some same-host targets of a new page link back to it."""
        probability = self._config.reciprocal_link_probability
        if probability <= 0.0:
            return
        for target in links:
            if self._page_host[target] != host_index:
                continue
            if self._rng.random() < probability:
                if page_id not in self._adjacency[target]:
                    self._adjacency[target].append(page_id)
                    self._edge_targets.append(page_id)

    def _build_terms(self, host_index: int) -> tuple[str, ...]:
        config = self._config
        rng = self._rng
        host_name = self._hosts[host_index].name
        host_domain = ".".join(host_name.split(".")[-2:])
        words: list[str] = rng.choices(
            _VOCABULARY, weights=self._vocab_weights, k=config.terms_per_page
        )
        for phrase, domain, probability in config.topics:
            if domain is not None and domain != host_domain:
                continue
            if rng.random() < probability:
                position = rng.randrange(len(words) + 1)
                words[position:position] = list(phrase)
        return tuple(words)

    # -- driver ---------------------------------------------------------------

    def run(self) -> Repository:
        for page_id in range(self._config.num_pages):
            host_index = self._choose_host()
            url, directory = self._make_url(host_index, page_id)
            links = self._build_links(page_id, host_index, directory)
            self._urls.append(url)
            self._adjacency.append(links)
            self._page_host.append(host_index)
            host = self._hosts[host_index]
            host.pages.append(page_id)
            host.pages_by_directory.setdefault(directory, []).append(page_id)
            self._edge_targets.extend(links)
            self._terms.append(self._build_terms(host_index))
            self._add_reciprocal_links(page_id, links, host_index)
        builder = GraphBuilder(self._config.num_pages)
        for source, row in enumerate(self._adjacency):
            for target in row:
                builder.add_edge(source, target)
        pages = [
            Page(page_id=i, url=self._urls[i], terms=self._terms[i])
            for i in range(self._config.num_pages)
        ]
        return Repository(pages=pages, graph=builder.build())


def generate_web(config: GeneratorConfig | None = None, **overrides) -> Repository:
    """Generate a synthetic Web repository.

    Accepts either a full :class:`GeneratorConfig` or keyword overrides of
    its fields, e.g. ``generate_web(num_pages=5000, seed=7)``.
    """
    if config is None:
        config = GeneratorConfig(**overrides)
    elif overrides:
        raise QueryError("pass either a config object or keyword overrides")
    return _WebGenerator(config).run()
