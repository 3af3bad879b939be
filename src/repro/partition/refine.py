"""Iterative partition refinement (paper section 3.2).

Drives the sequence P0 -> P1 -> ... -> Pf:

* P0 groups pages by registered domain (top two DNS levels).
* Each iteration picks an element — at random by default; the paper reports
  the "largest-first" policy performs identically, and we keep it available
  for the ablation experiment.
* Elements still splittable by URL prefix are refined with URL split; once
  a 3-level-deep prefix has been used (or a split stops discriminating) the
  element transitions to clustered split.
* Clustered split failures ("aborts") are counted; refinement stops after
  ``abortmax`` *consecutive* aborts, where abortmax is a fixed fraction
  (paper: 6 %) of the current number of elements.

The driver keeps mutable internal state (element list + page assignment)
so each refinement step costs time proportional to the split element, not
to the whole repository, and materializes an immutable
:class:`~repro.partition.partition.Partition` only at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import PartitionError
from repro.graph.digraph import Digraph
from repro.obs import progress as obs_progress
from repro.obs import tracing
from repro.partition.clustered_split import ClusteredSplitConfig, clustered_split
from repro.partition.partition import Element, Partition
from repro.partition.url_split import mark_url_exhausted, url_split
from repro.webdata.corpus import Repository


@dataclass(frozen=True)
class RefinementConfig:
    """Parameters of the refinement loop."""

    seed: int = 42
    abort_fraction: float = 0.06  # paper's 6 % abortmax
    # The paper's partitions have ~10^5 elements, so 6 % is thousands of
    # consecutive draws and the stop estimate is accurate.  At our scaled
    # sizes 6 % of the element count would be single digits and the
    # estimator far too trigger-happy, so a floor keeps it honest.
    min_abortmax: int = 48
    max_iterations: int = 200_000
    policy: str = "random"  # "random" | "largest"
    # Elements below this size are never split further (scale adaptation —
    # keeps supernodes coarse enough for reference encoding to have pages
    # with similar adjacency lists to exploit).  The defaults are the
    # calibrated values all experiments use; shrink them proportionally for
    # sub-thousand-page repositories.
    min_element_size: int = 512
    # URL-split groups below this floor are coalesced with their
    # lexicographic neighbours (see url_split's scale-adaptation note).
    min_url_group_size: int = 128
    clustered: ClusteredSplitConfig = field(default_factory=ClusteredSplitConfig)


@dataclass
class RefinementResult:
    """Final partition plus statistics the experiments report."""

    partition: Partition
    iterations: int = 0
    url_splits: int = 0
    clustered_splits: int = 0
    clustered_aborts: int = 0
    stop_reason: str = ""

    @property
    def num_elements(self) -> int:
        """Size of the final partition."""
        return self.partition.num_elements


class _RefinementState:
    """Mutable partition: element list + dense page assignment."""

    def __init__(self, elements: list[Element], num_pages: int) -> None:
        self.elements = elements
        self.assignment = [0] * num_pages
        for index, element in enumerate(elements):
            for page in element.pages:
                self.assignment[page] = index

    def replace(self, index: int, children: list[Element]) -> None:
        """Substitute ``children`` for element ``index`` in place."""
        if not children:
            raise PartitionError("cannot replace an element with nothing")
        self.elements[index] = children[0]
        for page in children[0].pages:
            self.assignment[page] = index
        for child in children[1:]:
            child_index = len(self.elements)
            self.elements.append(child)
            for page in child.pages:
                self.assignment[page] = child_index

    def update(self, index: int, element: Element) -> None:
        """Replace element metadata without moving pages."""
        self.elements[index] = element


def refine_partition(
    repository: Repository,
    config: RefinementConfig | None = None,
    initial: Partition | None = None,
    progress=None,
) -> RefinementResult:
    """Run iterative refinement to completion and return Pf with stats.

    Each URL split and clustered split runs inside a tracing span
    (``refine.url_split`` / ``refine.clustered_split``) on the currently
    activated tracer, so a traced build attributes refinement time and
    I/O counters to the two phases; ``progress`` (optional
    :class:`~repro.obs.progress.ProgressReporter`) gets one throttled
    update per iteration.
    """
    progress = obs_progress.ensure(progress)
    config = config or RefinementConfig()
    if config.policy not in ("random", "largest"):
        raise PartitionError(f"unknown policy {config.policy!r}")
    rng = random.Random(config.seed)
    graph: Digraph = repository.graph
    if initial is None:
        with tracing.span("refine.initial_partition", pages=repository.num_pages):
            initial = Partition.by_domain([p.domain for p in repository.pages])
    state = _RefinementState(initial.elements(), repository.num_pages)
    result = RefinementResult(partition=initial)
    progress.start_phase("refine", unit="iterations")

    consecutive_aborts = 0
    # Elements known to be unsplittable by clustered split; retrying them
    # is pointless, but per the paper they still participate in the random
    # draw (the stopping criterion is exactly "a random sample of abortmax
    # elements none of which can be split").
    dead: set[int] = set()

    while result.iterations < config.max_iterations:
        abortmax = max(
            config.min_abortmax,
            int(config.abort_fraction * len(state.elements)),
        )
        if consecutive_aborts >= abortmax:
            result.stop_reason = (
                f"{consecutive_aborts} consecutive clustered-split aborts "
                f"(abortmax={abortmax})"
            )
            break
        if len(dead) >= len(state.elements):
            result.stop_reason = "every element unsplittable"
            break
        index = _pick_element(state, rng, config.policy)
        element = state.elements[index]
        result.iterations += 1
        progress.update(detail=f"{len(state.elements)} elements")

        if len(element.pages) < config.min_element_size:
            dead.add(index)
            consecutive_aborts += 1
            result.clustered_aborts += 1
            continue

        if not element.url_split_exhausted:
            with tracing.span(
                "refine.url_split", element=index, size=len(element.pages)
            ):
                children = url_split(
                    element, _url_array(repository), config.min_url_group_size
                )
            if children is not None:
                state.replace(index, children)
                dead.discard(index)
                result.url_splits += 1
                consecutive_aborts = 0
            else:
                # Prefix no longer discriminates: move to clustered split
                # (does not count as a clustered abort).
                state.update(index, mark_url_exhausted(element))
            continue

        if index in dead:
            consecutive_aborts += 1
            result.clustered_aborts += 1
            continue

        with tracing.span(
            "refine.clustered_split", element=index, size=len(element.pages)
        ):
            children = clustered_split(
                element, graph, state.assignment, index, rng, config.clustered
            )
        if children is None:
            dead.add(index)
            consecutive_aborts += 1
            result.clustered_aborts += 1
        else:
            state.replace(index, children)
            result.clustered_splits += 1
            consecutive_aborts = 0
    else:
        result.stop_reason = "iteration cap reached"
    progress.finish_phase()

    if not result.stop_reason:
        result.stop_reason = result.stop_reason or "converged"
    result.partition = Partition(repository.num_pages, state.elements)
    return result


def _pick_element(
    state: _RefinementState, rng: random.Random, policy: str
) -> int:
    if policy == "largest":
        return max(
            range(len(state.elements)), key=lambda i: len(state.elements[i].pages)
        )
    return rng.randrange(len(state.elements))


_URL_CACHE: dict[int, list[str]] = {}


def _url_array(repository: Repository) -> list[str]:
    """Page-id -> URL list, cached per repository object."""
    key = id(repository)
    cached = _URL_CACHE.get(key)
    if cached is None or len(cached) != repository.num_pages:
        cached = [page.url for page in repository.pages]
        _URL_CACHE.clear()  # keep at most one repository's URLs alive
        _URL_CACHE[key] = cached
    return cached
