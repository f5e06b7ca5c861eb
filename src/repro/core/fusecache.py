"""The FuseCache algorithm (Section IV of the paper).

Problem: given ``k`` lists of MRU timestamps, each sorted hottest-first
(non-increasing), select the ``n`` hottest items overall and report *how
many to pick from the top of each list*.  During a scale-in, ``k-1`` lists
are the keys a retained node will inherit from retiring nodes and the
``k``-th is the retained node's own slab content; the answer tells every
node exactly which prefix of its MRU list to ship (Section III-D2).

FuseCache prunes with a recursive median-of-medians: each round computes
the median of the per-list window medians (MOM), counts the items hotter
than the MOM via one binary search per list, and either (a) discards
everything at or below the MOM when more than ``n`` items beat it, or (b)
commits everything hotter than the MOM and recurses on the remainder.  At
least a quarter of the search space dies per round, giving
``O(k (log n)^2)`` total time versus ``O(n log k)`` for a heap-based k-way
merge -- asymptotically better whenever ``n >> k``, the realistic regime
(billions of items, hundreds of nodes).

The module also implements both baselines from Section IV and the decision
-tree lower bound from Section IV-B1; property tests assert that all three
algorithms select the same multiset of timestamps.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from statistics import median_low
from typing import Sequence

from repro.errors import ConfigurationError

Timestamps = Sequence[float]


@dataclass
class FuseCacheResult:
    """Outcome of one FuseCache invocation.

    Attributes
    ----------
    topick:
        ``topick[i]`` is how many items to take from the top (hottest end)
        of list ``i``; the counts sum to ``min(n, total items)``.
    rounds:
        Median-of-medians rounds executed.
    comparisons:
        Timestamp comparisons performed (binary-search probes plus median
        selection), the cost measure used in the complexity benchmark.
    """

    topick: list[int]
    rounds: int = 0
    comparisons: int = 0

    @property
    def selected(self) -> int:
        """Total number of items selected."""
        return sum(self.topick)


def _check_sorted_desc(lists: Sequence[Timestamps]) -> None:
    for index, lst in enumerate(lists):
        for j in range(1, len(lst)):
            if lst[j] > lst[j - 1]:
                raise ConfigurationError(
                    f"list {index} is not sorted hottest-first at offset {j}"
                )


def _count_greater(
    lst: Timestamps, start: int, end: int, pivot: float
) -> tuple[int, int]:
    """Number of entries in ``lst[start:end]`` strictly hotter than ``pivot``.

    ``lst`` is sorted non-increasing.  Returns ``(count, probes)`` where
    ``probes`` is the number of comparisons the binary search made.
    """
    lo, hi, probes = start, end, 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if lst[mid] > pivot:
            lo = mid + 1
        else:
            hi = mid
    return lo - start, probes


def _count_greater_equal(
    lst: Timestamps, start: int, end: int, pivot: float
) -> tuple[int, int]:
    """Like :func:`_count_greater` but counts entries ``>= pivot``."""
    lo, hi, probes = start, end, 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if lst[mid] >= pivot:
            lo = mid + 1
        else:
            hi = mid
    return lo - start, probes


def fuse_cache_detailed(
    lists: Sequence[Timestamps],
    n: int,
    validate: bool = False,
) -> FuseCacheResult:
    """Run FuseCache and return per-list pick counts plus cost counters.

    Parameters
    ----------
    lists:
        ``k`` timestamp lists, each sorted non-increasing (MRU order).
    n:
        Number of hottest items to select.  If ``n`` meets or exceeds the
        total item count, every item is selected.
    validate:
        When true, verify the sortedness precondition in O(N) first.

    Ties are resolved arbitrarily but the selected *multiset* of timestamps
    always equals that of a full sort -- the property tests rely on this.
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if validate:
        _check_sorted_desc(lists)

    k = len(lists)
    result = FuseCacheResult(topick=[0] * k)
    if k == 0 or n == 0:
        return result

    total = sum(len(lst) for lst in lists)
    if n >= total:
        result.topick = [len(lst) for lst in lists]
        return result

    # Window of still-undecided items per list: [start[i], end[i]).
    # Items before start[i] are committed to the answer; items at or after
    # end[i] are discarded.  Only indices whose window is non-empty are
    # tracked in ``active`` -- exhausted lists drop out of every later
    # round instead of being re-skipped k times per round.
    start = [0] * k
    end = [len(lst) for lst in lists]
    remaining = n
    active = [i for i in range(k) if end[i] > start[i]]

    # Each round discards or commits at least a quarter of the remaining
    # search space *provided the lists are sorted*; on unsorted input the
    # binary searches lie and the loop could spin, so fail loudly instead.
    max_rounds = 64 + 16 * (int(math.log2(total + 1)) + 1)

    hotter = [0] * k
    at_least = [0] * k
    while remaining > 0 and active:
        if len(active) == 1:
            # One undecided window left: it is sorted, so the hottest
            # ``remaining`` entries are simply its prefix.
            start[active[0]] += remaining
            remaining = 0
            break
        if result.rounds >= max_rounds:
            raise ConfigurationError(
                "FuseCache failed to converge -- input lists are "
                "probably not sorted hottest-first"
            )
        result.rounds += 1
        medians = [lists[i][(start[i] + end[i] - 1) // 2] for i in active]
        mom = median_low(medians)
        result.comparisons += len(medians)

        count_hotter = 0
        for i in active:
            count, probes = _count_greater(lists[i], start[i], end[i], mom)
            hotter[i] = count
            count_hotter += count
            result.comparisons += probes

        if count_hotter > remaining:
            # Too many items beat the MOM: the answer lies strictly above
            # it, so everything at or below the MOM can be discarded (and
            # the MOM-equal run never needs to be measured).
            for i in active:
                end[i] = start[i] + hotter[i]
        else:
            # Everything strictly hotter is at most the budget, so size
            # the MOM-equal run.  The first ``hotter[i]`` window entries
            # are already known to beat the MOM, so the second binary
            # search only spans the remainder of the window.
            count_at_least = count_hotter
            for i in active:
                count_ge, probes = _count_greater_equal(
                    lists[i], start[i] + hotter[i], end[i], mom
                )
                at_least[i] = hotter[i] + count_ge
                count_at_least += count_ge
                result.comparisons += probes
            if count_at_least <= remaining:
                # Everything at or above the MOM is certainly in the
                # answer.  Committing the MOM-equal run together with the
                # hotter items keeps the per-round progress at >= 1/4 of
                # the window even under heavy timestamp ties (coarse
                # clocks make ties the common case, and committing one
                # tie per round would degenerate to O(n) rounds).
                for i in active:
                    start[i] += at_least[i]
                remaining -= count_at_least
            else:
                # The boundary falls inside the MOM-equal run: commit all
                # hotter items, then MOM-equal items greedily, and finish.
                for i in active:
                    start[i] += hotter[i]
                remaining -= count_hotter
                for i in active:
                    if remaining == 0:
                        break
                    take = min(at_least[i] - hotter[i], remaining)
                    start[i] += take
                    remaining -= take
        active = [i for i in active if end[i] > start[i]]

    # Selection soundness (O(k)): on sorted input every committed value
    # is >= every value left behind, so the coldest committed boundary
    # must not fall below the hottest rejected boundary.  Unsorted input
    # makes the binary searches lie; when their window arithmetic is
    # cross-list inconsistent this catches it even if the loop happened
    # to terminate (the max_rounds cap only covers the spinning case).
    committed = [
        lists[i][start[i] - 1] for i in range(k) if start[i] > 0
    ]
    rejected = [
        lists[i][start[i]] for i in range(k) if start[i] < len(lists[i])
    ]
    result.comparisons += len(committed) + len(rejected)
    if committed and rejected and min(committed) < max(rejected):
        raise ConfigurationError(
            "FuseCache selection is inconsistent -- input lists are "
            "probably not sorted hottest-first"
        )

    result.topick = list(start)
    return result


def fuse_cache(
    lists: Sequence[Timestamps], n: int, validate: bool = False
) -> list[int]:
    """Convenience wrapper: just the per-list pick counts (Algorithm 1)."""
    return fuse_cache_detailed(lists, n, validate=validate).topick


def fuse_cache_algorithm1(
    lists: Sequence[Timestamps],
    n: int,
    max_rounds: int = 512,
) -> list[int]:
    """A literal rendition of the paper's printed Algorithm 1.

    The pseudocode as printed leaves several details ambiguous, which
    this rendition resolves as follows (each choice documented so the
    deviation from :func:`fuse_cache` is auditable):

    - ``insertionPt`` is read as the 0-based index at which the MOM
      would be inserted into the window keeping it sorted hottest-first,
      i.e. the count of items strictly hotter than the MOM;
    - ``curCountX <- insertPts[i] + 1`` therefore counts the hotter
      items *plus the boundary item*, so the commit branch
      (``startPt += insertPts + 1``) may commit one item per list that
      is at-or-below the MOM -- the printed algorithm is approximate at
      window boundaries, unlike the corrected :func:`fuse_cache`;
    - the final answer is taken from the committed prefixes (``startPt``)
      rather than the printed ``endPt + 1``, which does not type-check
      against the loop's exit condition.

    A round cap guards against the non-termination the printed rules
    allow (a correctly progressing run needs only O(log(n*k)) rounds, so
    the default cap of 512 is generous); leftover picks are completed
    hottest-first by :func:`fuse_cache` over the un-committed suffixes.
    Kept as a fidelity artifact and exercised by the test
    suite; production code should use :func:`fuse_cache`.
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    k = len(lists)
    if k == 0 or n == 0:
        return [0] * k
    total = sum(len(lst) for lst in lists)
    if n >= total:
        return [len(lst) for lst in lists]

    start = [0] * k
    end = [len(lst) - 1 for lst in lists]  # inclusive, as printed
    remaining = n
    rounds = 0
    while remaining > 0 and rounds < max_rounds:
        rounds += 1
        medians = [
            lists[i][(start[i] + end[i]) // 2]
            for i in range(k)
            if end[i] >= start[i]
        ]
        if not medians:
            break
        mom = median_low(medians)
        insert_points = [-1] * k
        count_x = 0
        for i in range(k):
            if end[i] < start[i]:
                continue
            hotter, _ = _count_greater(
                lists[i],
                start[i],
                min(end[i] + 1, len(lists[i])),
                mom,
            )
            insert_points[i] = hotter
            count_x += hotter + 1
        if count_x > remaining:
            for i in range(k):
                if insert_points[i] >= 0:
                    end[i] = min(
                        start[i] + insert_points[i], len(lists[i]) - 1
                    )
        else:
            for i in range(k):
                if insert_points[i] >= 0:
                    start[i] = min(
                        start[i] + insert_points[i] + 1, len(lists[i])
                    )
            remaining -= count_x

    # Complete any picks the printed rules left undecided hottest-first:
    # the exact selection over the un-committed suffixes.
    remaining = n - sum(start)
    if remaining > 0:
        extra = fuse_cache(
            [lst[s:] for lst, s in zip(lists, start)], remaining
        )
        start = [s + e for s, e in zip(start, extra)]
    return start


def sort_merge_top_n(lists: Sequence[Timestamps], n: int) -> list[int]:
    """Baseline 1 (Section IV): concatenate, sort, take the top ``n``.

    ``O(N log N)`` time.  Returns per-list pick counts computed from the
    cut-off timestamp, with ties broken in list order.
    """
    merged = sorted(
        (value for lst in lists for value in lst),
        reverse=True,
    )
    if n >= len(merged):
        return [len(lst) for lst in lists]
    if n == 0:
        return [0] * len(lists)
    cutoff = merged[n - 1]
    ties_budget = sum(1 for value in merged[:n] if value == cutoff)
    picks: list[int] = []
    for lst in lists:
        above, _ = _count_greater(lst, 0, len(lst), cutoff)
        at_or_above, _ = _count_greater_equal(lst, 0, len(lst), cutoff)
        take_ties = min(at_or_above - above, ties_budget)
        ties_budget -= take_ties
        picks.append(above + take_ties)
    return picks


def kway_merge_top_n(lists: Sequence[Timestamps], n: int) -> list[int]:
    """Baseline 2 (Section IV): heap-based k-way merge, stop after ``n``.

    ``O(n log k)`` time -- the strongest conventional competitor, which
    FuseCache beats when ``n >> k``.
    """
    picks = [0] * len(lists)
    heap: list[tuple[float, int]] = []
    for i, lst in enumerate(lists):
        if lst:
            # Negate for a max-heap on hotness.
            heap.append((-lst[0], i))
    heapq.heapify(heap)
    taken = 0
    while heap and taken < n:
        _, i = heapq.heappop(heap)
        picks[i] += 1
        taken += 1
        offset = picks[i]
        if offset < len(lists[i]):
            heapq.heappush(heap, (-lists[i][offset], i))
    return picks


def selected_multiset(
    lists: Sequence[Timestamps], topick: Sequence[int]
) -> list[float]:
    """The sorted multiset of timestamps chosen by ``topick`` (test helper)."""
    chosen: list[float] = []
    for lst, count in zip(lists, topick):
        chosen.extend(lst[:count])
    return sorted(chosen, reverse=True)


def lower_bound_comparisons(n: int, k: int) -> float:
    """Information-theoretic lower bound from Section IV-B1.

    Any comparison-based algorithm needs ``log2 C(n+k-1, n)`` steps, which
    simplifies to ``O(k log n)``; FuseCache is within a ``log n`` factor.
    """
    if n < 0 or k < 1:
        raise ConfigurationError("need n >= 0 and k >= 1")
    return math.lgamma(n + k) / math.log(2) - (
        math.lgamma(n + 1) + math.lgamma(k)
    ) / math.log(2)
