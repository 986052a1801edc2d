"""Nonincreasing positive integer sequences and graphicality testing.

The decision procedure is the Erdos-Gallai characterisation: a sequence
with even sum is graphic exactly when every prefix of length k satisfies

    d_1 + ... + d_k  <=  k(k-1) + sum over i > k of min(d_i, k).

By Tripathi and Vijay (Discrete Math. 265, 2003) the inequality need only
be tested where a run of equal entries ends, so the test costs a few
binary searches per distinct entry value, O(r log n) for r distinct
values, on top of a sum and a reversed copy of the entries made in C.

Alongside it live the length-based sufficiency shortcut (even sum and at
least d1^2 entries force graphicality) and the regularity-count encoding
that records how often each degree value occurs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable


@dataclass(frozen=True)
class IntegerSequence:
    """A candidate degree sequence: nonincreasing, every entry >= 1."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("sequence must have at least one entry")
        # min() and sorted() run in C, and sorted() is linear on sorted input;
        # only a failure walks the entries in Python, to name the culprit
        if min(entries) < 1:
            at = next(i for i, e in enumerate(entries) if e < 1)
            raise ValueError(f"entries must be >= 1, got {entries[at]} at position {at + 1}")
        if sorted(entries, reverse=True) != list(entries):
            at = next(i for i in range(1, len(entries)) if entries[i - 1] < entries[i])
            raise ValueError(f"entries must be nonincreasing, got {entries[at]}"
                             f" after {entries[at - 1]} at position {at + 1}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def max_degree(self) -> int:
        return self.entries[0]

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


def parse_sequence(raw: Iterable[int]) -> IntegerSequence:
    """Sort ``raw`` nonincreasing and wrap it as an :class:`IntegerSequence`.

    Raises ValueError for empty input or any entry < 1.
    """
    return IntegerSequence(tuple(sorted(raw, reverse=True)))


@dataclass(frozen=True)
class GraphicalityVerdict:
    """Outcome of the Erdos-Gallai test.

    ``failing_index`` is the smallest prefix length whose inequality is
    violated, and ``lhs`` > ``rhs`` are the two sides of that inequality;
    all three are None both for graphic sequences and for the odd-sum
    rejection (where no single inequality is the culprit).
    """

    graphic: bool
    failing_index: int | None = None
    lhs: int | None = None
    rhs: int | None = None


def erdos_gallai_check(seq: IntegerSequence) -> GraphicalityVerdict:
    """Decide whether ``seq`` is the degree sequence of a simple graph.

    An odd degree sum yields ``GraphicalityVerdict(False, None)``.
    Otherwise the inequality is tested at the end of every run of equal
    entries, which decides graphicality (Tripathi and Vijay). The
    smallest violated k lies in the first run whose end fails: before k
    the inequality holds, and within a run that can hold a smallest
    failure the slack rhs - lhs is concave in k, so it stays negative up
    to the run end. That run alone is scanned k by k, and the smallest k
    is reported together with both sides of its inequality. The cost is
    O(r log n) for r distinct entry values, plus O(log n) per entry of
    the failing run, after an O(n) sum and reversed copy made in C.
    """
    d = seq.entries
    n = len(d)
    total = sum(d)
    if total % 2 != 0:
        return GraphicalityVerdict(False, None)
    ascending = d[::-1]
    # d_{p+1} + ... + d_n at the run boundaries p met walking up from the bottom
    below = {n: 0}
    low = n

    def rhs(k: int, lhs: int) -> int:
        nonlocal low
        # the entries >= k fill positions 1..ge, so ge is a run boundary
        ge = n - bisect_left(ascending, k)
        if ge <= k:  # every d_i with i > k is below k
            return k * (k - 1) + total - lhs
        while low > ge:
            value = d[low - 1]
            top = n - bisect_right(ascending, value)
            below[top] = below[low] + value * (low - top)
            low = top
        return k * (k - 1) + k * (ge - k) + below[ge]

    start = done = 0  # done is d_1 + ... + d_start
    while start < n:
        value = d[start]
        end = n - bisect_left(ascending, value)
        lhs = done + value * (end - start)
        if lhs > rhs(end, lhs):
            for k in range(start + 1, end + 1):
                lhs = done + value * (k - start)
                bound = rhs(k, lhs)
                if lhs > bound:
                    return GraphicalityVerdict(False, k, lhs, bound)
        start, done = end, lhs
    return GraphicalityVerdict(True, None)


def erdos_gallai_sides(seq: IntegerSequence, k: int) -> tuple[int, int]:
    """Return (lhs, rhs) of the prefix-k inequality by direct summation.

    Sums the prefix and the capped tail entry by entry, without the run
    structure :func:`erdos_gallai_check` relies on; useful for
    re-checking the sides of a failure certificate.
    """
    if not 1 <= k <= seq.n:
        raise ValueError(f"k must be in 1..{seq.n}, got {k}")
    d = seq.entries
    lhs = sum(d[:k])
    rhs = k * (k - 1) + sum(min(x, k) for x in d[k:])
    return lhs, rhs


def sufficient_by_length(seq: IntegerSequence) -> bool:
    """Length-based graphicality shortcut.

    True when the sequence has even sum and at least d1^2 entries; such
    sequences are always graphic, so a True here implies
    ``erdos_gallai_check(seq).graphic``.
    """
    return seq.n >= seq.max_degree ** 2 and seq.total % 2 == 0


@dataclass(frozen=True)
class RegularitySequence:
    """Multiplicity counts of the degree values 1..N.

    ``counts`` is indexed by degree value: ``counts[i]`` is the number of
    entries equal to ``i + 1``. The degree bound N is the length of
    ``counts``; display and serialization use the highest-degree-first
    order (see :attr:`descending`).
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if not self.counts:
            raise ValueError("count vector must have at least one slot")
        if min(self.counts) < 0:
            at = next(i for i, c in enumerate(self.counts) if c < 0)
            raise ValueError(
                f"counts must be nonnegative, got {self.counts[at]} for degree {at + 1}")

    @property
    def bound(self) -> int:
        return len(self.counts)

    @property
    def descending(self) -> tuple[int, ...]:
        """Counts ordered highest degree first: (a_N, ..., a_2, a_1)."""
        return self.counts[::-1]

    @property
    def vertex_count(self) -> int:
        return sum(self.counts)

    @property
    def degree_total(self) -> int:
        return sum((i + 1) * c for i, c in enumerate(self.counts))


def to_regularity(seq: IntegerSequence, bound: int) -> RegularitySequence:
    """Count how often each degree 1..bound occurs in ``seq``."""
    if bound < seq.max_degree:
        raise ValueError(
            f"degree bound {bound} is smaller than the largest entry {seq.max_degree}")
    multiplicity = Counter(seq.entries)
    return RegularitySequence(tuple(multiplicity.get(i, 0) for i in range(1, bound + 1)))


def from_runs(runs: Iterable[tuple[int, int]]) -> IntegerSequence:
    """The sequence that repeats each ``value`` ``copies`` times, run by run.

    ``runs`` holds ``(value, copies)`` pairs, highest value first; the
    entries are laid down in that order and nothing is sorted, so the
    cost is O(n) in C plus one step per run. :class:`IntegerSequence`
    rejects an entry below 1 or runs out of order.
    """
    entries: list[int] = []
    for value, copies in runs:
        entries += repeat(value, copies)
    return IntegerSequence(tuple(entries))


def from_regularity(counts: RegularitySequence) -> IntegerSequence:
    """Expand a count vector back into the nonincreasing sequence it encodes."""
    if counts.vertex_count == 0:
        raise ValueError("count vector is all zeros; it encodes no sequence")
    return from_runs(zip(range(counts.bound, 0, -1), counts.descending))


def leq_pointwise(first: RegularitySequence, second: RegularitySequence) -> bool:
    """Coordinatewise comparison of two count vectors with the same bound."""
    if first.bound != second.bound:
        raise ValueError(
            f"mismatched degree bounds: {first.bound} vs {second.bound}")
    return all(a <= b for a, b in zip(first.counts, second.counts))
