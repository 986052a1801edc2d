"""Nonincreasing positive integer sequences and graphicality testing.

The decision procedure is the Erdos-Gallai characterisation: a sequence
with even sum is graphic exactly when every prefix of length k satisfies

    d_1 + ... + d_k  <=  k(k-1) + sum over i > k of min(d_i, k).

Alongside it live the length-based sufficiency shortcut (even sum and at
least d1^2 entries force graphicality) and the regularity-count encoding
that records how often each degree value occurs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable


@dataclass(frozen=True)
class IntegerSequence:
    """A candidate degree sequence: nonincreasing, every entry >= 1."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("sequence must have at least one entry")
        if any(e < 1 for e in self.entries):
            raise ValueError(f"entries must be >= 1, got {list(self.entries)}")
        if any(a < b for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError(f"entries must be nonincreasing, got {list(self.entries)}")

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
    Otherwise every prefix length k in 1..n is tested and the smallest
    violated k is reported together with both sides of its inequality.
    """
    d = seq.entries
    n = len(d)
    prefix = (0, *accumulate(d))
    total = prefix[n]
    if total % 2 != 0:
        return GraphicalityVerdict(False, None)
    ascending = d[::-1]
    for k in range(1, n + 1):
        lhs = prefix[k]
        # Entries >= k occupy a prefix of d; count them by binary search.
        ge = n - bisect_left(ascending, k)
        capped = max(0, ge - k)          # i > k with d_i >= k contribute k each
        tail_start = max(k, ge)          # positions beyond this have d_i < k
        rhs = k * (k - 1) + k * capped + (total - prefix[tail_start])
        if lhs > rhs:
            return GraphicalityVerdict(False, k, lhs, rhs)
    return GraphicalityVerdict(True, None)


def erdos_gallai_sides(seq: IntegerSequence, k: int) -> tuple[int, int]:
    """Return (lhs, rhs) of the prefix-k inequality by direct summation.

    Independent of the bisect-based fast path in
    :func:`erdos_gallai_check`; useful for re-checking the sides of a
    failure certificate.
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
        if any(c < 0 for c in self.counts):
            raise ValueError(f"counts must be nonnegative, got {list(self.counts)}")

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


def from_regularity(counts: RegularitySequence) -> IntegerSequence:
    """Expand a count vector back into the nonincreasing sequence it encodes."""
    if counts.vertex_count == 0:
        raise ValueError("count vector is all zeros; it encodes no sequence")
    entries: list[int] = []
    for degree in range(counts.bound, 0, -1):
        entries.extend([degree] * counts.counts[degree - 1])
    return IntegerSequence(tuple(entries))


def leq_pointwise(first: RegularitySequence, second: RegularitySequence) -> bool:
    """Coordinatewise comparison of two count vectors with the same bound."""
    if first.bound != second.bound:
        raise ValueError(
            f"mismatched degree bounds: {first.bound} vs {second.bound}")
    return all(a <= b for a, b in zip(first.counts, second.counts))
