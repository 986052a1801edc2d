"""Empirical good-pair search over streams of bounded graphic sequences.

Any infinite stream of graphic sequences with entries bounded by N must
contain indices i < j with the i-th sequence below the j-th in the
induced-subgraph order. This module generates finite prefixes of such
streams and hunts for the earliest good pair; it verifies instances, not
the general statement (a finite prefix can simply lack one).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Literal

from .errors import GoodPairNotFound
from .rao import DEFAULT_ORACLE_CAP, RaoWitness, compare, witness_to_json
from .sequences import IntegerSequence, erdos_gallai_check


@dataclass(frozen=True)
class StreamConfig:
    """Parameters for producing a stream of bounded graphic sequences."""

    bound: int
    max_length: int
    seed: int
    count: int
    generator: Literal["random", "enumerate"] = "random"

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if self.count < 2:
            raise ValueError("count must be >= 2")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.generator not in ("random", "enumerate"):
            raise ValueError(f"unknown generator {self.generator!r}")


def enumerate_graphic(bound: int, max_length: int) -> Iterator[IntegerSequence]:
    """All graphic sequences with entries <= bound and length <= max_length.

    Ordered by length, then lexicographically on the nonincreasing entry
    tuple. A graphic sequence of length n has no entry above n - 1, so
    only entries up to min(bound, n - 1) are tried.
    """
    for n in range(1, max_length + 1):
        for rising in combinations_with_replacement(range(1, min(bound, n - 1) + 1), n):
            entries = rising[::-1]
            candidate = IntegerSequence(entries)
            if erdos_gallai_check(candidate).graphic:
                yield candidate


def _random_graphic(rng: random.Random, bound: int, max_length: int) -> IntegerSequence:
    """Rejection-sample one graphic sequence.

    Entries are drawn from 1..min(bound, max_length - 1), since a larger
    entry cannot occur in a graphic sequence of at most max_length
    entries. Parity repair first: decrement the largest odd entry above 1,
    or append a 1 when every odd entry is already 1 and there is room. The
    repaired candidate still has to pass the graphicality check.
    """
    top = min(bound, max_length - 1)
    while True:
        n = rng.randint(1, max_length)
        entries = sorted((rng.randint(1, top) for _ in range(n)), reverse=True)
        if sum(entries) % 2 != 0:
            odd_above_one = [e for e in entries if e % 2 == 1 and e > 1]
            if odd_above_one:
                entries.remove(odd_above_one[0])
                entries.append(odd_above_one[0] - 1)
                entries.sort(reverse=True)
            elif len(entries) < max_length:
                entries.append(1)
            else:
                continue
        candidate = IntegerSequence(tuple(entries))
        if erdos_gallai_check(candidate).graphic:
            return candidate


def generate_stream(cfg: StreamConfig) -> list[IntegerSequence]:
    """Produce ``cfg.count`` graphic sequences per the configured mode.

    Random mode is fully determined by the seed. Enumerate mode walks
    length-then-lex order and stops at ``count`` sequences or when the
    finite universe is exhausted, whichever comes first.

    Raises ValueError when no graphic sequence fits the bounds (the
    shortest one, (1,1), needs max_length >= 2).
    """
    if cfg.max_length < 2:
        raise ValueError(
            f"no graphic sequence has max entry <= {cfg.bound} and"
            f" length <= {cfg.max_length}")
    if cfg.generator == "enumerate":
        stream = []
        for seq in enumerate_graphic(cfg.bound, cfg.max_length):
            stream.append(seq)
            if len(stream) == cfg.count:
                break
        return stream
    rng = random.Random(cfg.seed)
    return [_random_graphic(rng, cfg.bound, cfg.max_length) for _ in range(cfg.count)]


@dataclass(frozen=True)
class GoodPairReport:
    """A validated comparable pair found in a stream (0-based indices)."""

    i: int
    j: int
    method: Literal["sufficient", "components", "oracle"]
    witness: RaoWitness
    prefix_length_scanned: int
    seq_i: IntegerSequence
    seq_j: IntegerSequence


def report_to_json(report: GoodPairReport) -> dict:
    return {
        "i": report.i,
        "j": report.j,
        "method": report.method,
        "prefix_length_scanned": report.prefix_length_scanned,
        "witness": witness_to_json(report.seq_i, report.seq_j, report.witness),
    }


def find_good_pair(stream: list[IntegerSequence], bound: int,
                   oracle_cap: int = DEFAULT_ORACLE_CAP) -> GoodPairReport:
    """Scan for the earliest good pair: increasing j, then increasing i.

    Each candidate pair goes through :func:`degseq.rao.compare`: the cheap
    constructive test first, then the component-matching test, then the
    exact oracle when the right sequence fits under ``oracle_cap``.
    Size-guard refusals are treated as inconclusive and the scan moves
    on. The first witness wins and is revalidated before being reported.

    Raises :class:`GoodPairNotFound` when the prefix has no good pair.
    """
    for j in range(1, len(stream)):
        for i in range(j):
            d_i, d_j = stream[i], stream[j]
            outcome = compare(d_i, d_j, bound, oracle_cap=oracle_cap)
            witness, method = outcome.witness, outcome.method
            if witness is not None:
                if not witness.validates(d_i, d_j):
                    raise RuntimeError(
                        f"method {method} produced an invalid witness for"
                        f" ({d_i}, {d_j})")
                return GoodPairReport(i, j, method, witness, j + 1, d_i, d_j)
    raise GoodPairNotFound(len(stream))
