"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after
asserting the criterion at full strength; run with ``-v`` to get the
per-criterion pass/fail report from pytest itself.
"""

import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement

from degseq.graphs import components, degree_sequence
from degseq.harness import StreamConfig, enumerate_graphic, find_good_pair, generate_stream
from degseq.rao import rao_leq_oracle, rao_leq_sufficient, rao_leq_via_components
from degseq.realization import realize_bounded
from degseq.sequences import (
    IntegerSequence,
    RegularitySequence,
    erdos_gallai_check,
    from_regularity,
)
from oracles import random_graphic_sequence, realizable_degree_multisets

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def test_criterion_1_erdos_gallai_matches_exhaustive_enumeration():
    """Every sequence with n <= 7 and entries <= 6 agrees with brute force."""
    checked = 0
    for n in range(1, 8):
        realizable = realizable_degree_multisets(n)
        for rising in combinations_with_replacement(range(1, 7), n):
            seq = IntegerSequence(rising[::-1])
            expected = tuple(rising) in realizable
            assert erdos_gallai_check(seq).graphic == expected, seq
            checked += 1
    assert checked == 1715
    print(f"criterion 1: PASS - EG verdict matches exhaustive enumeration on "
          f"all {checked} sequences with n <= 7, entries <= 6")


def test_criterion_2_length_bound_forces_graphic():
    """Exact length d1^2 plus even sum guarantees graphicality, d1 in 2..4."""
    checked = 0
    for top in (2, 3, 4):
        length = top ** 2
        for rest in combinations_with_replacement(range(1, top + 1), length - 1):
            entries = tuple(sorted((top,) + rest, reverse=True))
            seq = IntegerSequence(entries)
            if seq.total % 2 != 0:
                continue
            assert erdos_gallai_check(seq).graphic, seq
            checked += 1
    print(f"criterion 2: PASS - all {checked} even-sum sequences of length "
          f"d1^2 (d1 in 2..4) are graphic, zero exceptions")


def test_criterion_3_bounded_realization_component_sizes():
    """1000 random graphic sequences: exact degrees, components <= 3*d1^2."""
    rng = random.Random(2024)
    for _ in range(1000):
        seq = random_graphic_sequence(rng, 5, 300)
        graph = realize_bounded(seq)
        assert degree_sequence(graph) == list(seq.entries), seq
        limit = 3 * seq.max_degree ** 2
        assert all(p.vertex_count <= limit for p in components(graph)), seq
    print("criterion 3: PASS - 1000 bounded realizations (d1 <= 5, n <= 300) "
          "kept exact degrees and the 3*d1^2 component bound, zero violations")


def test_criterion_4_count_difference_route_soundness():
    """500 pointwise-comparable count pairs with gap >= N^2 all yield witnesses."""
    rng = random.Random(97)
    done = 0
    while done < 500:
        bound = rng.randint(1, 4)
        base = [rng.randint(0, 4) for _ in range(bound)]
        if sum(base) == 0:
            continue
        if sum((i + 1) * c for i, c in enumerate(base)) % 2 != 0:
            continue
        d_small = from_regularity(RegularitySequence(tuple(base)))
        if not erdos_gallai_check(d_small).graphic:
            continue
        delta = [rng.randint(0, 4) for _ in range(bound)]
        delta[0] += max(0, bound ** 2 - sum(delta))
        if sum((i + 1) * c for i, c in enumerate(delta)) % 2 != 0:
            delta[0] += 1
        combined = tuple(b + d for b, d in zip(base, delta))
        d_large = from_regularity(RegularitySequence(combined))
        witness = rao_leq_sufficient(d_small, d_large, bound)
        assert witness is not None, (d_small, d_large)
        assert witness.validates(d_small, d_large), (d_small, d_large)
        done += 1
    print("criterion 4: PASS - 500 comparable count-vector pairs with gap >= N^2 "
          "(N <= 4) all produced revalidating witnesses, zero failures")


def test_criterion_5_sufficient_routes_agree_with_oracle():
    """On all graphic pairs with |D2| <= 7, N <= 3, every witness is confirmed."""
    universe = list(enumerate_graphic(3, 7))
    pairs = confirmed = 0
    for d_small in universe:
        for d_large in universe:
            pairs += 1
            for witness in (rao_leq_sufficient(d_small, d_large, 3),
                            rao_leq_via_components(d_small, d_large)):
                if witness is None:
                    continue
                assert witness.validates(d_small, d_large), (d_small, d_large)
                assert rao_leq_oracle(d_small, d_large) is not None, \
                    (d_small, d_large)
                confirmed += 1
    print(f"criterion 5: PASS - {confirmed} witnesses over {pairs} graphic "
          f"pairs (|D2| <= 7, N <= 3) all confirmed by the oracle, "
          f"zero disagreements")


def test_criterion_6_every_seeded_stream_yields_a_good_pair():
    """100 seeded random streams (N in 1..3, count 200) all report a pair."""
    methods = {"sufficient": 0, "components": 0, "oracle": 0}
    for run in range(100):
        bound = (run % 3) + 1
        cfg = StreamConfig(bound=bound, max_length=10, seed=run, count=200)
        stream = generate_stream(cfg)
        report = find_good_pair(stream, bound)
        assert report.i < report.j
        assert report.witness.validates(stream[report.i], stream[report.j])
        methods[report.method] += 1
    print(f"criterion 6: PASS - good pair found and revalidated in all 100 "
          f"streams (methods: {methods})")


def test_criterion_7_cli_output_is_byte_identical_across_runs():
    """Each CLI command run twice in fresh processes produces identical bytes."""
    commands = [
        ["check", "3,3,1,1"],
        ["check", "--json", "--prop4", "2,2,2,2"],
        ["realize", "2,1,1"],
        ["realize", "--bounded", "--json", "2^12"],
        ["realize-bounded", "2^12"],
        ["regularity", "-N", "3", "3,2,2,1"],
        ["regularity", "--decode", "1,2,1"],
        ["compare", "--json", "1,1", "1,1,1,1"],
        ["compare", "2,2,2", "2,2,2,2", "--method", "oracle"],
        ["harness", "-N", "2", "--count", "50", "--seed", "7", "--json"],
        ["harness", "-N", "3", "--count", "100", "--seed", "42"],
        ["compare", "--json", "1,1", "2,2,2,2,2"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    def run(cmd):
        proc = subprocess.run([sys.executable, "-m", "degseq", *cmd],
                              capture_output=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    for cmd in commands:
        first = run(cmd)
        second = run(cmd)
        assert first == second, f"output drift for {cmd}"
    print(f"criterion 7: PASS - {len(commands)} CLI invocations byte-identical "
          f"across repeated runs")
