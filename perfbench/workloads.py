"""The four benchmark workloads: seeded inputs, the timed loop, the output checks.

Every workload works in rounds. ``build`` makes a round's inputs from the
seed and the round index; ``run`` times each operation of the round with
tracing left to the caller, then checks the outputs outside the timed
region. Library functions are always looked up on their module at call
time, so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import random
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from types import SimpleNamespace

from reference import check_bounded_realization, eg_verdict_line

# Pair workloads: the sequences of ``degseq harness -N 3 --max-length 12
# --count 80 --seed 1`` (the ROADMAP baseline stream), and the universe
# ``enumerate_graphic(3, 7)``. Streams drawn from other seeds cost from 5 s
# to 20 s per 3160 pairs on the same machine, because a few oracle
# refutations on 8-vertex hosts take 0.3 s each; no run of seconds can
# average that out, so the pair sets stay fixed and --seed orders them.
STREAM = {"bound": 3, "max_length": 12, "seed": 1, "count": 80}
UNIVERSE = {"bound": 3, "max_length": 7}

# build-large: (largest entry, length) per round. The bounded profile cuts
# into 80 to 1414 blocks; the direct profile has n < d1^2, so realize_bounded
# runs one highest-degree-first reduction on the whole sequence.
BOUNDED_PROFILE = ((5, 2000), (4, 2828), (3, 4000), (2, 5657))
DIRECT_PROFILE = ((40, 500), (50, 1000), (60, 1500))

# check-file: one file per round. Every file has the same lengths, evenly
# spaced quantiles of a log-uniform law on this range scaled to the total;
# graphic, odd-sum and Erdos-Gallai-failing lines take turns along the
# sorted lengths. The lines are shuffled into one fixed order, the same for
# every seed and round, so that each line keeps its length and kind; the
# seed and the round draw the entries. The order is fixed because cli.main
# runs the check of a line after printing it, so the gap between two
# printed lines covers two neighbouring lines, and a seeded order would
# change which large lines are neighbours and with it the top percentiles.
CHECK_LINES = 200
CHECK_TOTAL = 10 ** 6
CHECK_LENGTHS = (500, 20000)
DATA_DIR = ".perfbench"

# The pair workloads' input sequences and the pairs the seed code's oracle
# refuted, by position in those sequences; written by running this file.
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
LAYERS = ("sequences", "graphs", "realization", "rao", "harness", "cli")


def load_library() -> SimpleNamespace:
    """The ``degseq`` modules, imported from wherever ``sys.path`` finds them."""
    return SimpleNamespace(**{name: importlib.import_module(f"degseq.{name}")
                              for name in ("errors", *LAYERS)})


@dataclass
class Round:
    """What one round measured and what its checks found."""

    seconds: float = 0.0
    ops: int = 0
    entries: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    # Ids of the timed operations, one per latency. An id names the same
    # operation, or one of the same size and kind, in every round of a run.
    op_ids: list[int] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def _set_op(tracer, op) -> None:
    if tracer is not None:
        tracer.op = op


# ---------------------------------------------------------------------------
# Pair workloads


def cascade(lib, d_small, d_large, bound: int):
    """The route order of ``degseq compare --method auto``.

    Returns (outcome, witness). Only the oracle refutes, and the run
    compares its refutations with those in EXPECTED_PATH; a
    CapExceededError from the components route is recorded as capped and
    the cascade moves on.
    """
    rao = lib.rao
    witness = rao.rao_leq_sufficient(d_small, d_large, bound)
    if witness is not None:
        return "holds_sufficient", witness
    capped = False
    try:
        witness = rao.rao_leq_via_components(d_small, d_large)
    except lib.errors.CapExceededError:
        capped = True
    if witness is not None:
        return "holds_components", witness
    if d_large.n <= rao.DEFAULT_ORACLE_CAP:
        witness = rao.rao_leq_oracle(d_small, d_large)
        return ("holds_oracle", witness) if witness is not None else ("refuted", None)
    return ("capped" if capped else "inconclusive"), None


class PairWorkload:
    """A fixed set of sequence pairs, each run through the cascade."""

    every_pair_decided = False

    def sequences(self, lib, tracer) -> list:
        raise NotImplementedError

    def pairs(self, sequences) -> list[tuple[int, int]]:
        """Positions (small, large) in ``sequences`` of the pairs to compare."""
        raise NotImplementedError

    def expected(self) -> dict:
        with open(EXPECTED_PATH) as f:
            return json.load(f)[self.name]

    def build(self, lib, seed: int, round_index: int, tracer=None):
        sequences = self.sequences(lib, tracer)
        positions = self.pairs(sequences)
        ids = list(range(len(positions)))
        random.Random(seed).shuffle(ids)
        expected = self.expected()
        refuted = {tuple(pair) for pair in expected["refuted"]}
        return SimpleNamespace(
            pairs=[(sequences[positions[i][0]], sequences[positions[i][1]]) for i in ids],
            ids=ids,
            should_refute=[positions[i] in refuted for i in ids],
            same_inputs=[str(s) for s in sequences] == expected["sequences"],
            distinct=len(set(sequences)))

    def run(self, lib, inputs, tracer=None) -> Round:
        result = Round(op_ids=inputs.ids)
        witnesses = []
        perf = time.perf_counter
        for op, (d_small, d_large) in zip(inputs.ids, inputs.pairs):
            _set_op(tracer, op)
            start = perf()
            try:
                outcome, witness = cascade(lib, d_small, d_large, STREAM["bound"])
            except Exception as exc:  # an operation that raises is a failed one
                outcome, witness = f"raised {type(exc).__name__}", None
            elapsed = perf() - start
            result.seconds += elapsed
            result.latencies_ms.append(elapsed * 1e3)
            result.outcomes[outcome] += 1
            witnesses.append((outcome, witness))
        _set_op(tracer, None)
        result.ops = len(inputs.pairs)
        result.entries = sum(a.n + b.n for a, b in inputs.pairs)

        if not inputs.same_inputs:
            result.fail(f"the input sequences differ from those in {EXPECTED_PATH}")
            result.failed = result.ops
            return result
        witness_type = lib.rao.RaoWitness
        for (d_small, d_large), (outcome, witness), should_refute in zip(
                inputs.pairs, witnesses, inputs.should_refute):
            if (outcome == "refuted") != should_refute:
                result.fail(f"{d_small} <= {d_large}: {outcome}, but the seed code's oracle"
                            f" {'refuted' if should_refute else 'did not refute'} it")
            elif outcome.startswith("holds"):
                if not isinstance(witness, witness_type) or not witness.validates(d_small, d_large):
                    result.fail(f"{outcome} witness for {d_small} <= {d_large} does not validate")
            elif outcome.startswith("raised"):
                result.fail(f"{d_small} <= {d_large}: {outcome}")
            elif self.every_pair_decided and outcome != "refuted":
                result.fail(f"{d_small} <= {d_large} left {outcome} on the oracle's universe")
        return result


class PairsStream(PairWorkload):
    name = "pairs-stream"

    def sequences(self, lib, tracer):
        return lib.harness.generate_stream(lib.harness.StreamConfig(**STREAM))

    def pairs(self, sequences):
        return [(i, j) for j in range(len(sequences)) for i in range(j)]


class OracleUniverse(PairWorkload):
    name = "oracle-universe"
    every_pair_decided = True

    def sequences(self, lib, tracer):
        # enumerate_graphic is a generator; its span covers the whole walk.
        if tracer is None:
            return list(lib.harness.enumerate_graphic(**UNIVERSE))
        with tracer.span("harness.enumerate_graphic"):
            return list(lib.harness.enumerate_graphic(**UNIVERSE))

    def pairs(self, sequences):
        return [(i, j) for i, a in enumerate(sequences) for j, b in enumerate(sequences)
                if i != j and a.n <= b.n]


# ---------------------------------------------------------------------------
# build-large


def _bounded_entries(rng: random.Random, n: int, top: int) -> list[int]:
    """n entries in 1..top, in random order after a first one equal to top, with an even sum."""
    entries = [top] + rng.choices(range(1, top + 1), k=n - 1)
    if sum(entries) % 2:
        i = next(i for i in range(1, n) if entries[i] < top)
        entries[i] += 1
    return entries


class BuildLarge:
    name = "build-large"

    def build(self, lib, seed: int, round_index: int, tracer=None):
        rng = random.Random(f"build-large/{seed}/{round_index}")
        sequences = [_bounded_entries(rng, n, top) for top, n in BOUNDED_PROFILE]
        for top, n in DIRECT_PROFILE:
            while True:
                entries = _bounded_entries(rng, n, top)
                if eg_verdict_line(entries) == "graphic":
                    break
            sequences.append(entries)
        make = lib.sequences.IntegerSequence
        return [make(tuple(sorted(entries, reverse=True))) for entries in sequences]

    def run(self, lib, inputs, tracer=None) -> Round:
        result = Round(op_ids=list(range(len(inputs))))
        built = []
        perf = time.perf_counter
        for op, seq in enumerate(inputs):
            _set_op(tracer, op)
            start = perf()
            try:
                graph = lib.realization.realize_bounded(seq)
                parts = lib.graphs.components_with_vertices(graph)
            except Exception as exc:  # an operation that raises is a failed one
                graph, parts = None, f"raised {type(exc).__name__}"
            elapsed = perf() - start
            result.seconds += elapsed
            result.latencies_ms.append(elapsed * 1e3)
            result.outcomes["built" if graph is not None else "raised"] += 1
            built.append((graph, parts))
        _set_op(tracer, None)
        result.ops = len(inputs)
        result.entries = sum(seq.n for seq in inputs)

        for seq, (graph, parts) in zip(inputs, built):
            if graph is None:
                result.fail(f"n={seq.n} d1={seq.max_degree}: {parts}")
                continue
            for problem in check_bounded_realization(seq.entries, graph, parts):
                result.fail(f"n={seq.n} d1={seq.max_degree}: {problem}")
                break
        return result


# ---------------------------------------------------------------------------
# check-file


def check_file_lines(rng: random.Random, order: random.Random) -> list[list[int]]:
    """About CHECK_TOTAL entries over CHECK_LINES sequences of three kinds."""
    low, high = (math.log(x) for x in CHECK_LENGTHS)
    raw = [math.exp(low + (high - low) * (i + 0.5) / CHECK_LINES) for i in range(CHECK_LINES)]
    scale = CHECK_TOTAL / sum(raw)
    lines = []
    for index, length in enumerate(raw):
        n = max(4, round(length * scale))
        kind = index % 3
        if kind < 2:
            # n >= top^2 with an even sum is graphic; one step breaks the parity.
            entries = _bounded_entries(rng, n, rng.randint(2, min(60, math.isqrt(n))))
            if kind == 1:
                entries[-1] += 1 if entries[-1] < entries[0] else -1
        else:
            # k0 entries too large for the rest to absorb: the k0 prefix
            # inequality fails (maybe a smaller k fails first).
            k0 = round(math.exp(rng.uniform(0, math.log(math.isqrt(n)))))
            small = 3
            rest = rng.choices(range(1, small + 1), k=n - k0)
            big = k0 + 1 + math.ceil((n - k0) * min(small, k0) / k0)
            if (big * k0 + sum(rest)) % 2:
                rest[0] += 1 if rest[0] < small else -1
            entries = [big] * k0 + rest
        lines.append(entries)
    order.shuffle(lines)
    return lines


class StampedOutput(io.TextIOBase):
    """A stdout stand-in that keeps the text and the time each line ended."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        if text.endswith("\n"):
            self.stamps.append(time.perf_counter())
        return len(text)


class CheckFile:
    name = "check-file"

    def build(self, lib, seed: int, round_index: int, tracer=None):
        lines = check_file_lines(random.Random(f"check-file/{seed}/{round_index}"),
                                 random.Random("check-file"))
        os.makedirs(DATA_DIR, exist_ok=True)
        path = os.path.join(DATA_DIR, f"check-{os.getpid()}.txt")
        with open(path, "w") as out:
            for entries in lines:
                out.write(",".join(map(str, entries)))
                out.write("\n")
        return SimpleNamespace(path=path, lines=lines)

    def run(self, lib, inputs, tracer=None) -> Round:
        result = Round()
        captured = StampedOutput()
        _set_op(tracer, inputs.path)
        start = time.perf_counter()
        try:
            with redirect_stdout(captured):
                status = lib.cli.main(["check", "--file", inputs.path])
        except Exception as exc:  # counted as every line failing
            status = f"raised {type(exc).__name__}"
        result.seconds = time.perf_counter() - start
        _set_op(tracer, None)
        stamps = captured.stamps
        # Lines are printed one sequence at a time after the whole file is
        # parsed, so the gap between two lines is the time the user waits
        # for the next verdict: the exit-status check of the line before
        # and the verdict check of the line itself.
        result.latencies_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        result.op_ids = list(range(1, len(stamps)))
        result.ops = len(inputs.lines)
        result.entries = sum(map(len, inputs.lines))

        printed = "".join(captured.parts).splitlines()
        expected = [eg_verdict_line(entries) for entries in inputs.lines]
        for index, want in enumerate(expected):
            got = printed[index] if index < len(printed) else None
            result.outcomes["missing" if got is None else
                            "graphic" if got == "graphic" else "not_graphic"] += 1
            if got != want:
                result.fail(f"line {index + 1}: printed {got!r}, expected {want!r}")
        want_status = 0 if all(e == "graphic" for e in expected) else 1
        if status != want_status:
            result.fail(f"exit status {status!r}, expected {want_status}")
            result.failed = min(result.failed, result.ops)
        return result

    @staticmethod
    def cleanup() -> None:
        path = os.path.join(DATA_DIR, f"check-{os.getpid()}.txt")
        if os.path.exists(path):
            os.remove(path)


WORKLOADS = {w.name: w for w in (PairsStream(), OracleUniverse(), BuildLarge(), CheckFile())}


def record_expected() -> None:
    """Write EXPECTED_PATH from one cascade round of each pair workload."""
    lib = load_library()
    expected = {}
    for workload in (WORKLOADS["pairs-stream"], WORKLOADS["oracle-universe"]):
        sequences = workload.sequences(lib, None)
        refuted = [[i, j] for i, j in workload.pairs(sequences)
                   if cascade(lib, sequences[i], sequences[j], STREAM["bound"])[0] == "refuted"]
        expected[workload.name] = {"sequences": [str(s) for s in sequences],
                                   "refuted": refuted}
    with open(EXPECTED_PATH, "w") as out:
        json.dump(expected, out, separators=(",", ":"))
        out.write("\n")


if __name__ == "__main__":
    # python3 perfbench/workloads.py  (from the repository root) rewrites
    # expected.json from the library in src/.
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(EXPECTED_PATH)), "src"))
    record_expected()
