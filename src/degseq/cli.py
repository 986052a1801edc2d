"""Command-line front end.

Subcommands: check, realize, realize-bounded, regularity, compare,
harness. Sequences are given as comma- or whitespace-separated integers
with optional power notation (``2^12`` means twelve 2s, mixing is fine:
``3,2^4,1``; the sequences of one command may expand to at most ten
million entries in all), or one sequence per line via ``--file`` (``-``
for stdin) in place of entries. The same ceiling holds for degree
bounds, decoded count vectors and harness streams. ``check --file``
reads every nonblank line and refuses a file with none; the other
commands need exactly one nonblank line, two for ``compare``.

Exit codes: 0 success / order holds, 1 negative verdict, 2 usage or
parse error. The handlers return 0 or 1 from a verdict and raise on
errors; ``main`` alone maps an error to its exit code and prints
``error: ...``: ``NotGraphicError`` and ``GoodPairNotFound`` exit 1,
``ValueError`` (bad input, a ceiling, an unreadable ``--file``) and a
single ``--method``'s ``CapExceededError`` exit 2, and any other
exception is an internal fault and propagates. The oracle size cap can
be overridden with the ``DEGSEQ_ORACLE_CAP`` environment variable, a
positive integer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import repeat

from .errors import CapExceededError, GoodPairNotFound, NotGraphicError
from .graphs import components, to_edge_list_text, to_json_dict
from .harness import (
    StreamConfig,
    find_good_pair,
    generate_stream,
    report_to_json,
)
from .rao import DEFAULT_ORACLE_CAP, ROUTES, compare, witness_to_json
from .realization import realize, realize_bounded
from .sequences import (
    GraphicalityVerdict,
    IntegerSequence,
    RegularitySequence,
    erdos_gallai_check,
    from_regularity,
    from_runs,
    sufficient_by_length,
    to_regularity,
)

_POWER = re.compile(r"^(-?\d+)\^(\d+)$")
# Power notation, count vectors, degree bounds and stream sizes can ask for
# any amount of memory; a request past this many entries is refused before
# anything is built.
_MAX_ENTRIES = 10 ** 7


def _within_ceiling(size: int, what: str) -> None:
    if size > _MAX_ENTRIES:
        raise ValueError(f"{what} {size} is above the ceiling of {_MAX_ENTRIES} entries")


def _scan_tokens(tokens: Iterable[str], room: float) -> Iterator[tuple[int, int]]:
    """``(entry, copies)`` for each token in order, ``d^k`` giving ``(d, k)``.

    The first token that does not parse, or that takes the entries past
    ``room`` in all, is refused by name before anything is expanded.
    """
    used = 0
    for token in tokens:
        # the substring test spares plain tokens the regex
        match = "^" in token and _POWER.match(token)
        copies = 1
        if match:
            try:
                entry, copies = int(match.group(1)), int(match.group(2))
            except ValueError:  # more digits than int() accepts
                raise ValueError(f"cannot parse token {token!r}") from None
        used += copies
        if used > room:
            raise ValueError(
                f"sequence expands past {_MAX_ENTRIES} entries at token {token!r}")
        if not match:
            try:
                entry = int(token)
            except ValueError:
                raise ValueError(f"cannot parse token {token!r}") from None
        yield entry, copies


def _tokens(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _expand_tokens(text: str, room: int) -> list[int]:
    """The entries of ``text`` in text order; a token past ``room`` entries in all is refused."""
    entries: list[int] = []
    for entry, copies in _scan_tokens(_tokens(text), room):
        entries += repeat(entry, copies)
    return entries


def _count_tokens(text: str, room: int) -> dict[int, int]:
    """The count vector ``{entry: copies}`` of ``text``, refused past ``room`` entries.

    The tokens are tallied by one C-level ``Counter``, and each distinct
    token is parsed once; ``d^k`` adds k copies without expanding them.
    A bad token, or a total past ``room``, sends the text through
    :func:`_scan_tokens` in text order, which names the token at fault.
    """
    tokens = _tokens(text)
    distinct = Counter(tokens)
    counts: dict[int, int] = {}
    try:
        for (entry, copies), times in zip(_scan_tokens(distinct, math.inf),
                                          distinct.values()):
            counts[entry] = counts.get(entry, 0) + copies * times
        if sum(counts.values()) <= room:
            return counts
    except ValueError:
        pass
    counts.clear()
    for entry, copies in _scan_tokens(tokens, room):
        counts[entry] = counts.get(entry, 0) + copies
    return counts


def _read_lines(path: str) -> list[str]:
    if path == "-":
        data = sys.stdin.read()
    else:
        try:
            with open(path) as handle:
                data = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    return list(filter(None, map(str.strip, data.splitlines())))


def _sequence_texts(args, needed: int) -> list[str]:
    """The sequence texts of ``args``: exactly ``needed``, or at least one if 0.

    ``--file`` gives one text per nonblank line; entries give one text,
    or one per argument when two are needed.
    """
    if args.file:
        if args.sequence:
            raise ValueError("pass sequence entries or --file, not both")
        texts = _read_lines(args.file)
        if needed and len(texts) != needed:
            raise ValueError(f"expected {needed} sequence line(s), got {len(texts)}")
    elif needed == 2:
        texts = list(args.sequence)
        if texts and len(texts) != 2:
            raise ValueError("expected exactly two sequence arguments")
    else:
        texts = [" ".join(args.sequence)] if args.sequence else []
    if not texts:
        raise ValueError("no sequence given (pass entries or --file)")
    return texts


def _read_sequences(args, needed: int) -> list[IntegerSequence]:
    """Parse the texts of :func:`_sequence_texts`, dropping zeros on ``--strip-zeros``.

    Each text is read as its count vector and laid out run by run, highest
    entry first, so token order does not matter and nothing is sorted.
    """
    sequences = []
    room = _MAX_ENTRIES  # one ceiling for all the texts of a command
    texts = _sequence_texts(args, needed)
    texts.reverse()
    while texts:  # a text is let go once read, so the texts and sequences do not pile up
        counts = _count_tokens(texts.pop(), room)
        room -= sum(counts.values())
        if args.strip_zeros:
            counts.pop(0, None)
        sequences.append(from_runs(sorted(counts.items(), reverse=True)))
    return sequences


def _oracle_cap() -> int:
    value = os.environ.get("DEGSEQ_ORACLE_CAP")
    if not value:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"DEGSEQ_ORACLE_CAP must be a positive integer, got {value!r}")
    return cap


# ---------------------------------------------------------------------------
# check


def _verdict_json(seq: IntegerSequence, verdict: GraphicalityVerdict,
                  prop4: bool) -> dict:
    out: dict = {"entries": list(seq.entries), "graphic": verdict.graphic}
    if not verdict.graphic:
        out["failing_index"] = verdict.failing_index
        if verdict.failing_index is not None:
            out["lhs"] = verdict.lhs
            out["rhs"] = verdict.rhs
        else:
            out["reason"] = "odd degree sum"
    if prop4:
        out["sufficient_by_length"] = sufficient_by_length(seq)
    return out


def _verdict_lines(seq: IntegerSequence, verdict: GraphicalityVerdict,
                   prop4: bool) -> list[str]:
    if verdict.graphic:
        lines = ["graphic"]
    elif verdict.failing_index is None:
        lines = ["not graphic (odd degree sum)"]
    else:
        lines = [f"not graphic (k={verdict.failing_index}: {verdict.lhs} > {verdict.rhs})"]
    if prop4:
        bound = seq.max_degree ** 2
        if sufficient_by_length(seq):
            lines.append(f"sufficient-by-length: yes (n={seq.n} >= d1^2={bound})")
        elif seq.n < bound:
            lines.append(f"sufficient-by-length: no (n={seq.n} < d1^2={bound})")
        else:
            lines.append("sufficient-by-length: no (odd degree sum)")
    return lines


def cmd_check(args) -> int:
    status = 0
    for seq in _read_sequences(args, needed=0):
        verdict = erdos_gallai_check(seq)
        if args.json:
            print(json.dumps(_verdict_json(seq, verdict, args.prop4)))
        else:
            for line in _verdict_lines(seq, verdict, args.prop4):
                print(line)
        if not verdict.graphic:
            status = 1
    return status


# ---------------------------------------------------------------------------
# realize


def cmd_realize(args) -> int:
    [seq] = _read_sequences(args, needed=1)
    graph = realize_bounded(seq) if args.bounded else realize(seq)
    if args.bounded:
        sizes = [part.vertex_count for part in components(graph)]
        bound = 3 * seq.max_degree ** 2
    if args.json:
        payload = to_json_dict(graph)
        if args.bounded:
            payload["component_sizes"] = sizes
            payload["bound"] = bound
        print(json.dumps(payload, indent=2))
    else:
        print(to_edge_list_text(graph), end="")
        if args.bounded:
            print(f"c components: {' '.join(str(s) for s in sizes)}")
            print(f"c bound: {bound}")
    return 0


# ---------------------------------------------------------------------------
# regularity


def cmd_regularity(args) -> int:
    if args.decode:
        [text] = _sequence_texts(args, needed=1)
        descending = _expand_tokens(text, _MAX_ENTRIES)
        if any(c < 0 for c in descending):
            raise ValueError("counts must be nonnegative")
        _within_ceiling(sum(descending), "count vector total")
        seq = from_regularity(RegularitySequence(tuple(descending[::-1])))
        if args.json:
            print(json.dumps({"entries": list(seq.entries)}))
        else:
            print(str(seq))
        return 0
    [seq] = _read_sequences(args, needed=1)
    bound = args.bound if args.bound is not None else seq.max_degree
    _within_ceiling(bound, "degree bound")
    counts = to_regularity(seq, bound)
    if args.json:
        print(json.dumps({"bound": counts.bound,
                          "counts_descending": list(counts.descending)}))
    else:
        print(",".join(str(c) for c in counts.descending))
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    d_small, d_large = _read_sequences(args, needed=2)
    if args.bound is not None:
        _within_ceiling(args.bound, "degree bound")
    bound = args.bound if args.bound is not None else max(
        d_small.max_degree, d_large.max_degree)
    cap = _oracle_cap()
    methods = ROUTES if args.method == "auto" else (args.method,)
    outcome = compare(d_small, d_large, bound, methods=methods, oracle_cap=cap)
    if len(methods) == 1 and outcome.refusals:
        raise CapExceededError(outcome.refusals[-1])
    if args.json:
        payload = {
            "result": outcome.result,
            "method": outcome.method,
            "witness": (witness_to_json(d_small, d_large, outcome.witness)
                        if outcome.witness is not None else None),
        }
        print(json.dumps(payload, indent=2))
    elif outcome.result == "holds":
        print(f"holds ({outcome.method})")
    elif outcome.result == "does_not_hold":
        print("does not hold (oracle)")
    else:
        print("inconclusive")
    return 0 if outcome.result == "holds" else 1


# ---------------------------------------------------------------------------
# harness


def cmd_harness(args) -> int:
    cfg = StreamConfig(bound=args.bound, max_length=args.max_length,
                       seed=args.seed, count=args.count,
                       generator=args.generator)
    _within_ceiling(cfg.bound, "degree bound")
    _within_ceiling(cfg.count * cfg.max_length, "--count * --max-length")
    stream = generate_stream(cfg)
    oracle_cap = _oracle_cap()
    start = time.perf_counter()
    report = find_good_pair(stream, cfg.bound, oracle_cap=oracle_cap)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.json:
        payload = report_to_json(report)
        if args.timing:
            payload["elapsed_ms"] = round(elapsed_ms, 3)
        print(json.dumps(payload, indent=2))
    else:
        line = (f"good pair i={report.i} j={report.j}"
                f" (method={report.method}, prefix={report.prefix_length_scanned}):"
                f" {report.seq_i} <= {report.seq_j}")
        if args.timing:
            line += f" elapsed_ms={elapsed_ms:.3f}"
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_sequence_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("sequence", nargs="*", help="sequence entries")
    sub.add_argument("--file", help="read sequences from a file, '-' for stdin")
    sub.add_argument("--strip-zeros", action="store_true",
                     help="drop zero entries before validation")
    sub.add_argument("--json", action="store_true", help="emit JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degseq",
        description="Degree-sequence toolkit: graphicality, realization,"
                    " and the induced-subgraph order.")
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="Erdos-Gallai graphicality test")
    _add_sequence_options(check)
    check.add_argument("--prop4", action="store_true",
                       help="also report the length-based sufficiency bound")
    check.set_defaults(handler=cmd_check)

    rel = subs.add_parser("realize", help="construct a realization")
    _add_sequence_options(rel)
    rel.add_argument("--bounded", action="store_true",
                     help="bound every component by 3*d1^2 vertices")
    rel.set_defaults(handler=cmd_realize)

    relb = subs.add_parser("realize-bounded",
                           help="construct a bounded-component realization")
    _add_sequence_options(relb)
    relb.set_defaults(handler=cmd_realize, bounded=True)

    reg = subs.add_parser("regularity", help="encode/decode degree multiplicities")
    _add_sequence_options(reg)
    reg.add_argument("-N", "--bound", type=int,
                     help="degree bound (default: largest entry)")
    reg.add_argument("--decode", action="store_true",
                     help="input is a count vector, highest degree first")
    reg.set_defaults(handler=cmd_regularity)

    cmp_ = subs.add_parser("compare", help="decide the induced-subgraph order")
    _add_sequence_options(cmp_)
    cmp_.add_argument("-N", "--bound", type=int,
                      help="degree bound for the count-vector test")
    cmp_.add_argument("--method", choices=["auto", "sufficient", "components", "oracle"],
                      default="auto")
    cmp_.set_defaults(handler=cmd_compare)

    har = subs.add_parser("harness", help="find a good pair in a sequence stream")
    har.add_argument("-N", "--bound", type=int, required=True)
    har.add_argument("--count", type=int, default=100)
    har.add_argument("--seed", type=int, default=0)
    har.add_argument("--max-length", type=int, default=10)
    har.add_argument("--generator", choices=["random", "enumerate"], default="random")
    har.add_argument("--json", action="store_true", help="emit JSON")
    har.add_argument("--timing", action="store_true",
                     help="include elapsed time (breaks run-to-run byte equality)")
    har.set_defaults(handler=cmd_harness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (NotGraphicError, GoodPairNotFound) as exc:  # before its base ValueError
        error, status = exc, 1
    except (ValueError, CapExceededError) as exc:
        error, status = exc, 2
    print(f"error: {error}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
