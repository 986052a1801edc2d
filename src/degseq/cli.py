"""Command-line front end.

Subcommands: check, realize, realize-bounded, regularity, compare,
harness. Sequences are given as comma- or whitespace-separated integers
with optional power notation (``2^12`` means twelve 2s, mixing is fine:
``3,2^4,1``; a sequence may expand to at most ten million entries), or
one sequence per line via ``--file`` (``-`` for stdin) in place of
entries. The same ceiling holds for degree bounds, decoded count vectors
and harness streams.

Exit codes: 0 success / order holds, 1 negative verdict, 2 usage or
parse error (a ``--file`` that cannot be read or comes with entries
included). The oracle size cap can be overridden with the
``DEGSEQ_ORACLE_CAP`` environment variable, a positive integer.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .errors import GoodPairNotFound, NotGraphicError
from .graphs import components, to_edge_list_text, to_json_dict
from .harness import (
    GoodPairReport,
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
    parse_sequence,
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


def _expand_tokens(text: str) -> list[int]:
    entries: list[int] = []
    for token in text.replace(",", " ").split():
        match = _POWER.match(token)
        if match:
            try:
                entry, copies = int(match.group(1)), int(match.group(2))
            except ValueError:  # more digits than int() accepts
                raise ValueError(f"cannot parse token {token!r}") from None
            if len(entries) + copies > _MAX_ENTRIES:
                raise ValueError(
                    f"sequence expands past {_MAX_ENTRIES} entries at token {token!r}")
            entries.extend([entry] * copies)
            continue
        try:
            entries.append(int(token))
        except ValueError:
            raise ValueError(f"cannot parse token {token!r}") from None
    return entries


def _parse_cli_sequence(text: str, strip_zeros: bool) -> IntegerSequence:
    entries = _expand_tokens(text)
    if strip_zeros:
        entries = [e for e in entries if e != 0]
    return parse_sequence(entries)


def _read_lines(path: str) -> list[str]:
    if path == "-":
        data = sys.stdin.read()
    else:
        try:
            with open(path) as handle:
                data = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    return [line.strip() for line in data.splitlines() if line.strip()]


def _sequence_texts(args, needed: int) -> list[str]:
    if getattr(args, "file", None):
        if args.sequence:
            raise ValueError("pass sequence entries or --file, not both")
        lines = _read_lines(args.file)
        if needed and len(lines) < needed:
            raise ValueError(f"expected {needed} sequence line(s), got {len(lines)}")
        return lines if not needed else lines[:needed]
    if not args.sequence:
        raise ValueError("no sequence given (pass entries or --file)")
    if needed == 2:
        if len(args.sequence) != 2:
            raise ValueError("expected exactly two sequence arguments")
        return list(args.sequence)
    return [" ".join(args.sequence)]


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


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


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
    try:
        texts = _sequence_texts(args, needed=0 if args.file else 1)
        sequences = [_parse_cli_sequence(t, args.strip_zeros) for t in texts]
    except ValueError as exc:
        _fail(str(exc))
        return 2
    status = 0
    for seq in sequences:
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
    try:
        text = _sequence_texts(args, needed=1)[0]
        seq = _parse_cli_sequence(text, args.strip_zeros)
    except ValueError as exc:
        _fail(str(exc))
        return 2
    bounded = getattr(args, "bounded", False) or args.command == "realize-bounded"
    try:
        graph = realize_bounded(seq) if bounded else realize(seq)
    except NotGraphicError as exc:
        _fail(str(exc))
        return 1
    if bounded:
        sizes = [part.vertex_count for part in components(graph)]
        bound = 3 * seq.max_degree ** 2
    if args.json:
        payload = to_json_dict(graph)
        if bounded:
            payload["component_sizes"] = sizes
            payload["bound"] = bound
        print(json.dumps(payload, indent=2))
    else:
        print(to_edge_list_text(graph), end="")
        if bounded:
            print(f"c components: {' '.join(str(s) for s in sizes)}")
            print(f"c bound: {bound}")
    return 0


# ---------------------------------------------------------------------------
# regularity


def cmd_regularity(args) -> int:
    try:
        if args.decode:
            text = _sequence_texts(args, needed=1)[0]
            descending = _expand_tokens(text)
            if any(c < 0 for c in descending):
                raise ValueError("counts must be nonnegative")
            _within_ceiling(sum(descending), "count vector total")
            counts = RegularitySequence(tuple(descending[::-1]))
            seq = from_regularity(counts)
            if args.json:
                print(json.dumps({"entries": list(seq.entries)}))
            else:
                print(str(seq))
            return 0
        text = _sequence_texts(args, needed=1)[0]
        seq = _parse_cli_sequence(text, args.strip_zeros)
        bound = args.bound if args.bound is not None else seq.max_degree
        _within_ceiling(bound, "degree bound")
        counts = to_regularity(seq, bound)
    except ValueError as exc:
        _fail(str(exc))
        return 2
    if args.json:
        print(json.dumps({"bound": counts.bound,
                          "counts_descending": list(counts.descending)}))
    else:
        print(",".join(str(c) for c in counts.descending))
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    try:
        texts = _sequence_texts(args, needed=2)
        d_small = _parse_cli_sequence(texts[0], args.strip_zeros)
        d_large = _parse_cli_sequence(texts[1], args.strip_zeros)
        if args.bound is not None:
            _within_ceiling(args.bound, "degree bound")
        bound = args.bound if args.bound is not None else max(
            d_small.max_degree, d_large.max_degree)
        cap = _oracle_cap()
    except ValueError as exc:
        _fail(str(exc))
        return 2
    methods = ROUTES if args.method == "auto" else (args.method,)
    try:
        outcome = compare(d_small, d_large, bound, methods=methods, oracle_cap=cap)
    except NotGraphicError as exc:
        _fail(str(exc))
        return 1
    except ValueError as exc:
        _fail(str(exc))
        return 2
    if len(methods) == 1 and outcome.refusals:
        _fail(outcome.refusals[-1])
        return 2

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


def _summary_line(report: GoodPairReport) -> str:
    return (f"good pair i={report.i} j={report.j}"
            f" (method={report.method}, prefix={report.prefix_length_scanned}):"
            f" {report.seq_i} <= {report.seq_j}")


def cmd_harness(args) -> int:
    try:
        cfg = StreamConfig(bound=args.bound, max_length=args.max_length,
                           seed=args.seed, count=args.count,
                           generator=args.generator)
        _within_ceiling(cfg.bound, "degree bound")
        _within_ceiling(cfg.count * cfg.max_length, "--count * --max-length")
        stream = generate_stream(cfg)
        oracle_cap = _oracle_cap()
    except ValueError as exc:
        _fail(str(exc))
        return 2
    start = time.perf_counter()
    try:
        report = find_good_pair(stream, cfg.bound, oracle_cap=oracle_cap)
    except GoodPairNotFound as exc:
        _fail(str(exc))
        return 1
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.json:
        payload = report_to_json(report)
        if args.timing:
            payload["elapsed_ms"] = round(elapsed_ms, 3)
        print(json.dumps(payload, indent=2))
    else:
        line = _summary_line(report)
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
    relb.set_defaults(handler=cmd_realize)

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
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
