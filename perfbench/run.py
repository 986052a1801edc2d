"""degseq benchmark: one seeded workload per run, checked and timed.

    python3 perfbench/run.py --workload pairs-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # all four workloads in turn

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the workload runs whole rounds until ``--seconds`` of
operation time have been measured and the last line of standard output
is a JSON object with every end-to-end metric. With ``--trace 1`` one
round runs untraced and then again with every public library function
wrapped in spans, to measure the tracing overhead, and the JSON
carries the per-layer metrics. Each workload runs in one single-threaded
process and the loop is closed: an operation starts when the previous one
has returned. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from tracer import CAPPED, MISS, SpanStats, Tracer
from workloads import LAYERS, WORKLOADS, CheckFile, load_library

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
DECIDED = ("holds_sufficient", "holds_components", "holds_oracle", "refuted",
           "built", "graphic", "not_graphic")
VERDICTS = ("holds_sufficient", "holds_components", "holds_oracle", "refuted",
            "inconclusive", "capped")
QUADRATIC = 1.8


def setup_seconds(workload: str, seed: int) -> float:
    """One set-up, timed from starting a fresh interpreter to its inputs being ready."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, probe, workload, str(seed)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or ready != "ready\n":
        raise RuntimeError(f"set-up of {workload} failed with exit code {child.returncode}")
    return elapsed


def percentile(sorted_values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    if len(sorted_values) < 2:
        return sorted_values[0] if sorted_values else 0.0
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def latency_percentiles(rounds) -> tuple[dict[int, float], str]:
    """p50, p95 and p99 of the per-operation latency, and how they were taken.

    Each operation's latency is its mean over the rounds. The host runs
    in fast and slow stretches of seconds; a per-operation median picks
    whichever held most rounds and so jumps between runs, while the mean
    weighs them by their share, as the throughput does.
    """
    per_op: dict[int, list[float]] = {}
    for r in rounds:
        for op, ms in zip(r.op_ids, r.latencies_ms):
            per_op.setdefault(op, []).append(ms)
    latencies = sorted(statistics.fmean(v) for v in per_op.values())
    count = len(latencies)
    return ({q: percentile(latencies, q) for q in (50, 95, 99)},
            f"op_ms: {count} operations, each the mean of its {len(rounds)} rounds;"
            f" {count - round(0.95 * count)} beyond p95, {count - round(0.99 * count)} beyond p99")


def end_to_end(rounds, setup_samples) -> tuple[dict, list[str]]:
    seconds = sum(r.seconds for r in rounds)
    ops = sum(r.ops for r in rounds)
    outcomes = sum((r.outcomes for r in rounds), Counter())
    latency, latency_note = latency_percentiles(rounds)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (ops / seconds, "1/s"),
        "entries_per_s": (sum(r.entries for r in rounds) / seconds, "1/s"),
        "op_ms.p50": (latency[50], "ms"),
        "op_ms.p95": (latency[95], "ms"),
        "op_ms.p99": (latency[99], "ms"),
        "decided_share": (sum(outcomes[k] for k in DECIDED) / ops, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup_samples)} set-ups, each a fresh interpreter"
        f" that imports degseq and builds the inputs",
        f"ops_per_s, entries_per_s: over {len(rounds)} rounds, {seconds:.3f} s of operation time",
        latency_note,
    ]
    return metrics, notes


def per_layer(inputs, traced, plain, tracer) -> tuple[dict, list[str]]:
    stats = SpanStats(tracer)
    calls, self_ms = stats.calls, stats.self_ms
    distinct = getattr(inputs, "distinct", 0)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for name in ("rao.canonical_form", "rao.decompose", "rao.is_induced_subgraph",
                 "rao.rao_leq_via_components", "rao.rao_leq_sufficient",
                 "rao.rao_leq_oracle", "realization.realize", "graphs.disjoint_union",
                 "sequences.erdos_gallai_check"):
        put(f"{name}.calls", calls[name], "count")
    put("realization.require_graphic.calls", calls["realization.require_graphic"], "count")
    put("rao.decompose.calls_per_sequence",
        calls["rao.decompose"] / distinct if distinct else 0.0, "calls/seq")
    for name in ("rao.canonical_form", "rao.decompose", "rao.is_induced_subgraph",
                 "rao.rao_leq_via_components", "rao.rao_leq_sufficient",
                 "rao.rao_leq_oracle", "realization.realize_bounded",
                 "realization.plan_bounded", "realization.realize",
                 "graphs.disjoint_union", "graphs.components_with_vertices",
                 "sequences.erdos_gallai_check", "sequences.parse_sequence",
                 "cli.main", "harness.generate_stream", "harness.enumerate_graphic"):
        put(f"{name}.self_ms", self_ms[name], "ms")
    for name in ("rao.is_induced_subgraph", "rao.rao_leq_via_components",
                 "rao.rao_leq_sufficient"):
        put(f"{name}.hit_ratio", stats.hit_ratio(name), "ratio")
    put("rao.rao_leq_via_components.capped",
        stats.outcomes["rao.rao_leq_via_components"][CAPPED], "count")
    put("rao.rao_leq_oracle.refuted", stats.outcomes["rao.rao_leq_oracle"][MISS], "count")
    # The cascade reaches the oracle only when both constructive routes
    # came back inconclusive or capped, so every oracle hit is such a pair.
    put("rao.rao_leq_oracle.holds_after_inconclusive", traced.outcomes["holds_oracle"], "count")
    put("rao.labeled_realizations.yielded",
        stats.counters["rao.labeled_realizations.yielded"], "count")
    put("sequences.erdos_gallai_check.entries", stats.entries["sequences.erdos_gallai_check"],
        "count")
    growth = {}
    for name in ("realization.realize", "realization.realize_bounded",
                 "graphs.components_with_vertices", "sequences.erdos_gallai_check"):
        growth[name] = stats.growth_exponent(name)
        put(f"{name}.growth_exp", growth[name], "exponent")
    for verdict in VERDICTS:
        put(f"verdicts.{verdict}", traced.outcomes[verdict], "count")
    for layer in LAYERS:
        put(f"layer.{layer}.self_ms",
            sum(ms for name, ms in self_ms.items() if name.startswith(layer + ".")), "ms")
    traced_rate = traced.ops / traced.seconds
    plain_rate = plain.ops / plain.seconds
    put("trace.overhead_pct", (plain_rate - traced_rate) / plain_rate * 100, "%")

    total = sum(self_ms.values()) or 1.0
    notes = [f"traced one round: {traced.ops} ops, {len(tracer.spans)} spans;"
             f" untraced {plain_rate:.4g} ops/s, traced {traced_rate:.4g} ops/s",
             "self-time share: " + ", ".join(
                 f"{layer} {metrics[f'layer.{layer}.self_ms'][0] / total:.1%}" for layer in LAYERS),
             "top self time: " + ", ".join(
                 f"{name} {ms / total:.1%}" for name, ms in
                 sorted(self_ms.items(), key=lambda kv: -kv[1])[:4])]
    notes += [f"growth {name}: {exp:.2f}{' (quadratic)' if exp >= QUADRATIC else ''}"
              for name, exp in growth.items() if calls[name]]
    return metrics, notes


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "degseq", "__init__.py")):
        print(f"error: no degseq package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    lib = load_library()
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install()
            inputs = workload.build(lib, args.seed, 0, tracer)
            tracer.uninstall()
            # The untraced round runs first, so that it starts from the same
            # state as a --trace 0 round and not amid the kept spans.
            gc.collect()
            plain = workload.run(lib, inputs)
            gc.collect()
            tracer.install()
            traced = workload.run(lib, inputs, tracer)
            tracer.uninstall()
            rounds = [plain, traced]
            metrics, notes = per_layer(inputs, traced, plain, tracer)
            os.makedirs(".perfbench", exist_ok=True)
            trace_path = os.path.join(".perfbench", f"trace-{args.workload}-{args.seed}.jsonl.gz")
            tracer.write(trace_path)
            notes.append(f"spans written to {trace_path}")
        else:
            setup_samples = [setup_seconds(args.workload, args.seed)
                             for _ in range(SETUP_REPEATS)]
            inputs = workload.build(lib, args.seed, 0)
            rounds = []
            while True:
                gc.collect()  # every round starts without garbage left by the last
                rounds.append(workload.run(lib, inputs))
                if sum(r.seconds for r in rounds) >= args.seconds:
                    break
                inputs = workload.build(lib, args.seed, len(rounds))
            metrics, notes = end_to_end(rounds, setup_samples)
    finally:
        CheckFile.cleanup()

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    outcomes = sum((r.outcomes for r in rounds), Counter())
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print("  outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items())))
    print(f"  failed_share: {failed / attempted:.6g} ({failed} of {attempted})")
    for problem in (p for r in rounds for p in r.problems):
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="operation time to measure with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload is None else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
