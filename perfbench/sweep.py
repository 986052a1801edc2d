"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads pairs-stream,check-file --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --baseline perfbench/baseline.json

Runs go one after another from the repository root, with ``run_seconds``
from BENCHMARK.json. For every end-to-end metric it prints the median,
the quartiles of ``statistics.quantiles(values, n=4)`` and their distance
as a share of the median, next to a third of the metric's bound.
``--baseline`` also writes the medians, with the Python version, the
processor count and the git revision, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def git_revision() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--baseline", help="write the medians and the environment here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        correct = True
        started = time.monotonic()
        for seed in seed_list(args.seeds):
            command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, text=True, stdout=subprocess.PIPE)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit code {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            correct = correct and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: {len(seed_list(args.seeds))} runs in"
              f" {time.monotonic() - started:.0f} s, correct={correct}")
        summary[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- spread >= bound/3"
            limit = f"{bound / 3:.3f}" if bound is not None else "-"
            print(f"  {name:<44} median {median:<12.6g} {units[name]:<9}"
                  f" q1 {q1:<10.5g} q3 {q3:<10.5g} spread {spread:.3f} (bound/3 {limit}){flag}")
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "unit": units[name], "runs": len(vals)}
    if args.baseline:
        with open(args.baseline, "w") as out:
            json.dump({
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "git_revision": git_revision(),
                "seeds": args.seeds,
                "run_seconds": spec["run_seconds"],
                "workloads": summary,
            }, out, indent=1)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
