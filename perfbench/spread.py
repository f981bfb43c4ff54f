"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/spread.py --workloads fig1-linear cli-fit-boot \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 20] [--trace]

For each workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, plus the share of failed operations. With --trace it
runs the seeds traced instead, checks that each traced run saved the same
outputs as the untraced run of its seed (run that first), and prints the
tracing overhead and the per-layer medians.
Runs are sequential; every run's JSON line is appended to
.perfbench_out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, "spread.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "trace": trace, **result}) + "\n")
    return result


def _result(workload, seed, trace):
    """The workload process's full report, as run.py saved it."""
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-"
                        f"trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        if args.trace:
            _traced(workload, args.seeds, seconds)
            continue
        runs = [_run(workload, s, seconds, 0) for s in args.seeds]
        print(f"== {workload}: {len(runs)} runs, seeds {args.seeds}")
        print("correct:", all(r["correct"] for r in runs),
              " failed/attempted:",
              sorted({f"{r['failed']}/{r['attempted']}" for r in runs}))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, iqr = _summary(values)
            print(f"  {name:18s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                  f"  iqr/median {iqr:.3f}  (bound {bound})")


def _pass_wall_s(workload, seed, trace):
    """Wall time of one pass, probe time excluded, from a result file."""
    result = _result(workload, seed, trace)
    n_items = result["attempted"] // result["passes"]
    rate = result["wall_metrics"]["reps_per_s"]
    # the simulation rate counts replications, the CLI rate passes
    return (n_items if workload != "cli-fit-boot" else 1) / rate


def _traced(workload, seeds, seconds):
    """Traced runs, compared with the untraced runs of the same seeds."""
    traced = [_run(workload, s, seconds, 1) for s in seeds]
    print(f"== {workload}: {len(traced)} traced runs, seeds {seeds}")
    same = all(_result(workload, s, 0)["outputs"]
               == _result(workload, s, 1)["outputs"] for s in seeds)
    overhead = [_pass_wall_s(workload, s, 1) / _pass_wall_s(workload, s, 0)
                - 1.0 for s in seeds]
    print("  traced outputs equal untraced:", same,
          " traced correct:", all(r["correct"] for r in traced))
    print("  tracing overhead, share of untraced wall time per pass:",
          " ".join(f"{v:+.3f}" for v in overhead))
    for name in traced[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in traced]
        print(f"  {name:46s} median {statistics.median(values):.5g}"
              f"  min {min(values):.5g}  max {max(values):.5g}")


if __name__ == "__main__":
    main()
