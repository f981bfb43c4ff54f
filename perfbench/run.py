"""heterotl benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fig1-linear --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The workload runs in a child process
(perfbench/workload.py) whose environment pins BLAS to one thread and puts
the checkout's src/ on the import path; nothing else is passed to the
program but the inputs the child generates from the seed. setup_s is the
time from starting that child to its first timed operation, rescaled to
the reference machine speed like the timed operations, and peak_rss_mb is
the child's peak resident memory. With --trace 0 the last
line of output holds every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric, read from the spans of the traced run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD_TIMEOUT_S = 170

# one BLAS thread: work counts then repeat exactly, and a spinning BLAS
# thread cannot steal the other core of a 2-core machine
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
             "PYTHONPATH": os.path.join(ROOT, "src")}

def _layer_metrics(spec, layers):
    """Per-layer metrics, per pass over the fixed set of operations.

    A metric is absent when its function no longer exists in heterotl.
    """
    out = {}
    for m in spec:
        func, field = m["name"].rsplit(".", 1)
        if func in layers:
            out[m["name"]] = {"value": layers[func].get(field, 0),
                              "unit": m["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "heterotl",
                                       "__init__.py")):
        print("error: no heterotl sources under src/", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    env = dict(os.environ, **CHILD_ENV)
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"error: workload exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(child, fh, indent=1)

    if args.trace:
        metrics = _layer_metrics(spec["per_layer"], child["layers"])
    else:
        # set-up is rescaled like the timed operations, its probes left out
        setup_s = (child["t_first"] - started - child["setup_probe_s"]) \
            * child["setup_scale"]
        values = dict(child["metrics"], setup_s=setup_s,
                      peak_rss_mb=child["peak_rss_kb"] / 1024.0)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": all(child["checks"].values()),
                      "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
