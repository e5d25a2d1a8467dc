"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--traced] [workload ...]

Each of two sets runs every named workload ``--runs`` times through
``run.py``, each run with another seed (set 1 uses seeds 1..runs, set 2 the
next ones), for the ``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance over
median) and the shift of the second set's median from the first, next to
the metric's bound.  With ``--traced`` it also makes two traced runs per
workload on one seed, checks that their call and work counts agree exactly,
and prints the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def _run(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = time.monotonic() - start
    return res


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {w: [] for w in args.workloads}
    for s in range(SETS):
        for w in args.workloads:
            runs = []
            for i in range(args.runs):
                res = _run(w, s * args.runs + i + 1, seconds, 0)
                runs.append(res)
                print(f"set {s + 1} {w} seed {s * args.runs + i + 1}: correct {res['correct']} "
                      f"attempted {res['attempted']} failed {res['failed']} "
                      f"elapsed {res['elapsed_s']:.1f} s "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                      flush=True)
            raw[w].append(runs)

    print(f"\n{'workload':13s} {'metric':12s} {'set':>3s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'shift':>7s} {'bound':>6s}  failed/attempted")
    for w in args.workloads:
        for metric, bound in bounds.items():
            first = None
            for s, runs in enumerate(raw[w]):
                summ = _summary([r["metrics"][metric]["value"] for r in runs])
                shift = "" if first is None else f"{summ['median'] / first['median'] - 1.0:+.3f}"
                first = first or summ
                failed = sum(r["failed"] for r in runs)
                attempted = sum(r["attempted"] for r in runs)
                print(f"{w:13s} {metric:12s} {s + 1:3d} {summ['median']:10.5g} {summ['q1']:10.5g} "
                      f"{summ['q3']:10.5g} {summ['spread']:7.3f} {shift:>7s} {bound:6.2f}  "
                      f"{failed}/{attempted}")

    if args.traced:
        print()
        for w in args.workloads:
            pair = [_run(w, 1, seconds, 1) for _ in range(2)]
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] != "s"} for r in pair]
            print(f"{w}: traced counts repeat exactly: {counts[0] == counts[1]}; correct "
                  f"{pair[0]['correct'] and pair[1]['correct']}")
            for name, m in pair[0]["metrics"].items():
                print(f"  {name:32s} {m['value']:14.6g} {pair[1]['metrics'][name]['value']:14.6g} "
                      f"{m['unit']}")


if __name__ == "__main__":
    main()
