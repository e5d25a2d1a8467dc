"""Benchmark command: one run of one workload.

    python3 perfbench/run.py --workload lz_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The inputs are written by one child
process.  With ``--trace 0``, ``SETUP_SAMPLES`` fresh children each import
adiaframe from ``src`` and make the workload's first call on a minimal
input; ``setup_s`` is the median of their set-up times.  A last fresh child
does the same set-up, warms up, repeats the workload's unit of work for
``--seconds`` and checks every output.  Every child runs with
single-threaded BLAS.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``), with ``--trace 1`` the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lz_sweep", "sg_branching", "mean_force_8", "cli_dense")
TIME_LIMIT_S = 170.0

# BLAS threads fixed to one, hash seed fixed: repeat timings scatter far less.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

# Cold set-ups per run, each in a fresh interpreter; setup_s is their median.
SETUP_SAMPLES = 5

# Median probe time (worker.Probe.burst) on the machine the reference
# figures in README.md come from.  wall_s is the median unit time in probe
# units times this constant: the unit's wall time at that machine's speed.
PROBE_REFERENCE_S = 0.023


def _child(args, deadline):
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"worker {args[0]} exited with code {proc.returncode}")
    return proc.stdout


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    setups = []
    try:
        _child(["prepare", workload, str(seed), workdir], deadline)
        for _ in range(0 if trace else SETUP_SAMPLES):
            spawned = time.perf_counter()
            out = _child(["setup", workload, workdir], deadline)
            setups.append(json.loads(out.strip().splitlines()[-1])["setup_end"] - spawned)
        out = _child(["measure", workload, repr(float(seconds)), str(int(trace)), workdir], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(out.strip().splitlines()[-1])

    if trace:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in res["layer_metrics"].items()}
        overhead = (statistics.median(res["traced_scaled_times"])
                    - statistics.median(res["scaled_times"])) * PROBE_REFERENCE_S
        metrics["trace.overhead_s"] = {"value": overhead, "unit": units["trace.overhead_s"]}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["scaled_times"]) * PROBE_REFERENCE_S,
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    correct = not res["failed_checks"] and res.get("counts_repeat", True)
    for c in res["checks"]:
        print(f"check {c['name']}: {'PASS' if c['passed'] else 'FAIL'} "
              f"(worst {c['value']:.3e}, tolerance {c['tolerance']:.3e})")
    if trace and not res["counts_repeat"]:
        print("check traced counts repeat: FAIL")
    print(f"{workload}: {len(res['unit_times'])} timed units of "
          f"{', '.join(f'{t:.4f}' for t in res['unit_times'])} s, median "
          f"{statistics.median(res['unit_times']):.4f} s, in probe units "
          f"{statistics.median(res['scaled_times']):.2f}")
    if setups:
        print(f"{workload}: {len(setups)} cold set-ups of {', '.join(f'{t:.4f}' for t in setups)} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
