"""Shows that every output check of the benchmark catches a corrupted output.

    python3 perfbench/selftest.py

For each workload, with seed 1: one unit of work is run and checked (every
check must pass), then each check is run again on a copy of the output
carrying the corruption ``workloads.CORRUPTIONS`` names for it (that check
must fail).
Exit status 0 when every check passes clean and fails corrupted.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import numpy as np  # noqa: E402

from workloads import CORRUPTIONS, WORKLOADS  # noqa: E402


def selftest(name, seed):
    wl = WORKLOADS[name]()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        inputs = {k: np.asarray(v) for k, v in wl.prepare(seed, workdir).items()}
        out = wl.collect([step() for step in wl.steps(inputs, workdir)], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref = wl.reference(inputs)
    ok = True
    clean = {c["name"]: c for c in wl.checks(out, ref, out)}
    missing = sorted(set(clean) ^ set(CORRUPTIONS[name]))
    if missing:
        print(f"{name}: checks and corruptions do not match: {missing}")
        ok = False
    for check_name, corrupt in CORRUPTIONS[name].items():
        bad = copy.deepcopy(out)
        corrupt(bad)
        caught = {c["name"]: c for c in wl.checks(bad, ref, out)}[check_name]
        passes_clean = clean[check_name]["passed"]
        ok &= passes_clean and not caught["passed"]
        print(f"{name:13s} {check_name:38s} clean {'PASS' if passes_clean else 'FAIL'} "
              f"({clean[check_name]['value']:.2e})  corrupted "
              f"{'FAIL' if not caught['passed'] else 'PASS (not caught)'} "
              f"({caught['value']:.2e}, tolerance {caught['tolerance']:.1e})")
    return ok


def main():
    results = [selftest(name, seed=1) for name in WORKLOADS]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
