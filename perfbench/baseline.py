"""The ROADMAP's baseline table, measured with the benchmark's settings.

    python3 perfbench/baseline.py

Every row runs in this process after one warm-up call, with single-threaded
BLAS, and prints the median and the quartiles of five warm calls.
The two import rows start fresh interpreters instead: ``import adiaframe``
against a bare interpreter start, and the extra time of the first aligned
frame (the lazy ``scipy.optimize`` import) over a second one.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
REPEATS = 5

import numpy as np  # noqa: E402

import adiaframe as af  # noqa: E402


def _scenario(fam, x0, v0, mass, n_steps, state):
    app = af.ApparatusState(x=np.array(x0, float), v=np.array(v0, float), metric=mass)
    return af.DynamicsScenario(family=fam, apparatus=app, state=state, dt=1e-3, n_steps=n_steps,
                               record_every=n_steps)


def rows():
    sg = af.SternGerlachConfig()
    two = af.avoided_crossing_family(20.0, 2.0)
    fam8 = af.random_linear_family(8, 2, "gue", seed=1)
    rho8 = af.QuantumState.from_rho(af.random_density_matrix(8, np.random.default_rng(1)))
    fam32 = af.random_linear_family(32, 1, "gue", seed=1, scale=0.3)
    fam400 = af.random_linear_family(400, 1, "goe", seed=11)
    levels = af.build_frame(fam400, [0.4]).eigenvalues
    sigma = 5.0 * af.mean_level_spacing(levels)
    return [
        ("run_driven, 2x2, 4000 steps", lambda: af.run_driven(
            two, af.uniform_drive([-10.0], [5.0]), af.QuantumState.pure(0, 2), 4.0, 4000,
            record_every=4000)),
        ("sg_run branching, 800 steps", lambda: af.sg_run(sg, n_steps=800, record_every=8)),
        ("sg_run mean-force, 800 steps", lambda: af.sg_run(sg, n_steps=800, record_every=8,
                                                           mode="mean_force")),
        ("run_mean_force, 8x8, 1000 steps", lambda: af.run_mean_force(
            _scenario(fam8, [0.1, -0.2], [0.3, 0.2], 2.0, 1000, rho8))),
        ("run_branching, 8x8, 8 branches x 1000 steps", lambda: af.run_branching(
            _scenario(fam8, [0.1, -0.2], [0.3, 0.2], 2.0, 1000,
                      af.QuantumState(rho=np.eye(8, dtype=complex) / 8)))),
        ("run_driven, 32x32, sequential route, 500 steps", lambda: af.run_driven(
            fam32, af.uniform_drive([-0.5], [1.0]), af.QuantumState.pure(0, 32), 1.0, 500,
            record_every=500)),
        ("kubo_friction, 400 levels", lambda: af.kubo_friction(fam400, [0.4], 0.1, eta=1.0)),
        ("maxwell_check, 400 levels", lambda: af.maxwell_check(
            fam400, [0.4], float(np.quantile(levels, 0.4)), sigma)),
    ]


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return time.perf_counter() - t0, out


_FIRST_FRAME = """
import time, numpy as np, adiaframe as af
fam = af.avoided_crossing_family(1.0, 0.5)
t0 = time.perf_counter(); f = af.build_frame(fam, [0.0]); af.build_frame(fam, [0.01], prev=f)
t1 = time.perf_counter(); af.build_frame(fam, [0.02], prev=f); t2 = time.perf_counter()
print((t1 - t0) - (t2 - t1))
"""


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{med:8.3f} s  (quartiles {q1:.3f} to {q3:.3f}, n = {len(values)})"


def main():
    for label, call in rows():
        call()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        print(f"{label:50s} {_quartiles(times)}", flush=True)
    bare = [_fresh("pass")[0] for _ in range(REPEATS)]
    full = [_fresh("import adiaframe")[0] for _ in range(REPEATS)]
    print(f"{'import adiaframe (over a bare interpreter)':50s} "
          f"{_quartiles([f - b for f, b in zip(full, bare)])}")
    lazy = [float(_fresh(_FIRST_FRAME)[1]) for _ in range(REPEATS)]
    print(f"{'first aligned frame over a second one':50s} {_quartiles(lazy)}")


if __name__ == "__main__":
    main()
