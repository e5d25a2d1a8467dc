"""The measured process of one benchmark run; started by ``run.py``.

``worker.py prepare <workload> <seed> <workdir>`` writes the workload's
inputs.  ``worker.py setup <workload> <workdir>`` imports adiaframe from the
checkout's ``src`` and makes the workload's first call on a minimal input
(the end of the set-up).  ``worker.py measure <workload> <seconds> <trace>
<workdir>`` does the same set-up, warms up with one unit, repeats the unit
for ``seconds``, and checks every output.  Each unit's time is reported as
measured and in probe units (see ``Probe``).  With ``trace`` set, half of
the time runs untraced and half traced, and the per-layer metrics are
reported too.  The last line of standard output is one JSON object for
``run.py``.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402


def _import_program():
    import adiaframe
    if not os.path.abspath(adiaframe.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"adiaframe was imported from {adiaframe.__file__}, not from {SRC}")


def prepare(workload, seed, workdir):
    import numpy as np
    from workloads import WORKLOADS
    inputs = WORKLOADS[workload]().prepare(seed, workdir)
    np.savez(os.path.join(workdir, "inputs.npz"), **inputs)


class Probe:
    """A fixed piece of work that does not involve adiaframe: interpreter
    work, small complex eigensolves and matrix products, a 160-level
    eigensolve and a JSON round trip, the kinds of work the workloads do.

    On a machine shared with other tenants the speed drifts by 10-40 %
    within minutes, and the drift moves the probe and the program together,
    so the program's time over the probe's time drifts far less.  The probe
    never calls the program: a change to the program cannot move it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.small = m + m.conj().T
        big = rng.standard_normal((160, 160))
        self.big = big + big.T
        self.floats = rng.standard_normal(4000).tolist()

    def _work(self):
        import numpy as np
        s = 0.0
        table = {}
        for i in range(6000):
            s += (i * 0.5) % 7.0
            table[i & 255] = s
        for _ in range(100):
            _, v = np.linalg.eigh(self.small)
            s += float((v.conj().T @ self.small @ v).real.trace())
        for _ in range(4):
            s += float(np.linalg.eigvalsh(self.big)[0])
        return s + len(json.dumps(json.loads(json.dumps(self.floats))))

    def burst(self):
        """Median time of three probes."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class Units:
    """Runs whole units of a workload and keeps every output for checking.

    A unit is the workload's list of steps (program calls).  A probe burst
    runs before the first step and after every step, with tracing paused;
    each step's time is also divided by the mean of the two bursts around
    it, and the quotients summed give the unit's time in probe units.
    """

    def __init__(self, wl, inputs, workdir):
        self.wl, self.inputs, self.workdir = wl, inputs, workdir
        self.outputs, self.failed = [], 0
        self.probe = Probe()
        self.last_burst = self.probe.burst()

    def run_one(self, tracer=None):
        """One unit: (time, time in probe units, trace), or None when the
        program raised."""
        raw = scaled = 0.0
        results = []
        if tracer is not None:
            tracer.begin_unit()
        try:
            for step in self.wl.steps(self.inputs, self.workdir):
                t0 = time.perf_counter()
                results.append(step())
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                before, self.last_burst = self.last_burst, self.probe.burst()
                if tracer is not None:
                    tracer.active = True
                raw += elapsed
                scaled += elapsed / (0.5 * (before + self.last_burst))
            output = self.wl.collect(results, self.workdir)
        except Exception:                         # a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            stats = tracer.end_unit() if tracer is not None else None
        self.outputs.append(output)
        return raw, scaled, stats

    def run_for(self, seconds, tracer=None, at_least=1):
        """At least ``at_least`` whole units, and more until ``seconds`` have
        passed.  Returns, for the units that did not fail, their times, their
        times in probe units and their traces."""
        done = []
        start = time.perf_counter()
        attempts = 0
        while attempts < at_least or time.perf_counter() - start < seconds:
            attempts += 1
            unit = self.run_one(tracer)
            if unit is not None:
                done.append(unit)
        if not done:
            raise SystemExit("every unit failed")
        return tuple(list(column) for column in zip(*done))


def _set_up(workload, workdir):
    """Everything up to the end of the workload's first call on a minimal
    input; returns the workload, its inputs and the time the set-up ended."""
    _import_program()
    from workloads import WORKLOADS
    import numpy as np
    wl = WORKLOADS[workload]()
    inputs = dict(np.load(os.path.join(workdir, "inputs.npz")))
    wl.setup_call(inputs, workdir)
    return wl, inputs, time.perf_counter()


def setup(workload, workdir):
    _, _, setup_end = _set_up(workload, workdir)
    print(json.dumps({"setup_end": setup_end}))


def measure(workload, seconds, trace, workdir):
    wl, inputs, _ = _set_up(workload, workdir)
    units = Units(wl, inputs, workdir)
    units.run_one()                                       # warm-up, checked too
    result = {}
    if not trace:
        times, scaled, _ = units.run_for(seconds)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["unit_times"], result["scaled_times"] = times, scaled
    else:
        from tracer import Tracer, layer_metrics
        plain, scaled, _ = units.run_for(0.5 * seconds)
        tracer = Tracer().install()
        try:
            # at least two traced units, so that the counts are seen to repeat
            _, traced_scaled, traces = units.run_for(0.5 * seconds, tracer, at_least=2)
        finally:
            tracer.uninstall()
        per_unit = [layer_metrics(self_s, counts) for self_s, counts in traces]
        metrics = {}
        for name in per_unit[0]:
            values = [m[name] for m in per_unit]
            metrics[name] = statistics.median(values) if name.endswith("_s") else values[0]
        result["layer_metrics"] = metrics
        result["traced_scaled_times"] = traced_scaled
        result["counts_repeat"] = all(counts == traces[0][1] for _, counts in traces)
        result["unit_times"], result["scaled_times"] = plain, scaled

    outputs = units.outputs
    ref = wl.reference(inputs)
    results = [wl.checks(out, ref, outputs[0]) for out in outputs]
    failed_checks = sorted({c["name"] for checks in results for c in checks if not c["passed"]})
    # a unit fails when the program raised or when any check of its output fails
    failed = units.failed + sum(not all(c["passed"] for c in checks) for checks in results)
    worst = {}
    for checks in results:
        for c in checks:
            prev = worst.get(c["name"])
            if prev is None or not (c["value"] <= prev["value"]):
                worst[c["name"]] = c
    result.update(attempted=len(outputs) + units.failed, failed=failed,
                  failed_checks=failed_checks,
                  checks=sorted(worst.values(), key=lambda c: c["name"]))
    print(json.dumps(result))


if __name__ == "__main__":
    mode, name = sys.argv[1], sys.argv[2]
    if mode == "prepare":
        prepare(name, int(sys.argv[3]), sys.argv[4])
    elif mode == "setup":
        setup(name, sys.argv[3])
    elif mode == "measure":
        measure(name, float(sys.argv[3]), sys.argv[4] == "1", sys.argv[5])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
