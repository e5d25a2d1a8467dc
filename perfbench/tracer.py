"""Per-layer tracing of adiaframe from outside the package.

``Tracer.install`` replaces every public function of the layer modules, at
every module that holds a reference to it (``adiaframe.frames.build_frame``
as well as ``adiaframe.dynamics.build_frame`` and ``adiaframe.build_frame``),
with a wrapper that records a span: the function, its parent span, start
and end.  It wraps the family methods ``evaluate`` and ``gradient`` the same
way, and the external kernels the layers call: ``numpy.linalg.eigh`` and
``eigvalsh`` and ``scipy.optimize.linear_sum_assignment``.  Spans stay in
memory; ``end_unit`` derives each layer's self time (span time minus the
time its child spans cover) and the call and work counts.  While no unit is
being traced the wrappers only forward the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("families", "operators", "frames", "dynamics", "stern_gerlach",
          "thermo", "entropy", "cli")
KERNEL = "kernel"

_FAMILY_CLASSES = (("adiaframe.frames", "HamiltonianFamily"),
                   ("adiaframe.frames", "CallableFamily"),
                   ("adiaframe.families", "MatrixPolynomialFamily"))


class Tracer:
    def __init__(self):
        self.labels = []          # function index -> (layer, label)
        self._patches = []        # (owner, attribute, original)
        self.active = False
        self._reset()

    def _reset(self):
        self.fn, self.parent, self.start, self.end = [], [], [], []
        self.stack = []
        self.counters = {"label_permutations": 0, "degenerate_frames": 0, "eigh_matrices": 0,
                         "eigh_m3": 0, "steps": 0, "bytes_written": 0}
        self.forced_frames = {}

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, layer, label, hook=None):
        index = len(self.labels)
        self.labels.append((layer, label))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = len(tracer.fn)
            tracer.fn.append(index)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.end.append(0.0)
            tracer.stack.append(span)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[span] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        import scipy.optimize

        modules = [importlib.import_module(name) for name in
                   ["adiaframe"] + [f"adiaframe.{layer}" for layer in LAYERS]]
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"adiaframe.{layer}")
            names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for name in names:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[fn] = self._wrap(fn, layer, f"{layer}.{name}", _HOOKS.get(f"{layer}.{name}"))
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(module, name, wrapped[value])

        for module_name, class_name in _FAMILY_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in ("evaluate", "gradient"):
                if method in vars(cls):
                    self._patch(cls, method, self._wrap(vars(cls)[method], "families",
                                                        f"families.{class_name}.{method}"))

        for name in ("eigh", "eigvalsh"):
            self._patch(np.linalg, name, self._wrap(getattr(np.linalg, name), KERNEL,
                                                    f"kernel.{name}", _count_eigh))
        self._patch(scipy.optimize, "linear_sum_assignment",
                    self._wrap(scipy.optimize.linear_sum_assignment, "operators",
                               "operators.linear_sum_assignment"))
        return self

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    # -- one traced unit of work -------------------------------------------

    def begin_unit(self):
        self._reset()
        self.active = True

    def end_unit(self):
        """Stop recording; return the unit's layer self times and counts."""
        self.active = False
        fn = np.array(self.fn, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(fn))
        self_time = dur - child
        layer_of = np.array([(LAYERS + (KERNEL,)).index(layer) for layer, _ in self.labels])
        per_fn_self = np.bincount(fn, weights=self_time, minlength=len(self.labels))
        calls = np.bincount(fn, minlength=len(self.labels))
        layer_self = np.bincount(layer_of, weights=per_fn_self, minlength=len(LAYERS) + 1)
        counts = {label: int(calls[i]) for i, (_, label) in enumerate(self.labels) if calls[i]}
        counts.update(self.counters)
        counts["distinct_forced_frames"] = len(self.forced_frames)
        self_s = {layer: float(layer_self[i]) for i, layer in enumerate(LAYERS + (KERNEL,))}
        self._reset()
        return self_s, counts


# -- hooks: work counts read from arguments and results ----------------------


def _count_eigh(tracer, args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["a"])
    tracer.counters["eigh_matrices"] += int(np.prod(shape[:-2], dtype=np.int64))
    tracer.counters["eigh_m3"] += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3


def _count_permutation(tracer, args, kwargs, result):
    if tuple(result.permutation) != tuple(range(len(result.permutation))):
        tracer.counters["label_permutations"] += 1


def _count_degenerate(tracer, args, kwargs, result):
    if result.spectrum.degenerate:
        tracer.counters["degenerate_frames"] += 1


def _count_forced_frame(tracer, args, kwargs, result):
    frame = args[1] if len(args) > 1 else kwargs["frame"]
    tracer.forced_frames[id(frame)] = frame      # the reference keeps ids unique


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_driven_steps(tracer, args, kwargs, result):
    tracer.counters["steps"] += int(_argument(args, kwargs, 4, "n_steps"))


def _count_scenario_steps(tracer, args, kwargs, result):
    scenario = _argument(args, kwargs, 0, "scenario")
    branches = len(result) if isinstance(result, list) else 1
    tracer.counters["steps"] += scenario.n_steps * branches


def _count_cli_bytes(tracer, args, kwargs, result):
    argv = list(_argument(args, kwargs, 0, "argv"))
    out = argv[argv.index("--out") + 1] if "--out" in argv else "."
    for name in os.listdir(out):
        tracer.counters["bytes_written"] += os.path.getsize(os.path.join(out, name))


_HOOKS = {
    "operators.hermitian_eig": _count_permutation,
    "frames.build_frame": _count_degenerate,
    "frames.forces": _count_forced_frame,
    "dynamics.run_driven": _count_driven_steps,
    "dynamics.run_mean_force": _count_scenario_steps,
    "dynamics.run_branching": _count_scenario_steps,
    "cli.main": _count_cli_bytes,
}


def layer_metrics(self_s, counts):
    """The per-layer metrics of one traced unit."""
    def calls(*labels):
        return sum(counts.get(label, 0) for label in labels)

    forces_calls = calls("frames.forces")
    return {
        "families.calls": calls(*(f"families.{cls}.{m}" for _, cls in _FAMILY_CLASSES
                                  for m in ("evaluate", "gradient"))),
        "families.self_s": self_s["families"],
        "operators.hermitian_eig_calls": calls("operators.hermitian_eig"),
        "operators.assignment_calls": calls("operators.linear_sum_assignment"),
        "operators.label_permutations": counts["label_permutations"],
        "operators.self_s": self_s["operators"],
        "frames.build_frame_calls": calls("frames.build_frame"),
        "frames.forces_calls": forces_calls,
        "frames.forces_distinct_ratio": (counts["distinct_forced_frames"] / forces_calls
                                         if forces_calls else 0.0),
        "frames.degenerate_frames": counts["degenerate_frames"],
        "frames.self_s": self_s["frames"],
        "kernel.eigh_matrices": counts["eigh_matrices"],
        "kernel.eigh_m3": counts["eigh_m3"],
        "kernel.self_s": self_s[KERNEL],
        "dynamics.steps": counts["steps"],
        "dynamics.quantum_step_calls": calls("dynamics.quantum_step"),
        "dynamics.self_s": self_s["dynamics"],
        "stern_gerlach.self_s": self_s["stern_gerlach"],
        "thermo.self_s": self_s["thermo"],
        "entropy.von_neumann_calls": calls("entropy.von_neumann_entropy"),
        "entropy.self_s": self_s["entropy"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_written": counts["bytes_written"],
    }
