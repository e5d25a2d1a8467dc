"""Command line front end: JSON config in, CSV series and a JSON report out.

Scenario kinds:

* ``stern_gerlach``   beam splitting (branching, sampled, or mean-force)
* ``custom_family``   matrix-polynomial family, self-consistent or driven
* ``thermo_curve``    counting function, entropy, temperature, force identities
* ``kubo``            canonical friction tensor of the diabatic forces
* ``entropy_audit``   driven run with a projective event, entropy bookkeeping

Every run writes ``report.json`` (sorted keys, config digest, pass/fail
checks) plus scenario CSV files into --out.  Exit status: 0 when all checks
pass, 1 when any check fails, 2 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .dynamics import (ApparatusState, DynamicsScenario, FrictionSpec,
                       QuantumState, run_branching, run_driven, run_mean_force,
                       sample_branch_counts, time_averaged_diabatic_force,
                       uniform_drive)
from .entropy import (ProjectorFamily, entropy_delta, entropy_series, project,
                      projected_diabatic_force, random_density_matrix,
                      von_neumann_entropy)
from .errors import AdiaframeError, ConfigError
from .families import MatrixPolynomialFamily
from .frames import build_frame
from .stern_gerlach import SternGerlachConfig, sg_run
from .thermo import entropy_temperature, kubo_friction, maxwell_check
from .tolerances import active_profile

_KINDS = ("stern_gerlach", "custom_family", "thermo_curve", "kubo", "entropy_audit")
_MODES = ("branching", "sampled", "mean_force")


# ---------------------------------------------------------------------------
# config rules
#
# One table per config block maps each field to (rule, default).  A rule is a
# check ``rule(value, path, root)`` on the field's value, a nested table for an
# object, or a one-entry list holding the table of each element of a non-empty
# array.  The default is written into the config when the field is absent:
# _REQUIRED makes the field mandatory, None leaves it out, and a callable
# chooses the default from the config.  Lengths named "coords" or "dim" are
# read from the config's family block, which is checked first.


_REQUIRED = object()


def _err(message, field=None):
    raise ConfigError(message, field=field)


def _size(root, n):
    return root["family"][n] if isinstance(n, str) else n


def _number(positive=False):
    def rule(val, path, root):
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            _err(f"expected a number, got {type(val).__name__}", path)
        if positive and val <= 0.0:
            _err("must be positive", path)
    return rule


def _integer(minimum):
    def rule(val, path, root):
        if not isinstance(val, int) or isinstance(val, bool):
            _err(f"expected an integer, got {type(val).__name__}", path)
        if val < minimum:
            _err(f"must be >= {minimum}", path)
    return rule


def _choice(options):
    def rule(val, path, root):
        if val not in options:
            _err(f"unknown {path} {val!r}; expected one of {list(options)}", path)
    return rule


def _floats(val, path):
    if isinstance(val, list):
        try:
            return np.asarray(val, dtype=float)
        except (TypeError, ValueError):
            pass
    _err("expected an array of numbers", path)


def _vector(length):
    def rule(val, path, root):
        arr, n = _floats(val, path), _size(root, length)
        if arr.ndim != 1:
            _err("expected a flat array", path)
        if arr.shape[0] != n:
            _err(f"expected length {n}, got {arr.shape[0]}", path)
    return rule


def _square(n):
    def rule(val, path, root):
        m = _size(root, n)
        if _floats(val, path).shape != (m, m):
            _err(f"expected a {m} x {m} matrix", path)
    return rule


def _mass(val, path, root):
    (_square("coords") if isinstance(val, list) else _number(positive=True))(val, path, root)


def _complex_matrix(raw, path):
    """[[ [re, im], ... ], ...] -> complex ndarray."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        _err("matrix entries must be [re, im] pairs", field=path)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        _err("expected a square matrix of [re, im] pairs", field=path)
    return arr[..., 0] + 1j * arr[..., 1]


def _hermitian(val, path, root):
    mat, dim = _complex_matrix(val, path), root["family"]["dim"]
    if mat.shape != (dim, dim):
        _err(f"matrix must be {dim} x {dim}", path)
    if np.abs(mat - mat.conj().T).max() > 1e-12 * max(1.0, np.abs(mat).max()):
        _err("matrix must be Hermitian", path)


def _exponents(val, path, root):
    n = root["family"]["coords"]
    if not (isinstance(val, list) and len(val) == n
            and all(isinstance(p, int) and not isinstance(p, bool) and p >= 0 for p in val)):
        _err(f"exponents must be {n} nonnegative integers", path)


def _parse_amplitudes(raw, path):
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        _err("amplitudes must be [re, im] pairs", field=path)
    if arr.ndim != 2 or arr.shape[1] != 2:
        _err("amplitudes must be [re, im] pairs", field=path)
    c = arr[:, 0] + 1j * arr[:, 1]
    norm = float(np.vdot(c, c).real)
    if abs(norm - 1.0) > active_profile().amplitude_norm:
        _err(f"amplitudes have norm {norm!r}, expected 1", field=path)
    return c


def _amplitudes(length):
    def rule(val, path, root):
        n = _size(root, length)
        if not isinstance(val, list) or len(val) != n:
            _err(f"expected {n} amplitude pairs", path)
        _parse_amplitudes(val, path)
    return rule


def _populations(val, path, root):
    _vector("dim")(val, path, root)
    pops = np.asarray(val, dtype=float)
    if np.any(pops < 0.0) or abs(pops.sum() - 1.0) > active_profile().trace:
        _err("populations must be nonnegative and sum to 1", path)


def _true(val, path, root):
    if val is not True:
        _err("must be true when present", path)


def _scales(val, path, root):
    if not isinstance(val, list) or len(val) < 2:
        _err("need at least two velocity scales", path)
    for i, s in enumerate(val):
        _number(positive=True)(s, f"{path}[{i}]", root)


def _blocks(val, path, root):
    try:
        if not isinstance(val, list):
            raise TypeError("expected a list of index lists")
        ProjectorFamily(dim=root["family"]["dim"], blocks=tuple(tuple(b) for b in val))
    except (AdiaframeError, TypeError) as exc:
        _err(f"invalid blocks: {exc}", path)


def _if_sampled(n):
    """Default n only where a run draws samples: sampled mode, no drive."""
    return lambda root: n if root["mode"] == "sampled" and "drive" not in root else None


_COMMON = {"kind": (_choice(_KINDS), _REQUIRED), "seed": (_integer(0), 0)}
_MODE = (_choice(_MODES), "branching")
_FAMILY = ({"coords": (_integer(1), _REQUIRED), "dim": (_integer(1), _REQUIRED),
            "terms": ([{"exponents": (_exponents, _REQUIRED),
                        "matrix": (_hermitian, _REQUIRED)}], _REQUIRED)}, _REQUIRED)
_STATE = ({"amplitudes": (_amplitudes("dim"), None), "populations": (_populations, None),
           "random": (_true, None)}, _REQUIRED)
_RUN = {"duration": (_number(positive=True), _REQUIRED), "steps": (_integer(1), _REQUIRED),
        "record_every": (_integer(1), 1)}
_DRIVE = {"x0": (_vector("coords"), _REQUIRED), "velocity": (_vector("coords"), _REQUIRED),
          **_RUN}

_TABLES = {
    "stern_gerlach": {**_COMMON, "mode": _MODE, "stern_gerlach": ({
        "gamma": (_number(positive=True), 1.0), "field_strength": (_number(), 1.0),
        "field_gradient": (_number(), 0.5), "mass": (_number(positive=True), 1.0),
        "r0": (_vector(3), None), "v0": (_vector(3), None),
        "duration": (_number(positive=True), 1.0), "steps": (_integer(1), 400),
        "record_every": (_integer(1), 1), "n_samples": (_integer(1), _if_sampled(1000)),
        "amplitudes": (_amplitudes(2), None)}, {})},
    "custom_family": {
        **_COMMON, "mode": _MODE, "n_samples": (_integer(1), _if_sampled(1000)),
        "family": _FAMILY, "drive": (_DRIVE, None), "velocity_scales": (_scales, None),
        "apparatus": ({"x0": (_vector("coords"), _REQUIRED),
                       "v0": (_vector("coords"), _REQUIRED), "mass": (_mass, 1.0)}, None),
        "run": (_RUN, None), "state": _STATE,
        "friction": ({"constant": (_square("coords"), _REQUIRED)}, None)},
    "thermo_curve": {**_COMMON, "family": _FAMILY, "thermo": ({
        "x": (_vector("coords"), _REQUIRED), "sigma": (_number(positive=True), _REQUIRED),
        "e_min": (_number(), _REQUIRED), "e_max": (_number(), _REQUIRED),
        "n_grid": (_integer(3), 401), "check_energy": (_number(), None),
        "dx": (_number(positive=True), 1e-4)}, _REQUIRED)},
    "kubo": {**_COMMON, "family": _FAMILY, "kubo": ({
        "x": (_vector("coords"), _REQUIRED), "beta": (_number(), _REQUIRED),
        "eta": (_number(positive=True), None)}, _REQUIRED)},
    "entropy_audit": {
        **_COMMON, "n_samples": (_integer(1), 1000), "family": _FAMILY, "state": _STATE,
        "drive": (_DRIVE, _REQUIRED),
        "event": ({"step": (_integer(1), _REQUIRED), "blocks": (_blocks, None)}, _REQUIRED)},
}


def _walk(block: dict, table: dict, where: str, root: dict, strict: bool):
    """Check every field of ``block`` against ``table`` and write its defaults."""
    for name, (rule, default) in table.items():
        path = f"{where}.{name}" if where else name
        if name not in block:
            if default is _REQUIRED:
                _err("missing required field", path)
            default = default(root) if callable(default) else default
            if default is None:
                continue
            block[name] = copy.copy(default)
        _apply(block[name], rule, path, root, strict)
    unknown = sorted(set(block) - set(table))
    if unknown:
        label = where or "top level"
        if strict:
            _err(f"unknown field(s) {unknown} in {label}",
                 field=f"{where}.{unknown[0]}" if where else unknown[0])
        warnings.warn(f"ignoring unknown config field(s) {unknown} in {label}", stacklevel=3)


def _apply(val, rule, path: str, root: dict, strict: bool):
    if isinstance(rule, dict):
        if not isinstance(val, dict):
            _err(f"expected an object, got {type(val).__name__}", path)
        _walk(val, rule, path, root, strict)
    elif isinstance(rule, list):
        if not isinstance(val, list) or not val:
            _err("expected a non-empty array", path)
        for i, item in enumerate(val):
            _apply(item, rule[0], f"{path}[{i}]", root, strict)
    else:
        rule(val, path, root)


def parse_config(source, *, strict: bool = True) -> dict:
    """Validate a scenario config given as JSON text or a dict.

    Returns the config with every default written in, so parsing is
    idempotent.  Unknown fields raise in strict mode and warn otherwise;
    structural and type errors always raise :class:`ConfigError` naming the
    field (and the line/column for JSON syntax problems).
    """
    if isinstance(source, (bytes, str)):
        try:
            cfg = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc.msg}", line=exc.lineno,
                              column=exc.colno) from None
    elif isinstance(source, dict):
        cfg = json.loads(json.dumps(source))
    else:
        _err(f"config must be a JSON object, got {type(source).__name__}")
    if not isinstance(cfg, dict):
        _err("config must be a JSON object")

    known = "kind" in cfg and cfg["kind"] in _KINDS
    _walk(cfg, _TABLES[cfg["kind"]] if known else _COMMON, "", cfg, strict)

    # rules that span fields
    kind = cfg["kind"]
    if "state" in cfg and sum(form in cfg["state"] for form in _STATE[0]) != 1:
        _err("state needs exactly one of amplitudes, populations, random", field="state")
    if kind == "custom_family":
        driven = "drive" in cfg
        for name in ("apparatus", "run"):
            if (name in cfg) == driven:
                _err("a drive block excludes apparatus and run" if driven
                     else "missing required field", field=name)
        if "velocity_scales" in cfg and not driven:
            _err("velocity_scales requires a drive block", field="velocity_scales")
    elif kind == "thermo_curve" and cfg["thermo"]["e_max"] <= cfg["thermo"]["e_min"]:
        _err("e_max must exceed e_min", field="thermo.e_max")
    elif kind == "entropy_audit" and cfg["event"]["step"] > cfg["drive"]["steps"]:
        _err(f"event step {cfg['event']['step']} exceeds drive steps {cfg['drive']['steps']}",
             field="event.step")
    return cfg


# ---------------------------------------------------------------------------
# builders


def _build_family(cfg) -> MatrixPolynomialFamily:
    return MatrixPolynomialFamily([(tuple(t["exponents"]),
                                    _complex_matrix(t["matrix"], "family.terms.matrix"))
                                   for t in cfg["family"]["terms"]])


def _build_state(cfg, dim: int, seed: int) -> QuantumState:
    state = cfg["state"]
    if "amplitudes" in state:
        return QuantumState.from_amplitudes(_parse_amplitudes(state["amplitudes"],
                                                              "state.amplitudes"))
    if "populations" in state:
        pops = np.asarray(state["populations"], dtype=float)
        return QuantumState(rho=np.diag(pops.astype(complex)))
    return QuantumState.from_rho(random_density_matrix(dim, np.random.default_rng(seed)))


def _present(block: dict, *names) -> dict:
    """The optional fields among ``names`` that ``block`` sets, as keyword arguments."""
    return {name: block[name] for name in names if name in block}


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_trajectory(path, traj):
    n = traj.x.shape[1]
    m = traj.rho.shape[1]
    header = (["t"] + [f"x_{i}" for i in range(n)] + [f"v_{i}" for i in range(n)]
              + [f"pop_{i}" for i in range(m)]
              + ["e_mean", "q_cum", "w_cum", "s_info"])
    pops = traj.populations
    s_info = entropy_series(traj.rho)
    _write_csv(path, header, [
        [traj.t[i], *traj.x[i], *traj.v[i], *pops[i],
         traj.e_mean[i], traj.q_cum[i], traj.w_cum[i], s_info[i]]
        for i in range(traj.n_samples)
    ])


def _check(name: str, passed: bool, value: float, tolerance: float) -> dict:
    return {"name": name, "passed": bool(passed), "value": float(value),
            "tolerance": float(tolerance)}


def _single_series(traj, out_dir, prof):
    """series.csv of one trajectory and its ledger_closure check."""
    _write_trajectory(os.path.join(out_dir, "series.csv"), traj)
    res = abs(traj.ledger.residual)
    tol = prof.ledger_closure * traj.ledger.closure_scale(prof.ledger_floor)
    return [_check("ledger_closure", res <= tol, res, tol)], ["series.csv"]


def _branch_series(trajs, tags, out_dir, prof):
    """One series per branch and its check that apparatus energy + friction heat is kept."""
    checks, outputs = [], []
    for tag, traj in zip(tags, trajs):
        name = f"series_branch_{tag}.csv"
        _write_trajectory(os.path.join(out_dir, name), traj)
        outputs.append(name)
        e_app = traj.extras["apparatus_energy"]
        res = float(np.abs((e_app + traj.extras["friction_heat"]) - e_app[0]).max())
        tol = prof.branch_energy * max(1.0, abs(float(e_app[0])))
        checks.append(_check(f"branch_energy_closure_{tag}", res <= tol, res, tol))
    return checks, outputs


def _drive(fam, drive: dict, state, **kwargs):
    """The uniform drive of a ``drive`` block and the run along it."""
    path = uniform_drive(drive["x0"], drive["velocity"])
    return path, run_driven(fam, path, state, drive["duration"], drive["steps"],
                            record_every=drive["record_every"], **kwargs)


# ---------------------------------------------------------------------------
# scenario runners


def _run_stern_gerlach(cfg, seed, out_dir, prof):
    sg, mode = cfg["stern_gerlach"], cfg["mode"]
    config = SternGerlachConfig(gamma=sg["gamma"], field_strength=sg["field_strength"],
                                field_gradient=sg["field_gradient"], mass=sg["mass"])
    state = None
    if "amplitudes" in sg:
        state = QuantumState.from_amplitudes(_parse_amplitudes(sg["amplitudes"],
                                                               "stern_gerlach.amplitudes"))
    result = sg_run(config, state=state, duration=sg["duration"], n_steps=sg["steps"],
                    mode=mode, record_every=sg["record_every"], seed=seed,
                    **_present(sg, "r0", "v0", "n_samples"))

    summary = {"mode": mode}
    if mode == "mean_force":
        traj = result.trajectories[0]
        summary["final_position"] = [float(c) for c in traj.x[-1]]
        return (*_single_series(traj, out_dir, prof), summary)
    tags = ["plus" if label == "+" else "minus" for label in result.labels]
    checks, outputs = _branch_series(result.trajectories, tags, out_dir, prof)
    wsum = float(np.sum([t.weight for t in result.trajectories]))
    checks.append(_check("weights_normalized", abs(wsum - 1.0) <= prof.amplitude_norm,
                         abs(wsum - 1.0), prof.amplitude_norm))
    summary["separation"] = result.separation
    summary["labels"] = list(result.labels)
    summary["weights"] = [float(w) for w in result.weights]
    if result.counts is not None:
        summary["counts"] = [int(c) for c in result.counts]
    return checks, outputs, summary


def _run_custom_family(cfg, seed, out_dir, prof):
    fam = _build_family(cfg)
    state = _build_state(cfg, fam.dim, seed)

    if "drive" in cfg:
        drive = cfg["drive"]
        path_fn, traj = _drive(fam, drive, state)
        checks, outputs = _single_series(traj, out_dir, prof)
        tr_final = float(traj.populations[-1].sum())
        checks.append(_check("trace_preserved", abs(tr_final - 1.0) <= prof.trace,
                             abs(tr_final - 1.0), prof.trace))
        summary = {"mode": "driven",
                   "final_populations": [float(p) for p in traj.populations[-1]]}

        if "velocity_scales" in cfg:
            scales = sorted(float(s) for s in cfg["velocity_scales"])[::-1]
            averages = [time_averaged_diabatic_force(fam, path_fn, drive["duration"],
                                                     drive["steps"], state, scale=s)
                        for s in scales]
            _write_csv(os.path.join(out_dir, "oscillation_averaging.csv"),
                       ["scale"] + [f"mean_abs_f_{k}" for k in range(fam.n_coords)],
                       [[s, *a] for s, a in zip(scales, averages)])
            outputs.append("oscillation_averaging.csv")
            with np.errstate(divide="ignore", invalid="ignore"):
                worst = max(float(np.max(np.where(prev > 0.0, nxt / prev, 0.0)))
                            for prev, nxt in zip(averages, averages[1:]))
            checks.append(_check("diabatic_average_decreasing", worst < 1.0, worst, 1.0))
            summary["velocity_scales"] = scales
            summary["averaged_diabatic_force"] = [[float(v) for v in a] for a in averages]
        return checks, outputs, summary

    app_cfg, run_cfg, mode = cfg["apparatus"], cfg["run"], cfg["mode"]
    mass = app_cfg["mass"]
    metric = float(mass) if isinstance(mass, (int, float)) else np.asarray(mass, float)
    scenario = DynamicsScenario(
        family=fam, apparatus=ApparatusState(x=app_cfg["x0"], v=app_cfg["v0"], metric=metric),
        state=state, dt=run_cfg["duration"] / run_cfg["steps"], n_steps=run_cfg["steps"],
        friction=FrictionSpec.constant(cfg["friction"]["constant"]) if "friction" in cfg else None,
        record_every=run_cfg["record_every"])
    summary = {"mode": mode}
    if mode == "mean_force":
        traj = run_mean_force(scenario)
        summary["final_position"] = [float(c) for c in traj.x[-1]]
        return (*_single_series(traj, out_dir, prof), summary)
    trajs = run_branching(scenario)
    checks, outputs = _branch_series(trajs, [t.branch_label for t in trajs], out_dir, prof)
    summary["weights"] = [float(t.weight) for t in trajs]
    if mode == "sampled":
        counts = sample_branch_counts(state, cfg["n_samples"], seed)
        summary["counts"] = [int(counts[t.branch_label]) for t in trajs]
    return checks, outputs, summary


def _run_thermo_curve(cfg, seed, out_dir, prof):
    fam = _build_family(cfg)
    th = cfg["thermo"]
    x = np.asarray(th["x"], dtype=float)
    frame = build_frame(fam, x)
    e_grid = np.linspace(th["e_min"], th["e_max"], th["n_grid"])
    curve = entropy_temperature(frame.eigenvalues, e_grid, th["sigma"])
    _write_csv(os.path.join(out_dir, "curve.csv"),
               ["e", "omega", "dos", "entropy", "temperature"],
               [[curve.e[i], curve.omega[i], curve.dos[i], curve.entropy[i],
                 curve.temperature[i]] for i in range(len(curve.e))
                if np.isfinite(curve.entropy[i]) and np.isfinite(curve.temperature[i])])

    resid = float(curve.counting_identity_residual().max())
    checks = [_check("counting_identity", resid <= prof.counting_identity,
                     resid, prof.counting_identity)]
    summary = {"levels": [float(v) for v in frame.eigenvalues],
               "counting_identity_residual": resid}

    if "check_energy" in th:
        report = maxwell_check(fam, x, th["check_energy"], th["sigma"], dx=th["dx"])
        r1 = float(report.residual_entropy_form.max())
        r2 = float(report.residual_isentropic_form.max())
        checks.append(_check("force_entropy_identity", r1 <= prof.maxwell_identity,
                             r1, prof.maxwell_identity))
        checks.append(_check("force_isentropic_identity", r2 <= prof.maxwell_identity,
                             r2, prof.maxwell_identity))
        summary["shell_force"] = [float(v) for v in report.force]
    return checks, ["curve.csv"], summary


def _run_kubo(cfg, seed, out_dir, prof):
    fam = _build_family(cfg)
    kb = cfg["kubo"]
    tensor = kubo_friction(fam, np.asarray(kb["x"], float), kb["beta"], **_present(kb, "eta"))
    n = tensor.n_coords
    _write_csv(os.path.join(out_dir, "gamma.csv"),
               [f"g_{j}" for j in range(n)],
               [list(tensor.gamma[i]) for i in range(n)])
    scale = max(float(np.abs(tensor.gamma).max()), prof.friction_diagonal_floor)
    asym = float(np.abs(tensor.gamma - tensor.gamma.T).max()) / scale
    diag_min = float(tensor.gamma.diagonal().min())
    checks = [
        _check("friction_symmetric", asym <= prof.friction_symmetry, asym,
               prof.friction_symmetry),
        _check("friction_diagonal_nonnegative",
               diag_min >= -prof.friction_diagonal_floor * scale, diag_min,
               prof.friction_diagonal_floor * scale),
    ]
    summary = {"beta": tensor.beta, "eta": tensor.eta,
               "gamma": [[float(v) for v in row] for row in tensor.gamma]}
    return checks, ["gamma.csv"], summary


def _run_entropy_audit(cfg, seed, out_dir, prof):
    fam = _build_family(cfg)
    state = _build_state(cfg, fam.dim, seed)
    drive, ev = cfg["drive"], cfg["event"]
    family_proj = (ProjectorFamily(dim=fam.dim, blocks=tuple(tuple(b) for b in ev["blocks"]))
                   if "blocks" in ev else ProjectorFamily.complete_dephasing(fam.dim))
    step = ev["step"]
    path_fn, traj = _drive(fam, drive, state,
                           events={step: lambda st: project(st, family_proj)})

    s_series = entropy_series(traj.rho)
    _write_csv(os.path.join(out_dir, "entropy.csv"), ["t", "entropy"],
               [[traj.t[i], s_series[i]] for i in range(traj.n_samples)])

    event = traj.extras["events"][0]
    s_before = von_neumann_entropy(event["rho_before"])
    s_after = von_neumann_entropy(event["rho_after"])
    dt = drive["duration"] / drive["steps"]
    t_split = traj.t[0] + (step - 0.5) * dt
    pre = s_series[traj.t < t_split]
    drift_pre = float(np.abs(np.append(pre, s_before) - s_series[0]).max())
    post = s_series[traj.t > t_split]
    drift_post = float(np.abs(post - s_after).max()) if post.size else 0.0
    drift = max(drift_pre, drift_post)
    jump = s_after - s_before

    frame_event = build_frame(fam, path_fn(step * dt)[0])
    fproj = projected_diabatic_force(frame_event, event["rho_after"])
    fmax = float(np.abs(fproj).max())

    n_suite = cfg["n_samples"]
    rng = np.random.default_rng(seed)
    worst = np.inf
    passes = 0
    for _ in range(n_suite):
        rho = random_density_matrix(fam.dim, rng=rng)
        _, _, ds = entropy_delta(rho)
        worst = min(worst, ds)
        passes += ds >= -prof.pinching_monotonicity

    checks = [
        _check("unitary_entropy_drift", drift <= prof.entropy_drift, drift,
               prof.entropy_drift),
        _check("projection_entropy_gain", jump >= -prof.pinching_monotonicity,
               jump, prof.pinching_monotonicity),
        _check("projected_force_zero", fmax <= prof.projected_force, fmax,
               prof.projected_force),
        _check("monotonicity_suite", passes == n_suite, worst,
               prof.pinching_monotonicity),
    ]
    summary = {"entropy_before": float(s_before), "entropy_after": float(s_after),
               "entropy_jump": float(jump), "event_step": step,
               "monotonicity_passes": int(passes),
               "monotonicity_samples": int(n_suite)}
    return checks, ["entropy.csv"], summary


_RUNNERS = {
    "stern_gerlach": _run_stern_gerlach,
    "custom_family": _run_custom_family,
    "thermo_curve": _run_thermo_curve,
    "kubo": _run_kubo,
    "entropy_audit": _run_entropy_audit,
}


# ---------------------------------------------------------------------------
# entry point


def _config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run_scenario(cfg: dict, out_dir: str, seed: int | None = None) -> dict:
    """Execute a parsed config and write its outputs; returns the report."""
    prof = active_profile()
    kind = cfg["kind"]
    used_seed = int(cfg["seed"]) if seed is None else int(seed)
    os.makedirs(out_dir, exist_ok=True)
    checks, outputs, summary = _RUNNERS[kind](cfg, used_seed, out_dir, prof)
    report = {
        "version": __version__,
        "kind": kind,
        "seed": used_seed,
        "config_sha256": _config_digest(cfg),
        "tolerance_profile": prof.name,
        "checks": checks,
        "outputs": outputs,
        "summary": summary,
        "all_passed": all(c["passed"] for c in checks),
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adiaframe",
        description="Measurement-dynamics scenarios: branching, mean force, "
                    "spectral thermodynamics, friction, entropy audits.")
    parser.add_argument("--config", required=True, help="path to a JSON scenario config")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown config fields instead of warning")
    parser.add_argument("--quiet", action="store_true", help="suppress the text summary")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config(text, strict=args.strict)
        report = run_scenario(cfg, args.out, seed=args.seed)
    except (AdiaframeError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True))
        return 2

    if not args.quiet:
        print(f"adiaframe {__version__} :: {report['kind']} "
              f"(seed {report['seed']}, profile {report['tolerance_profile']})")
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"  [{status}] {check['name']}: value {check['value']:.3e} "
                  f"(tolerance {check['tolerance']:.3e})")
        print(f"  report: {os.path.join(args.out, 'report.json')}")
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
