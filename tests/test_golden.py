"""Golden digests of the CLI outputs and of the runs.

Each config of ``tests/test_cli.py`` (the ``TestConfigDigest.PINNED`` set)
and the README config runs through ``main``; the SHA-256 of ``report.json``
and of every CSV it writes is pinned here, and ``run_scenario`` on the parsed
config writes the same bytes.  Each run of ``RUNS`` (driven, mean-force,
branching and Stern-Gerlach runs, a frame path, and the Kubo friction, shell
force and Maxwell check on dense 64- and 400-level families, ``SPECTRAL``) is
pinned by one SHA-256 over the ``tobytes()`` of its output arrays
(``RUN_PINNED``).  A change that
moves output bytes on purpose moves these pins and lists each moved pin, old
and new, in CHANGES.md; any other byte move fails.

    PYTHONPATH=src python tests/test_golden.py

prints the pinned and the current digest of every pin, each moved pin in
the ``old → new`` form, and exits 1 if any pin moved.

The pins hold for numpy 2.4.6 and scipy 1.17.1 (``PINNED_WITH``): another
LAPACK or BLAS build may round differently.
"""

import hashlib
import json
import pathlib
import re
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy

from adiaframe import (ApparatusState, DynamicsScenario, FrictionSpec, MatrixPolynomialFamily,
                       QuantumState, SternGerlachConfig, cli, frame_path, frames, kubo_friction,
                       maxwell_check, microcanonical_force, operators, random_density_matrix,
                       random_linear_family, run_branching, run_driven, run_mean_force, sg_run,
                       uniform_drive)
from adiaframe.cli import main, parse_config, run_scenario
import test_cli

PINNED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
CONFIGS = {name: make for name, (make, _) in test_cli.TestConfigDigest.PINNED.items()}
CONFIGS["readme"] = lambda: json.loads(re.findall(r"```json\n(.*?)```", README, re.S)[0])

PINNED = {
    "audit": {
        "entropy.csv": "24dc59a37fb12378d1b507d0f9dc9d7e3b2ee5ce65cea1255b5d31e6767b5f77",
        "report.json": "93b9ca6d0965fc7c1afbf21e33105d51d657e5d5b2681ebeb742dbdc65cd64e1",
    },
    "driven_scales": {
        "oscillation_averaging.csv": "4a4763992105375caa8ae656eefed86a6a8d657bf6ce7325d326cfae94f4f6d7",
        "report.json": "d3b9907dfabc8fff70223b76f1a91a83aa9ca7f3b151a9250e4eaf4e9039d799",
        "series.csv": "4bbae80d207c40c101300f33a7c3096d001c5e9935383649f242072511740f4b",
    },
    "failing_thermo": {
        "curve.csv": "65e1bb494791cca5f08777975ae38ce01e0c167937ca38941c26b34474fede57",
        "report.json": "f604c50a70c3be73e6a599496e97f1b31158f68bf397cfd2b5f04b54cdd06ba6",
    },
    "family_mean_force": {
        "report.json": "0507d8b5749eed36d4bff122dc1e87ca47985ffcac37b5464ebb24711d0891ff",
        "series.csv": "d519edd024a5e18389b2cead72f650f6c6bc25e2a2c6d5a9da32a31bbfbf13d7",
    },
    "family_sampled": {
        "report.json": "846debc6c02c70d729f81a1f26a1fcc80bfc03bb5168aa0651dc93e42c68e77a",
        "series_branch_0.csv": "7d08f887a7d5cc629f703332f8cecc45ea58e8a7191923d53f13e2c63f73f4df",
        "series_branch_1.csv": "b28afca690abf51c67417ec9e113a719f93f1008a01c696d516ad99b2fa8f7cd",
    },
    "friction": {
        "report.json": "f9f43bbeb491e47f1b8dbb837658009cb474d42a144957895aa6dbc53c0e113b",
        "series_branch_0.csv": "5ed9f9567f96d058f3e9ecd850418104897257ecc29d70c0cccf02275919de15",
        "series_branch_1.csv": "96f1c8a3e71f1109663fc2b4fae64f7dc7593e945096c7c3fb639c6cfc9a2025",
    },
    "kubo": {
        "gamma.csv": "a9ef1f83648fe0a68e72188944611ea1f77c27034fb24598804a5a5868f50225",
        "report.json": "48feb017740b68633f9ef8c0926a9867c6cc35ca6a9f0708f301de3088e067bd",
    },
    "random_state": {
        "report.json": "cd05eb85f445c43a8cfdd994f8ce748ae48146cf0597010169752808891a0716",
        "series.csv": "f534f2652378910bd18ab057c13dd4341cda1049f1e2c535a6213934070afe01",
    },
    "readme": {
        "report.json": "fb4eb813e8b79e630819e33f714232adddec741bcf43cb6077226da66a741088",
        "series_branch_minus.csv": "c19f978d65f177b82d7305803781c05da185d756a2a4b7e63e69f0758fe9fa6c",
        "series_branch_plus.csv": "ad99e27af3096c5413e51fffeeadeb452cf600bc26576b3b2168299a00cfed24",
    },
    "sg": {
        "report.json": "fd9b8723f196c305156453d5e252639929206d1f6796b54296a8babdb769ad2a",
        "series_branch_minus.csv": "0cfdf0393a2bedb28682b36f4406d73a1f3c3645d30a245d398894fb12b1cd81",
        "series_branch_plus.csv": "ee3b8586f919b3d5dd62b2dcd445fb24cf2cb71aa5b57c426832172052595733",
    },
    "sg_mean_force": {
        "report.json": "f80dd0f863ab8ba188c85fee3e64328222d4f488b9bd9c41d792aa69a5b96dd0",
        "series.csv": "04ea2560de2b282eb6a5192976f70d93ec1d306844e6d5b34aa642e037c98440",
    },
    "thermo": {
        "curve.csv": "0cbab4346ccf5edd7b731b4ecf91781746e6c3ae9181b8929ab6fd047d427c93",
        "report.json": "1f8a99217c68adf0a8f833c6956d87a6e00a0dbf8501366e49539c5520bfa319",
    },
}


def digests(out_dir: pathlib.Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def run_digests(name: str, out_dir: pathlib.Path) -> dict:
    config = out_dir / "config.json"
    config.write_text(json.dumps(CONFIGS[name]()))
    main(["--config", str(config), "--out", str(out_dir / "out"), "--quiet"])
    return digests(out_dir / "out")


def versions() -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}; pinned with {PINNED_WITH}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_pinned(name, tmp_path):
    assert run_digests(name, tmp_path) == PINNED[name], versions()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_scenario_writes_the_pinned_bytes(name, tmp_path):
    # term matrices as lists, where main reads them as float arrays from text
    run_scenario(parse_config(CONFIGS[name]()), str(tmp_path))
    assert digests(tmp_path) == PINNED[name], versions()


def test_every_config_is_pinned():
    assert sorted(PINNED) == sorted(CONFIGS)


def test_one_ulp_moves_the_pins(tmp_path):
    # gamma[0, 0] of the kubo run -> its next double: both files that print it move
    def moved(*args, **kwargs):
        tensor = kubo_friction(*args, **kwargs)
        tensor.gamma[0, 0] = np.nextafter(tensor.gamma[0, 0], np.inf)
        return tensor

    kubo_friction = cli.kubo_friction
    with mock.patch("adiaframe.cli.kubo_friction", side_effect=moved):
        got = run_digests("kubo", tmp_path)
    assert sorted(got) == sorted(PINNED["kubo"])
    assert all(got[f] != PINNED["kubo"][f] for f in ("gamma.csv", "report.json"))


# ---------------------------------------------------------------------------
# run pins

# H(x) = [[x, 0, a x], [0, -x, 0], [a x, 0, 2]]: level 1 never couples and
# crosses the lowest level of the other block at x = 0
CROSSING = MatrixPolynomialFamily([((0,), np.diag([0.0, 0.0, 2.0]).astype(complex)),
                                   ((1,), np.array([[1.0, 0.0, 0.6], [0.0, -1.0, 0.0],
                                                    [0.6, 0.0, 0.0]], dtype=complex))])


def trajectory_arrays(traj) -> list:
    led = traj.ledger
    return [traj.t, traj.x, traj.v, traj.rho, traj.e_mean, traj.q_cum, traj.w_cum,
            np.array([led.e_start, led.e_mean, led.q_cum, led.w_cum]),
            *(traj.extras[k] for k in sorted(traj.extras) if isinstance(traj.extras[k], np.ndarray))]


def mixed_state(dim: int) -> QuantumState:
    return QuantumState.from_rho(random_density_matrix(dim, np.random.default_rng(dim)))


def driven(dim: int) -> list:
    # a dephasing event halfway; m = 2 and 3 step by transfer maps, m = 5 by stages
    def dephase(state):
        return QuantumState(rho=np.diag(state.rho.diagonal()))

    fam = random_linear_family(dim, 1, "gue", seed=dim)
    traj = run_driven(fam, uniform_drive([-1.0], [1.5]), mixed_state(dim), 1.0, 100,
                      record_every=10, events={50: dephase})
    return trajectory_arrays(traj) + [e[k] for e in traj.extras["events"] for k in ("rho_before", "rho_after")]


def scenario(fam, x, v, state, dt=1e-2, friction=None, **apparatus) -> DynamicsScenario:
    return DynamicsScenario(family=fam, apparatus=ApparatusState(x=x, v=v, **apparatus), state=state,
                            dt=dt, n_steps=100, friction=friction, record_every=10)


def mean_force(*args, **kwargs) -> list:
    return trajectory_arrays(run_mean_force(scenario(*args, **kwargs)))


def branching(*args, **kwargs) -> list:
    return [a for traj in run_branching(scenario(*args, **kwargs)) for a in trajectory_arrays(traj)]


def stern_gerlach(mode: str) -> list:
    result = sg_run(SternGerlachConfig(), n_steps=100, record_every=10, mode=mode, n_samples=500, seed=42)
    counts = [] if result.counts is None else [result.counts]
    return [a for traj in result.trajectories for a in trajectory_arrays(traj)] + counts


def crossing_frames() -> list:
    return [a for fr in frame_path(CROSSING, np.linspace(-1.0, 1.0, 41)[:, None])
            for a in (fr.eigenvalues, fr.basis, fr.connections, fr.grad_adiabatic, fr.same_cluster,
                      fr.adiabatic, fr.diabatic, np.array(fr.spectrum.permutation))]


# The spectral functions on dense 2-coordinate families: GOE rows take the
# real (dsyevd) path, GUE rows the complex one; the CLI pins see neither at size.
SPECTRAL_X = np.array([0.3, -0.2])


def spectral_family(ensemble: str, dim: int):
    return random_linear_family(dim, 2, ensemble, seed=dim)


def maxwell_forms(ensemble: str, dim: int) -> list:
    report = maxwell_check(spectral_family(ensemble, dim), SPECTRAL_X, -2.0, 1.0)
    return [report.force, report.entropy_form, report.isentropic_form]


SPECTRAL = {f"{kind}_{ensemble}{dim}": (lambda make=make, ensemble=ensemble, dim=dim: make(ensemble, dim))
            for ensemble in ("goe", "gue") for dim in (64, 400) for kind, make in (
                ("kubo", lambda e, d: [kubo_friction(spectral_family(e, d), SPECTRAL_X, 0.1).gamma]),
                ("shell_force", lambda e, d: [microcanonical_force(spectral_family(e, d), SPECTRAL_X,
                                                                   -2.0, 1.0)]),
                ("maxwell", maxwell_forms))}

FRICTION = [[0.3, 0.05], [0.05, 0.2]]
RUNS = {
    "driven_m2": lambda: driven(2),
    "driven_m3": lambda: driven(3),
    "driven_m5": lambda: driven(5),
    "mean_force_gue8": lambda: mean_force(random_linear_family(8, 2, "gue", seed=12), [0.3, -0.1],
                                          [0.7, -0.4], mixed_state(8)),
    "mean_force_friction_mass": lambda: mean_force(
        random_linear_family(4, 2, "gue", seed=6), [0.1, -0.3], [0.5, 0.2], mixed_state(4),
        metric=np.array([[2.0, 0.3], [0.3, 1.5]]), friction=FrictionSpec.constant(FRICTION)),
    "mean_force_crossing": lambda: mean_force(CROSSING, [-1.0], [1.5],
                                              QuantumState.from_rho(np.diag([0.5, 0.3, 0.2])),
                                              dt=0.015, metric=5.0),
    "branching_friction": lambda: branching(
        random_linear_family(3, 2, "gue", seed=5), [0.2, 0.1], [0.4, -0.6], mixed_state(3),
        friction=FrictionSpec.constant(FRICTION)),
    "branching_metric_potential": lambda: branching(
        random_linear_family(3, 1, "gue", seed=7), [0.2], [0.5], mixed_state(3),
        metric=lambda x: [[1.0 + x[0] ** 2]], potential=lambda x: 0.5 * x[0] ** 2),
    "sg_branching": lambda: stern_gerlach("branching"),
    "sg_sampled": lambda: stern_gerlach("sampled"),
    "sg_mean_force": lambda: stern_gerlach("mean_force"),
    "frame_path_crossing": crossing_frames,
    **SPECTRAL,
}

RUN_PINNED = {
    "branching_friction": "b4c102274b6e61811c9f09834e3dc154009a7ed1059e8d7f4831e1e97e8697bc",
    "branching_metric_potential": "53c822c9ef6823db9b6573f36330f11ea55b14b0c3d39939511ec5b3078e8f8b",
    "driven_m2": "42a5dce18d9858676aaa4635c3b51ee3533d8914164283ceb9615a40c6d6be3a",
    "driven_m3": "d1e9ff32d1be93dfc309f779b64df5d26cb86a39eff4ed94c62fa7891590ccde",
    "driven_m5": "910d6313c54f94584a226eac9c80914219ca106b2efd1566da516e25814b8523",
    "frame_path_crossing": "9dd91ef99963cdf9d5e979382f0731440727bb3d54c329854ddaf73a268f42d9",
    "mean_force_crossing": "1a05359b99618f9dc96c75fba0a37333ce7468a9858c5308ffc4bc168718e11a",
    "mean_force_friction_mass": "a536ad7308e0822efda4cff45b1d7b965705180e8afda656e9a4b0a5948584a0",
    "mean_force_gue8": "d97ead3ac04863ab4bf47fdcb2a4bd3aaef53487f91d4121c5dfd440d4d0ec78",
    "sg_branching": "662740a3b8e36f666255d631f8ae8fdaaaf40ce33a83c5fe95503a75721b94e7",
    "sg_mean_force": "6d9eecef9b1848ab36a1fc3a904813890936faf6eacc8341d8add80c9f3bb12f",
    "sg_sampled": "aed79613ba574f5b54c5451f240e293f64d4faaefec70e3e2fd5fdff68be855a",
    "kubo_goe400": "fb3ad43761670c81b0a065bc80a1601dd119955d610efb79f27f3463610a88ea",
    "kubo_goe64": "330020783e432e61047c827400b42163f0317359abb336640f914d3bd1aae498",
    "kubo_gue400": "151134ca1f4556f9ac4147ab1e25a0babdcbf50ad8d9102d86ec461352f41275",
    "kubo_gue64": "731d652c271dc48aba3ddd8e05c413f777b1eb94411c770024e58d24646640cf",
    "maxwell_goe400": "9e5d87d79842267ef1cc5ac4171ab696671fcf1fe50a052e01926fe6c7fc9e02",
    "maxwell_goe64": "1d0b3234195102c7b0603637108b3c8af12ef02757fd3f0cb8087c3f02bb131d",
    "maxwell_gue400": "5c3e02d9e3baf1a5f8baec41baca106ec4efaa5d560adf3614cacdfbc7a109e4",
    "maxwell_gue64": "da275e072f357eaba44ae7000330a5b5845e41df9704bf86f3a939783a4fec50",
    "shell_force_goe400": "1f51ee47efb9ae13a701d791ef7bbdd77fe5c7815445e0058cc8f6c2593fb677",
    "shell_force_goe64": "7720bc6d276b5c266ffd1b3c6b5ad882ef4ae7acbbf06686795f10efc862decc",
    "shell_force_gue400": "dc5893bde0d90ab5d8cf889683c344850ed77d73c71b0c6cdfc7af23ad92e75f",
    "shell_force_gue64": "304574ad14af0e61657988ba224a5b90df762c48e1067b7b8a1afd90ebb78b29",
}

# OpenBLAS on one thread (OPENBLAS_NUM_THREADS=1) rounds the 400-level
# products differently from its threaded path, which gives the digests above
# on two threads or more; each setting gives one digest.
ONE_BLAS_THREAD_PINNED = {
    "kubo_goe400": "594609a534858f45c4130f83e5394d6bb6fba8b465aa5df8e5f5d894f41fa871",
    "kubo_gue400": "5d37ce2d0ae0e323fdb6b4da4097b99ae14640fade111bbbf424a51678c2448a",
    "maxwell_goe400": "5f15088267e75b0f740d52277912faeaf496c06e1786dc8736da7df22f28f8c2",
    "maxwell_gue400": "84321cd5df82e31d968c3bbc28612343a37daa7d163d17156d666dbc1ea32131",
    "shell_force_goe400": "c450dd79b54b86868d2fbed122063d4028ade753789b65139a81521127f84734",
    "shell_force_gue400": "c9a9796c0fae0661f5b0956f7618336b23228b37532776351cad194a5968814b",
}


def pinned_digests(name: str) -> set:
    return {RUN_PINNED[name], ONE_BLAS_THREAD_PINNED.get(name, RUN_PINNED[name])}


def run_digest(name: str) -> str:
    h = hashlib.sha256()
    for a in RUNS[name]():
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_pinned(name):
    assert run_digest(name) in pinned_digests(name), versions()


def test_every_run_is_pinned():
    assert sorted(RUN_PINNED) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS.keys() - SPECTRAL.keys()))
def test_one_ulp_moves_each_run_pin(name):
    # the lowest level W_0 out of every frame-kernel call -> its next double
    kernel = frames._frame_kernel

    def moved(*args, **kwargs):
        out = kernel(*args, **kwargs)
        out[0][:, 0] = np.nextafter(out[0][:, 0], np.inf)
        return out

    with mock.patch("adiaframe.frames._frame_kernel", side_effect=moved) as frames_kernel, \
            mock.patch("adiaframe.dynamics._frame_kernel", side_effect=moved) as dynamics_kernel:
        got = run_digest(name)
    assert frames_kernel.called or dynamics_kernel.called
    assert got != RUN_PINNED[name]


@pytest.mark.parametrize("name", sorted(SPECTRAL))
def test_one_ulp_moves_each_spectral_pin(name):
    # every level out of every eigensolve -> its next double
    eigh = operators._eigh

    def moved(*args, **kwargs):
        w, *rest = eigh(*args, **kwargs)
        return np.nextafter(w, np.inf), *rest

    with mock.patch("adiaframe.operators._eigh", side_effect=moved), \
            mock.patch("adiaframe.thermo._eigh", side_effect=moved):
        got = run_digest(name)
    assert got not in pinned_digests(name)


# ---------------------------------------------------------------------------
# the pins, printed


def current_pins() -> dict:
    """The current digest of every pin, keyed as ``config/file`` and ``run/name``."""
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            out = pathlib.Path(tmp, name)
            out.mkdir()
            pins.update((f"{name}/{f}", d) for f, d in run_digests(name, out).items())
    pins.update((f"run/{name}", run_digest(name)) for name in sorted(RUNS))
    return pins


def print_pins() -> int:
    """Print every pinned and current digest, the moved ones as ``old → new``;
    return the number of pins that moved."""
    pinned = {f"{name}/{f}": d for name, files in PINNED.items() for f, d in files.items()}
    pinned.update((f"run/{name}", d) for name, d in RUN_PINNED.items())
    current = current_pins()
    keys = sorted(pinned.keys() | current.keys())
    moved = 0
    print(versions())
    for key in keys:
        old, new = pinned.get(key, "(none)"), current.get(key, "(none)")
        if key.startswith("run/") and new == ONE_BLAS_THREAD_PINNED.get(key[4:]):
            old = new
        moved += old != new
        print(f"same   {key}: {old}" if old == new else f"MOVED  {key}: {old} → {new}")
    print(f"{moved} of {len(keys)} pins moved")
    return moved


if __name__ == "__main__":
    sys.exit(1 if print_pins() else 0)
