"""Golden digests of the CLI outputs.

Each config of ``tests/test_cli.py`` (the ``TestConfigDigest.PINNED`` set)
and the README config runs through ``main``; the SHA-256 of ``report.json``
and of every CSV it writes is pinned here, and ``run_scenario`` on the parsed
config writes the same bytes.  A change that moves output bytes on purpose
moves these pins and lists each moved pin, old and new, in CHANGES.md; any
other byte move fails.

The pins hold for numpy 2.4.6 and scipy 1.17.1 (``PINNED_WITH``): another
LAPACK or BLAS build may round differently.
"""

import hashlib
import json
import pathlib
import re
from unittest import mock

import numpy as np
import pytest
import scipy

from adiaframe import cli
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
    "friction": {
        "report.json": "d82876a318a1e3952988683e97c7ac788aff2da89295aefa86e4ddd43beec469",
        "series_branch_0.csv": "733861a0b94b5c837e853d8a191a7e3e3ccde0ca1f2572173337bdc138e0dbec",
        "series_branch_1.csv": "315de1f8dcdef63cc1ec10461d7710950a38d82731ee72c71312cb61953121f6",
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


@pytest.mark.parametrize("name", ["audit", "driven_scales", "kubo", "thermo"])
def test_run_scenario_writes_the_pinned_bytes(name, tmp_path):
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
