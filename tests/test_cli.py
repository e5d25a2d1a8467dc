import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adiaframe import random_linear_family
from adiaframe.cli import _config_digest, main, parse_config, run_scenario
from adiaframe.errors import ConfigError

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def mat(m):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def sg_config(**extra):
    cfg = {"kind": "stern_gerlach", "mode": "sampled", "seed": 42,
           "stern_gerlach": {"steps": 100, "record_every": 10, "n_samples": 500}}
    cfg.update(extra)
    return cfg


def driven_config(**extra):
    cfg = {
        "kind": "custom_family", "seed": 9,
        "family": {"coords": 1, "dim": 2,
                   "terms": [{"exponents": [1], "matrix": mat(PAULI_Z)},
                             {"exponents": [0], "matrix": mat(0.5 * PAULI_X)}]},
        "state": {"amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        "drive": {"x0": [1.0], "velocity": [1.5], "duration": 1.0, "steps": 800,
                  "record_every": 80},
    }
    cfg.update(extra)
    return cfg


def friction_config():
    return {
        "kind": "custom_family", "mode": "branching",
        "family": {"coords": 1, "dim": 2,
                   "terms": [{"exponents": [1], "matrix": mat(0.6 * PAULI_Z)},
                             {"exponents": [0], "matrix": mat(0.8 * PAULI_X)}]},
        "state": {"populations": [0.4, 0.6]},
        "apparatus": {"x0": [-1.0], "v0": [1.2], "mass": 1.0},
        "run": {"duration": 0.2, "steps": 2500, "record_every": 250},
        "friction": {"constant": [[0.01]]},
    }


def random_state_config():
    cfg = driven_config()
    cfg["state"] = {"random": True}
    return cfg


def failing_thermo_config():
    cfg = thermo_config(sigma=0.05, dim=4, check_energy=None)
    cfg["thermo"].pop("check_energy")
    cfg["thermo"]["e_min"] = 0.2
    cfg["thermo"]["e_max"] = 1.4
    return cfg


def thermo_config(sigma=1.5, dim=60, check_energy=15.0):
    ladder = np.diag(0.5 * np.arange(dim)).astype(complex)
    return {
        "kind": "thermo_curve",
        "family": {"coords": 1, "dim": dim,
                   "terms": [{"exponents": [0], "matrix": mat(ladder)},
                             {"exponents": [1], "matrix": mat(0.7 * np.eye(dim))}]},
        "thermo": {"x": [0.3], "sigma": sigma, "e_min": 5.0, "e_max": 25.0,
                   "n_grid": 201, "check_energy": check_energy},
    }


def kubo_config():
    return {
        "kind": "kubo",
        "family": {"coords": 2, "dim": 2,
                   "terms": [{"exponents": [0, 0], "matrix": mat(PAULI_Z)},
                             {"exponents": [1, 0], "matrix": mat(0.7 * PAULI_X + 0.2 * PAULI_Z)},
                             {"exponents": [0, 1], "matrix": mat(0.5 * PAULI_Y - 0.3 * PAULI_X)}]},
        "kubo": {"x": [0.3, -0.2], "beta": 1.2, "eta": 0.9},
    }


def audit_config(**extra):
    fam = random_linear_family(3, 1, "gue", seed=5, scale=3.0)
    cfg = {
        "kind": "entropy_audit", "seed": 3, "n_samples": 50,
        "family": {"coords": 1, "dim": 3,
                   "terms": [{"exponents": list(e), "matrix": mat(m)}
                             for e, m in fam.terms]},
        "state": {"populations": [0.5, 0.3, 0.2]},
        "drive": {"x0": [-2.0], "velocity": [4.0], "duration": 1.0, "steps": 1000,
                  "record_every": 100},
        "event": {"step": 500},
    }
    cfg.update(extra)
    return cfg


class TestParseConfig:
    def test_defaults_filled_and_idempotent(self):
        cfg = parse_config({"kind": "stern_gerlach", "stern_gerlach": {"steps": 100}})
        assert cfg["seed"] == 0
        assert cfg["mode"] == "branching"
        sg = cfg["stern_gerlach"]
        assert sg["gamma"] == 1.0
        assert sg["field_gradient"] == 0.5
        assert sg["duration"] == 1.0
        assert sg["record_every"] == 1
        assert parse_config(cfg) == cfg

    def test_kind_required_and_known(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({})
        assert exc.value.field == "kind"
        with pytest.raises(ConfigError):
            parse_config({"kind": "spectroscopy"})

    def test_json_syntax_error_locates_problem(self):
        with pytest.raises(ConfigError) as exc:
            parse_config('{"kind": "kubo",\n  "family": }')
        assert exc.value.line == 2
        assert exc.value.column == 13

    def test_config_must_be_an_object(self):
        with pytest.raises(ConfigError):
            parse_config("[1, 2]")
        with pytest.raises(ConfigError):
            parse_config(42)

    def test_bad_field_is_named(self):
        cfg = sg_config()
        cfg["stern_gerlach"]["gamma"] = -1.0
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "stern_gerlach.gamma"
        cfg = sg_config()
        cfg["stern_gerlach"]["steps"] = 0
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "stern_gerlach.steps"

    def test_amplitude_norm_checked(self):
        cfg = sg_config()
        cfg["stern_gerlach"]["amplitudes"] = [[1.0, 0.0], [0.5, 0.0]]
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert "norm" in str(exc.value)

    def test_amplitude_norm_uses_the_state_tolerance(self):
        # within 1e-8 of 1 but outside the profile's amplitude_norm, which
        # QuantumState.from_amplitudes applies when the run starts
        cfg = {"kind": "stern_gerlach",
               "stern_gerlach": {"amplitudes": [[1.000000003, 0.0], [0.0, 0.0]]}}
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "stern_gerlach.amplitudes"

    def test_population_sum_uses_the_state_tolerance(self):
        # within 1e-8 of 1 but outside the profile's trace tolerance, which
        # QuantumState.validate applies when the run starts
        cfg = driven_config(state={"populations": [0.500000003, 0.5]})
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "state.populations"

    def test_unknown_keys_strict_vs_lenient(self):
        cfg = sg_config(typo_field=1)
        with pytest.raises(ConfigError):
            parse_config(cfg)
        with pytest.warns(UserWarning, match="typo_field"):
            out = parse_config(sg_config(typo_field=1), strict=False)
        assert out["kind"] == "stern_gerlach"

    def test_family_matrix_must_be_hermitian(self):
        cfg = driven_config()
        cfg["family"]["terms"][0]["matrix"] = [[[0.0, 0.0], [1.0, 0.0]],
                                               [[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert "Hermitian" in str(exc.value)

    def test_state_needs_exactly_one_form(self):
        cfg = driven_config()
        cfg["state"] = {"amplitudes": [[1.0, 0.0], [0.0, 0.0]],
                        "populations": [1.0, 0.0]}
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "state"
        cfg["state"] = {"populations": [0.5, 0.2]}
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_velocity_scales_need_drive(self):
        cfg = {
            "kind": "custom_family",
            "family": driven_config()["family"],
            "state": {"populations": [1.0, 0.0]},
            "apparatus": {"x0": [0.0], "v0": [0.0]},
            "run": {"duration": 1.0, "steps": 10},
            "velocity_scales": [1.0, 0.5],
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "velocity_scales"
        cfg2 = driven_config(velocity_scales=[1.0])
        with pytest.raises(ConfigError):
            parse_config(cfg2)

    def test_run_defaults_written_where_read(self):
        sampled = parse_config(dict(friction_config(), mode="sampled"))
        assert sampled["n_samples"] == 1000
        assert "n_samples" not in parse_config(friction_config())
        assert "n_samples" not in parse_config(driven_config(mode="sampled"))
        sg = parse_config(sg_config())["stern_gerlach"]
        assert sg["n_samples"] == 500
        del sg["n_samples"]
        assert parse_config(sg_config(stern_gerlach=sg))["stern_gerlach"]["n_samples"] == 1000
        assert "n_samples" not in parse_config({"kind": "stern_gerlach"})["stern_gerlach"]
        audit = audit_config()
        del audit["n_samples"]
        assert parse_config(audit)["n_samples"] == 1000
        free = friction_config()
        del free["apparatus"]["mass"]
        cfg = parse_config(free)
        assert cfg["apparatus"]["mass"] == 1.0
        assert parse_config(cfg) == cfg

    def test_drive_excludes_apparatus_and_run(self):
        cfg = dict(friction_config(), drive=driven_config()["drive"])
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "apparatus"
        del cfg["apparatus"]
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "run"

    def test_event_validation(self):
        cfg = audit_config()
        cfg["event"] = {"step": 2000}
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "event.step"
        cfg["event"] = {"step": 5, "blocks": [[0], [1]]}
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "event.blocks"


class TestConfigDigest:
    # config_sha256 of each config this module runs, with the defaults the
    # parser writes; a default that moves or disappears changes the digest
    PINNED = {
        "sg": (sg_config, "fb2c8eba18c59c992575bcb4ddeed88b7b6410d31ff03d2be2ffcce941146901"),
        "driven_scales": (lambda: driven_config(velocity_scales=[1.0, 0.5]),
                          "78f127ab0f853ad20c06f0718359682f55e43a37569eb340b3ea6609e2492cce"),
        "friction": (friction_config,
                     "ba726ea3dcfaf87dfe2292f0ed7ce68006b036630118b54f18bc22bb08d9f451"),
        "thermo": (thermo_config,
                   "ed44edc60ee8730ad7f15890d4dbfeca5bf81c4a1b7858afb66f52d4be1b2703"),
        "kubo": (kubo_config, "c6b893aa1e6c8fbdf101ec2cca84dee5130c524392091193d4c460529f937a09"),
        "audit": (audit_config, "8547d09d9243d1e7e987a13e362ed0354f9dba31210f96a013fe1d30f05ba961"),
        "random_state": (random_state_config,
                         "5f83ba59a6eed912eb629c876cfc0e4187b7f1ece85be5942c62f935866feead"),
        "failing_thermo": (failing_thermo_config,
                           "2aaab6bc5a47ce38939e296c92ac938764377dac755a7873bbb361ceef650f45"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest_pinned(self, name):
        make, digest = self.PINNED[name]
        assert _config_digest(parse_config(make())) == digest


class TestRunScenario:
    def test_stern_gerlach_sampled(self, tmp_path):
        report = run_scenario(parse_config(sg_config()), str(tmp_path))
        assert report["all_passed"]
        assert report["seed"] == 42
        assert sum(report["summary"]["counts"]) == 500
        assert set(report["outputs"]) == {"series_branch_plus.csv",
                                          "series_branch_minus.csv"}
        header = (tmp_path / "series_branch_plus.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[0] == "t"
        assert "pop_0" in cols and "s_info" in cols and "q_cum" in cols
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == report

    def test_driven_with_velocity_scales(self, tmp_path):
        cfg = parse_config(driven_config(velocity_scales=[1.0, 0.5]))
        report = run_scenario(cfg, str(tmp_path))
        assert report["all_passed"]
        assert "oscillation_averaging.csv" in report["outputs"]
        averages = report["summary"]["averaged_diabatic_force"]
        assert averages[0][0] > averages[1][0]

    def test_branching_with_friction(self, tmp_path):
        cfg = parse_config(friction_config())
        report = run_scenario(cfg, str(tmp_path))
        assert report["all_passed"]
        assert report["summary"]["weights"] == [0.4, 0.6]
        names = {c["name"] for c in report["checks"]}
        assert {"branch_energy_closure_0", "branch_energy_closure_1"} <= names

    def test_thermo_curve(self, tmp_path):
        report = run_scenario(parse_config(thermo_config()), str(tmp_path))
        assert report["all_passed"]
        assert report["outputs"] == ["curve.csv"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["counting_identity"]["value"] < 0.02
        assert "force_entropy_identity" in by_name

    def test_kubo_tensor(self, tmp_path):
        report = run_scenario(parse_config(kubo_config()), str(tmp_path))
        assert report["all_passed"]
        expected = [[0.04996495457286845, -0.020964770657706903],
                    [-0.020964770657706903, 0.04102981637691347]]
        assert_allclose(report["summary"]["gamma"], expected, rtol=1e-10)

    def test_entropy_audit(self, tmp_path):
        report = run_scenario(parse_config(audit_config()), str(tmp_path))
        assert report["all_passed"]
        names = [c["name"] for c in report["checks"]]
        assert names == ["unitary_entropy_drift", "projection_entropy_gain",
                         "projected_force_zero", "monotonicity_suite"]
        assert report["summary"]["monotonicity_passes"] == 50
        assert report["summary"]["monotonicity_samples"] == 50
        assert report["summary"]["entropy_jump"] > 0.0
        assert (tmp_path / "entropy.csv").exists()

    def test_seed_override(self, tmp_path):
        report = run_scenario(parse_config(sg_config()), str(tmp_path), seed=7)
        assert report["seed"] == 7


class TestDeterminism:
    def test_identical_reruns_are_bit_identical(self, tmp_path):
        cfg = random_state_config()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_scenario(parse_config(cfg), str(d1))
        run_scenario(parse_config(cfg), str(d2))
        assert (d1 / "series.csv").read_bytes() == (d2 / "series.csv").read_bytes()
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


class TestMain:
    def write(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_success_exit_zero(self, tmp_path, capsys):
        rc = main(["--config", self.write(tmp_path, sg_config()),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert (tmp_path / "report.json").exists()

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        rc = main(["--config", self.write(tmp_path, sg_config()),
                   "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_failed_check_exit_one(self, tmp_path, capsys):
        cfg = failing_thermo_config()
        rc = main(["--config", self.write(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["all_passed"]

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": ')
        rc = main(["--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError"

    def test_missing_file_exit_two(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["error"] in ("FileNotFoundError",
                                                                "OSError")

    def test_strict_rejects_unknown_fields(self, tmp_path, capsys):
        rc = main(["--config", self.write(tmp_path, sg_config(typo_field=1)),
                   "--out", str(tmp_path), "--strict"])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"

    def test_seed_flag_overrides_config(self, tmp_path):
        rc = main(["--config", self.write(tmp_path, sg_config()),
                   "--out", str(tmp_path), "--seed", "7", "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seed"] == 7
