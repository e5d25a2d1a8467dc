import dataclasses
import gc
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adiaframe import QuantumState, SternGerlachConfig, random_linear_family, sample_branch_counts
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


def sg_mean_force_config():
    return sg_config(mode="mean_force", stern_gerlach={"steps": 100, "record_every": 10})


def family_mean_force_config():
    cfg = dict(friction_config(), mode="mean_force")
    del cfg["friction"]
    return cfg


def family_sampled_config():
    cfg = dict(friction_config(), mode="sampled", seed=5, n_samples=400)
    del cfg["friction"]
    return cfg


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

    @pytest.mark.parametrize("text, message", [
        (b'{"kind": "\xff"}', "config is not UTF-8 JSON text"),   # invalid UTF-8
        (b"\xff\xfe{", "config is not UTF-8 JSON text"),          # UTF-16 mark, half a unit
        (b"\xff\xfe{}", "invalid JSON"),                          # UTF-16 mark, U+7D7B
    ])
    def test_bytes_that_are_not_json_text(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_config_must_be_an_object(self):
        with pytest.raises(ConfigError):
            parse_config("[1, 2]")
        with pytest.raises(ConfigError):
            parse_config(42)

    def test_dict_with_values_json_cannot_hold(self):
        with pytest.raises(ConfigError, match="not JSON data"):
            parse_config({"kind": "stern_gerlach", "seed": np.int64(3)})

    def test_stern_gerlach_defaults_are_the_config_class_defaults(self):
        sg = parse_config({"kind": "stern_gerlach"})["stern_gerlach"]
        defaults = dataclasses.asdict(SternGerlachConfig())
        assert {name: sg[name] for name in defaults} == defaults

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
        # within 1e-8 of 1 but outside the profile's trace tolerance (every
        # sum of probabilities), which QuantumState.from_amplitudes applies
        # when the run starts
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

    def test_small_matrix_asymmetry_is_relative(self):
        # an asymmetry of 1e-13 on entries near 1e-3 fails the family's own
        # test, relative to the largest entry
        cfg = driven_config()
        cfg["family"]["terms"][1]["matrix"] = [[[1e-3, 0.0], [1e-3, 0.0]],
                                               [[1e-3 + 1e-13, 0.0], [-1e-3, 0.0]]]
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "family.terms[1].matrix"

    def test_non_finite_matrix_rejected(self):
        cfg = kubo_config()
        cfg["family"]["terms"][1]["matrix"][0][1][0] = float("nan")
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "family.terms[1].matrix"

    @pytest.mark.parametrize("make, block, name, value", [
        (kubo_config, "kubo", "beta", float("nan")),
        (kubo_config, "kubo", "x", [float("nan"), 0.0]),
        (kubo_config, "kubo", "x", ["0.3", "-0.2"]),
        (kubo_config, "kubo", "x", [True, False]),
        (kubo_config, "kubo", "eta", float("inf")),
        (driven_config, "drive", "duration", float("inf")),
        (driven_config, "drive", "x0", [10 ** 400]),
        (driven_config, "state", "amplitudes", [[float("nan"), 0.0], [0.0, 0.0]]),
        (driven_config, "state", "amplitudes", [["1.0", 0.0], [0.0, 0.0]]),
        (sg_config, "stern_gerlach", "field_gradient", float("nan")),
        (sg_config, "stern_gerlach", "amplitudes", [[True, False], [0.0, 0.0]]),
        (friction_config, "friction", "constant", [[float("-inf")]]),
    ])
    def test_value_that_is_not_a_finite_number_named(self, make, block, name, value):
        cfg = make()
        cfg.setdefault(block, {})[name] = value
        for source in (cfg, json.dumps(cfg)):   # json writes NaN and Infinity as bare tokens
            with pytest.raises(ConfigError) as exc:
                parse_config(source)
            assert exc.value.field == f"{block}.{name}"

    @pytest.mark.parametrize("make, block, name, value", [
        (sg_config, "stern_gerlach", "steps", 10 ** 400),
        (sg_config, "stern_gerlach", "n_samples", 2 ** 63),
        (driven_config, "drive", "steps", 2 ** 63),
        (thermo_config, "thermo", "n_grid", 2 ** 64),
        (audit_config, None, "n_samples", 2 ** 63),
        (sg_config, None, "seed", 10 ** 400),
    ])
    def test_integer_outside_int64_named(self, make, block, name, value):
        cfg = make()
        (cfg.setdefault(block, {}) if block else cfg)[name] = value
        field = f"{block}.{name}" if block else name
        for source in (cfg, json.dumps(cfg)):
            with pytest.raises(ConfigError, match="2\\*\\*63") as exc:
                parse_config(source)
            assert exc.value.field == field
        (cfg[block] if block else cfg)[name] = 2 ** 63 - 1     # the largest int64 passes
        parse_config(cfg)

    @pytest.mark.parametrize("exponent", [10 ** 400, 2 ** 63, -1])
    def test_exponent_outside_int64_named(self, exponent):
        cfg = kubo_config()
        cfg["family"]["terms"][2]["exponents"] = [0, exponent]
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "family.terms[2].exponents"

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
                          "050d47551ffd44d97823d1c7ede9906aa8224a2fdb6433e2221a2e59d53c759d"),
        "friction": (friction_config,
                     "5ce41f49d98ca4aec23319855830d8e347ea63f050983501a1fcbf5a41cdb6e1"),
        "thermo": (thermo_config,
                   "67845eb339714d89992f00c9d05575d89923b82b9854cd7a0d1efb93efff07c0"),
        "kubo": (kubo_config, "493790c14d4f427799f2995854fc1f76cdb970b7eff346733b53cc2634432da2"),
        "audit": (audit_config, "ae8b12481d4efd9798fc2b59afabde25b83d13b21b0e0756d7d53f689d9d390e"),
        "random_state": (random_state_config,
                         "3b7460a2a9941e7e450420b0c6d46278d2cafa95c3abfaadfe247bf1bfe6796c"),
        "failing_thermo": (failing_thermo_config,
                           "4f25a92b8c7c4bf8713d977e2e0440efc6ed9d749b6354699a1f2ca572a0093c"),
        "sg_mean_force": (sg_mean_force_config,
                          "70e2be05dcf4dc028177383347e4f9eeec6a39aa1d49dabd2ea0f72b6c19a76a"),
        "family_mean_force": (family_mean_force_config,
                              "ea77e91dcdb13555d12287dee31d2cf371b7767b17bb2e773493eeafb74d8875"),
        "family_sampled": (family_sampled_config,
                           "2d1b9ac7925f3cc83a33f2dab0421816ef8c95579ec7fc2e79ad9905cdf6e0a6"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest_pinned(self, name):
        make, digest = self.PINNED[name]
        assert _config_digest(parse_config(make())) == digest

    def test_matrix_enters_as_the_sha256_of_its_complex128_bytes(self, tmp_path):
        cfg = parse_config(kubo_config())
        expected = json.loads(json.dumps(cfg))
        for term in expected["family"]["terms"]:
            pairs = np.array(term["matrix"], dtype=float)
            values = (pairs[..., 0] + 1j * pairs[..., 1]).astype("<c16")
            term["matrix"] = hashlib.sha256(values.tobytes()).hexdigest()
        canon = json.dumps(expected, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canon.encode()).hexdigest()
        assert _config_digest(cfg) == digest
        assert run_scenario(cfg, str(tmp_path))["config_sha256"] == digest

    def test_matrix_hashed_by_value_not_by_spelling(self):
        as_ints = kubo_config()
        as_ints["family"]["terms"][0]["matrix"] = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
        assert as_ints["family"]["terms"][0]["matrix"] == kubo_config()["family"]["terms"][0]["matrix"]
        assert json.dumps(as_ints) != json.dumps(kubo_config())
        assert _config_digest(parse_config(as_ints)) == _config_digest(parse_config(kubo_config()))

    @pytest.mark.parametrize("part", [0, 1])
    def test_one_ulp_moves_the_digest(self, part):
        # real part 0.7 -> its next double; imaginary part 0.0 -> the smallest subnormal
        base = kubo_config()
        moved = kubo_config()
        entry = moved["family"]["terms"][1]["matrix"][0][1]
        entry[part] = float(np.nextafter(entry[part], 1.0))
        assert entry != base["family"]["terms"][1]["matrix"][0][1]
        assert _config_digest(parse_config(moved)) != _config_digest(parse_config(base))

    def test_family_field_the_kind_ignores_is_hashed_as_written(self):
        # non-strict parsing keeps an unknown field; stern_gerlach reads no family
        raw = sg_config(family={"terms": "not read"})
        with pytest.warns(UserWarning, match="family"):
            cfg = parse_config(raw, strict=False)
        canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        assert _config_digest(cfg) == hashlib.sha256(canon.encode()).hexdigest()

    def test_canonical_text_does_not_grow_with_dim(self):
        cfg = parse_config(thermo_config(dim=200))
        with mock.patch("adiaframe.cli.json.dumps", wraps=json.dumps) as dumps:
            _config_digest(cfg)
        (args, kwargs), = dumps.call_args_list
        canon = json.dumps(*args, **kwargs)
        assert len(canon) < 1000
        assert json.dumps(cfg["thermo"], sort_keys=True, separators=(",", ":")) in canon


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

    @pytest.mark.parametrize("make", [sg_mean_force_config, family_mean_force_config])
    def test_mean_force_mode(self, tmp_path, make):
        cfg = parse_config(make())
        report = run_scenario(cfg, str(tmp_path))
        assert report["all_passed"]
        assert report["outputs"] == ["series.csv"]
        assert [c["name"] for c in report["checks"]] == ["ledger_closure"]
        assert report["summary"]["mode"] == "mean_force"
        final = np.loadtxt(tmp_path / "series.csv", delimiter=",", skiprows=1)[-1]
        n = len(report["summary"]["final_position"])
        assert report["summary"]["final_position"] == list(final[1:1 + n])

    def test_custom_family_sampled(self, tmp_path):
        cfg = parse_config(family_sampled_config())
        report = run_scenario(cfg, str(tmp_path))
        assert report["all_passed"]
        assert report["outputs"] == ["series_branch_0.csv", "series_branch_1.csv"]
        summary = report["summary"]
        assert summary["weights"] == [0.4, 0.6]
        assert sum(summary["counts"]) == 400
        # the counts are the package's Born sampling of the config's state with its seed
        counts = sample_branch_counts(QuantumState(rho=np.diag([0.4, 0.6]).astype(complex)), 400, 5)
        assert summary["counts"] == [int(counts[0]), int(counts[1])]

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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_seed_override_obeys_the_seed_rule(self, tmp_path, seed):
        with pytest.raises(ConfigError) as exc:
            run_scenario(parse_config(sg_config()), str(tmp_path / "out"), seed=seed)
        assert exc.value.field == "seed"
        assert not (tmp_path / "out").exists()


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

    def test_each_matrix_converted_from_the_decoded_arrays(self, tmp_path):
        from adiaframe import cli, families

        with mock.patch("adiaframe.cli._complex_matrix", wraps=cli._complex_matrix) as convert, \
                mock.patch("adiaframe.families.require_hermitian",
                           wraps=families.require_hermitian) as family:
            rc = main(["--config", self.write(tmp_path, kubo_config()),
                       "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert family.call_count == 3       # the family's constructor checks each term
        # each from the float array read out of the config text, not from lists
        assert convert.called
        assert all(type(c.args[0]) is np.ndarray for c in convert.call_args_list)

    def test_converted_matrices_freed_before_the_run(self, tmp_path):
        # the rules check each converted matrix and keep none of them; the
        # config keeps the float arrays read from the text
        import weakref
        from adiaframe import cli

        refs, seen, convert_, run_ = [], [], cli._complex_matrix, cli.run_scenario

        def convert(*args):
            mat = convert_(*args)
            refs.append(weakref.ref(mat))
            return mat

        def run(cfg, *args):
            seen.append((len(refs), sum(ref() is not None for ref in refs), cfg))
            return run_(cfg, *args)

        path = self.write(tmp_path, kubo_config())
        with mock.patch("adiaframe.cli._complex_matrix", convert), \
                mock.patch("adiaframe.cli.run_scenario", run):
            assert main(["--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        (converted, alive, cfg), = seen
        assert converted == 3 and alive == 0
        terms = cfg["family"]["terms"]
        assert [sorted(t) for t in terms] == [["exponents", "matrix"]] * 3
        assert all(t["matrix"].dtype == float and t["matrix"].shape == (2, 2, 2) for t in terms)
        assert all(isinstance(p, int) for t in terms for p in t["exponents"])
        # the digest of the lists equals the digest of the arrays
        report = json.loads((tmp_path / "report.json").read_text())
        with open(path) as fh:
            assert report["config_sha256"] == _config_digest(parse_config(fh.read()))

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("content, reason", [
        (json.dumps(kubo_config()).encode(), None),
        (b'{"kind": ', "invalid JSON"),
        (json.dumps(dict(kubo_config(), family={
            "coords": 2, "dim": 2,
            "terms": [{"exponents": [0, 0], "matrix": mat([[0.0, 1.0], [0.0, 0.0]])}]})).encode(),
         "must be Hermitian"),
        (b"\xff\xfe{", "not UTF-8"),
        (None, "FileNotFoundError"),
    ], ids=["success", "invalid_json", "non_hermitian", "non_utf8", "missing_file"])
    def test_collector_state_restored(self, tmp_path, capsys, collector, content, reason,
                                      enabled):
        # main leaves the cyclic garbage collector as it found it
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content)
        (gc.enable if enabled else gc.disable)()
        rc = main(["--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert gc.isenabled() is enabled
        if reason is None:
            assert rc == 0
        else:
            payload = json.loads(capsys.readouterr().out)
            assert rc == 2 and reason in f"{payload['error']}: {payload['message']}"

    def test_memory_error_exit_two(self, tmp_path, capsys):
        # a size inside int64 can still be more than the machine holds
        with mock.patch("adiaframe.cli.run_scenario",
                        side_effect=MemoryError("Unable to allocate")):
            rc = main(["--config", self.write(tmp_path, thermo_config()), "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().out) == {"error": "MemoryError",
                                                       "message": "Unable to allocate"}

    @pytest.mark.parametrize("content", [b'{"kind": "\xff"}', b"\xff\xfe{"])
    def test_non_utf8_config_exit_two(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("config is not UTF-8 JSON text")

    def test_utf16_config_reads_as_parse_config_reads_bytes(self, tmp_path, capsys):
        # main hands the file's bytes to the parser, which decodes them as
        # json.loads decodes bytes
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps(sg_config()).encode("utf-16"))
        assert main(["--config", str(path), "--out", str(tmp_path / "a"), "--quiet"]) == 0
        assert main(["--config", self.write(tmp_path, sg_config()),
                     "--out", str(tmp_path / "b"), "--quiet"]) == 0
        assert ((tmp_path / "a" / "report.json").read_bytes()
                == (tmp_path / "b" / "report.json").read_bytes())

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

    def test_strong_friction_closes_the_branch_ledgers(self, tmp_path, capsys):
        # at gamma = 1 only a second-order velocity-Verlet step closes E
        # against the friction heat within 1e-7; a first-order one is off by 6e-6
        cfg = friction_config()
        cfg["friction"]["constant"] = [[1.0]]
        rc = main(["--config", self.write(tmp_path, cfg), "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        closures = [c for c in report["checks"] if c["name"].startswith("branch_energy_closure")]
        assert len(closures) == 2 and all(c["passed"] for c in closures)

    def test_amplitudes_within_norm_tolerance_run(self, tmp_path):
        cfg = {"kind": "stern_gerlach",
               "stern_gerlach": {"amplitudes": [[1.00000000001, 0.0], [0.0, 0.0]]}}
        rc = main(["--config", self.write(tmp_path, cfg), "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"]
        assert report["summary"]["weights"] == [1.00000000001 ** 2]

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

    def test_negative_seed_flag_exit_two(self, tmp_path, capsys):
        rc = main(["--config", self.write(tmp_path, sg_config()),
                   "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("config field 'seed': ")
        assert not (tmp_path / "out").exists()

    def test_non_finite_value_exit_two(self, tmp_path, capsys):
        cfg = kubo_config()
        cfg["kubo"]["beta"] = float("nan")
        rc = main(["--config", self.write(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("config field 'kubo.beta': ")
        assert not (tmp_path / "out").exists()

    def test_friction_that_feeds_energy_exit_two(self, tmp_path, capsys):
        cfg = friction_config()
        cfg["friction"]["constant"] = [[-1.0]]
        rc = main(["--config", self.write(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("config field 'friction.constant': ")
        assert "not dissipative" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        rc = main(["--config", self.write(tmp_path, sg_config()),
                   "--out", str(tmp_path), "--seed", "7", "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seed"] == 7
