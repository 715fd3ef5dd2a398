"""Command-line interface: config validation, subcommands, exit codes and
reproducible artifacts.  Everything runs in-process through main()."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import pytest

from pmpstab import cli
from pmpstab.cli import ConfigError, load_config, main
from pmpstab.manifold import export_manifold_csv
from pmpstab.observer import select_gains


BASE_CONFIG = {
    "system": {"name": "di", "n": 2, "drift": ["x2", "0"],
               "columns": [["0", "1"]]},
    "control": {"k": 1.0, "C": 1.0},
    "lyapunov": {"V": "(x1^2 + x2^2)/2", "epsilon": 0.5},
    "inner": {"w": ["-x1 - x2*(1 - x1^2)/2"]},
    "manifold": {"N": 64, "tau_max": 10.0},
    "simulation": {"t_max": 60.0, "x0": [2.0, 1.0],
                   "grid": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0],
                            "res": 3}},
}

PEND_CONFIG = {
    "system": {"name": "pendulum", "n": 2, "drift": ["x2", "-sin(x1)"],
               "columns": [["0", "1"]]},
    "control": {"k": 1.0, "C": 1.0},
    "lyapunov": {"V": "(x1^2 + x2^2)/2", "epsilon": 0.32},
    "inner": {"w": ["sin(x1) - x1 - x2"]},
    "manifold": {"N": 64, "tau_max": 12.0},
    "simulation": {"t_max": 100.0, "x0": [2.0, 0.0]},
    "observer": {"L": 1.0, "x0": [2.0, 0.0], "z0": [2.0, 1.0],
                 "t_max": 100.0},
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def assert_rejected_before_build(block, key, value, tmp_path, capsys,
                                 monkeypatch):
    """`simulate` exits 1 on config.block.key = value, naming the key,
    before any manifold is built."""
    def no_build(*args, **kwargs):
        raise AssertionError("the manifold was built")
    monkeypatch.setattr(cli, "build_manifold", no_build)
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.setdefault(block, {})[key] = value
    rc = main(["simulate", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: invalid-input: config.{block}.{key} must be a positive "
        "number\n")


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path, BASE_CONFIG)


class TestLoadConfig:
    def test_defaults_are_filled_in(self, tmp_path):
        cfg = {k: v for k, v in BASE_CONFIG.items() if k != "manifold"}
        loaded = load_config(write_config(tmp_path, cfg))
        assert loaded["manifold"]["N"] == 256
        assert loaded["manifold"]["tau_max"] == 10.0
        assert loaded["manifold"]["budget"] == 1e6
        assert loaded["simulation"]["convergence_radius"] == 0.01
        assert loaded["observer"]["L"] == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["manifold"]["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, cfg))

    def test_missing_required_field_rejected(self, tmp_path):
        cfg = {k: v for k, v in BASE_CONFIG.items() if k != "lyapunov"}
        with pytest.raises(ConfigError, match="lyapunov.V is required"):
            load_config(write_config(tmp_path, cfg))

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.json"))


def _no_build(*args, **kwargs):
    raise AssertionError("build_manifold was called")


class TestSupportedSystems:
    @pytest.mark.parametrize("block, key, value, detail", [
        ("system", "general", ["x2", "u1"], "unknown key config.system.general"),
        ("control", "values", [[-1.0], [1.0]],
         "unknown key config.control.values"),
        ("system", "columns", [["0", "1"], ["1", "0"]],
         "the supported form is control-affine, single-input, "
         "box-controlled"),
    ], ids=["general", "values", "two-columns"])
    def test_rejected_before_the_manifold_is_built(self, block, key, value,
                                                   detail, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_manifold", _no_build)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg[block][key] = value
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "law.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert detail in err

    @pytest.mark.parametrize("block, key, value, detail", [
        ("system", "n", "2", "config.system.n must be a positive integer"),
        ("system", "drift", [1, 2],
         "config.system.drift must be a list of strings"),
        ("control", "k", "1", "config.control.k must be a number"),
        ("manifold", "N", 64.5, "config.manifold.N must be a positive integer"),
        ("manifold", "N", "64", "config.manifold.N must be a positive integer"),
        ("manifold", "tau_max", "3", "config.manifold.tau_max must be a number"),
        ("lyapunov", "epsilon", "0.5",
         "config.lyapunov.epsilon must be a number"),
        ("lyapunov", "V", 1, "config.lyapunov.V must be a string"),
        ("inner", "w", "-x1", "config.inner.w must be a list of strings"),
    ], ids=["n-string", "drift-numbers", "k-string", "N-fraction", "N-string",
            "tau_max-string", "epsilon-string", "V-number", "w-string"])
    def test_wrong_value_type_is_one_error_line(self, block, key, value,
                                                detail, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_manifold", _no_build)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg[block][key] = value
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "law.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: invalid-input: {detail}\n"

    def test_missing_inner_law_is_rejected_before_the_build(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_manifold", _no_build)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        del cfg["inner"]
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "law.csv")])
        assert rc == 1
        assert "config.inner.w is required for feedback assembly" in \
            capsys.readouterr().err

    def test_time_dependent_inner_law_is_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["inner"]["w"] = ["-x1 - x2*(1 - x1^2)/2 + 0.5*t"]
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "law.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert "stationary" in err
        assert not (tmp_path / "law.csv").exists()

    def test_number_literal_that_overflows_is_rejected(self, tmp_path,
                                                        capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["system"]["drift"] = ["x2", "x1/1e400"]
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "law.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid-input: number literal '1e400' overflows "
            "(at position 3)\n")
        assert not (tmp_path / "law.csv").exists()

    def test_constant_that_overflows_in_a_derivative(self, tmp_path, capsys):
        # 1e308*10 appears only in the derivative of the drift; it is
        # kept as a product, so no compiled function names a bare inf
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["system"]["drift"] = ["x2", "x1*1e308*10"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "law.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: numerical:")
        assert "inf" not in err
        # the flow is inf at the seeds: the error names it and the branch,
        # also for the seeds on the switching surface (psi = 0 and pi),
        # before ad_f b or the Hamiltonian is formed from inf
        assert "64 of 64 branches failed" in err
        assert "branch 0: the right-hand side is not finite at t = 0.0" in err
        assert "branch 1: the right-hand side is not finite at t = " in err
        assert "division by zero" not in err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_time_dependent_lyapunov_function_is_rejected(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_manifold", _no_build)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["lyapunov"]["V"] = "(x1^2 + x2^2)/2 + 0*t"
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "law.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert "stationary" in err


class TestExitCodes:
    def test_invalid_input_exits_one(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["manifold"]["bogus"] = 1
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "law.csv")])
        assert rc == 1
        assert "invalid-input" in capsys.readouterr().err

    def test_nonpositive_tau_max_exits_one(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["manifold"]["tau_max"] = 0.0
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "law.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert "tau_max must be positive" in err

    @pytest.mark.parametrize("key, value", [
        ("record_dt", 0.0), ("convergence_radius", -1.0),
        ("dwell", float("nan")), ("rel_tol", 0), ("abs_tol", -1e-12),
        ("blowup", 0.0)])
    def test_nonpositive_simulation_setting_exits_one(self, key, value,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        assert_rejected_before_build("simulation", key, value, tmp_path,
                                     capsys, monkeypatch)

    def test_nonpositive_observer_record_dt_exits_one(self, tmp_path, capsys,
                                                      monkeypatch):
        assert_rejected_before_build("observer", "record_dt", -0.01,
                                     tmp_path, capsys, monkeypatch)

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"] = {"t_max": 60.0, "x0": [3.0, 3.0], "blowup": 2.0}
        rc = main(["simulate", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "numerical" in capsys.readouterr().err


class TestSynthesize:
    def test_writes_law_and_manifold(self, config_path, tmp_path, capsys):
        law_csv = tmp_path / "law.csv"
        man_csv = tmp_path / "man.csv"
        rc = main(["synthesize", "--config", config_path,
                   "--out", str(law_csv), "--manifold-out", str(man_csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "law: epsilon=0.5 k=1 C=1" in out
        assert law_csv.read_text().startswith("# inner1: ")
        assert man_csv.read_text().splitlines()[0] == \
            "psi,tau,x1,x2,nu1,nu2,u,W,S,event_flag"

    @pytest.mark.parametrize("inner", [BASE_CONFIG["inner"]["w"][0],
                                       "-x1\n - x2*(1 - x1^2)/2"],
                             ids=["one-line", "two-line"])
    def test_manifold_csv_is_the_table_of_the_law_csv(self, inner, tmp_path,
                                                       monkeypatch, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["inner"]["w"] = [inner]
        config_path = write_config(tmp_path, cfg)
        laws = []
        export = cli.export_law_csv

        def recording_export(law, path):
            laws.append(law)
            export(law, path)

        monkeypatch.setattr(cli, "export_law_csv", recording_export)
        law_csv, man_csv = tmp_path / "law.csv", tmp_path / "man.csv"
        rc = main(["synthesize", "--config", config_path,
                   "--out", str(law_csv), "--manifold-out", str(man_csv)])
        assert rc == 0 and len(laws) == 1
        ref_csv = tmp_path / "ref.csv"
        export_manifold_csv(laws[0].manifold, str(ref_csv))
        assert man_csv.read_bytes() == ref_csv.read_bytes()
        law_bytes = law_csv.read_bytes()
        assert law_bytes[law_bytes.index(b"psi,"):] == man_csv.read_bytes()
        header = law_bytes[:law_bytes.index(b"psi,")].splitlines()
        assert all(line.startswith(b"#") for line in header)
        assert main(["plot", "--kind", "manifold", "--in", str(law_csv),
                     "--out", str(tmp_path / "law.svg")]) == 0
        assert re.search(r"\nmanifold: branches=64 samples=\d+ switches=\d+ "
                         r"dropped=0\n", capsys.readouterr().out)

    @pytest.mark.parametrize("command", [["synthesize"],
                                         ["simulate", "--grid"],
                                         ["switching-curve"],
                                         ["illuminate"]],
                             ids=["synthesize", "simulate-grid",
                                  "switching-curve", "illuminate"])
    def test_artifacts_are_byte_identical_across_runs(self, command,
                                                      config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(command + ["--config", config_path, "--out", str(a)]) == 0
        assert main(command + ["--config", config_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_single_run_converges(self, config_path, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        rc = main(["simulate", "--config", config_path, "--x0", "3,3",
                   "--out", str(out_csv)])
        assert rc == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("trajectory:")][0]
        assert "converged=true" in line
        assert out_csv.read_text().splitlines()[0] == "t,x1,x2,u,event_flag"

    def test_grid_sweep_reports_every_start(self, config_path, tmp_path,
                                            capsys):
        out_csv = tmp_path / "grid.csv"
        rc = main(["simulate", "--config", config_path, "--grid",
                   "--out", str(out_csv)])
        assert rc == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("grid:")][0]
        assert "points=9" in line
        assert "converged=9" in line
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "x1,x2,converged,t_converged,max_abs_u"
        assert len(rows) == 10


    def test_unconverged_grid_is_not_reported_as_a_blowup(
            self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"]["t_max"] = 2.0
        out_csv = tmp_path / "grid.csv"
        rc = main(["simulate", "--config", write_config(tmp_path, cfg),
                   "--grid", "--out", str(out_csv)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: numerical: 8 of 9 starts did not converge by t_max=2; "
            "first at x0=(-2.0, -2.0)\n")
        assert len(out_csv.read_text().splitlines()) == 10


class TestSwitchingCurve:
    def test_export_and_reference_comparison(self, config_path, tmp_path,
                                             capsys):
        out_csv = tmp_path / "curve.csv"
        rc = main(["switching-curve", "--config", config_path,
                   "--out", str(out_csv), "--compare"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "families=2" in out
        cmp_line = [l for l in out.splitlines()
                    if l.startswith("reference-comparison:")][0]
        deviation = float(cmp_line.rsplit("=", 1)[1])
        assert deviation <= 1e-9
        assert out_csv.read_text().splitlines()[0] == "family,psi,tau,x1,x2"


class TestIlluminate:
    def test_grid_classification(self, config_path, tmp_path, capsys):
        out_csv = tmp_path / "illum.csv"
        rc = main(["illuminate", "--config", config_path,
                   "--out", str(out_csv)])
        assert rc == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("illumination:")][0]
        assert "inner=" in line and "dark=" in line
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "x1,x2,status"
        statuses = {r.rsplit(",", 1)[1] for r in rows[1:]}
        assert statuses <= {"inner", "illuminated", "dark"}

    def test_grid_block_is_required(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        del cfg["simulation"]["grid"]
        rc = main(["illuminate", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "i.csv")])
        assert rc == 1
        assert "grid is required" in capsys.readouterr().err


class TestObserver:
    def test_output_feedback_run(self, tmp_path, capsys):
        out_csv = tmp_path / "err.csv"
        rc = main(["observer", "--config", write_config(tmp_path, PEND_CONFIG),
                   "--out", str(out_csv)])
        assert rc == 0
        out = capsys.readouterr().out
        gains = [l for l in out.splitlines() if l.startswith("gains:")][0]
        assert "beta1=4" in gains and "beta2=4" in gains
        summary = [l for l in out.splitlines() if l.startswith("observer:")][0]
        assert "converged=true" in summary
        assert out_csv.read_text().splitlines()[0] == "t,e1,e2,V_e,W"

    def test_explicit_gains_are_used_when_all_three_are_set(self, tmp_path,
                                                            capsys):
        cfg = json.loads(json.dumps(PEND_CONFIG))
        cfg["observer"].update(delta=0.4, beta1=5.0, beta2=8.0, t_max=1.0)
        rc = main(["observer", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "err.csv")])
        assert rc == 0
        gains = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("gains:")]
        assert gains == ["gains: delta=0.4 beta1=5 beta2=8 L=1"]

    def test_two_explicit_gains_are_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(PEND_CONFIG))
        cfg["observer"].update(delta=0.4, beta1=5.0, t_max=1.0)
        rc = main(["observer", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "err.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert "all together or not at all" in err

    def test_uncertified_explicit_gains_are_rejected(self, tmp_path, capsys):
        # 2 beta2 - L / delta^2 = 12 - 16 = -4 < margin 0.1
        cfg = json.loads(json.dumps(PEND_CONFIG))
        cfg["observer"].update(delta=0.25, beta1=5.0, beta2=6.0, t_max=1.0)
        rc = main(["observer", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "err.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:")
        assert "decay margins -4 and 0.7042, below margin 0.1" in err
        assert not (tmp_path / "err.csv").exists()


class TestPlot:
    def test_each_kind_renders_svg(self, config_path, tmp_path):
        law_csv = tmp_path / "law.csv"
        man_csv = tmp_path / "man.csv"
        traj_csv = tmp_path / "traj.csv"
        curve_csv = tmp_path / "curve.csv"
        illum_csv = tmp_path / "illum.csv"
        assert main(["synthesize", "--config", config_path, "--out",
                     str(law_csv), "--manifold-out", str(man_csv)]) == 0
        assert main(["simulate", "--config", config_path, "--out",
                     str(traj_csv)]) == 0
        assert main(["switching-curve", "--config", config_path, "--out",
                     str(curve_csv)]) == 0
        assert main(["illuminate", "--config", config_path, "--out",
                     str(illum_csv)]) == 0
        for kind, src in [("manifold", man_csv), ("trajectory", traj_csv),
                          ("curve", curve_csv), ("illumination", illum_csv)]:
            dst = tmp_path / f"{kind}.svg"
            assert main(["plot", "--kind", kind, "--in", str(src),
                         "--out", str(dst)]) == 0
            assert dst.read_text().startswith("<svg")


# SHA-256 of the README quick-start outputs (the grid has its own test) on the
# shipped configs; they change with any change to the numerics, and with a
# numpy or BLAS that rounds differently
QUICK_START_SHA256 = {
    "law.csv": "1d29c3188eb15ca3babd7ad3007686a7ba960faabbdcfbe317e37958d40318ce",
    "manifold.csv": "f86c8fc609e10b232835719e2f1fb0ad3c5cd33cff0e553f14009e0c50c162c4",
    "traj.csv": "b7f59ee63a5324c353c7e42779c801e2d0c65bf333200a195b24ad84c148a3a9",
    "curve.csv": "ba26c8ef8c1dd7a48303191d96534d4d12517412ff2728fddac1e14b66ef2d61",
    "cover.csv": "34b65d5c7a1b3e7204b676d29f06469da41254034bed89e39a85f39e6b7e2d58",
    "errlog.csv": "95869b86a3b0acdbed268235b96c544e7dda52f9a2c87617354d09c734ea5635",
    "traj.svg": "44f63b1c20670132a9ce09b6c1bfc533d801d4b5a10e194a504025ec7383d53b",
}


class TestQuickStart:
    def test_outputs_match_their_pinned_hashes(self, tmp_path):
        configs = os.path.join(os.path.dirname(__file__), "..", "configs")
        di = os.path.join(configs, "double_integrator.json")
        pend = os.path.join(configs, "pendulum.json")
        out = {name: str(tmp_path / name) for name in QUICK_START_SHA256}
        for argv in (
                ["synthesize", "--config", di, "--out", out["law.csv"],
                 "--manifold-out", out["manifold.csv"]],
                ["simulate", "--config", di, "--x0", "3,3",
                 "--out", out["traj.csv"]],
                ["switching-curve", "--config", di, "--out", out["curve.csv"],
                 "--compare"],
                ["illuminate", "--config", di, "--out", out["cover.csv"]],
                ["observer", "--config", pend, "--out", out["errlog.csv"]],
                ["plot", "--kind", "trajectory", "--in", out["traj.csv"],
                 "--out", out["traj.svg"]]):
            assert main(argv) == 0, argv
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest() for name in QUICK_START_SHA256}
        assert digests == QUICK_START_SHA256

    def test_double_integrator_grid_matches_its_pinned_hash(self, tmp_path):
        # every verdict of the 441 starts of the shipped grid, with the
        # text of every value
        di = os.path.join(os.path.dirname(__file__), "..", "configs",
                          "double_integrator.json")
        out = tmp_path / "grid.csv"
        assert main(["simulate", "--config", di, "--grid",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8f7f2434a333436a0748144105cd2fadce9ade5b2f82bdfa0574aa2da8e6c069")

    def test_pendulum_law_matches_its_pinned_hash(self, tmp_path):
        # the 54 MB law CSV: every sample of the pendulum manifold and the
        # text of every value
        pend = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "pendulum.json")
        out = tmp_path / "plaw.csv"
        assert main(["synthesize", "--config", pend, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ff888826f6dbb34d52e7332c57c413f9640782bd6440033b18b4025f73d9a637")


def run_child(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports the same pmpstab as
    the suite, installed or not."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)


class TestEntryPoint:
    def test_console_script_shows_usage(self):
        proc = run_child("from pmpstab.cli import main; main(['--help'])")
        assert proc.returncode == 0
        assert "synthesize" in proc.stdout
        assert "observer" in proc.stdout

    def test_import_leaves_out_scipy_optimize_and_integrate(self):
        # the engine carries its own Brent solver and DOP853 tableau
        proc = run_child("import sys, pmpstab.cli; print(sorted(m for m in "
                         "('scipy.optimize', 'scipy.integrate') "
                         "if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
