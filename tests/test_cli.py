"""Command-line interface: config validation, subcommands, exit codes and
reproducible artifacts.  Everything runs in-process through main()."""

import json
import os
import re
import subprocess
import sys

import pytest

from pmpstab import cli
from pmpstab.cli import ConfigError, load_config, main
from pmpstab.manifold import export_manifold_csv


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


class TestExitCodes:
    def test_invalid_input_exits_one(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["manifold"]["bogus"] = 1
        rc = main(["synthesize", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "law.csv")])
        assert rc == 1
        assert "invalid-input" in capsys.readouterr().err

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


class TestEntryPoint:
    def test_console_script_shows_usage(self):
        # the child imports the same pmpstab as the suite, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c",
                               "from pmpstab.cli import main; main(['--help'])"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "synthesize" in proc.stdout
        assert "observer" in proc.stdout
