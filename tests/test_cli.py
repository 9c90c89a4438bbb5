"""Tests for the command-line interface: configuration parsing, exit codes,
output artifacts, and determinism."""

import json

import pytest

from cryomech.cli import main, parse_config
from cryomech.errors import ConfigError


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


TELEPORT_CFG = """\
scenario = teleport-motional
alpha = 0.6
beta = 0.8
"""


class TestParseConfig:
    def test_basic_parse(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, """
# comment line
scenario = cool          # trailing comment
g = 1.0
kappa = 20
gamma_m = 0.05
n_bar = 3
n_init = 3
eliminated = true
"""))
        assert cfg["scenario"] == "cool"
        assert cfg["kappa"] == 20 and isinstance(cfg["kappa"], int)
        assert cfg["eliminated"] is True

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_missing_scenario(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(write_cfg(tmp_path, "g = 1.0\n"))

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config(write_cfg(tmp_path, "scenario = frobnicate\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write_cfg(tmp_path, TELEPORT_CFG + "alpha = 0.5\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(write_cfg(tmp_path, TELEPORT_CFG + "zeta = 1\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(write_cfg(tmp_path, "scenario = teleport-motional\nalpha = 1\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(write_cfg(tmp_path, "scenario teleport-motional\n"))


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "scenario = frobnicate\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_truncation_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, TELEPORT_CFG)
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "--truncation", "a_m"]) == 2
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "--truncation", "a_m=1"]) == 2

    def test_bad_jobs_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, TELEPORT_CFG)
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "--seed", "1", "--jobs", "0"]) == 2

    def test_precondition_exit_3(self, tmp_path, capsys):
        # spin-phonon coupling too strong for the dispersive readout model
        path = write_cfg(tmp_path, """
scenario = esr-scan
omega_m = 1.0
lam = 0.5
gamma_m = 0.01
sweep = Delta_e
start = -1.0
stop = 1.0
points = 3
""")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        assert "precondition" in capsys.readouterr().err

    def test_success_exit_0(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TELEPORT_CFG)
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "final fidelity" in out


class TestTeleportConfig:
    def test_forced_branch_00(self, tmp_path):
        path = write_cfg(tmp_path, TELEPORT_CFG + "force_branch = 00\n")
        assert parse_config(path)["force_branch"] == "00"
        out_dir = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "teleport-motional.json").read_text())
        assert doc["measurement_record"] == [0, 0]

    @pytest.mark.parametrize("extra", [
        "force_branch = 22\n",
        "force_branch = ab\nresource_damping = 0.05\n",
        "resource_damping = -0.1\n",
    ])
    def test_invalid_motional_input_exit_2(self, tmp_path, capsys, extra):
        path = write_cfg(tmp_path, TELEPORT_CFG + extra)
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unnormalized_amplitudes_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, "scenario = teleport-motional\nalpha = 1\nbeta = 1\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2

    def test_negative_spin_damping_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, "scenario = teleport-spin\nalpha = 0.6\nbeta = 0.8\n"
                                   "lambda_rate = 1\ngamma_prime = -0.01\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2


COOL_CFG = """\
scenario = cool
g = 1.0
kappa = 20
gamma_m = 0.05
n_bar = 1.0
n_init = 1.0
eliminated = true
"""

ESR_SCAN_CFG = """\
scenario = esr-scan
omega_m = 1.0
lam = 0.05
gamma_m = 0.01
start = -1.0
stop = 1.0
"""


class TestMalformedValues:
    """A value of the wrong type or range is a configuration error (exit 2),
    never a traceback."""

    @pytest.mark.parametrize("text", [
        "scenario = teleport-spin\nalpha = 0.6\nbeta = 0.8\nlambda_rate = abc\n",
        "scenario = teleport-spin\nalpha = 0.6\nbeta = 0.8\nlambda_rate = 1\n"
        "phonon_dim = 1\n",
        ESR_SCAN_CFG + "sweep = Delta_e\npoints = x\n",
        ESR_SCAN_CFG + "sweep = bogus\npoints = 3\n",
        COOL_CFG + "method = bogus\n",
        COOL_CFG + "num_samples = 1\n",
    ], ids=["real", "dim-minimum", "integer", "sweep", "method", "num-samples"])
    def test_exit_2(self, tmp_path, capsys, text):
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestOutputs:
    def test_json_report_written(self, tmp_path):
        path = write_cfg(tmp_path, TELEPORT_CFG)
        out_dir = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out_dir),
                     "--seed", "3"]) == 0
        doc = json.loads((out_dir / "teleport-motional.json").read_text())
        assert doc["scenario"] == "teleport-motional"
        assert doc["final_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert doc["seed"] == 3

    def test_deterministic_given_seed(self, tmp_path):
        path = write_cfg(tmp_path, TELEPORT_CFG)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        for d in (d1, d2):
            assert main(["--config", str(path), "--out", str(d),
                         "--seed", "42"]) == 0
        b1 = (d1 / "teleport-motional.json").read_bytes()
        b2 = (d2 / "teleport-motional.json").read_bytes()
        assert b1 == b2

    def test_csv_format(self, tmp_path):
        path = write_cfg(tmp_path, """
scenario = cool
g = 1.0
kappa = 20
gamma_m = 0.05
n_bar = 1.0
n_init = 1.0
omega_m = 50
dim_m = 8
num_samples = 6
""")
        out_dir = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out_dir),
                     "--format", "both"]) == 0
        csv_lines = (out_dir / "cool.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "time,n_m"
        assert len(csv_lines) == 7
        doc = json.loads((out_dir / "cool.json").read_text())
        assert doc["details"]["n_final"] < 1.0

    def test_truncation_override(self, tmp_path):
        path = write_cfg(tmp_path, """
scenario = cool
g = 1.0
kappa = 20
gamma_m = 0.05
n_bar = 1.0
n_init = 1.0
omega_m = 50
num_samples = 6
eliminated = true
""")
        out_dir = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out_dir),
                     "--truncation", "a_m=6"]) == 0
        doc = json.loads((out_dir / "cool.json").read_text())
        assert doc["details"]["dims"]["a_m"] == 6


class TestVerifyAllScenario:
    def test_exit_0_and_report(self, tmp_path):
        path = write_cfg(tmp_path, "scenario = verify-all\ninstances = 3\n")
        out_dir = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out_dir),
                     "--seed", "7"]) == 0
        doc = json.loads((out_dir / "verify-all.json").read_text())
        assert doc["all_passed"] is True
        assert all(r["pass"] for r in doc["reports"])


class TestParamsScenario:
    def test_derived_table(self, tmp_path):
        path = write_cfg(tmp_path, """
scenario = params
omega_m = 6.2831853e7        # 2*pi*10 MHz
M_mem = 4.8e-14
T = 0.01
m_bio = 9.6e-16
G_m = 1.0e7
""")
        out_dir = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "params.json").read_text())
        assert doc["x0"] == pytest.approx(4.2e-15, rel=0.01)
        assert doc["n_bar"] == pytest.approx(20.0, rel=0.05)
        assert doc["x0_prime"] == pytest.approx(2 * doc["x0"], rel=1e-12)
        assert doc["lam_rad_per_s"] == pytest.approx(1.48e4, rel=0.01)
        assert doc["mass_ratio"] == pytest.approx(0.02)


class TestEsrScenario:
    ESR_CFG = """
scenario = esr-scan
omega_m = 1.0
lam = 0.05
gamma_m = 0.01
sweep = Delta_e
start = -1.2
stop = 1.2
points = 25
Omega_d_prime = 0.6
spin_decay = 0.005
spin_dephasing = 0.002
mech_dim = 6
"""

    def test_scan_runs_and_reports_peaks(self, tmp_path, capsys):
        path = write_cfg(tmp_path, self.ESR_CFG)
        out_dir = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out_dir)]) == 0
        assert "peaks" in capsys.readouterr().out
        doc = json.loads((out_dir / "esr-scan.json").read_text())
        assert len(doc["values"]) == 25
        assert len(doc["response"]) == 25

    def test_parallel_matches_serial(self, tmp_path):
        path = write_cfg(tmp_path, self.ESR_CFG)
        d1, d2 = tmp_path / "serial", tmp_path / "par"
        assert main(["--config", str(path), "--out", str(d1)]) == 0
        assert main(["--config", str(path), "--out", str(d2),
                     "--jobs", "2"]) == 0
        doc1 = json.loads((d1 / "esr-scan.json").read_text())
        doc2 = json.loads((d2 / "esr-scan.json").read_text())
        assert doc1["response"] == pytest.approx(doc2["response"], abs=1e-12)
        assert doc1["peaks"] == pytest.approx(doc2["peaks"])
