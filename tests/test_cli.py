"""Tests for the command-line interface: configuration parsing, exit codes,
output artifacts, and determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cryomech
from cryomech.cli import _SCENARIOS, REQUIRED, SCENARIOS, _jsonable, main, parse_config
from cryomech.errors import ConfigError

from basis import WORKLOADS, haar_qubit


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
        # each value is read by its key's type, and absent keys take defaults
        assert cfg["scenario"] == "cool"
        assert cfg["kappa"] == 20.0 and isinstance(cfg["kappa"], float)
        assert cfg["eliminated"] is True
        assert cfg["dim_m"] == 12 and cfg["duration"] is None
        branch = parse_config(write_cfg(tmp_path, TELEPORT_CFG + "force_branch = 00\n"))
        assert branch["force_branch"] == "00"
        assert branch["alpha"] == 0.6 + 0j and isinstance(branch["alpha"], complex)

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

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.binary(),
        st.text().map(str.encode),
        st.builds(lambda name, rest: f"scenario = {name}\n{rest}".encode(),
                  st.sampled_from(SCENARIOS), st.text()),
    ))
    def test_arbitrary_contents(self, tmp_path_factory, contents):
        # any file either parses or is a configuration error, never a traceback
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_bytes(contents)
        try:
            cfg = parse_config(path)
        except ConfigError:
            return
        assert isinstance(cfg, dict)


PARAMS_CFG = """\
scenario = params
omega_m = 6.2831853e7
M_mem = 4.8e-14
T = 0.01
"""


_INF_H = "model Hamiltonian has entries that are not finite"


class TestExitCodes:
    def test_out_names_a_file_exit_2(self, tmp_path, capsys, monkeypatch):
        # refused before the scenario runs, and the file is left as it was
        monkeypatch.setattr(cryomech.protocols, "teleport_motional", None)
        path = write_cfg(tmp_path, TELEPORT_CFG)
        report = tmp_path / "report"
        report.write_text("kept\n")
        assert main(["--config", str(path), "--out", str(report)]) == 2
        assert "not a directory" in capsys.readouterr().err
        assert report.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report", "run.cfg"]

    @pytest.mark.parametrize("where", ["under-a-file", "report-is-a-directory"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, where):
        path = write_cfg(tmp_path, TELEPORT_CFG)
        (tmp_path / "file").write_text("")
        out = {"under-a-file": tmp_path / "file" / "out",
               "report-is-a-directory": tmp_path / "out"}[where]
        if where == "report-is-a-directory":
            (out / "teleport-motional.json").mkdir(parents=True)
        assert main(["--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report") and "Traceback" not in err

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "scenario = frobnicate\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("contents", [
        b"scenario=cool\n\xff\xfe=1\n",
        (PARAMS_CFG + "Omega_d = 1e7\nDelta = 0\nkappa = 0\n").encode(),
        (PARAMS_CFG + "G_pull = 1e16\ng0 = 1.0\n").encode(),
        b"scenario = cool\ng = 1e300\nkappa = 1e-300\ngamma_m = 0.05\nn_bar = 1\nn_init = 1\n",
        b"scenario = cool\ng = 1e200\nkappa = 1e199\ngamma_m = 0.05\nn_bar = 1\nn_init = 1\n",
        b"scenario = superpose\ng = 1e300\nkappa = 1e-300\ngamma_m = 0.001\nn_bar = 0.01\n",
        # g^2 / kappa = inf by division, which raises nothing
        b"scenario = cool\ng = 1\nkappa = 5e-324\ngamma_m = 0.05\nn_bar = 3\nn_init = 3\n",
        b"scenario = superpose\ng = 1\nkappa = 5e-324\ngamma_m = 0.05\nn_bar = 0.01\n",
        (PARAMS_CFG + "kappa = 5e-324\ngamma_m = 0.05\nOmega_d = 1\nDelta = 1\n"
         "G_pull = 1e17\n").encode(),
        # 2 M_mem omega_m and hbar omega_m / k_B T underflow to 0 and are divided by
        b"scenario = params\nomega_m = 1e-300\nM_mem = 1e-300\nT = 1\n",
        b"scenario = params\nomega_m = 5e-324\nM_mem = 1\nT = 1\n",
        # m_bio / M_mem and the spin-phonon coupling overflow
        b"scenario = params\nomega_m = 1e-10\nM_mem = 1e-300\nT = 1\nm_bio = 1e300\n"
        b"G_m = 1e308\n",
        # x0 underflows to 0, so the spin-phonon coupling has no value
        b"scenario = params\nomega_m = 1\nM_mem = 1e300\nT = 1\nm_bio = 1\nG_m = 1\n",
        # |alpha|^2 overflows, which Python's float power raises on
        b"scenario = teleport-motional\nalpha = 1e200\nbeta = 0\n",
    ], ids=["not-utf8", "params-undefined-alpha", "params-inconsistent-g0",
            "cool-overflow-kappa-prime", "cool-overflow-g-squared", "superpose-overflow",
            "cool-infinite-kappa-prime", "superpose-infinite-kappa-prime",
            "params-infinite-kappa-prime", "params-underflow-x0", "params-underflow-n-bar",
            "params-infinite-mass-ratio", "params-underflow-x0-coupling",
            "teleport-overflowing-amplitude"])
    def test_unusable_config_exit_2(self, tmp_path, capsys, contents):
        path = tmp_path / "run.cfg"
        path.write_bytes(contents)
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_truncation_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, TELEPORT_CFG)
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "--truncation", "a_m"]) == 2
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "--truncation", "a_m=1"]) == 2
        # only the two mode labels exist; a typo must not run the default size
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "--truncation", "bogus=7"]) == 2
        # nor may a label the scenario does not read
        for text, label in ((TELEPORT_SPIN_CFG, "a"),
                            (ESR_SCAN_CFG + "sweep = Delta_e\npoints = 3\n", "a"),
                            (TELEPORT_CFG, "a_m"),
                            ("scenario = verify-all\ninstances = 1\n", "a_m"),
                            (PARAMS_CFG, "a")):
            path = write_cfg(tmp_path, text)
            assert main(["--config", str(path), "--out", str(tmp_path),
                         "--truncation", f"{label}=7"]) == 2, text

    def test_bad_jobs_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, TELEPORT_CFG)
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "--seed", "1", "--jobs", "0"]) == 2

    @pytest.mark.parametrize("text", [
        TELEPORT_CFG, "scenario = verify-all\ninstances = 1\n",
        "scenario = teleport-spin\nalpha = 0.6\nbeta = 0.8\nlambda_rate = 1\n",
    ], ids=["teleport-motional", "verify-all", "teleport-spin"])
    def test_negative_seed_exit_2_before_any_scenario(self, tmp_path, capsys, monkeypatch,
                                                      text):
        # numpy's generator refused it with a traceback (exit 1)
        for name in _SCENARIOS:
            monkeypatch.setitem(_SCENARIOS, name, (None, _SCENARIOS[name][1]))
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path), "--seed", "-1"]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

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

    def test_degenerate_steady_state_exit_3(self, tmp_path, capsys):
        # with no spin rates and a vanishing mechanical rate the steady state
        # is not unique (condition estimate ~1e19)
        path = write_cfg(tmp_path, ESR_SCAN_CFG.replace("gamma_m = 0.01", "gamma_m = 1e-300")
                         + "sweep = Delta_e\npoints = 5\nOmega_d_prime = 0.6\nmech_dim = 4\n"
                         "spin_decay = 0\nspin_dephasing = 0\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "steady state is not unique" in err and "Traceback" not in err

    def test_undamped_cool_exit_3(self, tmp_path, capsys):
        # no damping to set a default duration from
        path = write_cfg(tmp_path, COOL_CFG.replace("g = 1.0", "g = 0")
                         .replace("gamma_m = 0.05", "gamma_m = 0"))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        assert "undamped" in capsys.readouterr().err

    @pytest.mark.parametrize("rates", ["g = 1\nkappa = 0\n", "g = 5e-324\nkappa = 20\n"],
                             ids=["no-cavity", "kappa-prime-underflows"])
    def test_vanishing_rate_cool_exit_3(self, tmp_path, capsys, rates):
        # the mode relaxes at gamma_m = 5e-324, and 5 / gamma_m is inf; from
        # the vacuum, inf times the block's zero norm was NaN
        path = write_cfg(tmp_path, f"scenario = cool\n{rates}gamma_m = 5e-324\nn_bar = 0\n"
                         "n_init = 0\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        assert "undamped" in capsys.readouterr().err

    def test_elimination_bound_only_for_eliminated_cool(self, tmp_path, capsys):
        # kappa/g = 2 is too slow a cavity to eliminate, but the full model
        # runs (dim_a = 6 holds the cavity's population) and still reports
        # the eliminated target n_bar gamma_m / gamma'
        text = (COOL_CFG.replace("kappa = 20", "kappa = 2").replace("eliminated = true\n", "")
                + "omega_m = 50\ndim_a = 6\n")
        full = write_cfg(tmp_path, text + "eliminated = false\n", "full.cfg")
        assert main(["--config", str(full), "--out", str(tmp_path / "full")]) == 0
        doc = json.loads((tmp_path / "full" / "cool.json").read_text())
        assert doc["details"]["n_target"] == pytest.approx(1.0 * 0.05 / (0.05 + 1.0 / 2.0))
        capsys.readouterr()
        eliminated = write_cfg(tmp_path, text + "eliminated = true\n", "eliminated.cfg")
        assert main(["--config", str(eliminated), "--out", str(tmp_path / "elim")]) == 3
        assert "kappa/g >= 5" in capsys.readouterr().err

    def test_uncooled_superpose_exit_3(self, tmp_path, capsys):
        # without kappa there is no cooling, so the mode sits at the bath's n_bar
        path = write_cfg(tmp_path, SUPERPOSE_CFG.replace("kappa = 0.01", "kappa = 0")
                         .replace("n_bar = 0.01", "n_bar = 5"))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        assert "not cooled" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "scenario = cool\ng = 1e-3\nkappa = 1e6\ngamma_m = 1e-9\nn_bar = 1\nn_init = 1\n"
        "omega_m = 2e6\n",
        "scenario = cool\ng = 1\nkappa = 20\ngamma_m = 0.05\nn_bar = 3\nn_init = 3\n"
        "omega_m = 50\ndim_a = 4\ndim_m = 12\nmethod = auto\nnum_samples = 60\n"
        "duration = 1e12\n",
        "scenario = superpose\ng = 1\nkappa = 1e9\ngamma_m = 1e-3\nn_bar = 0.01\n",
        "scenario = teleport-spin\nalpha = 0.6\nbeta = 0.8\nlambda_rate = 1e-9\n"
        "gamma_prime = 0.01\nn_bar_prime = 0.1\n",
    ], ids=["cool-fast-cavity", "cool-long-duration", "superpose-fast-cavity",
            "teleport-spin-slow-swap"])
    def test_stiff_run_exit_3(self, tmp_path, capsys, text):
        # each lost the trace (up to 6.5e-3) and ended in a traceback; only
        # cool has the duration and eliminated keys, so only cool names them
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "stiff run" in err and "Traceback" not in err
        cool = text.startswith("scenario = cool")
        assert ("duration" in err) == cool and ("eliminated = true" in err) == cool

    def test_overflowing_esr_grid_exit_2(self, tmp_path, capsys):
        # the grid from -1e308 to 1e308 holds nan and inf: numpy warned, and
        # the run exited 3 blaming the model Hamiltonian
        path = write_cfg(tmp_path, ESR_SCAN_CFG.replace("start = -1.0", "start = -1e308")
                         .replace("stop = 1.0", "stop = 1e308") + "sweep = Delta_e\npoints = 3\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not all finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("sweep", ["Delta_e", "Omega_d_prime"])
    def test_swept_esr_key_exit_2(self, tmp_path, capsys, sweep):
        # the scan sets the swept value itself, so a config value for it
        # would be ignored
        path = write_cfg(tmp_path, ESR_SCAN_CFG + f"sweep = {sweep}\npoints = 3\n"
                         f"{sweep} = 0.4\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"remove the {sweep} key" in err

    def test_damped_teleport_spin_forced_branch_exit_2(self, tmp_path, capsys):
        # with gamma_prime > 0 the hop measures no branch to force
        path = write_cfg(tmp_path, TELEPORT_SPIN_CFG + "gamma_prime = 0.01\nforce_branch = 00\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "force_branch" in err

    @pytest.mark.parametrize("text", [
        "scenario = superpose\ng = 5e-324\nkappa = 0\ngamma_m = 0\nn_bar = 0\n",
        "scenario = teleport-spin\nalpha = 0.6\nbeta = 0.8\nlambda_rate = 5e-324\n",
    ], ids=["superpose-half-period", "teleport-spin-swap-time"])
    def test_rate_too_slow_for_a_float_exit_3(self, tmp_path, capsys, text):
        # pi/g and the swap time are inf, which evolve refused as a bare ValueError
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "too slow" in err and "too large for a float" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "scenario = superpose\ng = 1e200\nkappa = 1\ngamma_m = 0\nn_bar = 0\n",
        "scenario = cool\ng = 1e200\nkappa = 1e199\ngamma_m = 0.05\nn_bar = 1\nn_init = 1\n",
    ], ids=["superpose", "cool"])
    def test_overflowing_derived_value_named_exit_2(self, tmp_path, capsys, text):
        # Python's float power raised on g^2, and the message was only its errno
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "derived kappa_prime = inf is not a finite number" in err

    @pytest.mark.parametrize("rates", ["gamma_m = 1e300\nn_bar = 1e300\n", "gamma_m = 1e160\n"],
                             ids=["generator-not-finite", "column-norm-overflows"])
    def test_overflowing_steady_state_rate_exit_3(self, tmp_path, capsys, rates):
        # the bordered generator's scale is not finite; SuperLU then called
        # the factor exactly singular, which read as a steady state that is
        # not unique
        path = write_cfg(tmp_path, ESR_SCAN_CFG.replace("gamma_m = 0.01\n", rates)
                         + "sweep = Delta_e\npoints = 3\nOmega_d_prime = 0.6\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "overflowed" in err and "not unique" not in err and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("scenario = superpose\ng = 1e308\nkappa = 0\ngamma_m = 0\nn_bar = 0\n", _INF_H),
        ("scenario = cool\ng = 1e308\nkappa = 0\ngamma_m = 1\nn_bar = 0\nn_init = 0\n", _INF_H),
        ("scenario = esr-scan\nomega_m = 1e308\nlam = 0.05\ngamma_m = 0.01\nsweep = Delta_e\n"
         "start = -1\nstop = 1\npoints = 3\n", _INF_H),
        ("scenario = teleport-spin\nalpha = 0.6\nbeta = 0.8\nlambda_rate = 1e308\n",
         "too fast: its swap time is too small for a float"),
    ], ids=["superpose", "cool", "esr-scan", "teleport-spin"])
    def test_overflowed_model_exit_3(self, tmp_path, capsys, text, message):
        # a Hamiltonian entry overflowed to inf and read as not hermitian, and
        # the swap time underflowed to a zero duration: both ValueError (exit 1)
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err

    def test_superpose_evolves_only_its_sweep(self, tmp_path, capsys):
        # the sweep passes the stiffness budget at h = pi/(32 g); a second
        # evolution to the refined time, one step of h = 42.7, was refused
        # (exit 3), and the refinement divided by |rho_01| = 0
        path = write_cfg(tmp_path, "scenario = superpose\ng = 0.0715\nkappa = 2041.7\n"
                         "gamma_m = 2041.7\nn_bar = 0\ndim_a = 2\ndim_m = 2\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "superpose.json").read_text())
        assert doc["final_fidelity"] == pytest.approx(0.5, abs=1e-6)

    def test_esr_without_mechanical_frequency_exit_3(self, tmp_path, capsys):
        # the refusal's message divided lam by omega_m = 0
        path = write_cfg(tmp_path, ESR_SCAN_CFG.replace("omega_m = 1.0", "omega_m = 0")
                         + "sweep = Delta_e\npoints = 3\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "lam < omega_m/10" in err and "Traceback" not in err

    def test_zero_probability_forced_branch_exit_2(self, tmp_path, capsys):
        # a fully damped resource leaves branch 10 with probability 0
        path = write_cfg(tmp_path, "scenario = teleport-motional\nalpha = 0.7071067811865476\n"
                         "beta = 0.7071067811865476\nresource_damping = 1\nforce_branch = 10\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: branch 10 has probability 0") and "Traceback" not in err

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

SUPERPOSE_CFG = """\
scenario = superpose
g = 1.0
kappa = 0.01
gamma_m = 0.001
n_bar = 0.01
"""

TELEPORT_SPIN_CFG = """\
scenario = teleport-spin
alpha = 0.6
beta = 0.8
lambda_rate = 1
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
        SUPERPOSE_CFG.replace("g = 1.0", "g = -1"),
        SUPERPOSE_CFG.replace("g = 1.0", "g = 0"),
        COOL_CFG.replace("gamma_m = 0.05", "gamma_m = -0.05"),
        COOL_CFG.replace("n_init = 1.0", "n_init = -3"),
        COOL_CFG + "duration = -5\n",
        ESR_SCAN_CFG.replace("gamma_m = 0.01", "gamma_m = -0.01")
        + "sweep = Delta_e\npoints = 3\n",
        ESR_SCAN_CFG + "sweep = Delta_e\npoints = 3\nn_bar = -0.5\n",
        TELEPORT_SPIN_CFG.replace("lambda_rate = 1", "lambda_rate = -1"),
        TELEPORT_SPIN_CFG.replace("lambda_rate = 1", "lambda_rate = 0"),
        TELEPORT_SPIN_CFG + "n_bar_prime = -0.1\n",
        COOL_CFG.replace("eliminated = true", "eliminated = no"),
        SUPERPOSE_CFG + "dissipation = off\n",
        "scenario = teleport-motional\nalpha = nan\nbeta = 1\n",
    ], ids=["real", "dim-minimum", "integer", "sweep", "method", "num-samples",
            "superpose-g-negative", "superpose-g-zero", "cool-gamma_m", "cool-n_init",
            "cool-duration", "esr-gamma_m", "esr-n_bar", "spin-lambda-negative",
            "spin-lambda-zero", "spin-n_bar_prime", "cool-eliminated-no",
            "superpose-dissipation-off", "amplitude-nan"])
    def test_exit_2(self, tmp_path, capsys, text):
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


STIFF_COOL_CFG = """\
scenario = cool
g = 1
kappa = 1e4
gamma_m = 0.05
n_bar = 1
n_init = 1
omega_m = 2e4
num_samples = 5
"""


class TestCoolConfigs:
    def test_adaptive_method_exit_2_before_any_evolution(self, tmp_path, capsys, monkeypatch):
        # the adaptive path (DOP853, as RK45 before it) did not finish this
        # stiff run in a minute; the key is refused
        # at parse time, so the scenario never starts
        monkeypatch.setattr(cryomech.protocols, "sideband_cool", None)
        path = write_cfg(tmp_path, STIFF_COOL_CFG + "method = adaptive\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: method must be one of auto, expm, got 'adaptive'")
        assert not (tmp_path / "out").exists()

    def test_auto_and_expm_identical(self, tmp_path):
        reports = []
        for method in ("auto", "expm"):
            path = write_cfg(tmp_path, COOL_CFG + f"method = {method}\n", f"{method}.cfg")
            assert main(["--config", str(path), "--out", str(tmp_path / method)]) == 0
            reports.append((tmp_path / method / "cool.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("dims", ["dim_m = 2\n", "dim_a = 2\ndim_m = 2\n"],
                             ids=["mech-two-level", "both-two-level"])
    @pytest.mark.parametrize("eliminated", ["true", "false"])
    def test_two_level_modes(self, tmp_path, dims, eliminated):
        # no bosonic mode has top levels to check, so there is no initial tail
        text = (COOL_CFG.replace("n_init = 1.0", "n_init = 3").replace("n_bar = 1.0", "n_bar = 3")
                .replace("eliminated = true", f"eliminated = {eliminated}") + dims)
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "cool.json").read_text())
        # two levels: the ground population is 1 - <n_m>
        assert doc["final_fidelity"] == pytest.approx(1.0 - doc["details"]["n_final"], abs=1e-12)

    def test_denormal_duration_runs(self, tmp_path):
        # ||h step||_1 / theta_m underflows to 0: the schedule keeps one substep
        path = write_cfg(tmp_path, "scenario = cool\nduration = 5e-324\ng = 0.001\nkappa = 20\n"
                         "gamma_m = 0.05\nn_bar = 3\nn_init = 3\nomega_m = 0.001\ndim_a = 3\n"
                         "dim_m = 4\neliminated = true\nnum_samples = 2\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
        values = json.loads((tmp_path / "cool.json").read_text())["phonon_trajectory"]["values"]
        assert values[1] == values[0]

    @pytest.mark.parametrize("eliminated", ["true", "false"])
    def test_overflowing_bath_rate_exit_3(self, tmp_path, capsys, eliminated):
        # (1 + n_bar) gamma_m overflows, so the generator is refused as it
        # is built, before the stiffness test could read its norm as nan
        path = write_cfg(tmp_path, "scenario = cool\ng = 0\nkappa = 0\ngamma_m = 1e300\n"
                         f"n_bar = 1e300\nn_init = 0\neliminated = {eliminated}\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "generator is not finite" in err and "Traceback" not in err
        # no duration or elimination helps a rate that overflowed
        assert "shorten" not in err and "overflowed" in err


_SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas.md"


def _documented_keys(scenario: str, cfg: dict) -> tuple[set, set]:
    """The top-level report keys and the ``details`` keys that docs/schemas.md
    lists for a run of ``scenario`` with the typed config ``cfg``: a details
    clause "with `key = 0`" or "with `key > 0`" counts where it holds.  The
    flat ``params`` mapping has no details, and its top-level keys are those
    it always writes."""
    if scenario == "params":
        always = _SCHEMAS.read_text().split("### `params`", 1)[1].split("— when", 1)[0]
        return set(re.findall(r"`(\w+)`", always)), set()
    own = scenario in ("esr-scan", "verify-all")
    section = _SCHEMAS.read_text().split(
        f"### `{scenario}`" if own else "### Protocol scenarios", 1)[1]
    block = section.split("```jsonc", 1)[1].split("```", 1)[0]
    top = set(re.findall(r'^  "(\w+)":', block, re.MULTILINE))
    if own:
        return top, set()
    bullet = section.split(f"- `{scenario}`:", 1)[1].split("\n- ", 1)[0].split("\n\n", 1)[0]
    details = set()
    for clause in bullet.split(";"):
        condition = re.search(r"with `(\w+) ([=>]) 0`", clause)
        if condition is None or (cfg[condition[1]] > 0) == (condition[2] == ">"):
            details |= set(re.findall(r"`(\w+)`", clause))
    return top, details - top


def _exits_typed(tmp_path_factory, scenario: str, keys: dict, flags: tuple = (),
                 codes: tuple = (0, 2, 3, 4)) -> None:
    """Run the config of ``keys`` with the command-line ``flags``: it must
    run, or exit with one of the typed ``codes``, and a run must write every
    documented key."""
    tmp = tmp_path_factory.mktemp(scenario)
    # str of a float is its shortest repr, which reads back exactly
    text = f"scenario = {scenario}\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    path = write_cfg(tmp, text)
    code = main(["--config", str(path), "--out", str(tmp / "out"), *flags])
    assert code in codes, (text, flags)
    if code == 0:
        doc = json.loads((tmp / "out" / f"{scenario}.json").read_text())
        top, details = _documented_keys(scenario, parse_config(path))
        assert top <= set(doc) and details <= set(doc.get("details", {})), text


#: Edges of a rate's domain: zero, the smallest subnormal, and values near
#: the ends of the float range, the last within a factor of 2 of its top.
_EDGE_RATES = (0.0, 5e-324, 1e-300, 1e300, 1e308)


def _rate(positive: bool = False):
    """A log-uniform rate over [1e-4, 1e4], or an edge of the reals' domain."""
    edges = [r for r in _EDGE_RATES if r > 0 or not positive]
    return st.one_of(st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e), st.sampled_from(edges))


class TestCoolProperty:
    """No ``cool`` config whose every key lies in its reader's domain ends in
    a traceback: it runs, or exits with a typed code, and a run writes every
    documented key."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.fixed_dictionaries(
        {"g": _rate(), "kappa": _rate(), "gamma_m": _rate(), "n_bar": _rate(),
         "n_init": _rate(), "dim_a": st.integers(2, 8), "dim_m": st.integers(2, 8),
         "eliminated": st.sampled_from(["true", "false"]),
         "num_samples": st.integers(2, 8), "method": st.sampled_from(["auto", "expm"])},
        optional={"omega_m": _rate(), "duration": _rate(positive=True)}))
    def test_exits_typed(self, tmp_path_factory, keys):
        _exits_typed(tmp_path_factory, "cool", keys)


def _signed():
    """A rate of either sign."""
    return st.tuples(_rate(), st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1])


_HALF = 1.0 / np.sqrt(2.0)


def _qubit():
    """Input amplitudes (alpha, beta) as complex numbers: a basis state,
    (1, +-1)/sqrt(2) or a Haar draw."""
    return st.one_of(
        st.sampled_from([(1.0, 0.0), (0.0, 1.0), (_HALF, _HALF), (_HALF, -_HALF)]),
        st.integers(0, 2 ** 32 - 1).map(lambda s: haar_qubit(np.random.default_rng(s)))
    ).map(lambda q: {"alpha": complex(q[0]), "beta": complex(q[1])})


_DIMS = st.integers(2, 5)
_BRANCHES = st.sampled_from(["00", "01", "10", "11"])


class TestScenarioProperty:
    """As :class:`TestCoolProperty`, for the other protocol scenarios and
    ``esr-scan``; each ``example`` once ended in a traceback."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.fixed_dictionaries(
        {"g": _rate(positive=True), "kappa": _rate(), "gamma_m": _rate(), "n_bar": _rate(),
         "dim_a": _DIMS, "dim_m": _DIMS, "dissipation": st.sampled_from(["true", "false"])}))
    @example({"g": 5e-324, "kappa": 0.0, "gamma_m": 0.0, "n_bar": 0.0})
    def test_superpose(self, tmp_path_factory, keys):
        _exits_typed(tmp_path_factory, "superpose", keys)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_qubit(), st.fixed_dictionaries(
        {"resource_damping": st.sampled_from([0.0, 1e-12, 0.5, 1.0])},
        optional={"force_branch": _BRANCHES}))
    @example({"alpha": complex(_HALF), "beta": complex(_HALF)},
             {"resource_damping": 1.0, "force_branch": "10"})
    def test_teleport_motional(self, tmp_path_factory, qubit, keys):
        _exits_typed(tmp_path_factory, "teleport-motional", {**qubit, **keys})

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_qubit(), st.fixed_dictionaries(
        {"lambda_rate": _rate(positive=True), "gamma_prime": _rate(),
         "n_bar_prime": _rate(), "phonon_dim": _DIMS},
        optional={"force_branch": _BRANCHES, "n_bar_gamma": _rate()}))
    @example({"alpha": 0.6, "beta": 0.8}, {"lambda_rate": 5e-324})
    def test_teleport_spin(self, tmp_path_factory, qubit, keys):
        _exits_typed(tmp_path_factory, "teleport-spin", {**qubit, **keys})

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.fixed_dictionaries(
        {"omega_m": _rate(), "lam": _rate(), "gamma_m": _rate(positive=True),
         "sweep": st.sampled_from(["Delta_e", "Omega_d_prime"]), "start": _signed(),
         "stop": _signed(), "points": st.integers(1, 4), "n_bar": _rate(),
         "mech_dim": _DIMS},
        optional={"Delta_e": _signed(), "Omega_d_prime": _signed(),
                  "spin_decay": _rate(), "spin_dephasing": _rate()}))
    @example({"omega_m": 0.0, "lam": 0.05, "gamma_m": 0.01, "sweep": "Delta_e",
              "start": -1.0, "stop": 1.0, "points": 3})
    # few draws have both lam < omega_m / 10 and a unique steady state, so
    # one run that succeeds is given
    @example({"omega_m": 1.0, "lam": 0.05, "gamma_m": 0.01, "sweep": "Delta_e",
              "start": -1.0, "stop": 1.0, "points": 3, "Omega_d_prime": 0.6})
    @example({"omega_m": 1.0, "lam": 0.05, "gamma_m": 0.01, "sweep": "Delta_e",
              "start": -1e308, "stop": 1e308, "points": 3})
    def test_esr_scan(self, tmp_path_factory, keys):
        _exits_typed(tmp_path_factory, "esr-scan", keys)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.integers(max_value=4), st.one_of(st.none(), st.integers()))
    @example(2, -1)
    def test_verify_all(self, tmp_path_factory, instances, seed):
        # the oracle batch has no precondition to fail, so exit 3 is not typed
        # for it; a negative --seed reached numpy's generator (exit 1)
        _exits_typed(tmp_path_factory, "verify-all", {"instances": instances},
                     () if seed is None else ("--seed", str(seed)), codes=(0, 2, 4))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.fixed_dictionaries(
        {"omega_m": _rate(positive=True), "M_mem": _rate(positive=True), "T": _rate()},
        optional={"gamma_m": _rate(), "kappa": _rate(), "Omega_d": _rate(),
                  "Delta": _signed(), "G_pull": _rate(), "g0": _rate(), "m_bio": _rate(),
                  "G_m": _rate(), "Delta_e": _signed(), "Omega_d_prime": _signed()}))
    # hbar omega_m / k_B T = 960, past where exp overflows
    @example({"omega_m": 2e7 * np.pi, "M_mem": 4.8e-14, "T": 5e-7})
    def test_params(self, tmp_path_factory, keys):
        _exits_typed(tmp_path_factory, "params", keys)


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
        # the closed transfer runs through the Lindblad engine; reseeding
        # NumPy's global generator between runs shows that no engine path
        # draws from it
        for scenario, text in (("teleport-motional", TELEPORT_CFG),
                               ("superpose", SUPERPOSE_CFG + "dissipation = false\n")):
            path = write_cfg(tmp_path, text, f"{scenario}.cfg")
            reports = []
            for k in range(2):
                np.random.seed(k)
                out = tmp_path / f"{scenario}-{k}"
                assert main(["--config", str(path), "--out", str(out),
                             "--seed", "42"]) == 0
                reports.append((out / f"{scenario}.json").read_bytes())
            assert reports[0] == reports[1]

    def test_identical_across_blas_threads(self, tmp_path):
        """Full and eliminated (4, 12) cooling, the dissipative transfer, the
        oracle batch, the benchmark's dissipative spin teleportation and the
        ESR sweep give byte-identical reports at one and two BLAS threads: no
        product on their path may depend on the thread count.  The full run
        and the transfer square their propagators in 3 x 3 and 2 x 2 tiles;
        the eliminated run, the oracle batch (blocks of 16 or less) and the
        JC swaps (36 indices) in one tile, on the same padded batched path.
        Every block but the oracle's random ones runs in its real gauge, so
        those squares and each sample's ``P @ f`` are real products; the
        sweep factors each point with SuperLU on its pattern's one column
        order."""
        cool = ("scenario = cool\ng = 1\nkappa = 20\ngamma_m = 0.05\nn_bar = 3\n"
                "n_init = 3\nomega_m = 50\ndim_a = 4\ndim_m = 12\nnum_samples = 60\n")
        configs = {"full": cool, "eliminated": cool + "eliminated = true\n",
                   "superpose": SUPERPOSE_CFG + "dissipation = true\n",
                   "verify-all": "scenario = verify-all\ninstances = 20\n",
                   "teleport-spin": (WORKLOADS / "small-dims" / "teleport-spin.conf").read_text(),
                   # the benchmark's 256-dim bordered system
                   "esr-scan": TestEsrScenario.ESR_CFG.replace("mech_dim = 6", "mech_dim = 8")}
        for name, text in configs.items():
            write_cfg(tmp_path, text, f"{name}.cfg")
        script = ("import sys\nfrom cryomech.cli import main\n"
                  "for name in sys.argv[2:]:\n"
                  "    assert main(['--config', f'{name}.cfg', '--out',"
                  " f'{sys.argv[1]}/{name}', '--seed', '5']) == 0\n")
        src = str(Path(cryomech.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", script, f"threads{threads}", *configs],
                           cwd=tmp_path, env=env, check=True, capture_output=True)
        for name in configs:
            scenario = "cool" if name in ("full", "eliminated") else name
            one, two = (tmp_path / f"threads{t}" / name / f"{scenario}.json"
                        for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), name

    def test_booleans_stay_booleans(self, tmp_path):
        path = write_cfg(tmp_path, COOL_CFG + "omega_m = 50\ndim_m = 6\nnum_samples = 3\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "cool.json").read_text()
        assert '"sideband_resolved": true' in text

    def test_jsonable_encodes_numpy_complex_and_nesting(self):
        doc = _jsonable({"f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True),
                         "c": 1 - 2j, "nc": np.complex128(0.5j),
                         "t": (1, (2.0, [np.int64(4)])), "a": np.array([[1.5, 2.5]]),
                         "flag": False, "none": None})
        assert doc == {"f": 0.1, "i": 3, "b": True, "c": [1.0, -2.0], "nc": [0.0, 0.5],
                       "t": [1, [2.0, [4]]], "a": [[1.5, 2.5]], "flag": False, "none": None}
        assert [type(doc[k]) for k in ("f", "i", "b")] == [float, int, bool]
        assert type(doc["t"][1][1][0]) is int and type(doc["a"][0][0]) is float
        assert json.loads(json.dumps(doc)) == doc

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


class TestDocs:
    def test_schema_table_lists_each_scenarios_keys(self):
        # docs/schemas.md's "Scenarios and keys" table is the user's copy of
        # _SCENARIOS; a key added to one must be added to the other
        text = (Path(__file__).resolve().parents[1] / "docs" / "schemas.md").read_text()
        documented = {}
        for line in text.split("### Scenarios and keys", 1)[1].splitlines():
            if line.startswith("| `"):
                name, required, optional = (re.findall(r"`([^`]+)`", cell)
                                            for cell in line.strip().strip("|").split("|"))
                documented[name[0]] = (sorted(required), sorted(optional))
            elif documented:
                break
        assert documented == {
            name: (sorted(k for k, (_, default) in keys.items() if default is REQUIRED),
                   sorted(k for k, (_, default) in keys.items() if default is not REQUIRED))
            for name, (_, keys) in _SCENARIOS.items()}


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

    @pytest.mark.parametrize("T", ["5e-7", "1e-300", "5e-324"])
    def test_cold_bath_occupation_underflows(self, tmp_path, T):
        # hbar omega_m / k_B T is past 709.8, where exp overflowed (exit 2),
        # or k_B T underflows to 0
        path = write_cfg(tmp_path, f"scenario = params\nomega_m = 6.2831853e7\n"
                         f"M_mem = 4.8e-14\nT = {T}\n")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "params.json").read_text())["n_bar"] == 0.0


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

    def test_bath_occupation_raises_response(self, tmp_path):
        # with no cooling to define n_bar', the mechanical bath sits at n_bar
        response = {}
        for n_bar in (0, 1):
            path = write_cfg(tmp_path, self.ESR_CFG.replace("points = 25", "points = 3")
                             + f"n_bar = {n_bar}\n")
            out_dir = tmp_path / f"n_bar{n_bar}"
            assert main(["--config", str(path), "--out", str(out_dir)]) == 0
            response[n_bar] = json.loads((out_dir / "esr-scan.json").read_text())["response"]
        assert all(hot > cold for hot, cold in zip(response[1], response[0]))

    def test_parallel_matches_serial(self, tmp_path):
        path = write_cfg(tmp_path, self.ESR_CFG)
        d1, d2 = tmp_path / "serial", tmp_path / "par"
        assert main(["--config", str(path), "--out", str(d1)]) == 0
        assert main(["--config", str(path), "--out", str(d2),
                     "--jobs", "2"]) == 0
        # each point's generator is L_0 + v L_sigma whatever chunk it is in
        assert (d1 / "esr-scan.json").read_bytes() == (d2 / "esr-scan.json").read_bytes()

    def test_failing_point_named_alike_serial_and_parallel(self, tmp_path, capsys):
        # without spin decay, sigma_z is conserved at Omega_d' = Delta_e = 0:
        # the middle point has two steady states
        path = write_cfg(tmp_path, ESR_SCAN_CFG + "sweep = Omega_d_prime\npoints = 5\n"
                         "Delta_e = 0\nspin_decay = 0\nspin_dephasing = 0.002\nmech_dim = 4\n")
        errors = []
        for jobs in ("1", "2"):
            assert main(["--config", str(path), "--out", str(tmp_path), "--jobs", jobs]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("precondition not met: at swept value 0.0: steady state "
                                    "is not unique")

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """An in-process stand-in for the pool: it records each requested
        size, runs the tasks inline and starts no process."""
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_bounded_by_points(self, tmp_path, pool_sizes):
        path = write_cfg(tmp_path, self.ESR_CFG.replace("points = 25", "points = 3"))
        d1, d2 = tmp_path / "serial", tmp_path / "par"
        assert main(["--config", str(path), "--out", str(d1)]) == 0
        assert main(["--config", str(path), "--out", str(d2), "--jobs", "50"]) == 0
        assert pool_sizes and max(pool_sizes) <= 3
        assert (d1 / "esr-scan.json").read_text() == (d2 / "esr-scan.json").read_text()

    def test_pool_bounded_by_usable_cpus(self, tmp_path, monkeypatch, pool_sizes):
        path = write_cfg(tmp_path, self.ESR_CFG)
        serial = tmp_path / "serial"
        assert main(["--config", str(path), "--out", str(serial)]) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["--config", str(path), "--out", str(tmp_path / "two"),
                     "--jobs", "1000"]) == 0
        # without an affinity mask the CPU count bounds the pool
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert main(["--config", str(path), "--out", str(tmp_path / "three"),
                     "--jobs", "1000"]) == 0
        assert pool_sizes == [2, 3]
        for d in ("two", "three"):
            assert ((tmp_path / d / "esr-scan.json").read_bytes()
                    == (serial / "esr-scan.json").read_bytes())
