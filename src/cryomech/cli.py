"""Command-line entry point.

Scenarios are selected through a plain ``key=value`` configuration file; the
CLI validates the configuration, runs the requested simulation, and writes a
deterministic JSON (and optionally CSV) report.

Exit codes: 0 success, 2 configuration error, 3 physics precondition not met,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import oracle, protocols
from .errors import ConfigError, PreconditionError, VerificationError
from .lindblad import _METHODS
from .model import (
    SpinParams,
    SystemParams,
    dressed_splitting,
    frequency_shift,
    spin_phonon_coupling,
)

SCENARIOS = ("cool", "superpose", "teleport-motional", "esr-scan",
             "teleport-spin", "verify-all", "params")

_CONFIG_KEYS = {
    "cool": {"scenario", "g", "kappa", "gamma_m", "n_bar", "n_init", "omega_m",
             "duration", "dim_a", "dim_m", "eliminated", "num_samples", "method"},
    "superpose": {"scenario", "g", "kappa", "gamma_m", "n_bar", "dim_a", "dim_m",
                  "dissipation"},
    "teleport-motional": {"scenario", "alpha", "beta", "force_branch",
                          "resource_damping"},
    "esr-scan": {"scenario", "omega_m", "lam", "gamma_m", "n_bar", "sweep",
                 "start", "stop", "points", "Delta_e", "Omega_d_prime",
                 "mech_dim", "spin_decay", "spin_dephasing"},
    "teleport-spin": {"scenario", "alpha", "beta", "lambda_rate", "gamma_prime",
                      "n_bar_prime", "phonon_dim", "force_branch", "n_bar_gamma"},
    "verify-all": {"scenario", "instances"},
    "params": {"scenario", "omega_m", "M_mem", "T", "gamma_m", "kappa",
               "Omega_d", "Delta", "G_pull", "g0", "m_bio", "G_m", "Delta_e",
               "Omega_d_prime"},
}

_REQUIRED_KEYS = {
    "cool": {"g", "kappa", "gamma_m", "n_bar", "n_init"},
    "superpose": {"g", "kappa", "gamma_m", "n_bar"},
    "teleport-motional": {"alpha", "beta"},
    "esr-scan": {"omega_m", "lam", "gamma_m", "sweep", "start", "stop", "points"},
    "teleport-spin": {"alpha", "beta", "lambda_rate"},
    "verify-all": set(),
    "params": {"omega_m", "M_mem", "T"},
}


def parse_config(path: Path) -> dict:
    """Parse a key=value configuration file (# comments, blank lines allowed)."""
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        # a branch such as 00 is a bit string, not the integer 0
        cfg[key] = value if key == "force_branch" else _coerce(value)
    if "scenario" not in cfg:
        raise ConfigError("config must set scenario=<name>")
    scenario = cfg["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    unknown = set(cfg) - _CONFIG_KEYS[scenario]
    if unknown:
        raise ConfigError(f"unknown keys for scenario {scenario!r}: {sorted(unknown)}")
    missing = _REQUIRED_KEYS[scenario] - set(cfg)
    if missing:
        raise ConfigError(f"scenario {scenario!r} missing required keys: {sorted(missing)}")
    return cfg


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    try:
        return complex(value)
    except ValueError:
        return value


def _as_complex(cfg: dict, key: str) -> complex:
    v = cfg[key]
    if isinstance(v, (int, float, complex)):
        return complex(v)
    try:
        return complex(str(v).replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {v!r}")


def _teleport_input(cfg: dict) -> dict:
    """The validated input qubit and forced branch of a teleport scenario."""
    alpha, beta = _as_complex(cfg, "alpha"), _as_complex(cfg, "beta")
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ConfigError(f"alpha and beta must be normalized, got "
                          f"|alpha|^2 + |beta|^2 = {norm:.12g}")
    branch = cfg.get("force_branch")
    if branch is not None and branch not in ("00", "01", "10", "11"):
        raise ConfigError(f"force_branch must be one of 00, 01, 10, 11, got {branch!r}")
    return {"alpha": alpha, "beta": beta, "force_branch": branch}


def _real(cfg: dict, key: str, default: Optional[float] = None,
          minimum: float = -np.inf, strict: bool = False) -> Optional[float]:
    """A finite real value of at least ``minimum`` (above it when ``strict``),
    ``default`` when the key is absent."""
    if key not in cfg:
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
        raise ConfigError(f"{key} must be a finite real number, got {v!r}")
    if v < minimum or (strict and v == minimum):
        raise ConfigError(f"{key} must be {'>' if strict else '>='} {minimum:g}, got {v!r}")
    return float(v)


def _integer(cfg: dict, key: str, default: int, minimum: int) -> int:
    """An integer value of at least ``minimum``, ``default`` when absent."""
    v = cfg.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {v}")
    return v


def _choice(cfg: dict, key: str, choices: tuple, default: Optional[str] = None) -> str:
    """One of ``choices``, ``default`` when the key is absent."""
    v = cfg.get(key, default)
    if v not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {v!r}")
    return v


def _flag(cfg: dict, key: str, default: bool) -> bool:
    """A boolean written ``true`` or ``false``, ``default`` when absent."""
    v = cfg.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{key} must be true or false, got {v!r}")
    return v


def _bounded(cfg: dict, key: str, upper: float = np.inf) -> float:
    """An optional rate or probability, 0 when absent, rejected outside [0, upper]."""
    v = _real(cfg, key, 0.0, minimum=0.0)
    if v > upper:
        raise ConfigError(f"{key} must lie in [0, {upper:g}], got {v!r}")
    return v


def _derived(scenario: str, **given) -> SystemParams:
    """``SystemParams(**given)``; a derived value that the config makes
    inconsistent, undefined or too large for a float is a configuration
    error."""
    try:
        return SystemParams(**given)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{scenario}: {exc}") from None


#: The truncation config keys and the mode label ``--truncation`` names each
#: by; a scenario accepts the labels of the keys it reads.
_TRUNCATION_LABELS = {"dim_a": "a", "dim_m": "a_m", "mech_dim": "a_m", "phonon_dim": "a_m"}


def _dim(cfg: dict, overrides: dict, key: str, default: int) -> int:
    """A truncation from the config (at least 2), unless --truncation overrides it."""
    return int(overrides.get(_TRUNCATION_LABELS[key], _integer(cfg, key, default, minimum=2)))


# ---------------------------------------------------------------------------
# Scenario runners (each returns a JSON-ready dict)
# ---------------------------------------------------------------------------

def _run_cool(cfg, seed, trunc, jobs):
    params = _derived(
        "cool", g=_real(cfg, "g", minimum=0.0), kappa=_real(cfg, "kappa", minimum=0.0),
        gamma_m=_real(cfg, "gamma_m", minimum=0.0), n_bar=_real(cfg, "n_bar", minimum=0.0),
        omega_m=_real(cfg, "omega_m", minimum=0.0),
    )
    report = protocols.sideband_cool(
        params, n_init=_real(cfg, "n_init", minimum=0.0),
        duration=_real(cfg, "duration", minimum=0.0, strict=True),
        dims=(_dim(cfg, trunc, "dim_a", 4), _dim(cfg, trunc, "dim_m", 12)),
        eliminated=_flag(cfg, "eliminated", False),
        num_samples=_integer(cfg, "num_samples", 60, minimum=2),
        method=_choice(cfg, "method", _METHODS, "auto"),
    )
    return report.to_json_dict()


def _run_superpose(cfg, seed, trunc, jobs):
    params = _derived(
        "superpose", g=_real(cfg, "g", minimum=0.0, strict=True),
        kappa=_real(cfg, "kappa", minimum=0.0),
        gamma_m=_real(cfg, "gamma_m", minimum=0.0), n_bar=_real(cfg, "n_bar", minimum=0.0),
    )
    report = protocols.prepare_motional_superposition(
        params,
        dims=(_dim(cfg, trunc, "dim_a", 4), _dim(cfg, trunc, "dim_m", 4)),
        dissipation=_flag(cfg, "dissipation", True),
    )
    return report.to_json_dict()


def _run_teleport_motional(cfg, seed, trunc, jobs):
    report = protocols.teleport_motional(
        **_teleport_input(cfg), seed=seed,
        resource_damping=_bounded(cfg, "resource_damping", 1.0),
    )
    return report.to_json_dict()


def _run_esr(cfg, seed, trunc, jobs):
    params = SystemParams(omega_m=_real(cfg, "omega_m", minimum=0.0),
                          gamma_m=_real(cfg, "gamma_m", minimum=0.0, strict=True),
                          n_bar=_real(cfg, "n_bar", 0.0, minimum=0.0))
    spin = SpinParams(lam=_real(cfg, "lam", minimum=0.0),
                      Delta_e=_real(cfg, "Delta_e", 0.0),
                      Omega_d_prime=_real(cfg, "Omega_d_prime", 0.0))
    values = np.linspace(_real(cfg, "start"), _real(cfg, "stop"),
                         _integer(cfg, "points", None, minimum=1))
    kwargs = dict(
        sweep=_choice(cfg, "sweep", ("Delta_e", "Omega_d_prime")),
        mech_dim=_dim(cfg, trunc, "mech_dim", 8),
        spin_decay=_real(cfg, "spin_decay", minimum=0.0),
        spin_dephasing=_real(cfg, "spin_dephasing", minimum=0.0),
    )
    if jobs > 1 and len(values) > 1:
        spectrum = _parallel_esr(spin, params, values, kwargs, jobs)
    else:
        spectrum = protocols.esr_scan(spin, params, values=values, **kwargs)
    return spectrum.to_json_dict()


def _parallel_esr(spin, params, values, kwargs, jobs):
    """Split the sweep across processes and stitch the chunks back together."""
    from concurrent.futures import ProcessPoolExecutor

    # one process per chunk: the fork start method starts every worker at once
    chunks = np.array_split(values, min(jobs, len(values)))
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(_esr_chunk, spin, params, chunk, kwargs) for chunk in chunks]
        parts = [f.result() for f in futures]
    return protocols._esr_spectrum(kwargs["sweep"], values, np.concatenate(parts))


def _esr_chunk(spin, params, chunk, kwargs):
    spectrum = protocols.esr_scan(spin, params, values=chunk, **kwargs)
    return list(spectrum.response)


def _run_teleport_spin(cfg, seed, trunc, jobs):
    report = protocols.teleport_spin(
        **_teleport_input(cfg), seed=seed,
        phonon_dim=_dim(cfg, trunc, "phonon_dim", 3),
        lambda_rate=_real(cfg, "lambda_rate", minimum=0.0, strict=True),
        gamma_prime=_bounded(cfg, "gamma_prime"),
        n_bar_prime=_real(cfg, "n_bar_prime", 0.0, minimum=0.0),
        n_bar_gamma=_real(cfg, "n_bar_gamma", minimum=0.0),
    )
    return report.to_json_dict()


def _run_verify_all(cfg, seed, trunc, jobs):
    reports = oracle.verify_all(seed=seed if seed is not None else 0,
                                instances=_integer(cfg, "instances", 20, minimum=0))
    doc = {"scenario": "verify-all",
           "reports": [r.to_json_dict() for r in reports],
           "all_passed": all(r.passed for r in reports)}
    if not doc["all_passed"]:
        failing = [r.quantity for r in reports if not r.passed]
        raise VerificationError(f"oracle cross-checks failed: {failing}")
    return doc


def _run_params(cfg, seed, trunc, jobs):
    omega_m = _real(cfg, "omega_m", minimum=0.0, strict=True)
    M = _real(cfg, "M_mem", minimum=0.0, strict=True)
    T = _real(cfg, "T", minimum=0.0)
    p = _derived(
        "params", omega_m=omega_m, M_mem=M, T=T, kappa=_real(cfg, "kappa", minimum=0.0),
        gamma_m=_real(cfg, "gamma_m", minimum=0.0), Omega_d=_real(cfg, "Omega_d", minimum=0.0),
        Delta=_real(cfg, "Delta"), G_pull=_real(cfg, "G_pull", minimum=0.0),
        g0=_real(cfg, "g0", minimum=0.0),
    )
    out = {"scenario": "params", "omega_m": omega_m, "M_mem": M, "T": T,
           "x0": p.x0, "n_bar": p.n_bar}
    for name in ("g0", "alpha", "g", "kappa_prime", "gamma_prime", "n_bar_prime"):
        v = getattr(p, name)
        if v is not None:
            out[name] = [v.real, v.imag] if isinstance(v, complex) else v
    if "m_bio" in cfg:
        m_bio = _real(cfg, "m_bio", minimum=0.0)
        out["mass_ratio"] = m_bio / M
        out["frequency_shift"] = frequency_shift(omega_m, m_bio, M)
        # a particle riding the membrane antinode moves with twice the
        # membrane's zero-point amplitude
        out["x0_prime"] = 2.0 * p.x0
        if "G_m" in cfg:
            lam = spin_phonon_coupling(2.0, _real(cfg, "G_m", minimum=0.0), out["x0_prime"])
            out["lam_rad_per_s"] = lam
            out["lam_hz_equivalent"] = lam / (2.0 * np.pi)
    if "Delta_e" in cfg and "Omega_d_prime" in cfg:
        out["omega_eff"] = dressed_splitting(_real(cfg, "Delta_e"),
                                             _real(cfg, "Omega_d_prime"))
    return out


_RUNNERS = {
    "cool": _run_cool,
    "superpose": _run_superpose,
    "teleport-motional": _run_teleport_motional,
    "esr-scan": _run_esr,
    "teleport-spin": _run_teleport_spin,
    "verify-all": _run_verify_all,
    "params": _run_params,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cryomech",
        description="Electromechanical cooling / teleportation simulations")
    p.add_argument("--config", required=True, type=Path,
                   help="key=value configuration file selecting the scenario")
    p.add_argument("--out", type=Path, default=Path("."),
                   help="output directory (created if missing)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for measurement sampling / verification RNG")
    p.add_argument("--truncation", action="append", default=[],
                   metavar="NAME=DIM", help="override a Hilbert-space truncation, "
                   "e.g. --truncation a_m=16 (repeatable)")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for sweep scenarios")
    return p


def _parse_truncations(items, scenario: str) -> dict:
    labels = sorted({label for key, label in _TRUNCATION_LABELS.items()
                     if key in _CONFIG_KEYS[scenario]})
    out = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--truncation expects NAME=DIM, got {item!r}")
        name, _, dim = item.partition("=")
        name = name.strip()
        if name not in labels:
            raise ConfigError(f"scenario {scenario!r} has no truncation {name!r} "
                              f"(it has: {', '.join(labels) or 'none'})")
        try:
            value = int(dim)
        except ValueError:
            raise ConfigError(f"--truncation dimension must be an integer, got {dim!r}")
        if value < 2:
            raise ConfigError(f"--truncation {name} must be >= 2, got {value}")
        out[name] = value
    return out


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        trunc = _parse_truncations(args.truncation, cfg["scenario"])
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    scenario = cfg["scenario"]
    try:
        doc = _RUNNERS[scenario](cfg, args.seed, trunc, args.jobs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4

    args.out.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.format in ("json", "both"):
        (args.out / f"{scenario}.json").write_text(payload)
    if args.format in ("csv", "both"):
        _write_csv(args.out / f"{scenario}.csv", doc)
    print(_headline(scenario, doc))
    return 0


def _write_csv(path: Path, doc: dict) -> None:
    lines = []
    traj = doc.get("phonon_trajectory")
    if traj:
        lines.append("time,n_m")
        for t, v in zip(traj["times"], traj["values"]):
            lines.append(f"{t!r},{v!r}")
    elif "values" in doc and "response" in doc:
        lines.append(f"{doc['sweep']},response")
        for v, r in zip(doc["values"], doc["response"]):
            lines.append(f"{v!r},{r!r}")
    else:
        lines.append("key,value")
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (int, float, str, bool)) or v is None:
                lines.append(f"{k},{v!r}")
    path.write_text("\n".join(lines) + "\n")


def _headline(scenario: str, doc: dict) -> str:
    if scenario == "verify-all":
        n = len(doc["reports"])
        return f"verify-all: {n}/{n} oracle cross-checks passed"
    if scenario == "params":
        return "params: derived-quantity table written"
    if scenario == "esr-scan":
        return f"esr-scan: peaks at {doc['peaks']}"
    fid = doc.get("final_fidelity")
    return f"{scenario}: final fidelity {fid:.6f}" if fid is not None else scenario


if __name__ == "__main__":
    sys.exit(main())
