"""Command-line entry point.

Scenarios are selected through a plain ``key=value`` configuration file; the
CLI validates the configuration, runs the requested simulation, and writes a
deterministic JSON (and optionally CSV) report.

Exit codes: 0 success, 2 configuration error, 3 physics precondition not met,
4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import oracle, protocols
from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    PreconditionError,
    VerificationError,
)
from .model import (
    SpinParams,
    SystemParams,
    dressed_splitting,
    frequency_shift,
    spin_phonon_coupling,
)

# ---------------------------------------------------------------------------
# Value readers: each parses the text of one key into its type, or raises
# ConfigError naming the key
# ---------------------------------------------------------------------------

def _real(minimum: float = -np.inf, strict: bool = False, maximum: float = np.inf):
    """A finite real number of at least ``minimum`` (above it when
    ``strict``) and at most ``maximum``."""
    def read(key: str, text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            v = np.nan
        if not np.isfinite(v):
            raise ConfigError(f"{key} must be a finite real number, got {text!r}")
        if v < minimum or (strict and v == minimum):
            raise ConfigError(f"{key} must be {'>' if strict else '>='} {minimum:g}, got {v!r}")
        if v > maximum:
            raise ConfigError(f"{key} must lie in [{minimum:g}, {maximum:g}], got {v!r}")
        return v
    return read


def _integer(minimum: int):
    """An integer of at least ``minimum``."""
    def read(key: str, text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {text!r}") from None
        if v < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {v}")
        return v
    return read


def _choice(*choices: str):
    """One of ``choices``, kept as its literal text."""
    def read(key: str, text: str) -> str:
        if text not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {text!r}")
        return text
    return read


def _flag(key: str, text: str) -> bool:
    """A boolean written ``true`` or ``false`` (any case)."""
    if text.lower() not in ("true", "false"):
        raise ConfigError(f"{key} must be true or false, got {text!r}")
    return text.lower() == "true"


def _amplitude(key: str, text: str) -> complex:
    """A finite complex number such as ``0.6+0.8j`` (spaces allowed)."""
    try:
        v = complex(text.replace(" ", ""))
    except ValueError:
        v = complex(np.nan)
    if not np.isfinite(v):
        raise ConfigError(f"{key} must be a finite number, got {text!r}")
    return v


_SIGNED = _real()
_NONNEG = _real(minimum=0.0)
_POSITIVE = _real(minimum=0.0, strict=True)
_DIM = _integer(2)
_BRANCH = _choice("00", "01", "10", "11")

#: Marks a key of ``_SCENARIOS`` that every config of its scenario must set.
REQUIRED = object()

#: The truncation keys and the mode label ``--truncation`` names each by.
_TRUNCATION_LABELS = {"dim_a": "a", "dim_m": "a_m", "mech_dim": "a_m", "phonon_dim": "a_m"}


def _params(cfg: dict, *keys: str) -> SystemParams:
    """``SystemParams`` of the given config keys; a derived value that the
    config makes inconsistent, undefined or too large for a float (an
    overflow, a division by an underflowed zero, or an infinite result) is
    a configuration error."""
    try:
        return SystemParams(**{k: cfg[k] for k in keys})
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{cfg['scenario']}: {exc}") from None


# ---------------------------------------------------------------------------
# Scenario runners (each takes the typed config and returns its report, which
# main encodes with _jsonable).  A rule between several keys belongs to the
# protocol that runs them, which raises ConfigError when the run cannot take
# the values; the runners pass the values through.
# ---------------------------------------------------------------------------

def _run_cool(cfg, seed, jobs):
    return protocols.sideband_cool(
        _params(cfg, "g", "kappa", "gamma_m", "n_bar", "omega_m"),
        n_init=cfg["n_init"], duration=cfg["duration"], dims=(cfg["dim_a"], cfg["dim_m"]),
        eliminated=cfg["eliminated"], num_samples=cfg["num_samples"],
    )


def _run_superpose(cfg, seed, jobs):
    return protocols.prepare_motional_superposition(
        _params(cfg, "g", "kappa", "gamma_m", "n_bar"),
        dims=(cfg["dim_a"], cfg["dim_m"]), dissipation=cfg["dissipation"],
    )


def _run_teleport_motional(cfg, seed, jobs):
    return protocols.teleport_motional(
        cfg["alpha"], cfg["beta"], seed=seed, force_branch=cfg["force_branch"],
        resource_damping=cfg["resource_damping"])


def _run_esr(cfg, seed, jobs):
    params = _params(cfg, "omega_m", "gamma_m", "n_bar")
    spin = SpinParams(lam=cfg["lam"], Delta_e=cfg["Delta_e"],
                      Omega_d_prime=cfg["Omega_d_prime"])
    values = np.linspace(cfg["start"], cfg["stop"], cfg["points"])
    kwargs = {k: cfg[k] for k in ("sweep", "mech_dim", "spin_decay", "spin_dephasing")}
    if jobs > 1 and len(values) > 1:
        return _parallel_esr(spin, params, values, kwargs, jobs)
    return protocols.esr_scan(spin, params, values=values, **kwargs)


def _parallel_esr(spin, params, values, kwargs, jobs):
    """Split the sweep across processes and stitch the chunks back together."""
    from concurrent.futures import ProcessPoolExecutor

    # one process per chunk: the fork start method starts every worker at
    # once, so there are no more chunks than points or usable CPUs
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    chunks = np.array_split(values, min(jobs, len(values), cpus))
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(_esr_chunk, spin, params, chunk, kwargs) for chunk in chunks]
        parts = [f.result() for f in futures]
    return protocols.esr_spectrum(kwargs["sweep"], values, np.concatenate(parts))


def _esr_chunk(spin, params, chunk, kwargs):
    spectrum = protocols.esr_scan(spin, params, values=chunk, **kwargs)
    return list(spectrum.response)


def _run_teleport_spin(cfg, seed, jobs):
    return protocols.teleport_spin(
        cfg["alpha"], cfg["beta"], seed=seed,
        **{k: cfg[k] for k in ("force_branch", "phonon_dim", "lambda_rate", "gamma_prime",
                               "n_bar_prime", "n_bar_gamma")},
    )


def _run_verify_all(cfg, seed, jobs):
    reports = oracle.verify_all(seed=seed if seed is not None else 0,
                                instances=cfg["instances"])
    doc = {"scenario": "verify-all",
           "reports": [{**vars(r), "pass": r.passed} for r in reports],
           "all_passed": all(r.passed for r in reports)}
    if not doc["all_passed"]:
        failing = [r.quantity for r in reports if not r.passed]
        raise VerificationError(f"oracle cross-checks failed: {failing}")
    return doc


def _run_params(cfg, seed, jobs):
    p = _params(cfg, "omega_m", "M_mem", "T", "kappa", "gamma_m", "Omega_d", "Delta",
                "G_pull", "g0")
    out = {"scenario": "params", "omega_m": cfg["omega_m"], "M_mem": cfg["M_mem"],
           "T": cfg["T"], "x0": p.x0, "n_bar": p.n_bar}
    for name in ("g0", "alpha", "g", "kappa_prime", "gamma_prime", "n_bar_prime"):
        if (v := getattr(p, name)) is not None:
            out[name] = v
    if cfg["m_bio"] is not None:
        out["mass_ratio"] = cfg["m_bio"] / cfg["M_mem"]
        out["frequency_shift"] = frequency_shift(cfg["omega_m"], cfg["m_bio"], cfg["M_mem"])
        # a particle riding the membrane antinode moves with twice the
        # membrane's zero-point amplitude
        out["x0_prime"] = 2.0 * p.x0
        if cfg["G_m"] is not None:
            lam = spin_phonon_coupling(cfg["G_m"], out["x0_prime"])
            out["lam_rad_per_s"] = lam
            out["lam_hz_equivalent"] = lam / (2.0 * np.pi)
    if cfg["Delta_e"] is not None and cfg["Omega_d_prime"] is not None:
        out["omega_eff"] = dressed_splitting(cfg["Delta_e"], cfg["Omega_d_prime"])
    infinite = sorted(k for k, v in out.items() if k != "scenario" and not np.isfinite(v))
    if infinite:
        raise ConfigError(f"params: derived values too large for a float: {infinite}")
    return out


#: Each scenario's runner and its keys, each with its reader and its default
#: (``REQUIRED`` for a key the config must set).
_SCENARIOS = {
    "cool": (_run_cool, {
        "g": (_NONNEG, REQUIRED), "kappa": (_NONNEG, REQUIRED),
        "gamma_m": (_NONNEG, REQUIRED), "n_bar": (_NONNEG, REQUIRED),
        "n_init": (_NONNEG, REQUIRED), "omega_m": (_NONNEG, None),
        "duration": (_POSITIVE, None), "dim_a": (_DIM, 4), "dim_m": (_DIM, 12),
        "eliminated": (_flag, False), "num_samples": (_integer(2), 60),
        # both values run the one propagator; the key stays so that
        # existing configs parse
        "method": (_choice("auto", "expm"), "auto"),
    }),
    "superpose": (_run_superpose, {
        "g": (_POSITIVE, REQUIRED), "kappa": (_NONNEG, REQUIRED),
        "gamma_m": (_NONNEG, REQUIRED), "n_bar": (_NONNEG, REQUIRED),
        "dim_a": (_DIM, 4), "dim_m": (_DIM, 4), "dissipation": (_flag, True),
    }),
    "teleport-motional": (_run_teleport_motional, {
        "alpha": (_amplitude, REQUIRED), "beta": (_amplitude, REQUIRED),
        "force_branch": (_BRANCH, None), "resource_damping": (_real(0.0, maximum=1.0), 0.0),
    }),
    "esr-scan": (_run_esr, {
        "omega_m": (_NONNEG, REQUIRED), "lam": (_NONNEG, REQUIRED),
        "gamma_m": (_POSITIVE, REQUIRED),
        "sweep": (_choice("Delta_e", "Omega_d_prime"), REQUIRED),
        "start": (_SIGNED, REQUIRED), "stop": (_SIGNED, REQUIRED),
        "points": (_integer(1), REQUIRED), "n_bar": (_NONNEG, 0.0),
        "Delta_e": (_SIGNED, None), "Omega_d_prime": (_SIGNED, None), "mech_dim": (_DIM, 8),
        "spin_decay": (_NONNEG, None), "spin_dephasing": (_NONNEG, None),
    }),
    "teleport-spin": (_run_teleport_spin, {
        "alpha": (_amplitude, REQUIRED), "beta": (_amplitude, REQUIRED),
        "lambda_rate": (_POSITIVE, REQUIRED), "gamma_prime": (_NONNEG, 0.0),
        "n_bar_prime": (_NONNEG, 0.0), "phonon_dim": (_DIM, 3),
        "force_branch": (_BRANCH, None), "n_bar_gamma": (_NONNEG, None),
    }),
    "verify-all": (_run_verify_all, {"instances": (_integer(0), 20)}),
    "params": (_run_params, {
        "omega_m": (_POSITIVE, REQUIRED), "M_mem": (_POSITIVE, REQUIRED),
        "T": (_NONNEG, REQUIRED), "gamma_m": (_NONNEG, None), "kappa": (_NONNEG, None),
        "Omega_d": (_NONNEG, None), "Delta": (_SIGNED, None), "G_pull": (_NONNEG, None),
        "g0": (_NONNEG, None), "m_bio": (_NONNEG, None), "G_m": (_NONNEG, None),
        "Delta_e": (_SIGNED, None), "Omega_d_prime": (_SIGNED, None),
    }),
}

SCENARIOS = tuple(_SCENARIOS)


def parse_config(path: Path, truncations: Sequence[str] = ()) -> dict:
    """Read a key=value configuration file (# comments, blank lines allowed)
    into the typed value of every key of its scenario.

    Each ``NAME=DIM`` of ``truncations`` (the ``--truncation`` flag) replaces
    the text of the truncation key that the mode label NAME names.  Every
    key is then parsed once by its reader in ``_SCENARIOS``; an optional key
    the config leaves out takes its default.
    """
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        contents = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    texts: dict[str, str] = {}
    for lineno, raw in enumerate(contents.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in texts:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        texts[key] = value
    scenario = texts.pop("scenario", None)
    if scenario is None:
        raise ConfigError("config must set scenario=<name>")
    if scenario not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    keys = _SCENARIOS[scenario][1]
    unknown = set(texts) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys for scenario {scenario!r}: {sorted(unknown)}")
    missing = {k for k, (_, default) in keys.items() if default is REQUIRED} - set(texts)
    if missing:
        raise ConfigError(f"scenario {scenario!r} missing required keys: {sorted(missing)}")
    labels = {label: key for key, label in _TRUNCATION_LABELS.items() if key in keys}
    for item in truncations:
        label, eq, dim = item.partition("=")
        if not eq:
            raise ConfigError(f"--truncation expects NAME=DIM, got {item!r}")
        if label.strip() not in labels:
            raise ConfigError(f"scenario {scenario!r} has no truncation {label.strip()!r} "
                              f"(it has: {', '.join(sorted(labels)) or 'none'})")
        texts[labels[label.strip()]] = dim.strip()
    cfg = {"scenario": scenario}
    for key, (read, default) in keys.items():
        cfg[key] = read(key, texts[key]) if key in texts else default
    return cfg


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


#: The exit code and the message prefix of each error a run reports without
#: a traceback.
_EXITS = {
    ConfigError: (2, "error"),
    PreconditionError: (3, "precondition not met"),
    DegenerateSteadyStateError: (3, "precondition not met"),
    VerificationError: (4, "verification failure"),
}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.truncation)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        if args.out.exists() and not args.out.is_dir():
            raise ConfigError(f"--out {args.out} exists and is not a directory")
        scenario = cfg["scenario"]
        doc = _jsonable(_SCENARIOS[scenario][0](cfg, args.seed, args.jobs))
    except tuple(_EXITS) as exc:
        code, prefix = next(v for cls, v in _EXITS.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code

    files = {}
    if args.format in ("json", "both"):
        files[f"{scenario}.json"] = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.format in ("csv", "both"):
        files[f"{scenario}.csv"] = _csv_text(doc)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (args.out / name).write_text(text)
    except OSError as exc:
        print(f"error: cannot write the report to {args.out}: {exc}", file=sys.stderr)
        return 2
    print(_headline(scenario, doc))
    return 0


def _jsonable(v):
    """The JSON value of a report: a dataclass by its fields, a dict by its
    items, a list, tuple or array as a list, a numpy scalar as its Python
    value and a complex number as ``[re, im]``; booleans stay booleans."""
    if dataclasses.is_dataclass(v):
        return {f.name: _jsonable(getattr(v, f.name)) for f in dataclasses.fields(v)}
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _csv_text(doc: dict) -> str:
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
    return "\n".join(lines) + "\n"


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
