"""Workload child of the cryomech benchmark.

``run.py`` starts one of these per workload.  It imports ``cryomech.cli``,
parses the workload's configs, prints ``ready`` (the parent's stopwatch for
``setup_s`` stops there) and then, unless ``--probe`` is given, runs ops in a
closed loop: one client, next op only after the previous one ends.

An op is one pass over the workload's configs through ``cryomech.cli.main``
in-process, with ``--seed <workload seed + op index>`` and a fresh output
directory, so it covers config parsing, the scenario run and report
serialization.  Every op's reports are then checked against the references
stored beside the configs.  A ``SpeedSampler`` runs through set-up and
through each timed op, so that both can be given at the reference speed.  The
last stdout line is a JSON summary for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = HERE / "workloads"

#: Time of ``SpeedSampler.kernel`` that defines the reference speed: its
#: median on the reference machine (a 2-vCPU VM sharing its host, OpenBLAS
#: 0.3.31 with one thread), rounded.  Load from the host's other tenants moved
#: every timing there by 20-40% for seconds to minutes at a time, and the
#: kernel's time moved with it.
KERNEL_REF_S = 0.001

#: Seconds between speed samples; the kernel then takes about 2% of the time.
SAMPLE_PERIOD_S = 0.05

#: Absolute tolerance on every numeric report field: the engine-vs-oracle
#: tolerance ``oracle.verify_all`` already applies.
ATOL = 1e-6


# ---------------------------------------------------------------------------
# Ops and their correctness check
# ---------------------------------------------------------------------------

def run_op(cli, configs: list[Path], seed: int, out_dir: Path,
           jobs: int = 1) -> tuple[float, list]:
    """Run every config once through ``cli.main``; returns (seconds, exit codes).

    An exception counts as the exit code: its repr, with the traceback on
    stderr."""
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for cfg in configs:
            argv = ["--config", str(cfg), "--out", str(out_dir / cfg.stem),
                    "--seed", str(seed)] + (["--jobs", str(jobs)] if jobs > 1 else [])
            try:
                codes.append(cli.main(argv))
            except Exception as exc:
                traceback.print_exc()
                codes.append(repr(exc))
    return time.perf_counter() - start, codes


def ref_key(stem: str, doc: dict) -> str:
    """Reference name of a report: the config stem, plus the measurement
    record where the scenario samples a branch."""
    record = doc.get("measurement_record") or []
    return stem + ("." + "".join(str(b) for b in record) if record else "")


def load_refs(workload: str) -> dict[str, dict]:
    return {p.name[:-len(".ref.json")]: json.loads(p.read_text())
            for p in (WORKLOADS / workload).glob("*.ref.json")}


def compare(got, want, path: str = "$") -> list[str]:
    """Differences between a report and its reference: numbers to ATOL,
    everything else (keys, lengths, strings, booleans, ``peaks``) exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for k in want:
            if k == "peaks" and got[k] != want[k]:
                out.append(f"{path}.peaks: {got[k]!r} != {want[k]!r}")
            else:
                out += compare(got[k], want[k], f"{path}.{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, f"{path}[{i}]")]
    if _is_number(want) and _is_number(got):
        return [] if abs(got - want) <= ATOL else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def physics_problems(cfg: dict, doc: dict) -> list[str]:
    """Checks that do not depend on the engine's numbers."""
    from cryomech.model import resonance_detunings

    if cfg["scenario"] == "verify-all" and doc.get("all_passed") is not True:
        return ["verify-all: all_passed is not true"]
    if cfg["scenario"] == "esr-scan" and cfg["sweep"] == "Delta_e":
        want = sorted(resonance_detunings(float(cfg["omega_m"]), float(cfg["Omega_d_prime"])))
        got = sorted(doc["peaks"])
        if len(got) != len(want) or any(abs(g - w) > doc["resolution"]
                                        for g, w in zip(got, want)):
            return [f"esr-scan: peaks {got} not within one resolution of {want}"]
    return []


def check_op(configs: list[Path], parsed: list[dict], codes: list, seed: int,
             out_dir: Path, refs: dict[str, dict]) -> list[str]:
    """Problems with one op's outputs; an empty list means the op passed."""
    problems = []
    for cfg_path, cfg, code in zip(configs, parsed, codes):
        name = cfg_path.name
        if code != 0:
            problems.append(f"{name}: exit {code}")
            continue
        doc = json.loads((out_dir / cfg_path.stem / f"{cfg['scenario']}.json").read_text())
        key = ref_key(cfg_path.stem, doc)
        want = refs.get(key)
        if want is None:
            problems.append(f"{name}: no reference {key}")
            continue
        problems += [f"{name}: {p}" for p in report_problems(doc, want, seed)]
        problems += physics_problems(cfg, doc)
    return problems


def report_problems(doc: dict, want: dict, seed: int) -> list[str]:
    """Differences from the reference; a report that echoes a seed must echo
    the op's seed."""
    doc, want = dict(doc), dict(want)
    problems = []
    if "seed" in want:
        expected = seed if want.pop("seed") is not None else None
        if doc.pop("seed", None) != expected:
            problems.append(f"seed not echoed as {expected}")
    return problems + compare(doc, want)


def corrupt(doc):
    """Copy of a report with its first numeric field moved by 1000 * ATOL."""
    doc = copy.deepcopy(doc)
    queue = [doc]
    while queue:
        node = queue.pop(0)
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, v in items:
            if _is_number(v) and k != "seed":
                node[k] = v + 1000 * ATOL
                return doc
            if isinstance(v, (dict, list)):
                queue.append(v)
    raise ValueError("report has no numeric field")


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------

def machine_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_threads": os.environ.get("OMP_NUM_THREADS"),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


class SpeedSampler:
    """Samples the machine's speed evenly through a timed stretch of work.

    While started, a SIGALRM handler times a small fixed kernel every
    SAMPLE_PERIOD_S: 48x48 complex matrix products, numpy calls on 4x4 arrays
    and a pure-Python loop, the kinds of work the ops do.  The kernel does
    not touch cryomech.  A timing minus the handler's time, times
    ``speed()``, is that timing at the reference speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
        self.matrix = m / np.linalg.norm(m)
        self.samples: list[float] = []
        self._mark = 0

    def kernel(self) -> float:
        start = time.perf_counter()
        x = self.matrix
        for _ in range(10):
            x = self.matrix @ x
        y = self.matrix[:4, :4]
        for _ in range(50):
            y = np.dot(y, y.T.conj()) / np.trace(y)
        total = 0
        for i in range(3000):
            total += i * i % 7
        return time.perf_counter() - start

    def _handler(self, signum, frame):
        self.samples.append(self.kernel())

    def start(self) -> None:
        self._mark = len(self.samples)
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> tuple[float, list[float]]:
        """Stop sampling; returns the handler's time since ``start`` and the
        kernel times sampled then."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        got = self.samples[self._mark:]
        return sum(got), got

    def speed(self, samples: list[float]) -> float:
        """Reference kernel time over the mean sampled one.  When ``samples``
        is empty, all samples so far stand in, or a kernel timed now."""
        return KERNEL_REF_S / statistics.mean(samples or self.samples or [self.kernel()])


class OpResult(NamedTuple):
    wall_s: float
    #: wall time at the reference speed; the wall time when not sampled
    ref_s: float
    ok: bool


class Loop:
    """Runs, times and checks the ops of one workload.  With a sampler, the
    machine's speed is sampled while each op runs."""

    def __init__(self, cli, workload: str, parsed: list[dict], configs: list[Path],
                 seed: int, scratch: Path, sampler: Optional[SpeedSampler] = None):
        self.cli, self.workload = cli, workload
        self.configs, self.parsed = configs, parsed
        self.seed, self.scratch = seed, scratch
        self.sampler = sampler
        self.refs = load_refs(workload)
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, jobs: int = 1) -> OpResult:
        """One checked op."""
        seed = self.seed + self.index
        out_dir = self.scratch / f"op{self.index}"
        self.index += 1
        if self.sampler is None:
            elapsed, codes = run_op(self.cli, self.configs, seed, out_dir, jobs)
            ref_s = elapsed
        else:
            self.sampler.start()
            elapsed, codes = run_op(self.cli, self.configs, seed, out_dir, jobs)
            busy, samples = self.sampler.stop()
            ref_s = (elapsed - busy) * self.sampler.speed(samples)
        problems = check_op(self.configs, self.parsed, codes, seed, out_dir, self.refs)
        if self.attempted == 0 and not problems:
            problems = self._selfcheck(out_dir, seed)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:5]
            print(f"op {self.index - 1} failed: {problems[:5]}", file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        return OpResult(elapsed, ref_s, not problems)

    def _selfcheck(self, out_dir: Path, seed: int) -> list[str]:
        """The first op's report must fail against a corrupted reference."""
        cfg_path, cfg = self.configs[0], self.parsed[0]
        doc = json.loads((out_dir / cfg_path.stem / f"{cfg['scenario']}.json").read_text())
        if report_problems(doc, corrupt(self.refs[ref_key(cfg_path.stem, doc)]), seed):
            return []
        return ["check accepted a corrupted reference"]


def timed_ops(loop: Loop, seconds: float, smoke: bool) -> dict:
    """Time each op after one untimed warm-up op, which fills
    ``correction_table`` and the ``_swap_pieces`` cache."""
    if not smoke:
        loop.op()
    ops: list[OpResult] = []
    start = time.perf_counter()
    while not ops or (not smoke and time.perf_counter() - start < seconds):
        ops.append(loop.op())
    return {"op_s": [r.wall_s for r in ops], "op_ref_s": [r.ref_s for r in ops],
            "op_ok": [r.ok for r in ops]}


def traced_ops(loop: Loop, seconds: float, smoke: bool) -> dict:
    """Alternate untraced and traced ops; per-layer figures are medians over
    the traced ops, and tracing overhead is the difference of the medians."""
    import tracer as tracing

    tracer = tracing.Tracer()
    if not smoke:
        loop.op()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or (not smoke and time.perf_counter() - start < seconds):
        plain.append(loop.op().wall_s)
        tracer.op = loop.index
        tracer.install()
        try:
            t = loop.op().wall_s
        finally:
            tracer.uninstall()
        traced.append(t)
        layers.append(tracing.op_layers(tracer.spans, tracer.op, t))
    out = tracing.median_layers(layers)
    out["trace.op_s_p50"] = statistics.median(traced)
    out["trace.untraced_op_s_p50"] = statistics.median(plain)
    out["trace.overhead_s"] = out["trace.op_s_p50"] - out["trace.untraced_op_s_p50"]
    # ROADMAP item 2 decides on _parallel_esr and --jobs from this number
    out["cli.esr_jobs2_s"] = loop.op(jobs=2).wall_s if loop.workload == "esr-sweep" else 0.0
    spans_dir = ROOT / ".perfbench_out"
    spans_dir.mkdir(exist_ok=True)
    (spans_dir / f"spans-{loop.workload}.json").write_text(
        json.dumps({"workload": loop.workload, "spans": tracing.spans_json(tracer.spans)}))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--probe", action="store_true", help="stop after set-up")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    configs = sorted((WORKLOADS / args.workload).glob("*.conf"))
    from cryomech import cli

    parsed = [cli.parse_config(c) for c in configs]
    busy, samples = sampler.stop()
    print("ready", flush=True)
    # the parent's set-up time includes the sampler's; it takes that back out
    setup = {"setup_sampler_s": busy, "setup_speed": sampler.speed(samples)}
    if args.probe:
        print(json.dumps(setup))
        return 0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: cryomech imported from {cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = scratch_root / f"child-{os.getpid()}"
    loop = Loop(cli, args.workload, parsed, configs, args.seed, scratch,
                None if args.trace else sampler)
    try:
        if args.trace:
            summary = {"layers": traced_ops(loop, args.seconds, args.smoke)}
        else:
            summary = timed_ops(loop, args.seconds, args.smoke)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary.update(
        setup, attempted=loop.attempted, failed=loop.failed, problems=loop.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_record())
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
