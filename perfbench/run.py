"""cryomech benchmark: run one workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --smoke

Each workload runs in its own child process (``child.py``), started from the
root of the checkout with ``src`` on ``PYTHONPATH``.  ``setup_s`` is the
median time, over several fresh interpreters, from starting the child to the
point where it has imported ``cryomech.cli`` and parsed the workload's
configs.  ``setup_s`` and the op times are given at the reference speed of
``child.SpeedSampler``; the raw wall times are printed beside them.  With
``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  ``--smoke`` runs one op per workload.  Every run fails
unless it has measured exactly the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: Children run with one BLAS and one OpenMP thread.  On a shared 2-core
#: machine the default of two threads made the transfer op 8.5-9.0 s against
#: 3.9-4.6 s with one, so two threads would measure the scheduler.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: Fresh interpreters started only to time set-up; the workload's own child
#: adds one more sample.
SETUP_PROBES = 2

#: A workload's run must end within 180 s; its children are killed after this
#: long.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **CHILD_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def start_child(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a child and wait for its ``ready`` line; returns the process and
    the seconds it took to get ready."""
    start = time.perf_counter()
    # unbuffered, and read a byte at a time: communicate() later reads the
    # pipe directly, so nothing after the ready line may sit in a buffer here
    proc = subprocess.Popen([sys.executable, str(CHILD)] + args, cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, bufsize=0)
    line = b""
    while not line.endswith(b"\n"):
        byte = proc.stdout.read(1)
        if not byte:
            break
        line += byte
    ready = time.perf_counter() - start
    if line.strip() != b"ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"child did not get ready: {line.strip()!r}")
    return proc, ready


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a child until the deadline, killing it past that; returns its
    remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child ran past the deadline")
    return out.decode()


def last_json(proc: subprocess.Popen, out: str) -> dict:
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """Run one workload in its own child; returns the result object."""
    deadline = time.perf_counter() + DEADLINE_S
    setup, setup_wall = [], []

    def add_setup(ready: float, child: dict) -> None:
        # the child's speed sampler ran during set-up; take its time back out
        setup_wall.append(ready)
        setup.append((ready - child["setup_sampler_s"]) * child["setup_speed"])

    if not trace:
        for _ in range(0 if smoke else SETUP_PROBES):
            proc, ready = start_child(["--workload", workload, "--probe"])
            add_setup(ready, last_json(proc, finish(proc, deadline)))
    proc, ready = start_child(["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)]
                              + (["--smoke"] if smoke else []))
    summary = last_json(proc, finish(proc, deadline))

    extra = {"failed_frac": (summary["failed"] / summary["attempted"], "frac")}
    if trace:
        metrics = summary["layers"]
    else:
        add_setup(ready, summary)
        op_s, op_ref_s = summary["op_s"], summary["op_ref_s"]
        passed = sum(summary["op_ok"])
        metrics = {"setup_s": statistics.median(setup),
                   "op_ref_s_p50": statistics.median(op_ref_s),
                   "ops_per_ref_s": passed / sum(op_ref_s),
                   "peak_rss_mb": summary["peak_rss_mb"]}
        extra.update(setup_wall_s=(statistics.median(setup_wall), "s"),
                     op_s_p50=(statistics.median(op_s), "s"),
                     ops_per_s=(passed / sum(op_s), "1/s"))
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics, "extra": extra,
            "timed_ops": len(summary.get("op_s", ())), "machine": summary["machine"],
            "problems": summary["problems"]}


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, result: dict, units: dict[str, str]) -> dict:
    """Print one workload's metrics by name with their units; returns the
    result line's object."""
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(f"# {workload}: {result['attempted']} ops attempted, {result['failed']} failed, "
          f"{result['timed_ops']} timed; machine {json.dumps(result['machine'])}")
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    for name, value, unit in rows + [(k, v, u) for k, (v, u) in result["extra"].items()]:
        print(f"{workload:<11} {name:<40} {value:>14.6g} {unit}")
    for problem in result["problems"]:
        print(f"{workload:<11} problem: {problem}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def metric_problems(workload: str, result: dict, units: dict[str, str]) -> list[str]:
    """Metrics missing from a result or computed for no declared name."""
    got = set(result["metrics"])
    return ([f"{workload}: {n} not measured" for n in sorted(set(units) - got)]
            + [f"{workload}: {n} not declared" for n in sorted(got - set(units))])


def main(argv=None) -> int:
    workloads = sorted(p.name for p in (HERE / "workloads").iterdir() if p.is_dir())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one op per workload")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "cryomech" / "cli.py").is_file():
        print(f"error: no cryomech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    try:
        units = declared_metrics(args.trace)
        lines = {}
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
            problems = metric_problems(name, result, units)
            if problems:
                raise BenchError("; ".join(problems))
            lines[name] = report(name, result, units)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
