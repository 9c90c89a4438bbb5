"""Tests of the benchmark itself; the repository's tier-1 run does not collect
them.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import tracer as tracing  # noqa: E402


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(trace):
    proc = run_bench("--workload", "all", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(w["name"] for w in spec["workloads"])
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0, (workload, proc.stdout)
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
        for name, unit in list(units.items()) + [("failed_frac", "frac")]:
            assert any(line.split()[:2] == [workload, name] and line.split()[-1] == unit
                       for line in proc.stdout.splitlines()), (workload, name)
    if trace:
        points = child.WORKLOADS / "esr-sweep" / "esr-scan.conf"
        sweep = dict(line.split("=") for line in points.read_text().splitlines()
                     if "=" in line)
        esr = results["esr-sweep"]["metrics"]
        assert esr["lindblad.steady_state.calls"]["value"] == int(sweep["points"])


def _op_with_profile(workload: str, tmp_path: Path) -> tuple[Counter, Counter]:
    """Span counts of one traced op, and the calls a profiler saw of the same
    functions, by span name."""
    from cryomech import cli

    configs = sorted((child.WORKLOADS / workload).glob("*.conf"))
    tracer = tracing.Tracer()
    seen: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in tracer.codes:
            seen[tracer.codes[frame.f_code]] += 1

    tracer.install()
    sys.setprofile(profile)
    try:
        child.run_op(cli, configs, 0, tmp_path)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    return Counter(s.name for s in tracer.spans), seen


@pytest.mark.parametrize("workload", ["transfer", "small-dims"])
def test_spans_match_every_call_site(workload, tmp_path):
    spans, seen = _op_with_profile(workload, tmp_path)
    assert spans == seen
    if workload == "transfer":
        assert spans[tracing.TRANSFER] == 1 and spans["lindblad.evolve"] > 1


def test_corrupted_reference_fails_the_op(tmp_path):
    from cryomech import cli

    configs = sorted((child.WORKLOADS / "small-dims").glob("*.conf"))
    parsed = [cli.parse_config(c) for c in configs]
    loop = child.Loop(cli, "small-dims", parsed, configs, 0, tmp_path)
    assert loop.op().ok
    loop.refs["verify-all"] = child.corrupt(loop.refs["verify-all"])
    assert not loop.op().ok
    assert (loop.attempted, loop.failed) == (2, 1)


def test_generator_bytes_of_dense_and_sparse():
    import numpy as np
    import scipy.sparse as sp

    dense = np.eye(4, dtype=complex)
    assert tracing.generator_bytes(dense) == 16 * 16
    sparse = sp.csr_matrix(dense)
    assert tracing.generator_bytes(sparse) == (sparse.data.nbytes + sparse.indices.nbytes
                                               + sparse.indptr.nbytes)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "transfer", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
