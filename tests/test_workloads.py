"""The benchmark's reference reports, checked as the benchmark checks them.

For each workload under ``perfbench/workloads``, one op (every config once
through ``cryomech.cli.main``) runs at two seeds, and perfbench's own
``check_op`` compares its reports with the stored references.  A change
that moves a reference value then fails here as well as in the benchmark
run.  ``perfbench/child.py`` is loaded from its file and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cryomech import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = sorted(p.name for p in (PERFBENCH / "workloads").iterdir() if p.is_dir())


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    module = importlib.util.module_from_spec(spec)
    # leave no bytecode beside the benchmark's files
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_matches_references(child, workload, seed, tmp_path):
    configs = sorted((PERFBENCH / "workloads" / workload).glob("*.conf"))
    parsed = [cli.parse_config(c) for c in configs]
    _, codes = child.run_op(cli, configs, seed, tmp_path)
    assert child.check_op(configs, parsed, codes, seed, tmp_path,
                          child.load_refs(workload)) == []
