"""Write the reference reports the benchmark checks every op against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it only on a commit whose reports are trusted: each ``<config>.conf``
under ``workloads/`` gets ``<config>.ref.json``, or one
``<config>.<record>.ref.json`` per measurement record where the scenario
samples a Bell branch from the seed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from child import ROOT, WORKLOADS, ref_key, run_op

#: Seeds tried on a branch-sampling config; every branch with probability
#: above a few percent shows up.
SEEDS = range(64)


def main() -> int:
    from cryomech import cli

    scratch = ROOT / ".perfbench_tmp" / "refs"
    for conf in sorted(WORKLOADS.glob("*/*.conf")):
        scenario = cli.parse_config(conf)["scenario"]
        for path in conf.parent.glob(f"{conf.stem}.*ref.json"):
            path.unlink()
        written = set()
        for seed in SEEDS:
            _, codes = run_op(cli, [conf], seed, scratch)
            if codes != [0]:
                raise SystemExit(f"{conf}: exit {codes[0]}")
            doc = json.loads((scratch / conf.stem / f"{scenario}.json").read_text())
            key = ref_key(conf.stem, doc)
            if key not in written:
                (conf.parent / f"{key}.ref.json").write_text(
                    json.dumps(doc, sort_keys=True, indent=1) + "\n")
                written.add(key)
            if not doc.get("measurement_record"):
                break
        print(f"{conf.relative_to(WORKLOADS)}: {sorted(written)}")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
