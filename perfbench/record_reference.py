"""Record the reference reports that ``run.py --seed 0`` compares against.

Run once, from the repository root, at the commit whose reports are the
reference:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference/<workload>.json`` with the checked report of
every op index in the input pool.  An op that fails its own checks is not
recorded; the script exits 1 instead.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run


def record(name: str, workdir: str) -> dict:
    wl = run.set_up(name, run.REFERENCE_SEED, workdir)
    reports = {}
    for i in range(wl.pool):
        report, problems = wl.check(i, wl.op(i))
        if problems:
            raise SystemExit(f"{name} op {i} fails its checks: {problems}")
        reports[str(i)] = report
    return {"seed": run.REFERENCE_SEED, "pool": wl.pool, "reports": reports}


def main() -> int:
    if not run.prepare_process():
        return 2
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for name in run.NAMES:
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
            ref = record(name, workdir)
        with open(os.path.join(run.REFERENCE_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {ref['pool']} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
