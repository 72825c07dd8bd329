"""Run every reference-seed op of the benchmark and compare it with its reference report.

Usage, from the repository root:

    python3 scripts/check_references.py [workload ...]

``perfbench/run.py --seed 0 --seconds 0`` times op 0 only, so the other
inputs of each workload's pool are never compared there.  This script
imports ``perfbench/run.py`` as it is and runs ops 0 .. pool - 1 of each
named workload (all of them by default) through ``run.run_op``, with
``RuntimeWarning`` raised as an error.  It prints one line per workload
and the problems of every failing op, and exits 1 if any op fails.

The references are recorded to 1e-10 relative on one BLAS build; another
build may differ beyond that.
"""

from __future__ import annotations

import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import run  # noqa: E402


def check(name: str) -> list:
    """Problems of ops 0 .. pool - 1 of ``name`` at the reference seed."""
    reference = run.load_reference(name)
    problems, failing = [], 0
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        wl = run.set_up(name, run.REFERENCE_SEED, workdir)
        for i in range(reference["pool"]):
            bad = run.run_op(wl, i, reference)[1]
            failing += bool(bad)
            problems += [f"{name} {p}" for p in bad]
    print(f"{name}: {reference['pool']} ops, {failing} failing", flush=True)
    return problems


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(run.NAMES)
    unknown = sorted(set(names) - set(run.NAMES))
    if unknown:
        print(f"error: unknown workloads {unknown}", file=sys.stderr)
        return 2
    if not run.prepare_process():
        return 2
    warnings.simplefilter("error", RuntimeWarning)
    problems = [p for name in names for p in check(name)]
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
