"""Run every workload once and print each metric by name and unit.

    python3 perfbench/report.py [--seed 0]

Each workload runs in its own untraced 24 s ``run.py`` process, with its
correctness checks (and, for seed 0, the reference comparison).  Exits 1 if any
workload reports an incorrect op or fails to produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.REFERENCE_SEED)
    args = parser.parse_args(argv)
    ok = True
    for name in run.NAMES:
        cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
               "--workload", name, "--seed", str(args.seed), "--seconds", "24", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<48} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
