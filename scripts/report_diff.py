"""Compare the CLI reports of the working tree with those of a git revision.

Usage: python3 scripts/report_diff.py [REV]   (REV defaults to HEAD)

REV's ``src`` is exported with ``git archive`` into a temporary directory.
Fourteen fixed configurations then run on both trees, reading the same input
files from this checkout's ``demos/data``.  ``wall_time_ms`` is masked in
each JSON report; every other byte must agree.  Each differing JSON field is
printed as ``path: old -> new`` and each differing CSV row as ``old -> new``.

Exit codes: 0 every report is byte-identical, 1 at least one differs,
2 the revision could not be exported or a run failed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
WALL = re.compile(rb'"wall_time_ms": \d+')

CONFIGS = [
    ["analyze", "--input", str(DATA / "pinching.json")],
    ["analyze", "--input", str(DATA / "unitary_mix.json")],
    ["analyze", "--input", str(DATA / "tensor_mix.json")],
    ["analyze", "--input", str(DATA / "reflection_mix.json")],
    ["cuntz", "--dim", "16"],
    ["cuntz", "--dim", "32"],
    ["cuntz", "--dim", "48"],
    ["cuntz", "--dim", "64"],
    ["commuting", "--dim", "6", "--trials", "10", "--seed", "3"],
    ["commuting", "--dim", "12", "--trials", "5", "--seed", "11"],
    ["commuting", "--dim", "12", "--trials", "20", "--seed", "3"],
    ["fuzz", "--seed", "0"],
    ["schur", "--input", str(DATA / "measure.json"), "--dim", "4"],
    ["schur", "--input", str(DATA / "symbol.json")],
]


def export_src(rev: str, dest: Path) -> Path:
    """Extract ``rev``'s ``src`` directory under ``dest`` and return its path."""
    archive = subprocess.Popen(
        ["git", "archive", rev, "src"], cwd=ROOT, stdout=subprocess.PIPE
    )
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(2)
    return dest / "src"


def run(src: Path, argv: list, out: Path) -> tuple:
    """JSON bytes with ``wall_time_ms`` masked and CSV bytes of one CLI run."""
    json_path, csv_path = out / "report.json", out / "report.csv"
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "krauslab.cli", *argv]
    cmd += ["--json", str(json_path), "--csv", str(csv_path)]
    proc = subprocess.run(cmd, env=env, cwd=out, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        print(f"{' '.join(argv)} on {src} exited {proc.returncode}:", file=sys.stderr)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(2)
    return WALL.sub(b'"wall_time_ms": 0', json_path.read_bytes()), csv_path.read_bytes()


def json_diffs(old, new, path: str = "") -> list:
    """``path: old -> new`` for every leaf where the two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [
            line
            for key in sorted(old.keys() | new.keys())
            for line in json_diffs(old.get(key), new.get(key), f"{path}.{key}" if path else key)
        ]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [
            line
            for i, (a, b) in enumerate(zip(old, new))
            for line in json_diffs(a, b, f"{path}[{i}]")
        ]
    if old == new and type(old) is type(new):
        return []
    return [f"{path}: {old!r} -> {new!r}"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = args[0] if args else "HEAD"
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_src = export_src(rev, tmp)
        (tmp / "old").mkdir()
        (tmp / "new").mkdir()
        for config in CONFIGS:
            label = " ".join(Path(a).name if a.startswith(str(DATA)) else a for a in config)
            old_json, old_csv = run(old_src, config, tmp / "old")
            new_json, new_csv = run(ROOT / "src", config, tmp / "new")
            lines = []
            if old_json != new_json:
                fields = json_diffs(json.loads(old_json), json.loads(new_json))
                lines += fields or ["JSON bytes differ"]
            if old_csv != new_csv:
                old_rows, new_rows = old_csv.decode().splitlines(), new_csv.decode().splitlines()
                lines += [f"csv: {a} -> {b}" for a, b in zip(old_rows, new_rows) if a != b]
                if len(old_rows) != len(new_rows):
                    lines.append(f"csv: {len(old_rows)} rows -> {len(new_rows)} rows")
            print(f"{label}: {'identical' if not lines else 'DIFFERS'}")
            for line in lines:
                print(f"  {line}")
            differing += bool(lines)
    print(f"{differing} of {len(CONFIGS)} configurations differ from {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
