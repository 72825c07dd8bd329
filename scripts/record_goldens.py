"""Record the reports of the deterministic CLI configurations as test goldens.

Usage: python3 scripts/record_goldens.py

Ten of ``report_diff.py``'s configurations draw no random numbers:
``analyze`` on pinching, unitary_mix, tensor_mix and reflection_mix,
``cuntz`` 16, 32, 48 and 64, and ``schur`` on measure and symbol.  Each one runs in
this process on this checkout's ``src``, and its exit code, ``results``
object and CSV rows are written to ``tests/golden/<name>.json``;
``tests/test_golden.py`` compares fresh runs against those files.
Re-recording changes test data, so a CHANGES.md line gives the reason and
the largest field move.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parent.parent / "src")]

from report_diff import CONFIGS, DATA, ROOT  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
GOLDEN_CONFIGS = [c for c in CONFIGS if c[0] not in ("commuting", "fuzz")]


def _shown(arg: str) -> str:
    """An argument with a ``demos/data`` path written relative to the checkout."""
    return str(Path(arg).relative_to(ROOT)) if arg.startswith(str(DATA)) else arg


def golden_name(config: list) -> str:
    """``cuntz-16``, ``analyze-pinching``, ``schur-measure-4``, ..."""
    return "-".join([config[0]] + [Path(a).stem for a in config[1:] if not a.startswith("--")])


def golden_report(config: list) -> dict:
    """Exit code, ``results`` and CSV rows of one in-process CLI run."""
    from krauslab import cli

    with tempfile.TemporaryDirectory() as tmp:
        json_path, csv_path = Path(tmp) / "report.json", Path(tmp) / "report.csv"
        code = cli.main(config + ["--json", str(json_path), "--csv", str(csv_path)])
        results = json.loads(json_path.read_text(encoding="utf-8"))["results"]
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    return {"argv": [_shown(a) for a in config], "exit_code": code, "results": results, "csv": rows}


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for config in GOLDEN_CONFIGS:
        path = GOLDEN / f"{golden_name(config)}.json"
        path.write_text(json.dumps(golden_report(config), sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
