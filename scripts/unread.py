"""Name every ``src/krauslab`` function that no CLI report or demo enters.

Usage: PYTHONPATH=src python3 scripts/unread.py

The fourteen configurations of ``report_diff.py`` and every ``demos/*.py``
run in this one process under ``sys.setprofile``, their output discarded.
Each code object that starts a frame is matched to its ``ast`` definition
by file and first line (``co_qualname`` needs Python 3.11).  Dunder methods
are skipped, and ``KEPT`` names the functions kept on purpose although
nothing here may enter them, each with its reason.

Exit codes: 0 every other function was entered; 1 one was not, a ``KEPT``
entry names no definition, or a run exited 2.
"""

import ast
import contextlib
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from report_diff import CONFIGS  # noqa: E402

ORACLE = "oracle: not to be optimized or deleted; tests hold to it"
WRITER = "input-format writer: perfbench writes its family files with it"
KEPT = {
    "channel.commutant": f"{ORACLE} fix_closed_under_square's commutant certificate",
    "channel.superoperator": f"{ORACLE} the block core and the singular values read off S_h",
    "opcore.sylvester_null_space": f"{ORACLE} the paths checked against commutant and intertwiner_space",
    "opcore.linear_map_matrix": f"{ORACLE} superoperator, theta_superoperator and schur_apply",
    "commuting.intertwiner_space": f"{ORACLE} the intertwiners read off joint eigenbases",
    "channel.KrausFamily.to_json": WRITER,
    "opcore.matrix_to_json": WRITER,
    "schur.symbol_to_json": WRITER,
    "schur.measure_to_json": WRITER,
    "channel.apply_predual": "the paper's predual psi_*, with its own duality tests",
    "__init__.__getattr__": "loads cli on first use, for code that imports only the package",
}


def definitions() -> dict:
    """``(file, first line) -> module.qualname`` of every def in the package
    but dunder methods, which Python calls, not the package."""
    found = {}

    def walk(node, path: Path, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (in_class and child.name.startswith("__") and child.name.endswith("__")):
                    # a decorated function's code starts at its first decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.", False)

    for path in sorted((ROOT / "src" / "krauslab").glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, f"{path.stem}.", False)
    return found


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for config in CONFIGS:
                sys.argv = ["krauslab", *config]
                try:
                    runpy.run_module("krauslab.cli", run_name="__main__")
                except SystemExit as stop:
                    if stop.code == 2:
                        sys.exit(f"krauslab {' '.join(config)} exited 2")
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    defs = definitions()
    unread = dict(defs)
    for code in entered:
        unread.pop((os.path.realpath(code.co_filename), code.co_firstlineno), None)
    problems = [f"{n}: never entered" for n in sorted(set(unread.values()) - KEPT.keys())]
    problems += [f"{n}: in KEPT but not defined" for n in sorted(KEPT.keys() - set(defs.values()))]
    for line in problems:
        print(line)
    print(f"{len(problems)} problems; {len(KEPT)} functions kept unread on purpose")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
