"""CLI reports of the eight deterministic configurations against recorded goldens.

``scripts/record_goldens.py`` wrote ``tests/golden/``.  Integers, booleans,
strings and nulls must match exactly; floats must lie within
``1e-10 * (1 + |ref|)``, the rule of the ``perfbench`` reference check.  The
goldens were recorded with one BLAS build, and another (the numpy-floor CI
job runs one) rounds differently; that tolerance passes rounding-level
differences while a real change in any value fails.  Keys present only in
the fresh report are ignored, so reports may gain fields.  The seeded
``commuting`` and ``fuzz`` sweeps draw from numpy's Generator streams and
stay with ``scripts/report_diff.py`` and the ``perfbench`` references.
"""

import importlib.util
import json
import math
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
_spec = importlib.util.spec_from_file_location("record_goldens", SCRIPTS / "record_goldens.py")
record_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_goldens)


def _numeric(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def mismatches(ref, got, path: str = "") -> list:
    """Every place where ``got`` leaves ``ref`` under the golden rule."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object, got {got!r}"]
        return [
            line
            for key, value in ref.items()
            for line in (
                mismatches(value, got[key], f"{path}.{key}") if key in got else [f"{path}.{key}: missing"]
            )
        ]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}, got {got!r}"]
        return [line for j, (r, g) in enumerate(zip(ref, got)) for line in mismatches(r, g, f"{path}[{j}]")]
    if isinstance(ref, str) and isinstance(got, str) and _numeric(ref) is not None:
        # CSV cells are strings; a numeric one is held to the float rule
        if _numeric(got) is None:
            return [f"{path}: {got!r} vs golden {ref!r}"]
        return mismatches(_numeric(ref), _numeric(got), path)
    if isinstance(ref, float) and isinstance(got, float):
        if math.isfinite(ref) and abs(got - ref) <= 1e-10 * (1.0 + abs(ref)):
            return []
        return [] if ref == got else [f"{path}: {got!r} vs golden {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} vs golden {ref!r}"]
    return []


@pytest.mark.parametrize(
    "config", record_goldens.GOLDEN_CONFIGS, ids=[record_goldens.golden_name(c) for c in record_goldens.GOLDEN_CONFIGS]
)
def test_report_matches_golden(config):
    name = record_goldens.golden_name(config)
    golden = json.loads((record_goldens.GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    fresh = record_goldens.golden_report(config)
    assert mismatches(golden, fresh) == []


def test_golden_rule_catches_moves():
    ref = {"n": 16, "x": 1.0, "ok": True, "rows": [["0", "0.5"]]}
    assert mismatches(ref, {"n": 16, "x": 1.0 + 1e-11, "ok": True, "rows": [["0", "0.5"]], "new": 1}) == []
    assert mismatches(ref, {"n": 16, "x": 1.0 + 1e-9, "ok": True, "rows": [["0", "0.5"]]}) == [".x: 1.000000001 vs golden 1.0"]
    assert len(mismatches(ref, {"n": 16.0, "x": 1.0, "ok": 1, "rows": [["0", "0.6"]]})) == 3
    assert mismatches(ref, {"x": 1.0, "ok": True, "rows": []}) == [".n: missing", ".rows: expected a list of 1, got []"]
