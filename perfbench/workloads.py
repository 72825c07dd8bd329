"""The four benchmark workloads: inputs, one op, and the checks on its result.

Each workload is driven only through public entry points: ``cli.main(argv)``
in this warm process, or public library functions.  Op ``i`` draws its
input from ``(seed, i % POOL)``, so a run cycles through ``POOL`` distinct
inputs and every op of the reference seed has a recorded reference report.

Library modules are always reached by attribute (``channel.fixed_space``),
never imported by name, so that the traced run sees every call.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from krauslab import channel, cli, ensembles, inequalities, tracelab

POOL = 12


def derived_seed(seed: int, i: int) -> int:
    """CLI ``--seed`` of op ``i``: a 32-bit key drawn from ``(seed, i % POOL)``."""
    return int(np.random.SeedSequence([seed, i % POOL]).generate_state(1)[0])


def _read_report(path: str, problems: list) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"report is not valid JSON: {exc}")
        return {}
    if report.get("results", {}).get("failures") != 0:
        problems.append(f"failures = {report.get('results', {}).get('failures')}")
    return report.get("results", {})


def _cuntz_checks(results: dict, problems: list) -> None:
    tol = channel.fix_tol(48)
    if results.get("v2_comm") != 0.0:
        problems.append(f"v2_comm = {results.get('v2_comm')}")
    if not results.get("v1_comm_sq", math.inf) <= results.get("tail_bound", -math.inf):
        problems.append("v1_comm_sq exceeds tail_bound")
    for key in ("perturbation_residual", "candidate_fixed_defect"):
        if not results.get(key, math.inf) <= tol:
            problems.append(f"{key} = {results.get(key)} > fix_tol {tol}")


class CliWorkload:
    """One CLI report per op; the checks read the JSON (and CSV) it wrote.

    A seeded workload passes ``--seed`` and ``--csv`` and expects ``trials``
    CSV rows; an unseeded one has a single input.
    """

    def __init__(self, argv: list, warm_argv: list, trials: int = 0, checks=None):
        self.base = argv
        self.warm = warm_argv
        self.seeded = trials > 0
        self.trials = trials
        self.checks = checks
        self.pool = POOL if self.seeded else 1

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.json_path = os.path.join(workdir, "report.json")
        self.csv_path = os.path.join(workdir, "rows.csv")
        cli.main(self.warm + ["--json", self.json_path])

    def argv(self, i: int) -> list:
        argv = list(self.base)
        if self.seeded:
            argv += ["--seed", str(derived_seed(self.seed, i)), "--csv", self.csv_path]
        return argv + ["--json", self.json_path]

    def op(self, i: int):
        return cli.main(self.argv(i))

    def check(self, i: int, rc) -> tuple:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        results = _read_report(self.json_path, problems)
        if self.checks:
            self.checks(results, problems)
        report = {"results": results}
        if self.seeded:
            if results.get("trials") != self.trials:
                problems.append(f"trials = {results.get('trials')}")
            report["csv_sums"] = self._csv_sums(problems)
        return report, problems

    def _csv_sums(self, problems: list) -> dict:
        """Column sums of the per-trial CSV, so every row counts against the reference."""
        try:
            with open(self.csv_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            problems.append(f"csv unreadable: {exc}")
            return {}
        if len(rows) != self.trials:
            problems.append(f"csv has {len(rows)} rows, expected {self.trials}")
        sums = {}
        for column in rows[0] if rows else ():
            if column in ("trial", "digest"):
                continue
            values = [row[column] for row in rows]
            try:
                sums[column] = sum(int(v) for v in values)
            except ValueError:
                sums[column] = math.fsum(float(v) for v in values)
        return sums


KINDS = ("generic", "tensor", "ginibre")
EXPECTED_FIX = {"generic": 1, "tensor": 16, "ginibre": 1}
EXPECTED_CLOSED = {"generic": True, "tensor": True, "ginibre": False}


def make_family(kind: str, rng: np.random.Generator, d: int, m: int = 3):
    """A seeded family of one of the three kinds at dimension d (4 | d)."""
    if kind == "generic":
        return ensembles.mixed_unitary_family(rng, d, m)
    if kind == "tensor":
        probs = rng.dirichlet(np.ones(m))
        eye = np.eye(4)
        return channel.KrausFamily(
            [math.sqrt(p) * np.kron(ensembles.haar_unitary(rng, d // 4), eye) for p in probs]
        )
    gs = [ensembles.ginibre(rng, d) for _ in range(m)]
    w, v = np.linalg.eigh(sum(g @ g.conj().T for g in gs))
    root_inv = (v / np.sqrt(w)) @ v.conj().T
    return channel.KrausFamily([root_inv @ g for g in gs])


class FamilyQueries:
    """A full analysis of one seeded d = 24 family per op; kinds rotate.

    Set-up keeps only the Kraus arrays, y and the family's JSON file; each op
    builds its own ``KrausFamily`` from the arrays.
    """

    pool = POOL
    dim = 24

    def prepare(self, seed: int, workdir: str) -> None:
        self.json_path = os.path.join(workdir, "report.json")
        self.inputs = [self._make_input(seed, i, self.dim, workdir) for i in range(POOL)]
        self.op(0, self._make_input(seed, 0, 8, workdir))

    @staticmethod
    def _make_input(seed: int, i: int, d: int, workdir: str) -> dict:
        kind = KINDS[i % len(KINDS)]
        rng = ensembles.trial_rng(seed, i)
        fam = make_family(kind, rng, d)
        g = ensembles.ginibre(rng, d)
        path = os.path.join(workdir, f"family{i}-{d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fam.to_json(), fh)
        return {"kind": kind, "ops": fam.ops, "y": (g + g.conj().T) / 2.0, "path": path}

    def op(self, i: int, inp: dict | None = None) -> dict:
        inp = inp or self.inputs[i % POOL]
        # A fresh family on fresh arrays per op: nothing the program might
        # cache on a family or its arrays carries over from an earlier op.
        fam = channel.KrausFamily([a.copy() for a in inp["ops"]])
        out = {"rc": cli.main(["analyze", "--input", inp["path"], "--json", self.json_path]), "family": fam}
        out["fixed"] = channel.fixed_space(fam)
        out["pert"] = channel.solve_perturbation(fam, inp["y"])
        out["trace"] = tracelab.extract_trace(fam)
        out["near"] = tracelab.near_fixed_from_trace(fam, out["trace"])
        out["closure"] = channel.fix_closed_under_square(fam)
        if inp["kind"] != "ginibre":
            out["bounds"] = inequalities.defect_bounds(fam, inp["y"] + out["pert"].z)
        return out

    def check(self, i: int, out: dict) -> tuple:
        kind, fam = self.inputs[i % POOL]["kind"], out["family"]
        problems = [] if out["rc"] == 0 else [f"analyze exit code {out['rc']}"]
        analyze = _read_report(self.json_path, problems)
        fixed, near, closure = out["fixed"], out["near"], out["closure"]
        tol = channel.fix_tol(fam.dim)
        if analyze.get("fix_dim") != EXPECTED_FIX[kind] or len(fixed) != EXPECTED_FIX[kind]:
            problems.append(f"{kind}: fix dim {analyze.get('fix_dim')}/{len(fixed)}, expected {EXPECTED_FIX[kind]}")
        worst = max((float(np.linalg.norm(channel.apply(fam, h) - h)) for h in fixed.basis), default=0.0)
        if worst > tol:
            problems.append(f"{kind}: basis element moved by {worst:.3e} > fix_tol")
        if closure.closed != EXPECTED_CLOSED[kind]:
            problems.append(f"{kind}: closed under squares = {closure.closed}")
        if not near.certified_bound >= near.commutator_hs:
            problems.append(f"{kind}: certified bound {near.certified_bound} < {near.commutator_hs}")
        bounds = out.get("bounds", ())
        if any(b.is_counterexample for b in bounds):
            problems.append(f"{kind}: defect bound counterexample")
        report = {
            "kind": kind,
            "analyze": analyze,
            "fix_dim": len(fixed),
            "perturbation_residual": out["pert"].residual,
            "perturbation_z_hs": float(np.linalg.norm(out["pert"].z)),
            "trace_defect": out["trace"].defect,
            "trace_normalization": out["trace"].normalization,
            "near_commutator_hs": near.commutator_hs,
            "near_fixed_defect": near.fixed_defect,
            "near_certified_bound": near.certified_bound,
            "closed": closure.closed,
            "closure_fix_dim": closure.fix_dim,
            "commutant_dim": closure.commutant_dim,
            "defect_bounds": [[b.lhs, b.rhs] for b in bounds],
        }
        return report, problems


def make(name: str):
    """The workload called ``name``."""
    if name == "cuntz_dense":
        # The truncated-Cuntz input is deterministic: the seed does not change it.
        return CliWorkload(["cuntz", "--dim", "48"], ["cuntz", "--dim", "16"], checks=_cuntz_checks)
    if name == "family_queries":
        return FamilyQueries()
    if name == "commuting_sweep":
        return CliWorkload(
            ["commuting", "--dim", "12", "--ops", "3", "--trials", "20"],
            ["commuting", "--dim", "4", "--ops", "2", "--trials", "2"],
            trials=20,
        )
    if name == "fuzz_sweep":
        return CliWorkload(
            ["fuzz", "--trials", "200", "--dim", "8", "--ops", "6"],
            ["fuzz", "--trials", "5", "--dim", "8", "--ops", "6"],
            trials=200,
        )
    raise ValueError(f"unknown workload {name!r}")


def compare(ref, got, path: str = "report") -> list:
    """Differences of ``got`` from ``ref``: exact for non-floats, 1e-10 relative for floats.

    Keys present only in ``got`` are ignored, so reports may gain fields.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        return [
            p
            for k, v in ref.items()
            if k != "wall_time_ms"
            for p in (compare(v, got[k], f"{path}.{k}") if k in got else [f"{path}.{k}: missing"])
        ]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [p for j, (r, g) in enumerate(zip(ref, got)) for p in compare(r, g, f"{path}[{j}]")]
    if isinstance(ref, float) and isinstance(got, float):
        return [] if abs(got - ref) <= 1e-10 * (1.0 + abs(ref)) else [f"{path}: {got!r} vs reference {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} vs reference {ref!r}"]
    return []
