"""Command-line front door over the library.

Five subcommands: ``analyze`` (gap report for a Kraus JSON file), ``cuntz``
(one truncation experiment), ``commuting`` (randomized product-map trials),
``fuzz`` (randomized inequality trials) and ``schur`` (symbol/measure report).

Reports are JSON with sorted keys; running the same configuration twice
produces byte-identical output except for the ``wall_time_ms`` field.  All
randomness comes from Philox streams keyed by ``(seed, trial_index)``, so
trial i of a run is reproducible on its own.

Exit codes: 0 all checks passed, 1 at least one counterexample or failed
check, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import commuting, cuntz, inequalities, schur
from .channel import KrausFamily, gap_report, unital_tol
from .ensembles import (
    commuting_normal_family,
    ginibre,
    intertwining_pair,
    mixed_unitary_family,
    random_luders_family,
    random_psd,
    random_psd_coefficients,
    trial_rng,
)

__all__ = ["SCHEMA_VERSION", "RunConfig", "Report", "run", "main", "entry"]

SCHEMA_VERSION = "1"


@dataclass
class RunConfig:
    """Echo-able description of one CLI run."""

    command: str
    seed: int = 0
    dim: int | None = None
    ops: int | None = None
    trials: int | None = None
    tol: float | None = None
    input_path: str | None = None
    json_path: str | None = None
    csv_path: str | None = None

    def echo(self) -> dict:
        # output destinations are not part of the computation
        fields = asdict(self)
        fields.pop("json_path")
        fields.pop("csv_path")
        return fields


@dataclass
class Report:
    """Run outcome; ``csv_rows`` feed the optional --csv output only."""

    schema_version: str
    command: str
    config: dict
    results: dict
    wall_time_ms: int
    csv_header: tuple = ()
    csv_rows: tuple = ()

    def to_json_bytes(self) -> bytes:
        payload = {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "wall_time_ms": self.wall_time_ms,
        }
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()

    @property
    def failures(self) -> int:
        return int(self.results.get("failures", 0))


def _at_least(flag: str, value: int, low: int) -> int:
    """Return ``value``, raising an input error that names ``flag`` if it is below ``low``."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")
    return value


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def load_kraus(path: str) -> KrausFamily:
    """Read a ``{"dim", "kraus"}`` JSON file into a validated family."""
    return KrausFamily.from_json(_load_json(path))


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values).ravel()]


def _run_analyze(cfg: RunConfig) -> tuple:
    if not cfg.input_path:
        raise ValueError("analyze needs an input Kraus JSON file")
    fam = load_kraus(cfg.input_path)
    rep = gap_report(fam, cfg.tol)
    results = {
        "sigma_min": rep.sigma_min,
        "restricted_gap": None if np.isinf(rep.restricted_gap) else rep.restricted_gap,
        "fix_dim": rep.fix_dim,
        "unital_defect": fam.unital_defect,
        "counital_defect": fam.counital_defect,
        "failures": 0,
    }
    return results, (), ()


def _run_cuntz(cfg: RunConfig) -> tuple:
    n = _at_least("--dim", cfg.dim if cfg.dim is not None else 16, 4)
    rep = cuntz.experiment(n)
    tol = unital_tol(n)
    checks = (
        rep.v2_comm == 0.0,
        rep.v1_comm_sq <= rep.tail_bound,
        rep.unital_defect <= tol,
        rep.counital_defect <= tol,
    )
    results = rep.to_json()
    results["failures"] = sum(1 for ok in checks if not ok)
    return results, (), ()


def _run_commuting(cfg: RunConfig) -> tuple:
    dim = _at_least("--dim", cfg.dim if cfg.dim is not None else 6, 1)
    ops = _at_least("--ops", cfg.ops if cfg.ops is not None else 3, 1)
    trials = cfg.trials if cfg.trials is not None else 20
    tol = cfg.tol if cfg.tol is not None else 1e-7
    header = (
        "trial",
        "fix_dim",
        "intertwiner_dim",
        "subspace_distance",
        "hausdorff",
        "min_real",
        "max_imag",
        "passed",
    )
    rows = []
    failures = 0
    worst_hausdorff = 0.0
    worst_distance = 0.0
    worst_min_real = np.inf
    worst_max_imag = 0.0
    for t in range(trials):
        rng = trial_rng(cfg.seed, t)
        if t % 2 == 0:
            a, b = intertwining_pair(rng, dim, ops)
        else:
            a = commuting_normal_family(rng, dim, ops)
            b = commuting_normal_family(rng, dim, ops)
        chk = commuting.intertwiner_fixed_point_check(a, b, tol)
        spect = commuting.spectrum_product_check(a, b)
        pos = commuting.positive_eigenvalue_check(
            random_psd_coefficients(rng, dim, ops),
            random_psd_coefficients(rng, dim, ops),
        )
        ok = (
            chk.passed
            and spect.hausdorff <= tol
            and pos.min_real >= -1e-9
            and pos.max_imag <= 1e-9
        )
        failures += 0 if ok else 1
        worst_hausdorff = max(worst_hausdorff, spect.hausdorff)
        worst_distance = max(worst_distance, chk.subspace_distance)
        worst_min_real = min(worst_min_real, pos.min_real)
        worst_max_imag = max(worst_max_imag, pos.max_imag)
        rows.append(
            (
                t,
                chk.fix_dim,
                chk.intertwiner_dim,
                repr(chk.subspace_distance),
                repr(spect.hausdorff),
                repr(pos.min_real),
                repr(pos.max_imag),
                int(ok),
            )
        )
    results = {
        "trials": trials,
        "failures": failures,
        "worst_hausdorff": worst_hausdorff,
        "worst_subspace_distance": worst_distance,
        # the minimum over an empty sweep has no value (and inf is not JSON)
        "worst_min_real": worst_min_real if trials else None,
        "worst_max_imag": worst_max_imag,
    }
    return results, header, tuple(rows)


def _fuzz_reports(rng: np.random.Generator, dim: int, ops: int) -> list:
    """All inequality reports for one fuzz trial, in a fixed draw order."""
    d = int(rng.integers(2, dim + 1))
    m = int(rng.integers(1, ops + 1))
    if int(rng.integers(0, 2)) == 0:
        fam = mixed_unitary_family(rng, d, m)
    else:
        fam = random_luders_family(rng, d, m)
    x = ginibre(rng, d) * float(rng.uniform(0.2, 3.0))
    first, second = inequalities.defect_bounds(fam, x)
    scale = float(rng.uniform(0.2, 3.0))
    ps = inequalities.powers_stormer(
        scale * random_psd(rng, d), scale * random_psd(rng, d)
    )
    p = int(rng.integers(1, dim + 1))
    q = int(rng.integers(1, dim + 1))
    gps = inequalities.generalized_powers_stormer(
        ginibre(rng, p, q),
        float(rng.uniform(0.2, 3.0)) * random_psd(rng, p),
        float(rng.uniform(0.2, 3.0)) * random_psd(rng, q),
    )
    return [first, second, ps, gps]


def _run_fuzz(cfg: RunConfig) -> tuple:
    # each trial draws its dimension from [2, dim] and its family size from [1, ops]
    dim = _at_least("--dim", cfg.dim if cfg.dim is not None else 8, 2)
    ops = _at_least("--ops", cfg.ops if cfg.ops is not None else 6, 1)
    trials = cfg.trials if cfg.trials is not None else 200
    header = ("trial", "lhs", "rhs", "slack", "digest")
    rows = []
    failures = 0
    min_slack = np.inf
    gamma_ratio_max = 0.0
    for t in range(trials):
        rng = trial_rng(cfg.seed, t)
        reports = _fuzz_reports(rng, dim, ops)
        failures += sum(1 for r in reports if r.is_counterexample)
        gps = reports[-1]
        if gps.rhs > 1e-12:
            gamma_ratio_max = max(
                gamma_ratio_max, inequalities.GAMMA * gps.lhs / gps.rhs
            )
        worst = min(reports, key=lambda r: r.slack)
        min_slack = min(min_slack, worst.slack)
        rows.append(
            (t, repr(worst.lhs), repr(worst.rhs), repr(worst.slack), worst.inputs_digest)
        )
    results = {
        "trials": trials,
        "checks_per_trial": 4,
        "failures": failures,
        "min_slack": min_slack if trials else None,
        "empirical_gamma_max": gamma_ratio_max,
        "gamma": inequalities.GAMMA,
    }
    return results, header, tuple(rows)


def _run_schur(cfg: RunConfig) -> tuple:
    if not cfg.input_path:
        raise ValueError("schur needs an input symbol or measure JSON file")
    if cfg.dim is not None:
        _at_least("--dim", cfg.dim, 1)
    obj = _load_json(cfg.input_path)
    if isinstance(obj, dict) and "coeffs" in obj:
        sym = schur.symbol_from_json(obj)
        source = "symbol"
    elif isinstance(obj, dict) and "atoms" in obj:
        n_hint = cfg.dim if cfg.dim is not None else 8
        sym = schur.fourier_coeffs(schur.measure_from_json(obj), n_hint - 1)
        source = "measure"
    else:
        raise ValueError("input must contain a 'coeffs' symbol or an 'atoms' measure")
    n = cfg.dim if cfg.dim is not None else sym.kmax + 1
    eps = cfg.tol if cfg.tol is not None else 1e-8
    spectrum = schur.truncated_spectrum(sym, n)
    hermitian = all(
        abs(sym.coeffs[k] - sym.coeffs[-k].conjugate()) <= 1e-12
        for k in range(sym.kmax + 1)
    )
    toeplitz_min_eig = None
    if hermitian:
        toeplitz_min_eig = float(
            np.linalg.eigvalsh(schur.multiplier_matrix(sym, n)).min()
        )
    results = {
        "source": source,
        "kmax": sym.kmax,
        "n": n,
        "eps": eps,
        "spectrum": _pairs(spectrum),
        "min_abs_coeff": schur.min_abs_coeff(sym),
        "pointwise_invertible": schur.pointwise_invertibility(sym, eps),
        "hermitian_symbol": hermitian,
        "toeplitz_min_eig": toeplitz_min_eig,
        "failures": 0,
    }
    return results, (), ()


_RUNNERS = {
    "analyze": _run_analyze,
    "cuntz": _run_cuntz,
    "commuting": _run_commuting,
    "fuzz": _run_fuzz,
    "schur": _run_schur,
}


def run(cfg: RunConfig) -> Report:
    """Execute one configuration and package the deterministic report."""
    if cfg.command not in _RUNNERS:
        raise ValueError(f"unknown command {cfg.command!r}")
    if cfg.trials is not None:
        _at_least("--trials", cfg.trials, 0)
    start = time.perf_counter()
    results, header, rows = _RUNNERS[cfg.command](cfg)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return Report(
        schema_version=SCHEMA_VERSION,
        command=cfg.command,
        config=cfg.echo(),
        results=results,
        wall_time_ms=elapsed_ms,
        csv_header=header,
        csv_rows=rows,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krauslab",
        description="Fixed-point diagnostics for Kraus-form completely positive maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "analyze": "gap report for a Kraus family JSON file",
        "cuntz": "one truncated-isometry experiment",
        "commuting": "randomized product-map spectrum and intertwiner trials",
        "fuzz": "randomized inequality trials",
        "schur": "spectrum and invertibility report for a symbol or measure",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dim", type=int, default=None, help="matrix dimension / truncation size")
        p.add_argument("--ops", type=int, default=None, help="generators per family")
        p.add_argument("--trials", type=int, default=None, help="number of randomized trials")
        p.add_argument("--seed", type=int, default=0, help="master seed for the Philox streams")
        p.add_argument("--tol", type=float, default=None, help="tolerance/threshold override")
        p.add_argument("--input", dest="input_path", default=None, help="input JSON file")
        p.add_argument("--json", dest="json_path", default=None, help="write the JSON report here")
        p.add_argument("--csv", dest="csv_path", default=None, help="write per-trial CSV rows here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        seed=args.seed,
        dim=args.dim,
        ops=args.ops,
        trials=args.trials,
        tol=args.tol,
        input_path=args.input_path,
        json_path=args.json_path,
        csv_path=args.csv_path,
    )
    try:
        report = run(cfg)
        payload = report.to_json_bytes()
        if cfg.json_path:
            with open(cfg.json_path, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload.decode())
        if cfg.csv_path:
            with open(cfg.csv_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                if report.csv_header:
                    writer.writerow(report.csv_header)
                    writer.writerows(report.csv_rows)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if report.failures else 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
