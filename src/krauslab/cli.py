"""Command-line front door over the library.

Five subcommands: ``analyze`` (gap report for a Kraus JSON file), ``cuntz``
(one truncation experiment), ``commuting`` (randomized product-map trials),
``fuzz`` (randomized inequality trials) and ``schur`` (symbol/measure report).
Each subcommand takes only the flags it reads, declared with their defaults and
lowest accepted values in one table, ``_COMMANDS``.

Reports are JSON with sorted keys; running the same configuration twice
produces byte-identical output except for the ``wall_time_ms`` field.  All
randomness comes from Philox streams keyed by ``(seed, trial_index)``, so
trial i of a run is reproducible on its own.

Exit codes: 0 all checks passed, 1 at least one counterexample or failed
check, 2 input error (an input too large for memory included).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import commuting, cuntz, inequalities, opcore, schur
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

SCHEMA_VERSION = "2"


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
        # NaN and Infinity are not JSON: a report holding one is an error
        return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()

    @property
    def failures(self) -> int:
        return int(self.results.get("failures", 0))


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
        **rep.to_json(),
        "unital_defect": fam.unital_defect,
        "counital_defect": fam.counital_defect,
        # a unital family fixes the identity, so its fixed space is never trivial
        "failures": int(fam.is_unital and rep.fix_dim == 0),
    }
    return results, (), ()


def _run_cuntz(cfg: RunConfig) -> tuple:
    rep = cuntz.experiment(cfg.dim)
    tol = unital_tol(cfg.dim)
    checks = (
        rep.commutation.v2_comm == 0.0,
        rep.commutation.v1_comm_sq <= rep.commutation.tail_bound,
        rep.unital_defect <= tol,
        rep.counital_defect <= tol,
    )
    results = rep.to_json()
    results["failures"] = sum(1 for ok in checks if not ok)
    return results, (), ()


def _run_commuting(cfg: RunConfig) -> tuple:
    dim, ops, trials, tol = cfg.dim, cfg.ops, cfg.trials, cfg.tol
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
    dim, ops, trials = cfg.dim, cfg.ops, cfg.trials
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


# truncation size of a measure's report when --dim is absent
_MEASURE_DIM = 8


def _is_positive(mu: schur.CircleMeasure) -> bool:
    """Real atom weights >= 0 and density values >= 0."""
    atoms_ok = all(w.imag == 0.0 and w.real >= 0.0 for _, w in mu.atoms)
    return atoms_ok and (mu.density is None or bool(np.all(mu.density >= 0.0)))


def _run_schur(cfg: RunConfig) -> tuple:
    if not cfg.input_path:
        raise ValueError("schur needs an input symbol or measure JSON file")
    obj = _load_json(cfg.input_path)
    n = cfg.dim
    positive = False
    if isinstance(obj, dict) and "coeffs" in obj:
        sym = schur.symbol_from_json(obj)
        source = "symbol"
        if n is None:
            n = sym.kmax + 1
    elif isinstance(obj, dict) and ("atoms" in obj or "density" in obj):
        mu = schur.measure_from_json(obj)
        if n is None:
            n = _MEASURE_DIM
        sym = schur.fourier_coeffs(mu, n - 1)
        source = "measure"
        positive = _is_positive(mu)
    else:
        raise ValueError("input must contain a 'coeffs' symbol or an 'atoms' or 'density' measure")
    spectrum = schur.truncated_spectrum(sym, n)
    toeplitz = schur.multiplier_matrix(sym, n)
    # d_{-k} = conj(d_k) up to rounding relative to the largest |d_k|
    scale = max(abs(v) for v in sym.coeffs.values())
    hermitian = all(
        abs(sym.coeffs[k] - sym.coeffs[-k].conjugate()) <= 1e-12 * scale
        for k in range(sym.kmax + 1)
    )
    toeplitz_min_eig = None
    if hermitian:
        toeplitz_min_eig = float(np.linalg.eigvalsh(toeplitz).min())
    failures = 0
    if positive:
        # a positive measure has a PSD Toeplitz matrix at every truncation
        try:
            opcore.require_psd(toeplitz, "Toeplitz matrix")
        except ValueError:
            failures = 1
    results = {
        "source": source,
        "kmax": sym.kmax,
        "n": n,
        "eps": cfg.tol,
        "spectrum": _pairs(spectrum),
        "min_abs_coeff": schur.min_abs_coeff(sym),
        "pointwise_invertible": schur.pointwise_invertibility(sym, cfg.tol),
        "hermitian_symbol": hermitian,
        "toeplitz_min_eig": toeplitz_min_eig,
        "failures": failures,
    }
    return results, (), ()


class Flag(NamedTuple):
    """One flag of one subcommand: its default and its lowest accepted value.

    A flag without a default says in ``absent`` what leaving it out means.
    """

    name: str
    default: object = None
    low: object = None
    absent: str = ""


# flag -> (RunConfig field, argparse type, help text)
_FLAG_KINDS = {
    "--dim": ("dim", int, "matrix dimension / truncation size"),
    "--ops": ("ops", int, "generators per family"),
    "--trials": ("trials", int, "number of randomized trials"),
    "--seed": ("seed", int, "master seed for the Philox streams"),
    "--tol": ("tol", float, "tolerance/threshold override"),
    "--input": ("input_path", str, "input JSON file"),
}

# The whole command line: subcommand -> (runner, help line, the flags it reads).
# Every subcommand also takes the output paths --json and --csv.
_COMMANDS = {
    "analyze": (
        _run_analyze,
        "gap report for a Kraus family JSON file",
        (Flag("--input", absent="required"), Flag("--tol", absent="default 1e-8 * dim")),
    ),
    "cuntz": (_run_cuntz, "one truncated-isometry experiment", (Flag("--dim", 16, 4),)),
    "commuting": (
        _run_commuting,
        "randomized product-map spectrum and intertwiner trials",
        (
            Flag("--dim", 6, 1),
            Flag("--ops", 3, 1),
            Flag("--trials", 20, 0),
            Flag("--seed", 0),
            Flag("--tol", 1e-7),
        ),
    ),
    "fuzz": (
        _run_fuzz,
        "randomized inequality trials",
        (Flag("--dim", 8, 2), Flag("--ops", 6, 1), Flag("--trials", 200, 0), Flag("--seed", 0)),
    ),
    "schur": (
        _run_schur,
        "spectrum and invertibility report for a symbol or measure",
        (
            Flag("--input", absent="required"),
            Flag("--dim", low=1, absent=f"default kmax + 1 (symbol), {_MEASURE_DIM} (measure)"),
            Flag("--tol", 1e-8),
        ),
    ),
}


def _resolved(cfg: RunConfig, flags: tuple) -> RunConfig:
    """``cfg`` with each absent flag at its default, every flag checked against its lowest value.

    A field set away from its ``RunConfig`` default must be one of the flags.
    """
    taken = {flag.name for flag in flags}
    unset = RunConfig(cfg.command)
    for name, (dest, _, _) in _FLAG_KINDS.items():
        if name not in taken and getattr(cfg, dest) != getattr(unset, dest):
            raise ValueError(f"{cfg.command} does not take {name}")
    values = {}
    for flag in flags:
        dest = _FLAG_KINDS[flag.name][0]
        value = getattr(cfg, dest)
        if value is None:
            value = flag.default
        if flag.low is not None and value is not None and value < flag.low:
            raise ValueError(f"{flag.name} must be >= {flag.low}, got {value}")
        if flag.name == "--tol" and value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"--tol must be > 0, got {value}")
        values[dest] = value
    return replace(cfg, **values)


def run(cfg: RunConfig) -> Report:
    """Execute one configuration and package the deterministic report.

    The report's ``config`` echoes ``cfg`` as given; the runner sees it with
    the command's defaults filled in.
    """
    if cfg.command not in _COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    runner, _, flags = _COMMANDS[cfg.command]
    resolved = _resolved(cfg, flags)
    start = time.perf_counter()
    results, header, rows = runner(resolved)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse front of ``_COMMANDS``, built once per process."""
    parser = argparse.ArgumentParser(
        prog="krauslab",
        description="Fixed-point diagnostics for Kraus-form completely positive maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # an absent flag stays out of the namespace, so RunConfig echoes its field default
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in flags:
            dest, kind, text = _FLAG_KINDS[flag.name]
            limits = flag.absent or f"default {flag.default}"
            if flag.low is not None:
                limits += f"; lowest {flag.low}"
            p.add_argument(flag.name, dest=dest, type=kind, help=f"{text} ({limits})")
        p.add_argument("--json", dest="json_path", help="write the JSON report here")
        p.add_argument("--csv", dest="csv_path", help="write per-trial CSV rows here")
    return parser


def main(argv=None) -> int:
    cfg = RunConfig(**vars(_build_parser().parse_args(argv)))
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if report.failures else 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
