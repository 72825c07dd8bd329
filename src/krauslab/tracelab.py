"""Approximate traces for Kraus families and the near-fixed elements behind them.

A density matrix ``rho`` is an approximate trace for the family when every
generator nearly commutes with it in trace norm; the defect
``sum_j ||a_j rho - rho a_j||_1`` quantifies that.  Both directions of the
correspondence are implemented: squaring a Hermitian near-fixed element yields
a density with small defect, and the PSD square root of a low-defect density
is a near-fixed element with a certified commutator bound coming from the
rectangular square-difference inequality.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import opcore
from .channel import KrausFamily, apply, fixed_space, spectral_core
from .inequalities import GAMMA

__all__ = [
    "ApproxTrace",
    "NearFixedReport",
    "trace_defect",
    "approx_trace",
    "extract_trace",
    "near_fixed_from_trace",
    "approx_trace_to_json",
    "approx_trace_from_json",
]


@dataclass(frozen=True, eq=False)
class ApproxTrace:
    """Density matrix with its commutation defect and normalization.

    ``normalization`` is ``sum_j tr(rho a_j* a_j)``, which equals 1 whenever
    the family is unital.
    """

    density: np.ndarray
    defect: float
    normalization: float


def _check_density(rho, name: str = "density") -> np.ndarray:
    sym = opcore.require_psd(rho, name)
    tr = float(np.trace(sym).real)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"{name} must have unit trace, got {tr!r}")
    return sym


def trace_defect(rho, mats) -> float:
    """Total trace-norm commutation defect sum_j ||a_j rho - rho a_j||_1."""
    sym = _check_density(rho)
    mats = opcore.square_family(mats, "mats")
    if mats[0].shape != sym.shape:
        raise ValueError(f"mats have shape {mats[0].shape}, expected {sym.shape}")
    return sum(opcore.trace_norm(m @ sym - sym @ m) for m in mats)


def approx_trace(family: KrausFamily, rho) -> ApproxTrace:
    """Package a density as an :class:`ApproxTrace` against the family."""
    sym = _check_density(rho)
    if sym.shape != (family.dim, family.dim):
        raise ValueError(
            f"density has shape {sym.shape}, expected dim {family.dim}"
        )
    defect = trace_defect(sym, family.ops)
    normalization = float(
        sum(np.trace(sym @ (a.conj().T @ a)).real for a in family.ops)
    )
    return ApproxTrace(density=sym, defect=defect, normalization=normalization)


def extract_trace(family: KrausFamily) -> ApproxTrace:
    """Approximate trace from the Hermitian near-fixed element nearest 1/sqrt(d).

    The normalized identity direction is projected onto the Hermitian basis of
    the numerical fixed space; if that projection vanishes (non-unital edge),
    the Hermitian part of the singular vector of ``S - I`` at the smallest
    singular value is used instead.  The normalized square of the selected
    element is returned as the density.
    """
    d = family.dim
    fs = fixed_space(family)
    target = np.eye(d, dtype=np.complex128) / math.sqrt(d)
    x = np.zeros((d, d), dtype=np.complex128)
    for h in fs.basis:
        x += opcore.hs_inner(h, target).real * h
    if float(np.linalg.norm(x)) <= 1e-12:
        core = spectral_core(family)
        b = opcore.devectorize(core.kernel(core.sv[-1])[:, -1], d, d)
        h = (b + b.conj().T) / 2.0
        if float(np.linalg.norm(h)) ** 2 < 1e-14:
            raise ValueError(
                "no Hermitian near-fixed element: the least singular vector "
                "of S - I is numerically anti-Hermitian"
            )
        x = h
    x /= float(np.linalg.norm(x))
    rho = x @ x
    rho /= float(np.trace(rho).real)
    return approx_trace(family, rho)


@dataclass(frozen=True, eq=False)
class NearFixedReport:
    """Near-fixed element extracted from a density, with certified bounds.

    ``certified_bound`` is ``sqrt(sum_j gamma ||a_j rho - rho a_j||_1
    ||a_j||_op)``, an a-priori bound on ``commutator_hs`` obtained by applying
    the rectangular square-difference inequality to each generator with
    ``x = y = sqrt(rho)``.
    """

    x: np.ndarray
    commutator_hs: float
    fixed_defect: float
    certified_bound: float


def near_fixed_from_trace(family: KrausFamily, trace) -> NearFixedReport:
    """Turn an approximate trace into a near-fixed element x = sqrt(rho).

    For a unital trace-preserving family ``fixed_defect`` is additionally
    bounded by ``commutator_hs``; other families only get the certified
    commutator bound, and a warning.
    """
    rho = trace.density if isinstance(trace, ApproxTrace) else trace
    sym = _check_density(rho)
    if sym.shape != (family.dim, family.dim):
        raise ValueError(f"density has shape {sym.shape}, expected dim {family.dim}")
    if not (family.is_unital and family.is_trace_preserving):
        warnings.warn(
            "near_fixed_from_trace without a unital trace-preserving family "
            "loses the fixed-defect guarantee",
            stacklevel=2,
        )
    x = opcore.psd_sqrt(sym)
    comm_sq = sum(float(np.linalg.norm(a @ x - x @ a)) ** 2 for a in family.ops)
    fixed_defect = float(np.linalg.norm(apply(family, x) - x))
    certified = math.sqrt(
        sum(
            GAMMA * opcore.trace_norm(a @ sym - sym @ a) * opcore.op_norm(a)
            for a in family.ops
        )
    )
    return NearFixedReport(
        x=x,
        commutator_hs=math.sqrt(comm_sq),
        fixed_defect=fixed_defect,
        certified_bound=certified,
    )


def approx_trace_to_json(trace: ApproxTrace) -> dict:
    """Encode as ``{"density": matrix, "defect": r, "normalization": r}``."""
    return {
        "density": opcore.matrix_to_json(trace.density),
        "defect": float(trace.defect),
        "normalization": float(trace.normalization),
    }


def approx_trace_from_json(obj) -> ApproxTrace:
    """Decode and re-validate the density; defect and normalization are trusted."""
    if not isinstance(obj, dict):
        raise ValueError("approximate-trace object must be a JSON dict")
    missing = {"density", "defect", "normalization"} - set(obj)
    if missing:
        raise ValueError(f"approximate-trace object missing keys {sorted(missing)}")
    density = _check_density(opcore.matrix_from_json(obj["density"]))
    return ApproxTrace(
        density=density,
        defect=float(obj["defect"]),
        normalization=float(obj["normalization"]),
    )
