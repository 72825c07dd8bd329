"""Commutator-versus-defect inequalities for Kraus families.

Three families of checks, each packaged as an :class:`InequalityReport` whose
``slack = rhs - lhs`` should stay nonnegative up to rounding:

* for a unital trace-preserving family, the stacked commutator norm
  ``sum_j ||a_j x - x a_j||_2^2`` is at most ``2 ||x - psi(x)||_2 ||x||_2``,
  and conversely ``||psi(x) - x||_2`` is at most the square root of that sum;
* the square-difference bound ``||x - y||_2^2 <= ||x^2 - y^2||_1`` for PSD
  ``x, y``;
* its rectangular extension ``||b y - x b||_2^2 <= gamma ||b y^2 - x^2 b||_1
  ||b||_op`` with ``gamma = 8 sqrt(3) / 9``.

The constant comes from minimizing ``(beta^2 + t^2)^2 / (2 t^3)`` over the
threshold ``t`` used in the underlying spectral-splitting argument; the curve
is exposed for direct inspection.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import opcore
from .channel import KrausFamily, apply

__all__ = [
    "GAMMA",
    "InequalityReport",
    "digest_inputs",
    "defect_bounds",
    "powers_stormer",
    "generalized_powers_stormer",
    "hermitian_embedding",
    "gamma_curve",
]

GAMMA = 8.0 * math.sqrt(3.0) / 9.0


def digest_inputs(*arrays) -> str:
    """Stable short hash of the exact float64 bytes of the inputs."""
    h = hashlib.sha256()
    for a in arrays:
        m = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
        h.update(repr(m.shape).encode())
        h.update(m.tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class InequalityReport:
    """One evaluated inequality instance: lhs <= rhs expected."""

    lhs: float
    rhs: float
    inputs_digest: str

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def counterexample_tol(self) -> float:
        return 1e-9 * (1.0 + self.rhs)

    @property
    def is_counterexample(self) -> bool:
        return self.slack < -self.counterexample_tol


def defect_bounds(family: KrausFamily, x) -> tuple:
    """Both commutator/defect inequalities for a unital trace-preserving family.

    Returns two reports: first
    ``sum_j ||a_j x - x a_j||_2^2 <= 2 ||x - psi(x)||_2 ||x||_2``, then
    ``||psi(x) - x||_2 <= sqrt(sum_j ||a_j x - x a_j||_2^2)``.
    """
    if not (family.is_unital and family.is_trace_preserving):
        raise ValueError(
            "defect bounds need a unital trace-preserving family "
            f"(defects {family.unital_defect:.3e}, {family.counital_defect:.3e})"
        )
    m = opcore.as_matrix(x, "x")
    # apply checks the shape of x before the commutators use it
    fix_defect = float(np.linalg.norm(m - apply(family, m)))
    comm_sq = sum(
        float(np.linalg.norm(a @ m - m @ a)) ** 2 for a in family.ops
    )
    x_norm = float(np.linalg.norm(m))
    dig = digest_inputs(*family.ops, m)
    first = InequalityReport(lhs=comm_sq, rhs=2.0 * fix_defect * x_norm, inputs_digest=dig)
    second = InequalityReport(lhs=fix_defect, rhs=math.sqrt(comm_sq), inputs_digest=dig)
    return first, second


def powers_stormer(x, y) -> InequalityReport:
    """Square-difference bound ||x - y||_2^2 <= ||x^2 - y^2||_1 for PSD x, y."""
    sx = opcore.require_psd(x, "x")
    sy = opcore.require_psd(y, "y")
    if sx.shape != sy.shape:
        raise ValueError(f"shape mismatch {sx.shape} vs {sy.shape}")
    lhs = float(np.linalg.norm(sx - sy)) ** 2
    rhs = opcore.trace_norm(sx @ sx - sy @ sy)
    return InequalityReport(lhs=lhs, rhs=rhs, inputs_digest=digest_inputs(sx, sy))


def generalized_powers_stormer(b, x, y) -> InequalityReport:
    """Rectangular extension with the constant gamma = 8 sqrt(3) / 9.

    ``b`` maps the space of ``y`` into the space of ``x``, so with ``x`` of
    size p and ``y`` of size q the matrix ``b`` is p x q and both ``b y - x b``
    and ``b y^2 - x^2 b`` are p x q.
    """
    sx = opcore.require_psd(x, "x")
    sy = opcore.require_psd(y, "y")
    bm = opcore.as_matrix(b, "b")
    if bm.shape != (sx.shape[0], sy.shape[0]):
        raise ValueError(
            f"b has shape {bm.shape}, expected {(sx.shape[0], sy.shape[0])}"
        )
    lhs = float(np.linalg.norm(bm @ sy - sx @ bm)) ** 2
    rhs = GAMMA * opcore.trace_norm(bm @ sy @ sy - sx @ sx @ bm) * opcore.op_norm(bm)
    return InequalityReport(lhs=lhs, rhs=rhs, inputs_digest=digest_inputs(bm, sx, sy))


def hermitian_embedding(b, x, y) -> tuple:
    """Block matrices reducing the rectangular case to the Hermitian one.

    Returns ``B = [[0, b], [b*, 0]]`` and ``X = diag(x, y)``; running the
    rectangular inequality on ``(B, X, X)`` doubles both sides of the report
    for ``(b, x, y)`` exactly.
    """
    bm = opcore.as_matrix(b, "b")
    sx = opcore.require_psd(x, "x")
    sy = opcore.require_psd(y, "y")
    if bm.shape != (sx.shape[0], sy.shape[0]):
        raise ValueError(
            f"b has shape {bm.shape}, expected {(sx.shape[0], sy.shape[0])}"
        )
    p, q = bm.shape
    big_b = np.zeros((p + q, p + q), dtype=np.complex128)
    big_b[:p, p:] = bm
    big_b[p:, :p] = bm.conj().T
    big_x = np.zeros((p + q, p + q), dtype=np.complex128)
    big_x[:p, :p] = sx
    big_x[p:, p:] = sy
    return big_b, big_x


def gamma_curve(beta: float, t) -> np.ndarray | float:
    """Threshold-choice curve ``(beta^2 + t^2)^2 / (2 t^3)`` for ``t > 0``.

    Its minimum over ``t`` sits at ``t = sqrt(3) beta`` with value
    ``GAMMA * beta``, which is where the constant in the rectangular
    inequality comes from.
    """
    if not (beta > 0 and np.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    tv = np.asarray(t, dtype=np.float64)
    if np.any(tv <= 0) or not np.all(np.isfinite(tv)):
        raise ValueError("t must be positive and finite")
    out = (beta * beta + tv * tv) ** 2 / (2.0 * tv**3)
    return float(out) if np.isscalar(t) else out
