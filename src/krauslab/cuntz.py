"""Truncated Cuntz isometries and the diagonal that nearly commutes with them.

Two isometries with orthogonal ranges summing to the identity generate an
irreducible algebra; their n-dimensional truncations are

    V1 e_j = e_{2j}   (2j < n),      V2 e_j = e_{2j+1}   (2j + 1 < n),

with overflowing images sent to zero.  Completeness
``V1 V1* + V2 V2* = 1`` survives truncation exactly, isometry does not.

The diagonal sequence ``t`` is defined by ``t_0 = 1``,
``t_j = (k+1)^(-1/2)`` when ``j = 2^k``, and otherwise by copying the parent
value ``t_j = t_{j//2}`` (even) or ``t_{(j-1)//2}`` (odd).  The odd rule makes
``diag(t)`` commute with V2 exactly, while the commutator with V1 stays small
(a tail of squared differences of ``(k+1)^(-1/2)``) even though ``t`` stays
far from every scalar line as n grows.  Splitting the real and imaginary
parts of each truncated isometry into positive and negative parts (six
positive parts from one stacked spectral map) yields a nine-element Kraus
family of positive operators whose squares sum to the identity; the
experiment report collects everything a run produces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import opcore
from .channel import GapReport, KrausFamily, apply, gap_report, solve_perturbation, spectral_core

__all__ = [
    "CuntzTruncation",
    "TSequence",
    "CommutationReport",
    "LudersFamily",
    "ExperimentReport",
    "build_isometries",
    "t_sequence",
    "commutation_report",
    "scalar_distance",
    "luders_family",
    "experiment",
]


@dataclass(frozen=True, eq=False)
class CuntzTruncation:
    """Truncated isometry pair."""

    n: int
    v1: np.ndarray
    v2: np.ndarray


def build_isometries(n: int) -> CuntzTruncation:
    """Truncate the two range-orthogonal shift isometries to dimension n >= 2.

    Completeness ``v1 v1* + v2 v2* = 1`` holds exactly because every index
    below n is either even or odd; the isometry defects
    ``||vi* vi - 1||_op`` equal 1 for n >= 3 since some columns overflow.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    v1 = np.zeros((n, n), dtype=np.complex128)
    v2 = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        if 2 * j < n:
            v1[2 * j, j] = 1.0
        if 2 * j + 1 < n:
            v2[2 * j + 1, j] = 1.0
    return CuntzTruncation(n=n, v1=v1, v2=v2)


@dataclass(frozen=True, eq=False)
class TSequence:
    """First n values of the diagonal sequence, t_0 = 1 by convention."""

    n: int
    values: np.ndarray


def t_sequence(n: int) -> TSequence:
    """Evaluate t_0 .. t_{n-1} bottom-up.

    Powers of two (including 2^0 = 1) get ``(k+1)^(-1/2)`` directly, so those
    values are exact; all other entries are bitwise copies of their parent.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    t = np.empty(n, dtype=np.float64)
    t[0] = 1.0
    for j in range(1, n):
        if j & (j - 1) == 0:
            k = j.bit_length() - 1
            t[j] = (k + 1) ** -0.5
        elif j % 2 == 0:
            t[j] = t[j // 2]
        else:
            t[j] = t[(j - 1) // 2]
    return TSequence(n=n, values=t)


@dataclass(frozen=True)
class CommutationReport:
    """Commutators of diag(t) with the truncated isometries.

    ``v2_comm`` is exactly zero by the odd copy rule; ``v1_comm_sq`` is the
    squared HS norm of the V1 commutator and is bounded by ``tail_bound``,
    the partial sum of ``(1/sqrt(k+1) - 1/sqrt(k+2))^2`` over ``2^k < n``.
    """

    v2_comm: float
    v1_comm_sq: float
    tail_bound: float


def commutation_report(n: int) -> CommutationReport:
    """Evaluate both commutators of diag(t) with the truncated isometries.

    ``[diag(t), V]`` holds ``t_i - t_j`` wherever the 0/1 matrix V holds a 1
    at ``(i, j)``, and zeros elsewhere.  Each commutator is formed that way
    from V's index map (``j -> 2j`` for V1, ``j -> 2j + 1`` for V2), entry
    for entry the matrix ``y V - V y``, so no isometry is built here.
    """
    t = t_sequence(n).values
    j = np.arange(n)

    def commutator_norm(image: np.ndarray) -> float:
        keep = image < n
        comm = np.zeros((n, n), dtype=np.complex128)
        comm[image[keep], j[keep]] = t[image[keep]] - t[j[keep]]
        return float(np.linalg.norm(comm))

    v2_comm = commutator_norm(2 * j + 1)
    v1_comm_sq = commutator_norm(2 * j) ** 2
    tail = 0.0
    k = 0
    while 2**k < n:
        tail += (1.0 / math.sqrt(k + 1) - 1.0 / math.sqrt(k + 2)) ** 2
        k += 1
    return CommutationReport(v2_comm=v2_comm, v1_comm_sq=v1_comm_sq, tail_bound=tail)


def scalar_distance(n: int) -> float:
    """Squared distance min over real alpha of sum_j (t_j - alpha)^2.

    The minimizer is the mean, so this is n times the variance of the first n
    values; it grows without bound along n = 2^m, which is how the sequence
    escapes every scalar perturbation.
    """
    values = t_sequence(n).values
    return float(np.sum((values - values.mean()) ** 2))


class LudersFamily(KrausFamily):
    """Nine positive Kraus operators splitting the truncated isometry pair.

    Operators a_1 .. a_4 are the positive/negative parts of the real and
    imaginary part of V1 scaled by 8^(-1/2), a_5 .. a_8 the same for V2, and
    a_0 completes the family so that ``sum_j a_j^2 = 1`` to 1e-12.  As
    ``sum_{j>=1} a_j^2 = sum_v (v* v + v v*) / 16`` in exact arithmetic, a_0
    is the root of ``1`` minus that exactly diagonal matrix, so it is exactly
    diagonal; the unital gate stays at 1e-12.  Since all generators are
    Hermitian the family is unital and trace-preserving at the same time,
    and ``V1 = sqrt(8) (a_1 - a_2 + i a_3 - i a_4)`` holds exactly up to the
    spectral splitting error.  The parts are factored per connected
    component of the real and imaginary parts' patterns, so they are exactly
    zero off those components and S splits into many blocks.  Each
    imaginary part h is purely imaginary, so ``-h = conj(h)`` and its
    negative part is taken as the conjugate of its positive part; the six
    positive parts come from one spectral map of their stack, and S is
    exactly real by construction.
    """

    def __init__(self, n: int):
        trunc = build_isometries(n)
        scale = 1.0 / math.sqrt(8.0)
        halves = []
        for v in (trunc.v1, trunc.v2):
            re = (v + v.conj().T) / 2.0
            halves += [re, -re, (v - v.conj().T) / 2.0j]
        # [re+, re-, im+] of V1, then of V2, and im- = conj(im+)
        plus = scale * opcore.positive_part(np.stack(halves))
        parts = [x for j in (0, 3) for x in (plus[j], plus[j + 1], plus[j + 2], plus[j + 2].conj())]
        # summing the squared parts instead would leave rounding noise off
        # the diagonal of a_0 and join every block of S into one
        total = sum(v.conj().T @ v + v @ v.conj().T for v in (trunc.v1, trunc.v2)) / 16.0
        a0 = opcore.psd_sqrt(np.eye(n) - total)
        ops = [a0] + parts
        super().__init__(ops)
        self.n = n
        self.truncation = trunc
        # the generators are Hermitian, so sum a_j* a_j is the sum of squares
        if self.unital_defect > 1e-12:
            raise ValueError(
                f"squares fail to resolve the identity: defect {self.unital_defect:.3e}"
            )


def luders_family(n: int) -> LudersFamily:
    """Build the nine-generator positive family at truncation dimension n."""
    return LudersFamily(n)


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one truncation run produces, JSON-ready and deterministic.

    ``gap`` is the gap report of S - I and ``commutation`` the commutators of
    diag(t); :meth:`to_json` flattens both beside the other fields, the gap
    through :meth:`GapReport.to_json`.
    """

    n: int
    gap: GapReport
    commutation: CommutationReport
    unital_defect: float
    counital_defect: float
    generator_commutators: tuple
    perturbation_residual: float
    candidate_fixed_defect: float
    scalar_line_distance: float
    t_scalar_distance: float

    def to_json(self) -> dict:
        out = asdict(self)
        del out["gap"]
        out.update(out.pop("commutation"), **self.gap.to_json())
        out["generator_commutators"] = list(self.generator_commutators)
        return out


def experiment(n: int) -> ExperimentReport:
    """One full truncation run at dimension n >= 4.

    Builds the nine-generator family, measures its gap, the per-generator
    commutators with y = diag(t), repairs y by least squares into a candidate
    fixed element x = y + z, and records how far x sits from the scalar line.
    A non-power-of-two n only degrades the t-sequence alignment, so it warns
    rather than fails.
    """
    if not isinstance(n, int) or n < 4:
        raise ValueError(f"n must be an integer >= 4, got {n!r}")
    if n & (n - 1):
        warnings.warn(
            "n is not a power of two; t-sequence alignment with the "
            "truncation is weakest here",
            stacklevel=2,
        )
    fam = luders_family(n)
    y = np.diag(t_sequence(n).values).astype(np.complex128)
    # the full core first, so that the gap report reads it and nothing is factored twice
    spectral_core(fam)
    gen_comms = tuple(float(np.linalg.norm(a @ y - y @ a)) for a in fam.ops)
    pert = solve_perturbation(fam, y)
    x = y + pert.z
    fixed_defect = float(np.linalg.norm(apply(fam, x) - x))
    alpha = np.trace(x) / n
    scalar_line = float(np.linalg.norm(x - alpha * np.eye(n)))
    return ExperimentReport(
        n=n,
        gap=gap_report(fam),
        commutation=commutation_report(n),
        unital_defect=fam.unital_defect,
        counital_defect=fam.counital_defect,
        generator_commutators=gen_comms,
        perturbation_residual=pert.residual,
        candidate_fixed_defect=fixed_defect,
        scalar_line_distance=scalar_line,
        t_scalar_distance=scalar_distance(n),
    )
