"""Commuting normal coefficient families and product maps built from them.

For families ``c = (c_j)`` and ``d = (d_j)`` the product map is
``theta(x) = sum_j c_j x d_j``.  When each family is commuting and normal the
two families diagonalize simultaneously, the spectrum of ``theta`` is the set
of pointwise products of joint-spectrum tuples, and the fixed points of the
Kraus-like variant ``sum_j a_j x b_j`` are exactly the intertwiners
``{x : a_j x = x b_j*}``.  The checks here quantify each of those statements.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import opcore
from .channel import SubspaceBasis, fix_tol, subspace_distance, unital_tol

__all__ = [
    "CommutingFamily",
    "DiagonalizationResult",
    "JointSpectrum",
    "SpectrumProductReport",
    "IntertwinerFixedReport",
    "PositiveSpectrumReport",
    "simultaneous_diagonalize",
    "joint_spectrum",
    "theta_apply",
    "theta_superoperator",
    "product_spectrum",
    "spectrum_product_check",
    "hausdorff_distance",
    "intertwiner_space",
    "intertwiner_fixed_point_check",
    "positive_eigenvalue_check",
]

DEFECT_GATE = 1e-9


class CommutingFamily:
    """Tuple of same-dimension matrices with commutativity diagnostics.

    ``accepted`` requires the normality defect ``max_j ||c_j c_j* - c_j* c_j||_2``
    and the commutation defect ``max_{j,k} ||c_j c_k - c_k c_j||_2`` to both be
    at most ``defect_gate = 1e-9 * scale^2``, where ``scale = max_j ||c_j||_op``.
    Both defects are quadratic in the generators, so the gate scales with
    them at every size: multiplying the family by t > 0 leaves ``accepted``
    unchanged.  Row and column completeness defects (distance of
    ``sum c_j c_j*`` resp. ``sum c_j* c_j`` from the identity in operator
    norm) are recorded but not gated.
    """

    def __init__(self, mats):
        sq = opcore.square_family(mats, "mats")
        self.dim = sq[0].shape[0]
        self.mats = sq
        self.scale = max(opcore.op_norm(c) for c in sq)
        self.defect_gate = DEFECT_GATE * self.scale * self.scale
        self.normality_defect = max(
            float(np.linalg.norm(c @ c.conj().T - c.conj().T @ c)) for c in sq
        )
        comm = 0.0
        for i in range(len(sq)):
            for j in range(i + 1, len(sq)):
                comm = max(
                    comm, float(np.linalg.norm(sq[i] @ sq[j] - sq[j] @ sq[i]))
                )
        self.commutation_defect = comm
        col, row = opcore.completeness_defects(sq)
        self.column_completeness_defect, self.row_completeness_defect = col, row

    def __len__(self) -> int:
        return len(self.mats)

    def __repr__(self) -> str:
        return (
            f"CommutingFamily(dim={self.dim}, mats={len(self.mats)}, "
            f"normality={self.normality_defect:.2e}, "
            f"commutation={self.commutation_defect:.2e})"
        )

    @property
    def accepted(self) -> bool:
        return (
            self.normality_defect <= self.defect_gate
            and self.commutation_defect <= self.defect_gate
        )

    def require_accepted(self) -> None:
        if not self.accepted:
            raise ValueError(
                "family fails the commuting-normal gates: "
                f"normality {self.normality_defect:.3e}, "
                f"commutation {self.commutation_defect:.3e}, "
                f"gate {self.defect_gate:.3e}"
            )


def _family_mats(obj, name: str) -> tuple:
    """Accept a CommutingFamily or a plain sequence of square matrices."""
    if isinstance(obj, CommutingFamily):
        return obj.mats
    return opcore.square_family(obj, name)


def _family_pair(a, b, names: str) -> tuple:
    """Both families as matrix tuples with equally many generators."""
    am = _family_mats(a, names[0])
    bm = _family_mats(b, names[1])
    if len(am) != len(bm):
        raise ValueError(f"families have {len(am)} vs {len(bm)} generators")
    return am, bm


@dataclass(frozen=True, eq=False)
class DiagonalizationResult:
    """Common eigenbasis and the per-matrix diagonals in that basis."""

    unitary: np.ndarray
    diags: tuple


def simultaneous_diagonalize(family: CommutingFamily) -> DiagonalizationResult:
    """Common unitary eigenbasis of an accepted commuting normal family.

    A fixed pseudorandom Hermitian combination of the generators splits the
    joint eigenspaces generically; any block it leaves degenerate is refined
    with the Hermitian and anti-Hermitian part of every generator in turn, so
    the refinement terminates with all generators scalar on each block.  The
    off-diagonal residual of every rotated generator is gated at
    ``1e-8 * family.scale``, and a probe's eigenvalues split into blocks at
    gaps above ``1e-6 * (family.scale + ||probe||_op)``, so both tests are
    relative to the size of the family.
    """
    if not isinstance(family, CommutingFamily):
        family = CommutingFamily(family)
    family.require_accepted()
    d = family.dim
    mats = family.mats
    rng = np.random.default_rng(0xD1A6)
    coeff = rng.standard_normal(2 * len(mats))
    probes = [
        sum(
            coeff[2 * j] * (c + c.conj().T) / 2.0
            + coeff[2 * j + 1] * (c - c.conj().T) / 2.0j
            for j, c in enumerate(mats)
        )
    ]
    for c in mats:
        probes.append((c + c.conj().T) / 2.0)
        probes.append((c - c.conj().T) / 2.0j)

    basis = np.eye(d, dtype=np.complex128)
    blocks = [np.arange(d)]
    for probe in probes:
        gap = 1e-6 * (family.scale + float(np.linalg.norm(probe, 2)))
        refined = []
        for blk in blocks:
            if blk.size == 1:
                refined.append(blk)
                continue
            p = basis[:, blk]
            h = p.conj().T @ probe @ p
            h = (h + h.conj().T) / 2.0
            w, v = np.linalg.eigh(h)
            basis[:, blk] = p @ v
            start = 0
            for i in range(1, blk.size):
                if w[i] - w[i - 1] > gap:
                    refined.append(blk[start:i])
                    start = i
            refined.append(blk[start:])
        blocks = refined

    diags = []
    limit = 1e-8 * family.scale
    for c in mats:
        rotated = basis.conj().T @ c @ basis
        off = float(np.linalg.norm(rotated - np.diag(np.diagonal(rotated))))
        if off > limit:
            raise ValueError(
                f"diagonalization residual {off:.3e} above tolerance {limit:.3e}"
            )
        diags.append(np.diagonal(rotated).copy())
    return DiagonalizationResult(unitary=basis, diags=tuple(diags))


@dataclass(frozen=True)
class JointSpectrum:
    """Deduplicated joint eigenvalue tuples of a commuting normal family."""

    points: tuple


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Indices sorting complex rows by (real, imaginary) part, entry by entry."""
    # lexsort takes its last key as primary, so entry 0's keys go last.
    return np.lexsort([part for z in rows.T[::-1] for part in (z.imag, z.real)])


def _merge(rows: np.ndarray, radius: float) -> np.ndarray:
    """Rows in lexicographic order, each kept when farther than ``radius``
    from every row kept before it."""
    ordered = rows[_lex_order(rows)]
    keep = np.zeros(len(ordered), dtype=bool)
    for i, row in enumerate(ordered):
        keep[i] = not (np.linalg.norm(ordered[keep] - row, axis=1) <= radius).any()
    return ordered[keep]


def joint_spectrum(family: CommutingFamily) -> JointSpectrum:
    """Joint spectrum as tuples (one entry per generator) at each eigenvector.

    With ``s = family.scale``, tuples within ``1e-8 * s`` in Euclidean
    distance are merged; the result is sorted lexicographically by (real,
    imaginary) parts for reproducibility.  Every tuple's norm is bounded by
    the family norm ``||sum c_j* c_j||^(1/2)``, checked with a slack of
    ``1e-9 * s``.
    """
    if not isinstance(family, CommutingFamily):
        family = CommutingFamily(family)
    res = simultaneous_diagonalize(family)
    reps = _merge(np.stack(res.diags, axis=1), 1e-8 * family.scale)
    bound = float(
        np.sqrt(opcore.op_norm(sum(c.conj().T @ c for c in family.mats)))
    )
    for r in reps:
        if np.linalg.norm(r) > bound + 1e-9 * family.scale:
            raise ValueError("joint-spectrum tuple exceeds the family norm bound")
    return JointSpectrum(points=tuple(tuple(complex(z) for z in r) for r in reps))


def theta_apply(c, d, x) -> np.ndarray:
    """Evaluate theta(x) = sum_j c_j x d_j for equal-length families."""
    return opcore.product_map(*_family_pair(c, d, "cd"), x)


def theta_superoperator(c, d) -> np.ndarray:
    """Matrix sum_j kron(d_j.T, c_j) of theta on column-stacked input."""
    cm, dm = _family_pair(c, d, "cd")
    return opcore.kron_sum(cm, dm)


def _sorted_complex(vals: np.ndarray) -> np.ndarray:
    arr = np.asarray(vals, dtype=np.complex128).ravel()
    return arr[_lex_order(arr[:, None])]


def product_spectrum(sc: JointSpectrum, sd: JointSpectrum) -> np.ndarray:
    """All pointwise products sum_j lambda_j mu_j of two joint spectra.

    Every product is at most ``max ||lambda|| * max ||mu||`` in modulus (the
    maxima over the points of each spectrum), and products within ``1e-8``
    times that scale are merged.
    """
    if not sc.points or not sd.points:
        raise ValueError("joint spectra must be non-empty")
    if len(sc.points[0]) != len(sd.points[0]):
        raise ValueError("joint spectra have different tuple lengths")
    vals = [
        sum(l * m for l, m in zip(lam, mu))
        for lam in sc.points
        for mu in sd.points
    ]
    scale = np.linalg.norm(sc.points, axis=1).max() * np.linalg.norm(sd.points, axis=1).max()
    return _merge(np.array(vals, dtype=np.complex128)[:, None], 1e-8 * scale)[:, 0]


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite sets of complex numbers."""
    av = np.asarray(a, dtype=np.complex128).ravel()
    bv = np.asarray(b, dtype=np.complex128).ravel()
    if av.size == 0 or bv.size == 0:
        raise ValueError("Hausdorff distance needs non-empty sets")
    gaps = np.abs(av[:, None] - bv[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


@dataclass(frozen=True, eq=False)
class SpectrumProductReport:
    """Eigenvalues of theta against the product of the joint spectra."""

    eigs: np.ndarray
    product: np.ndarray
    hausdorff: float


def spectrum_product_check(c, d) -> SpectrumProductReport:
    """Compare spec(theta) with the product set of the two joint spectra.

    For accepted commuting normal families the Hausdorff distance vanishes up
    to rounding, because theta is diagonal in the tensor basis built from the
    two common eigenbases.
    """
    cf = c if isinstance(c, CommutingFamily) else CommutingFamily(c)
    df = d if isinstance(d, CommutingFamily) else CommutingFamily(d)
    eigs = _sorted_complex(np.linalg.eigvals(theta_superoperator(cf, df)))
    product = product_spectrum(joint_spectrum(cf), joint_spectrum(df))
    return SpectrumProductReport(
        eigs=eigs,
        product=product,
        hausdorff=hausdorff_distance(eigs, product),
    )


def intertwiner_space(a, b, tol: float | None = None) -> SubspaceBasis:
    """Numerical solution space of a_j x = x b_j* for all j.

    Completeness of the families (``sum a_j a_j* = 1`` row-wise for ``a``,
    ``sum b_j* b_j = 1`` column-wise for ``b``) is checked to ``unital_tol(n)``
    and only warned about, since the solver itself does not need it.
    """
    am, bm = _family_pair(a, b, "ab")
    na, nb = am[0].shape[0], bm[0].shape[0]
    if tol is None:
        tol = fix_tol(max(na, nb))
    row_defect = opcore.completeness_defects(am)[1]
    col_defect = opcore.completeness_defects(bm)[0]
    if row_defect > unital_tol(na):
        warnings.warn(
            f"a is not row-complete (defect {row_defect:.3e})", stacklevel=2
        )
    if col_defect > unital_tol(nb):
        warnings.warn(
            f"b is not column-complete (defect {col_defect:.3e})", stacklevel=2
        )
    basis = opcore.sylvester_null_space(am, [bj.conj().T for bj in bm], tol)
    return SubspaceBasis(rows=na, cols=nb, basis=basis)


@dataclass(frozen=True)
class IntertwinerFixedReport:
    """Fixed points of sum_j a_j x b_j versus the intertwiner space."""

    fix_dim: int
    intertwiner_dim: int
    subspace_distance: float
    passed: bool


def intertwiner_fixed_point_check(a, b, tol: float = 1e-7) -> IntertwinerFixedReport:
    """Check that fixed points of x -> sum_j a_j x b_j are the intertwiners.

    Both spaces are computed as numerical null spaces with cutoff ``tol``; the
    check passes when the dimensions agree and the mutual subspace distance is
    at most ``tol``.
    """
    am, bm = _family_pair(a, b, "ab")
    s = theta_superoperator(am, bm)
    na, nb = am[0].shape[0], bm[0].shape[0]
    fixed = SubspaceBasis(
        rows=na,
        cols=nb,
        basis=opcore.null_space_matrices(s - np.eye(na * nb), na, nb, tol),
    )
    inter = intertwiner_space(am, bm, tol)
    dist = subspace_distance(fixed, inter) if (len(fixed) or len(inter)) else 0.0
    passed = len(fixed) == len(inter) and dist <= tol
    return IntertwinerFixedReport(
        fix_dim=len(fixed),
        intertwiner_dim=len(inter),
        subspace_distance=dist,
        passed=passed,
    )


@dataclass(frozen=True, eq=False)
class PositiveSpectrumReport:
    """Spectral positivity diagnostics for theta with PSD coefficients."""

    eigs: np.ndarray
    min_real: float
    max_imag: float


def positive_eigenvalue_check(c, d) -> PositiveSpectrumReport:
    """Eigenvalues of theta when every coefficient on both sides is PSD.

    The superoperator is then a sum of Kronecker products of PSD matrices,
    hence PSD itself; the report records how far the generic eigenvalue
    solver strays from the real nonnegative axis.  Commutativity is not
    required.  Non-PSD inputs raise.
    """
    cm, dm = _family_pair(c, d, "cd")
    for name, mats in (("c", cm), ("d", dm)):
        for j, m in enumerate(mats):
            opcore.require_psd(m, name=f"{name}[{j}]")
    eigs = _sorted_complex(np.linalg.eigvals(theta_superoperator(cm, dm)))
    return PositiveSpectrumReport(
        eigs=eigs,
        min_real=float(eigs.real.min()),
        max_imag=float(np.abs(eigs.imag).max()),
    )
