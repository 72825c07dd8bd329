"""Kraus families and the structure of their fixed points.

A family ``(a_0, ..., a_{m-1})`` of d x d matrices induces the completely
positive map ``psi(x) = sum_j a_j* x a_j`` and its predual
``psi_*(t) = sum_j a_j t a_j*``.  This module builds the superoperator matrix
of ``psi``, extracts numerical fixed-point spaces and commutants, reports the
spectral gap, and solves for perturbations that repair near-fixed elements.

The fixed space, the gap and the perturbation solve all read one
:class:`SpectralCore` per family: ``S - I`` is factorized once and only its
factors are cached on the family (whose operators are frozen copies); S itself
lives only while the factorization runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import opcore

__all__ = [
    "KrausFamily",
    "SpectralCore",
    "SubspaceBasis",
    "GapReport",
    "PerturbationResult",
    "SquareClosureReport",
    "fix_tol",
    "unital_tol",
    "apply",
    "apply_predual",
    "superoperator",
    "spectral_core",
    "fixed_space",
    "commutant",
    "subspace_distance",
    "gap_report",
    "solve_perturbation",
    "fix_closed_under_square",
]


def fix_tol(dim: int) -> float:
    """Singular-value cutoff of numerical fixed spaces, commutants and repairs."""
    return 1e-8 * dim


def unital_tol(dim: int) -> float:
    """Defect threshold below which a family counts as unital/trace-preserving."""
    return 1e-9 * dim


class KrausFamily:
    """Validated tuple of same-dimension Kraus operators.

    On construction the unital defect ``||sum a_j* a_j - 1||_op`` and the
    counital defect ``||sum a_j a_j* - 1||_op`` are computed once; the family
    is flagged unital (resp. trace-preserving) when the corresponding defect
    is at most ``1e-9 * dim``.  Each operator is copied and frozen, so later
    writes to the caller's arrays cannot reach the family or its cached
    spectral core.
    """

    def __init__(self, ops):
        mats = opcore.square_family(ops, "kraus")
        self.dim = mats[0].shape[0]
        self.ops = mats
        self._adjoints = tuple(a.conj().T for a in mats)
        self.unital_defect, self.counital_defect = opcore.completeness_defects(mats)
        self._spectral_core = None

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return (
            f"KrausFamily(dim={self.dim}, ops={len(self.ops)}, "
            f"unital_defect={self.unital_defect:.2e}, "
            f"counital_defect={self.counital_defect:.2e})"
        )

    @property
    def defect_tol(self) -> float:
        return unital_tol(self.dim)

    @property
    def is_unital(self) -> bool:
        return self.unital_defect <= self.defect_tol

    @property
    def is_trace_preserving(self) -> bool:
        return self.counital_defect <= self.defect_tol

    def to_json(self) -> dict:
        """Encode as ``{"dim": d, "kraus": [matrix, ...]}``."""
        return {
            "dim": int(self.dim),
            "kraus": [opcore.matrix_to_json(a) for a in self.ops],
        }

    @classmethod
    def from_json(cls, obj) -> "KrausFamily":
        if not isinstance(obj, dict):
            raise ValueError("Kraus object must be a JSON dict")
        if "kraus" not in obj or not isinstance(obj["kraus"], list) or not obj["kraus"]:
            raise ValueError("Kraus object needs a non-empty 'kraus' list")
        mats = [opcore.matrix_from_json(m) for m in obj["kraus"]]
        fam = cls(mats)
        dim = opcore._json_number(obj.get("dim", fam.dim), "dim", integer=True)
        if dim != fam.dim:
            raise ValueError(
                f"declared dim {dim} does not match matrices of dim {fam.dim}"
            )
        return fam


def apply(family: KrausFamily, x) -> np.ndarray:
    """Evaluate psi(x) = sum_j a_j* x a_j, the product map of ``(a_j*, a_j)``."""
    return opcore.product_map(family._adjoints, family.ops, x)


def apply_predual(family: KrausFamily, t) -> np.ndarray:
    """Evaluate psi_*(t) = sum_j a_j t a_j*, the product map of ``(a_j, a_j*)``.

    Satisfies tr(apply(K, x) @ t) = tr(x @ apply_predual(K, t)); preserves the
    trace of t exactly when the family is unital.
    """
    return opcore.product_map(family.ops, family._adjoints, t, "t")


def superoperator(family: KrausFamily) -> np.ndarray:
    """Build S = sum_j kron(a_j.T, a_j*) so that S @ vec(x) = vec(psi(x)).

    S is :func:`opcore.kron_sum` of the pairs ``(a_j*, a_j)``, a fresh array
    on every call.
    """
    return opcore.kron_sum(family._adjoints, family.ops)


def _vec_times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v @ m`` for a complex vector, without casting a real ``m`` to complex."""
    if np.iscomplexobj(m):
        return v @ m
    return v.real @ m + 1j * (v.imag @ m)


@dataclass(frozen=True, eq=False)
class SpectralCore:
    """One SVD-shaped factorization ``S - I = U diag(sv) V*`` of a family's S.

    ``sv`` is descending, as ``np.linalg.svd`` returns it, and ``right_h``
    holds the rows of V*.  When S is exactly real and symmetric, ``S - I`` is
    factorized by the real ``eigh``: ``sv`` holds the absolute eigenvalues,
    V the eigenvectors and U the eigenvectors times the eigenvalue signs, all
    real.  Any other S gets one complex SVD.  S itself is not kept.
    """

    left: np.ndarray
    sv: np.ndarray
    right_h: np.ndarray

    def kernel(self, tol: float) -> np.ndarray:
        """Orthonormal columns of V whose singular value is at most ``tol``."""
        keep = np.flatnonzero(self.sv <= tol)
        return self.right_h[keep].conj().T

    def solve(self, b: np.ndarray, tol: float) -> np.ndarray:
        """Least-squares solution of ``(S - I) z = b`` by the pseudo-inverse.

        Components along singular values at most ``tol`` are dropped rather
        than amplified.
        """
        inv = np.zeros_like(self.sv)
        np.divide(1.0, self.sv, out=inv, where=self.sv > tol)
        # U* b = conj(conj(b) U) and V c = conj(conj(c) V*): row-vector
        # products, so no d^2 x d^2 factor is conjugated or cast to complex.
        coef = inv * _vec_times(b.conj(), self.left).conj()
        return _vec_times(coef.conj(), self.right_h).conj()


def _factorize(family: KrausFamily) -> SpectralCore:
    # S - I is formed in place on the fresh S, and the real-symmetric path
    # keeps only a real copy of it: no copy of S outlives this function, and
    # no complex one is live during ``eigh``.
    m = superoperator(family)
    n = m.shape[0]
    m.flat[:: n + 1] -= 1.0
    if not m.imag.any() and np.array_equal(m.real, m.real.T):
        m = m.real.copy()
        w, q = np.linalg.eigh(m)
        del m
        order = np.argsort(-np.abs(w), kind="stable")
        q, w = q[:, order], w[order]
        left = q * np.where(w < 0.0, -1.0, 1.0)
        return SpectralCore(left=left, sv=np.abs(w), right_h=q.T)
    u, sv, vh = np.linalg.svd(m)
    return SpectralCore(left=u, sv=sv, right_h=vh)


def spectral_core(family: KrausFamily) -> SpectralCore:
    """The factorization of the family's ``S - I``, computed on first use.

    The result is cached on the family, so every later query on it reads
    the same factors; the path (real ``eigh`` or complex SVD) is chosen
    from S alone.
    """
    if family._spectral_core is None:
        family._spectral_core = _factorize(family)
    return family._spectral_core


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """HS-orthonormal basis of a subspace of rows x cols matrices."""

    rows: int
    cols: int
    basis: tuple

    def __len__(self) -> int:
        return len(self.basis)

    @property
    def dim(self) -> int:
        if self.rows != self.cols:
            raise ValueError("dim is only defined for square-matrix subspaces")
        return self.rows

    def stacked(self) -> np.ndarray:
        """Vectorized basis as orthonormal columns, (rows*cols) x len."""
        if not self.basis:
            return np.zeros((self.rows * self.cols, 0), dtype=np.complex128)
        return np.column_stack([opcore.vectorize(b) for b in self.basis])

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of ``x`` onto the span."""
        m = opcore.as_matrix(x)
        if m.shape != (self.rows, self.cols):
            raise ValueError(f"x has shape {m.shape}, expected {(self.rows, self.cols)}")
        q = self.stacked()
        v = opcore.vectorize(m)
        return opcore.devectorize(q @ (q.conj().T @ v), self.rows, self.cols)

    def distance(self, x) -> float:
        """HS distance from ``x`` to the span."""
        m = opcore.as_matrix(x)
        return float(np.linalg.norm(m - self.project(m)))


def subspace_distance(a: SubspaceBasis, b: SubspaceBasis) -> float:
    """Largest HS distance from a basis element of either space to the other.

    Zero iff the spans agree; both arguments must consist of orthonormal
    elements for the value to be meaningful.
    """
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("subspaces live on different matrix shapes")
    worst = 0.0
    for x in a.basis:
        worst = max(worst, b.distance(x))
    for x in b.basis:
        worst = max(worst, a.distance(x))
    return worst


def _hermitian_basis(vecs: np.ndarray, d: int) -> list:
    """Rotate a *-closed kernel basis into HS-orthonormal Hermitian matrices.

    The adjoint-symmetric span of r orthonormal kernel vectors carries exactly
    r real dimensions of Hermitian matrices; the top-r eigenvectors of the real
    Gram matrix of all Hermitian/anti-Hermitian parts recover them.
    """
    r = vecs.shape[1]
    if r == 0:
        return []
    cands = []
    for i in range(r):
        b = opcore.devectorize(vecs[:, i], d, d)
        cands.append((b + b.conj().T) / 2.0)
        cands.append((b - b.conj().T) / 2.0j)
    w = np.column_stack([opcore.vectorize(c) for c in cands])
    gram = (w.conj().T @ w).real
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1][:r]
    basis = []
    for q in order:
        lam = float(evals[q])
        if lam <= 1e-12:
            raise ValueError("fixed space is not numerically closed under adjoints")
        h = sum(evecs[a, q] * cands[a] for a in range(2 * r)) / math.sqrt(lam)
        basis.append((h + h.conj().T) / 2.0)
    return basis


def fixed_space(family: KrausFamily) -> SubspaceBasis:
    """Numerical fixed-point space of psi, with a Hermitian basis.

    Singular vectors of ``S - I`` at singular value <= ``fix_tol(dim)`` span
    the space; the basis is rotated to Hermitian matrices, which is possible
    because the space is closed under adjoints.  For a unital family the
    normalized identity always lies in the span.
    """
    if not family.is_unital:
        warnings.warn(
            "fixed_space of a non-unital family may be trivial", stacklevel=2
        )
    d = family.dim
    kernel = spectral_core(family).kernel(fix_tol(d))
    return SubspaceBasis(rows=d, cols=d, basis=tuple(_hermitian_basis(kernel, d)))


def commutant(mats) -> SubspaceBasis:
    """Joint commutant {x : a_j x = x a_j for all j} as a numerical null space.

    It is :func:`opcore.sylvester_null_space` of the pairs ``(a_j, a_j)``,
    with right singular vectors at most ``fix_tol(d)`` kept.  Always contains
    the normalized identity.
    """
    sq = opcore.square_family(mats, "mats")
    d = sq[0].shape[0]
    basis = opcore.sylvester_null_space(sq, sq, fix_tol(d))
    return SubspaceBasis(rows=d, cols=d, basis=basis)


@dataclass(frozen=True)
class GapReport:
    """Singular-value summary of S - I.

    ``restricted_gap`` is the smallest singular value above the fixed-space
    cutoff, or ``math.inf`` when every singular value sits below it.
    """

    sigma_min: float
    restricted_gap: float
    fix_dim: int


def gap_report(family: KrausFamily, tol: float | None = None) -> GapReport:
    """Report sigma_min, the restricted gap and the numerical fixed dimension."""
    if tol is None:
        tol = fix_tol(family.dim)
    sv = np.sort(spectral_core(family).sv)
    fix_dim = int(np.sum(sv <= tol))
    restricted = float(sv[fix_dim]) if fix_dim < sv.size else math.inf
    return GapReport(sigma_min=float(sv[0]), restricted_gap=restricted, fix_dim=fix_dim)


@dataclass(frozen=True, eq=False)
class PerturbationResult:
    """Least-squares perturbation ``z`` and the norm of the unmet residual."""

    z: np.ndarray
    residual: float


def solve_perturbation(family: KrausFamily, y) -> PerturbationResult:
    """Solve (psi - 1)(z) = y - psi(y) in the least-squares sense.

    When the residual vanishes, x = y + z is exactly fixed; in general
    ``||psi(x) - x||_2`` equals the reported residual up to rounding.  The
    pseudo-inverse of ``S - I`` read from the family's spectral core drops
    singular values at most ``fix_tol(dim)``, the fixed-space cutoff, so
    components of the defect lying along the fixed directions are dropped
    rather than amplified.
    """
    d = family.dim
    m = opcore.as_matrix(y, "y")
    defect = m - opcore.product_map(family._adjoints, family.ops, m, "y")
    z = spectral_core(family).solve(opcore.vectorize(defect), fix_tol(d))
    z = opcore.devectorize(z, d, d)
    residual = float(np.linalg.norm(apply(family, z) - z - defect))
    return PerturbationResult(z=z, residual=residual)


@dataclass(frozen=True, eq=False)
class SquareClosureReport:
    """Outcome of testing whether the fixed space is closed under squares."""

    closed: bool
    witness: np.ndarray | None
    fix_dim: int
    commutant_dim: int | None
    subspace_distance: float | None


SQUARE_TOL = 1e-8


def fix_closed_under_square(family: KrausFamily) -> SquareClosureReport:
    """Test closure of the fixed space under squaring its elements.

    Squaring a real combination of the Hermitian basis expands into the
    Jordan products ``(h_i h_j + h_j h_i) / 2``, so closure is equivalent to
    every such product staying fixed; the first violating product is returned
    as a witness when ``||psi(m) - m||_2 > SQUARE_TOL = 1e-8``.  When no
    violation is found, the fixed space must coincide with the commutant of
    the family, and that equality is asserted (dimension match plus mutual
    projection residual <= 1e-8).
    """
    fs = fixed_space(family)
    for i, hi in enumerate(fs.basis):
        for hj in fs.basis[i:]:
            m = (hi @ hj + hj @ hi) / 2.0
            defect = float(np.linalg.norm(apply(family, m) - m))
            if defect > SQUARE_TOL:
                return SquareClosureReport(
                    closed=False,
                    witness=m,
                    fix_dim=len(fs),
                    commutant_dim=None,
                    subspace_distance=None,
                )
    com = commutant(list(family.ops))
    dist = subspace_distance(fs, com)
    if len(fs) != len(com) or dist > SQUARE_TOL:
        raise ValueError(
            "fixed space is closed under squares yet differs from the commutant "
            f"(dims {len(fs)} vs {len(com)}, distance {dist:.3e})"
        )
    return SquareClosureReport(
        closed=True,
        witness=None,
        fix_dim=len(fs),
        commutant_dim=len(com),
        subspace_distance=dist,
    )
