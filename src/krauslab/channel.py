"""Kraus families and the structure of their fixed points.

A family ``(a_0, ..., a_{m-1})`` of d x d matrices induces the completely
positive map ``psi(x) = sum_j a_j* x a_j`` and its predual
``psi_*(t) = sum_j a_j t a_j*``.  This module builds the superoperator matrix
of ``psi``, extracts numerical fixed-point spaces and commutants, reports the
spectral gap, and solves for perturbations that repair near-fixed elements.

The fixed space and the perturbation solve read one :class:`SpectralCore`
per family: ``S - I`` is factorized once and only its factors (and the fixed
space's Hermitian basis, read-only) are cached on the family (whose
operators are frozen copies).  The gap report reads only singular values:
it takes them from that core when the family holds it, and otherwise from a
values-only factorization, which is not cached: of the same blocks when
``S - I`` is exactly real symmetric, and else of the real ``S_h - I``, the
matrix of ``psi - 1`` on the Hermitian matrices, which has the same
singular values.  S is read from its entries; it is formed densely only
when ``S - I`` is not exactly real symmetric, and then lives only while
the factorization (or S_h) is built.  Of each pair of blocks of a real
split that the transpose swap exchanges, one is cut and factored.

:func:`commutant` solves the Sylvester stack of the family; the check that
Fix is the commutant forms no stack and reads only eigenvalues of its Gram
operator (see :func:`fix_closed_under_square`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import opcore
from .opcore import SpectralCore

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
    """Singular-value cutoff of numerical fixed spaces and repairs (scaled in :func:`commutant`)."""
    return 1e-8 * dim


def unital_tol(dim: int) -> float:
    """Defect threshold below which a family counts as unital/trace-preserving."""
    return 1e-9 * dim


class KrausFamily:
    """Validated tuple of same-dimension Kraus operators.

    On construction the unital defect ``||sum a_j* a_j - 1||_op`` and the
    counital defect ``||sum a_j a_j* - 1||_op`` are computed once; the family
    is flagged unital (resp. trace-preserving) when the corresponding defect
    is at most ``1e-9 * dim``; a family whose sums overflow the float range
    raises ``ValueError``.  Each operator is copied and frozen, so later
    writes to the caller's arrays cannot reach the family or its cached
    spectral core.
    """

    def __init__(self, ops):
        mats = opcore.square_family(ops, "kraus")
        self.dim = mats[0].shape[0]
        self.ops = mats
        self._adjoints = tuple(a.conj().T for a in mats)
        # the Gram sums of entries past about 1e154 overflow, and read inf
        self.unital_defect, self.counital_defect = opcore.completeness_defects(mats)
        if not (math.isfinite(self.unital_defect) and math.isfinite(self.counital_defect)):
            raise ValueError("kraus: sum a_j* a_j or sum a_j a_j* overflows the float range")
        self._spectral_core = None
        self._fixed_space = None

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


def spectral_core(family: KrausFamily) -> SpectralCore:
    """:func:`opcore.factorize` of the family's ``S - I``, cached on first use.

    S is read from :func:`opcore.kron_entries` and never formed densely
    when ``S - I`` is exactly real symmetric: it is then an
    :class:`opcore.BlockSplit` (one block when its exact nonzero pattern is
    connected) with each swap pair cut once and listed twice, read by one
    stacked ``eigvalsh`` per stack, and no complex S is live during it.
    Any other ``S - I`` is assembled dense, formed in place and passed
    straight on to one complex SVD, so no copy of S outlives the
    factorization.
    """
    if family._spectral_core is None:
        family._spectral_core = opcore.factorize(_s_minus_identity(family))
    return family._spectral_core


def _s_minus_identity(family: KrausFamily, values_only: bool = False):
    """``S - I`` as an :class:`opcore.BlockSplit` when it is exactly real and
    every block is symmetric.  Otherwise it is the complex dense ``S - I``,
    or with ``values_only`` the real ``S_h - I`` of :func:`_hermitian_form`,
    which has the singular values of ``S - I`` but not its vectors.

    The split is paired by the swap P taking ``vec`` index ``c * d + r`` to
    ``r * d + c``.  As psi(x*) = psi(x)*, P S P = conj(S) entry for entry,
    so an exactly real S commutes with P bitwise, and of each pair of blocks
    P exchanges only one is cut, its index listing the image's rows too
    (see :func:`opcore.block_split`).
    """
    d = family.dim
    entries = opcore.kron_entries(family._adjoints, family.ops)
    if not entries.values.imag.any():
        rows, cols, values = entries.nonzero()
        swap = np.arange(d * d) % d * d + np.arange(d * d) // d
        split = opcore.block_split(d * d, rows, cols, values.real, swap)
        if all(np.array_equal(b, b.swapaxes(1, 2)) for b in split.stacks):
            return opcore.minus_identity(split)
        # only the entry values may stay live next to the dense S
        del rows, cols, values, split
    t = entries.tensor()
    del entries
    if values_only:
        return opcore.minus_identity(_hermitian_form(t))
    # t is fresh or a view of the dropped entries' values: it may be overwritten
    return opcore.minus_identity(t.reshape(d * d, d * d))


def _hermitian_form(t: np.ndarray) -> np.ndarray:
    """S_h: the real d² x d² matrix of psi on the Hermitian matrices.

    ``t`` is S as a (d, d, d, d) :meth:`opcore.KronEntries.tensor`.  The
    basis is orthonormal and indexed like ``vec``: position ``(r, c)``
    (index ``c * d + r``) holds ``E_rr`` when ``r = c``,
    ``(E_rc + E_cr) / sqrt 2`` when ``r < c`` and ``i (E_cr - E_rc) / sqrt 2``
    when ``r > c``.  It is also an orthonormal basis of all d x d matrices,
    so S_h = B* S B for a unitary B and S_h - I has the singular values of
    S - I.  Because psi(x*) = psi(x)*, the rows of S_h at ``(r, c)`` and
    ``(c, r)`` for r < c are sqrt 2 times the real and imaginary parts of
    row ``(r, c)`` of S B, and each column of S B adds column ``(r, c)`` of
    S to, or subtracts it from, column ``(c, r)``.  So S_h costs one pass of
    real adds over half the rows of S, row block by row block; no complex
    array beyond ``t`` is formed.
    """
    d = t.shape[0]
    out = np.empty((d, d, d, d))
    # input positions (r, c) with r <= c, as [c, r] like the last two axes of t
    upper = np.tri(d, dtype=bool)
    lower = ~upper
    for c in range(d):
        # rows (r, c) of S with r <= c, and their real and imaginary parts
        # at each input position and at its transpose
        block = t[c, : c + 1]
        re, im = block.real, block.imag
        re_t, im_t = re.swapaxes(1, 2), im.swapaxes(1, 2)
        top, bottom = out[c, : c + 1], out[:c, c]
        np.add(re, re_t, out=top, where=upper)
        np.subtract(im, im_t, out=top, where=lower)
        np.add(im[:c], im_t[:c], out=bottom, where=upper)
        np.subtract(re_t[:c], re[:c], out=bottom, where=lower)
    out = out.reshape(d * d, d * d)
    # the adds above give sqrt 2 times each entry in a row or column of an E_rr
    out[:, :: d + 1] *= 1.0 / math.sqrt(2.0)
    out[:: d + 1] *= 1.0 / math.sqrt(2.0)
    return out


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """HS-orthonormal basis of a subspace of rows x cols matrices."""

    rows: int
    cols: int
    basis: tuple

    def __len__(self) -> int:
        return len(self.basis)

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
    qa, qb = a.stacked(), b.stacked()
    # column i of q - p (p* q) is the residual of q's i-th element off span(p)
    return float(
        max(
            np.linalg.norm(q - p @ (p.conj().T @ q), axis=0).max(initial=0.0)
            for q, p in ((qa, qb), (qb, qa))
        )
    )


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
    normalized identity always lies in the span.  The basis is cached on the
    family, next to its spectral core, and its matrices are read-only.
    """
    if not family.is_unital:
        warnings.warn(
            "fixed_space of a non-unital family may be trivial", stacklevel=2
        )
    if family._fixed_space is None:
        d = family.dim
        basis = _hermitian_basis(spectral_core(family).kernel(fix_tol(d)), d)
        for h in basis:
            h.setflags(write=False)
        family._fixed_space = SubspaceBasis(rows=d, cols=d, basis=tuple(basis))
    return family._fixed_space


def commutant(mats) -> SubspaceBasis:
    """Joint commutant {x : a_j x = x a_j for all j} as a numerical null space.

    It is :func:`opcore.sylvester_null_space` of the pairs ``(a_j, a_j)``,
    cut at ``fix_tol(d) * s`` with ``s = ||(a_1; ...; a_m)||_F / sqrt(d)``
    (1 for a trace-preserving family), so the commutant of ``{t a_j}`` is
    that of ``{a_j}``.  Always contains the normalized identity.
    """
    sq = opcore.square_family(mats, "mats")
    d = sq[0].shape[0]
    # hypot squares no entry, so no scale overflows or underflows
    s = np.hypot.reduce(np.abs(np.concatenate(sq)), axis=None) / math.sqrt(d)
    basis = opcore.sylvester_null_space(sq, sq, fix_tol(d) * s)
    return SubspaceBasis(rows=d, cols=d, basis=basis)


@dataclass(frozen=True)
class GapReport:
    """Singular-value summary of S - I.

    ``restricted_gap`` is the smallest singular value above the fixed-space
    cutoff, or ``math.inf`` when every singular value sits below it.
    ``blocks`` and ``largest_block`` describe the factorization of S - I
    (:attr:`SpectralCore.blocks`, :attr:`SpectralCore.largest_block`).
    """

    sigma_min: float
    restricted_gap: float
    fix_dim: int
    blocks: int
    largest_block: int

    def to_json(self) -> dict:
        """The gap's report fields: an infinite ``restricted_gap`` as null, and
        the block counts under ``diagnostics``."""
        return {
            "sigma_min": self.sigma_min,
            "restricted_gap": None if math.isinf(self.restricted_gap) else self.restricted_gap,
            "fix_dim": self.fix_dim,
            "diagnostics": {"blocks": self.blocks, "largest_block": self.largest_block},
        }


def gap_report(family: KrausFamily, tol: float | None = None) -> GapReport:
    """Report sigma_min, the restricted gap and the numerical fixed dimension.

    Only singular values are read.  A family that holds its spectral core
    answers from it; any other family factors for values only
    (``opcore.factorize(..., vectors=False)``) and caches nothing: an exactly
    real symmetric ``S - I`` through the ``eigvalsh`` of the stacks
    :func:`spectral_core` reads, so both ways give the same report bitwise,
    and any other as the real ``S_h - I`` of :func:`_hermitian_form`,
    through one real SVD without vectors (one block, as in the full core),
    whose ``sv`` agree with the full core's to rounding, not bitwise.
    """
    if tol is None:
        tol = fix_tol(family.dim)
    core = family._spectral_core
    if core is None:
        core = opcore.factorize(_s_minus_identity(family, values_only=True), vectors=False)
    sv = core.sv[::-1]
    fix_dim = int(np.sum(sv <= tol))
    restricted = float(sv[fix_dim]) if fix_dim < sv.size else math.inf
    return GapReport(
        sigma_min=float(sv[0]),
        restricted_gap=restricted,
        fix_dim=fix_dim,
        blocks=core.blocks,
        largest_block=core.largest_block,
    )


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
    """Outcome of testing whether the fixed space is closed under squares.

    ``commutant_distance_bound`` bounds :func:`subspace_distance` of the
    fixed space and the commutant; it and ``commutant_dim`` are None unless
    the family is unital and closed.
    """

    closed: bool
    witness: np.ndarray | None
    fix_dim: int
    commutant_dim: int | None
    commutant_distance_bound: float | None


SQUARE_TOL = 1e-8


def _commutator_gram(family: KrausFamily) -> opcore.BlockSplit:
    """The commutator Gram operator L, cut along its exact pattern.

    L(x) = (sum a_j* a_j) x + x (sum a_j a_j*) - psi(x) - psi_*(x), so
    ``<x, L x> = sum_j ||a_j x - x a_j||_2^2``: L is the Gram matrix of the
    commutant's Sylvester stack, and its blocks are complex Hermitian.
    """
    a, adj = family.ops, family._adjoints
    eye = np.eye(family.dim)
    lefts = [sum(x @ y for x, y in zip(adj, a)), eye, *(-x for x in adj), *(-x for x in a)]
    rights = [eye, sum(x @ y for x, y in zip(a, adj)), *a, *adj]
    rows, cols, values = opcore.kron_entries(lefts, rights).nonzero()
    return opcore.block_split(family.dim**2, rows, cols, values)


def fix_closed_under_square(family: KrausFamily) -> SquareClosureReport:
    """Test closure of the fixed space under squaring its elements.

    Squaring a real combination of the Hermitian basis expands into the
    Jordan products ``(h_i h_j + h_j h_i) / 2``, so closure is equivalent to
    every such product staying fixed; the first violating product is returned
    as a witness when ``||psi(m) - m||_2 > SQUARE_TOL = 1e-8``.  When no
    violation is found and the family is unital, the fixed space must
    coincide with the commutant of the family.  That equality needs
    ``sum_j a_j* a_j = 1``: for Hermitian h with h and h^2 fixed,
    ``sum_j [a_j, h]* [a_j, h] = h (sum_j a_j* a_j) h - h psi(h) - psi(h) h
    + psi(h^2)`` vanishes only then, and the commutant, which holds 1, lies
    in Fix only then.  A non-unital family with no violating square is
    reported closed, with ``commutant_dim`` and ``commutant_distance_bound``
    None.

    The equality is certified with no Sylvester stack, QR or singular
    vector.  With tol = ``fix_tol(d)`` and r = dim Fix, the residual
    ``(sum_i sum_j ||a_j h_i - h_i a_j||_2^2)^(1/2)`` over the Hermitian
    basis must be at most tol, so the commutant has dimension at least r.
    The eigenvalues of :func:`_commutator_gram` (values only, per block)
    are the stack's singular values squared; ``commutant_dim`` adds to r
    those at most tol^2 past the r least (which are rounding of size
    eps ||L||, possibly above tol^2), and ``commutant_distance_bound`` =
    residual / sqrt(lambda_{r+1}) (zero when r = d^2).  A ``ValueError``
    is raised unless the residual is at most tol, the dimensions agree and
    the bound is at most ``SQUARE_TOL``.
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
                    commutant_distance_bound=None,
                )
    commutant_dim = bound = None
    if family.is_unital:
        d, r, tol = family.dim, len(fs), fix_tol(family.dim)
        hs = np.reshape(fs.basis, (r, d, d))
        residual = math.sqrt(sum(np.linalg.norm(a @ hs - hs @ a) ** 2 for a in family.ops))
        # ascending; the r least are the fixed space's, at rounding level
        lam = opcore.factorize(_commutator_gram(family), vectors=False).sv[::-1]
        commutant_dim = r + int(np.count_nonzero(lam[r:] <= tol * tol))
        if r == lam.size:
            bound = 0.0
        elif commutant_dim == r:
            bound = residual / math.sqrt(lam[r])
        else:
            bound = math.inf
        if residual > tol or commutant_dim != r or bound > SQUARE_TOL:
            raise ValueError(
                "fixed space is closed under squares yet differs from the commutant "
                f"(dims {r} vs {commutant_dim}, commutator residual {residual:.3e}, "
                f"distance bound {bound:.3e})"
            )
    return SquareClosureReport(
        closed=True,
        witness=None,
        fix_dim=len(fs),
        commutant_dim=commutant_dim,
        commutant_distance_bound=bound,
    )
