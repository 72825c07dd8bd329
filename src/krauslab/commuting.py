"""Commuting normal coefficient families and product maps built from them.

For families ``c = (c_j)`` and ``d = (d_j)`` the product map is
``theta(x) = sum_j c_j x d_j``.  When each family is commuting and normal the
two families diagonalize simultaneously, the spectrum of ``theta`` is the set
of pointwise products of joint-spectrum tuples, and the fixed points of the
Kraus-like variant ``sum_j a_j x b_j`` are exactly the intertwiners
``{x : a_j x = x b_j*}``.  The checks here quantify each of those statements.

Every spectrum here comes from a Hermitian eigensolver.  One routine,
:func:`_eigenbasis`, diagonalizes commuting normal matrices: one ``eigh`` of
the probe ``m + m*``, with ``m`` a fixed pseudorandom combination of the
matrices (so the probe combines their Hermitian and anti-Hermitian parts),
cut at gaps relative to its Frobenius norm; only the clusters it leaves
are refined, by each part in turn, and a part is formed only while a
cluster remains; the off-diagonal residual is gated.  Every Frobenius norm
is :func:`opcore.frobenius` (opcore's one rescale rule), so no gate is void
where a square over- or underflows.  The joint spectra are the generators'
diagonals in it; spec(theta) of an accepted pair, where theta is normal, is
theta's own diagonal in it, certified by that residual.  Fix(theta) is read
from the same eigenbasis: the eigenvectors with eigenvalue within ``tol`` of 1,
corrected once to first order against the others; theta - I is never
factorized.  The intertwiners of a gated pair are read from the two families' joint
eigenbases: with ``a_j = U Lambda_j U*`` and ``b_j = V M_j V*`` they are
spanned by the ``u_i v_k*`` whose tuples satisfy
``||lambda(i) - conj mu(k)|| <= tol``, the eigenvectors corrected once to
first order in the same way; no Sylvester stack is built for them.  Each
family is diagonalized once and keeps its eigenbasis, and theta once per
pair: the intertwiner check leaves theta's diagonal on the first family
for the spectrum check of the same pair.  :func:`intertwiner_space` still
solves the Sylvester stack for any pair of families, commuting or not.
The product set of two joint spectra is one broadcast multiply-and-sum.
The positivity check reads Bendixson bounds off the two parts, and solves
theta itself when it is exactly Hermitian.  No general (non-Hermitian)
eigensolver runs.
"""

from __future__ import annotations

import itertools
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
    Both defects are quadratic in the generators, so the gate is decided on
    the generators divided by ``scale``: their defects are compared with
    ``1e-9``, and neither overflows nor underflows at any size, so
    multiplying the family by t > 0 leaves ``accepted`` unchanged.  An
    all-zero family is accepted.  The recorded defects are those relative
    defects times ``scale^2``.  Completeness is not recorded here;
    :func:`opcore.completeness_defects` measures it.

    The family stores two results.  Its joint eigenbasis and diagonals,
    :func:`_eigenbasis` of the generators at ``scale``, are computed once,
    on first use by a check that gated the family, and kept frozen:
    :func:`simultaneous_diagonalize`, :func:`joint_spectrum` and the
    intertwiner check all read them, so a family is diagonalized once
    however many of those run.  And :func:`intertwiner_fixed_point_check` of
    the pair ``(self, partner)`` stores ``(partner, spec(theta))``, the
    diagonal of theta in its certified eigenbasis (``self.dim * partner.dim``
    values), which :func:`spectrum_product_check` of the same pair reads
    instead of building and diagonalizing theta again.  The partner object
    itself is that entry's key; a check against another partner replaces it.
    """

    def __init__(self, mats):
        sq = opcore.square_family(mats, "mats")
        self.dim = sq[0].shape[0]
        self.mats = sq
        self.scale = max(opcore.op_norm(c) for c in sq)
        self.defect_gate = DEFECT_GATE * self.scale * self.scale
        unit = [c / self.scale for c in sq] if self.scale > 0.0 else sq
        self._relative_defects = (
            max(float(np.linalg.norm(c @ c.conj().T - c.conj().T @ c)) for c in unit),
            max(
                (float(np.linalg.norm(a @ b - b @ a)) for i, a in enumerate(unit) for b in unit[i + 1 :]),
                default=0.0,
            ),
        )
        self.normality_defect, self.commutation_defect = (
            v * self.scale * self.scale for v in self._relative_defects
        )
        self._eigen = None
        self._theta_spectrum = (None, None)

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
        return max(self._relative_defects) <= DEFECT_GATE

    def require_accepted(self) -> None:
        if not self.accepted:
            raise ValueError(
                "family fails the commuting-normal gates: "
                f"normality {self.normality_defect:.3e}, "
                f"commutation {self.commutation_defect:.3e}, "
                f"gate {self.defect_gate:.3e}"
            )

    def _diagonalized(self) -> tuple:
        """:func:`_eigenbasis` of the generators at ``self.scale``, computed on
        first use and kept, frozen; the caller has passed the gates."""
        if self._eigen is None:
            basis, diags = _eigenbasis(self.mats, self.scale)
            for arr in (basis, *diags):
                arr.setflags(write=False)
            self._eigen = (basis, diags)
        return self._eigen


def _family_mats(obj, name: str) -> tuple:
    """Accept a CommutingFamily or a plain sequence of square matrices."""
    if isinstance(obj, CommutingFamily):
        return obj.mats
    return opcore.square_family(obj, name)


def _gated_family(obj) -> CommutingFamily:
    """``obj`` as a :class:`CommutingFamily` that passed the commuting-normal
    gates (``ValueError`` otherwise)."""
    fam = obj if isinstance(obj, CommutingFamily) else CommutingFamily(obj)
    fam.require_accepted()
    return fam


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


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _skew_part(m: np.ndarray) -> np.ndarray:
    """The anti-Hermitian part of ``m`` divided by ``i``, itself Hermitian."""
    return (m - m.conj().T) / 2.0j


def _split(cols: np.ndarray, w: np.ndarray, gap: float) -> list:
    """The clusters of ``cols``: its runs of at least two entries once cut
    wherever consecutive ascending eigenvalues ``w`` differ by more than
    ``gap``.  A single column is settled and is not listed."""
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(w) > gap) + 1, [w.size]))
    return [cols[bounds[r] : bounds[r + 1]] for r in np.flatnonzero(np.diff(bounds) > 1)]


def _refine(basis: np.ndarray, clusters: list, c: np.ndarray, part, scale: float) -> list:
    """Diagonalize ``part(c)`` on every cluster of columns of ``basis``.

    ``part`` is :func:`_hermitian_part` or :func:`_skew_part`.  The part of
    ``c`` itself is formed only for its gap ``1e-6 * (scale + ||part(c)||_F)``;
    the columns ``p`` of each cluster are rotated in place by the ``eigh`` of
    the part of the compression ``p* c p`` and cut at its eigenvalue gaps
    above that gap.  The clusters left (:func:`_split`) are returned.
    """
    gap = 1e-6 * (scale + opcore.frobenius(part(c)))
    left = []
    for cols in clusters:
        p = basis[:, cols]
        w, v = np.linalg.eigh(part(p.conj().T @ c @ p))
        basis[:, cols] = p @ v
        left.extend(_split(cols, w, gap))
    return left


def _eigenbasis(mats, scale: float) -> tuple:
    """Common unitary eigenbasis of commuting normal ``mats``, and their diagonals.

    One ``eigh`` of the probe ``m + m*``, ``m = sum_j alpha_j c_j`` with
    ``alpha_j = (x_j - i y_j) / 2`` from a fixed pseudorandom normal draw
    (seed ``0xD1A6``), splits the joint eigenspaces generically; the probe
    is ``sum_j x_j H_j + y_j K_j`` over the generators' Hermitian and
    anti-Hermitian parts, and no part is stored.  The probe's eigenvalues
    are cut at gaps above ``1e-6 * (scale + ||probe||_F)``.  While a cluster
    of at least two columns remains, :func:`_refine` rotates it by each
    generator's parts in turn, so all generators end scalar on each
    cluster; no part is formed once none remains.  The off-diagonal
    Frobenius residual of every rotated generator is gated at
    ``1e-8 * scale`` (``ValueError`` above it), so both tests follow the
    size of ``mats``.
    """
    x, y = np.random.default_rng(0xD1A6).standard_normal((len(mats), 2)).T
    mixed = sum(a * c for a, c in zip((x - 1j * y) / 2.0, mats))
    probe = mixed + mixed.conj().T
    w, basis = np.linalg.eigh(probe)
    clusters = _split(np.arange(w.size), w, 1e-6 * (scale + opcore.frobenius(probe)))
    for c, part in itertools.product(mats, (_hermitian_part, _skew_part)):
        if not clusters:
            break
        clusters = _refine(basis, clusters, c, part, scale)
    diags = []
    limit = 1e-8 * scale
    for c in mats:
        rotated = basis.conj().T @ c @ basis
        diags.append(np.diagonal(rotated).copy())
        np.fill_diagonal(rotated, 0.0)
        off = opcore.frobenius(rotated)
        if off > limit:
            raise ValueError(
                f"diagonalization residual {off:.3e} above tolerance {limit:.3e}"
            )
    return basis, tuple(diags)


def simultaneous_diagonalize(family: CommutingFamily) -> DiagonalizationResult:
    """Common unitary eigenbasis of an accepted commuting normal family.

    It is :func:`_eigenbasis` of the generators at ``family.scale``: blocks
    cut at eigenvalue gaps above ``1e-6 * (family.scale + ||probe||_F)`` and
    every rotated generator's off-diagonal residual gated at
    ``1e-8 * family.scale``, so both tests are relative to the size of the
    family.  A :class:`CommutingFamily` computes it once and returns the
    same frozen arrays on every call.
    """
    basis, diags = _gated_family(family)._diagonalized()
    return DiagonalizationResult(unitary=basis, diags=diags)


@dataclass(frozen=True)
class JointSpectrum:
    """Deduplicated joint eigenvalue tuples of a commuting normal family."""

    points: tuple


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Indices sorting complex rows by (real, imaginary) part, entry by entry."""
    # lexsort takes its last key as primary, so entry 0's keys go last.
    return np.lexsort([part for z in rows.T[::-1] for part in (z.imag, z.real)])


def _row_norms(rows) -> np.ndarray:
    """Euclidean norm of each complex row (along the last axis), by ``hypot``
    so that no entry is squared: rows of any representable size keep their
    exact distances."""
    return np.hypot.reduce(np.abs(rows), axis=-1)


def _merge(rows: np.ndarray, radius: float) -> np.ndarray:
    """Rows in lexicographic order, each kept when farther than ``radius``
    from every row kept before it.

    One matrix of the pairwise distances decides it: a row with no earlier
    row within ``radius`` is kept outright, and only the others are decided
    in order, against the rows kept before them.
    """
    ordered = rows[_lex_order(rows)]
    close = np.tril(_row_norms(ordered[None, :] - ordered[:, None]) <= radius, -1)
    keep = ~close.any(axis=1)
    for i in np.flatnonzero(~keep):
        keep[i] = not (close[i, :i] & keep[:i]).any()
    return ordered[keep]


def joint_spectrum(family: CommutingFamily) -> JointSpectrum:
    """Joint spectrum as tuples (one entry per generator) at each eigenvector.

    With ``s = family.scale``, tuples within ``1e-8 * s`` in Euclidean
    distance are merged; the result is sorted lexicographically by (real,
    imaginary) parts for reproducibility.  Every tuple's norm is bounded by
    the family norm ``||sum c_j* c_j||^(1/2)``, read as the operator norm of
    the stacked generators so that nothing is squared, and checked with a
    slack of ``1e-9 * s``.
    """
    family = _gated_family(family)
    res = simultaneous_diagonalize(family)
    reps = _merge(np.stack(res.diags, axis=1), 1e-8 * family.scale)
    bound = opcore.op_norm(np.vstack(family.mats))
    if (_row_norms(reps) > bound + 1e-9 * family.scale).any():
        raise ValueError("joint-spectrum tuple exceeds the family norm bound")
    return JointSpectrum(points=tuple(tuple(complex(z) for z in r) for r in reps))


def theta_superoperator(c, d) -> np.ndarray:
    """Matrix sum_j kron(d_j.T, c_j) of theta on column-stacked input."""
    cm, dm = _family_pair(c, d, "cd")
    return opcore.kron_sum(cm, dm)


def _sorted_complex(vals: np.ndarray) -> np.ndarray:
    arr = np.asarray(vals, dtype=np.complex128).ravel()
    return arr[_lex_order(arr[:, None])]


def product_spectrum(sc: JointSpectrum, sd: JointSpectrum) -> np.ndarray:
    """All pointwise products sum_j lambda_j mu_j of two joint spectra.

    They are one broadcast multiply-and-sum over the two point arrays.
    Every product is at most ``max ||lambda|| * max ||mu||`` in modulus (the
    maxima over the points of each spectrum), and products within ``1e-8``
    times that scale are merged.
    """
    if not sc.points or not sd.points:
        raise ValueError("joint spectra must be non-empty")
    if len(sc.points[0]) != len(sd.points[0]):
        raise ValueError("joint spectra have different tuple lengths")
    lam = np.array(sc.points, dtype=np.complex128)
    mu = np.array(sd.points, dtype=np.complex128)
    vals = (lam[:, None, :] * mu[None, :, :]).sum(axis=-1).reshape(-1, 1)
    scale = _row_norms(lam).max() * _row_norms(mu).max()
    return _merge(vals, 1e-8 * scale)[:, 0]


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


def _normal_eigvals(theta: np.ndarray) -> np.ndarray:
    """Eigenvalues of a normal matrix: its diagonal in :func:`_eigenbasis` at
    ``||theta||_F``.  For a normal ``theta`` the Hoffman-Wielandt theorem
    bounds the matching distance between them and spec(theta) by the gated
    off-diagonal residual, at most ``1e-8 * ||theta||_F``; a non-normal
    ``theta`` fails the gate and raises ``ValueError``."""
    return _eigenbasis([theta], opcore.frobenius(theta))[1][0]


def spectrum_product_check(c, d) -> SpectrumProductReport:
    """Compare spec(theta) with the product set of the two joint spectra.

    Both families must pass the commuting-normal gates, and both are gated
    before either joint spectrum is read, so a family that fails raises
    ``ValueError`` before any eigensolver runs.  The joint spectra come from
    the families' stored eigenbases (see :class:`CommutingFamily`).  Theta
    is then normal, and ``eigs`` are its diagonal in
    :func:`_eigenbasis` of ``[theta]`` alone, not in the joint eigenbases:
    one ``eigh`` of a fixed combination of its Hermitian and anti-Hermitian
    parts, cut at gaps above ``1e-6 * (||theta||_F + ||probe||_F)``, each
    cluster it leaves refined by both parts.  The off-diagonal residual
    (at most ``1e-8 * ||theta||_F``, else ``ValueError``) bounds their
    distance to spec(theta).  The Hausdorff distance to the product set then
    vanishes up to rounding.

    When :func:`intertwiner_fixed_point_check` of the same two family
    objects ran first, theta's diagonal is read from the cache it left on
    ``c`` (see :class:`CommutingFamily`): the same values, from the same
    eigenbasis, without building or diagonalizing theta again.
    """
    cf, df = _gated_family(c), _gated_family(d)
    product = product_spectrum(joint_spectrum(cf), joint_spectrum(df))
    partner, eigs = cf._theta_spectrum
    if partner is not df:
        eigs = _normal_eigvals(theta_superoperator(cf, df))
    eigs = _sorted_complex(eigs)
    return SpectrumProductReport(
        eigs=eigs,
        product=product,
        hausdorff=hausdorff_distance(eigs, product),
    )


def _warn_incomplete(am: tuple, bm: tuple) -> None:
    """Warn, at the caller of the public function, when ``a`` is not
    row-complete (``sum a_j a_j* = 1``) or ``b`` not column-complete
    (``sum b_j* b_j = 1``) to ``unital_tol(n)``; no intertwiner solve needs
    either, so neither raises.  Only those two defects are formed, one Gram
    and one ``eigvalsh`` each.  An overflowing defect reads inf and warns."""
    row_defect = opcore.counital_defect(am)
    col_defect = opcore.unital_defect(bm)
    if not row_defect <= unital_tol(am[0].shape[0]):
        warnings.warn(f"a is not row-complete (defect {row_defect:.3e})", stacklevel=3)
    if not col_defect <= unital_tol(bm[0].shape[0]):
        warnings.warn(f"b is not column-complete (defect {col_defect:.3e})", stacklevel=3)


def intertwiner_space(a, b, tol: float | None = None) -> SubspaceBasis:
    """Numerical solution space of a_j x = x b_j* for all j.

    The families need not commute: the kron-stacked Sylvester system is
    solved by :func:`opcore.sylvester_null_space` with the absolute cutoff
    ``tol``, by default ``fix_tol(max(na, nb))`` times the larger scale
    ``||(a_1; ...; a_m)||_F / sqrt(na)`` or ``||(b_1; ...)||_F / sqrt(nb)``,
    so scaling both families leaves the space.  Completeness of the families
    (``sum a_j a_j* = 1`` row-wise for ``a``, ``sum b_j* b_j = 1``
    column-wise for ``b``) is checked to ``unital_tol(n)``
    and only warned about, since the solver itself does not need it.
    """
    am, bm = _family_pair(a, b, "ab")
    na, nb = am[0].shape[0], bm[0].shape[0]
    if tol is None:
        s = max(opcore.frobenius(np.concatenate(m)) / np.sqrt(n) for m, n in ((am, na), (bm, nb)))
        tol = fix_tol(max(na, nb)) * s
    _warn_incomplete(am, bm)
    basis = opcore.sylvester_null_space(am, [bj.conj().T for bj in bm], tol)
    return SubspaceBasis(rows=na, cols=nb, basis=basis)


def _first_order(basis: np.ndarray, mats, tuples: np.ndarray, cols: np.ndarray, scale: float) -> np.ndarray:
    """Columns ``cols`` of the joint eigenbasis ``basis`` of ``mats``, corrected
    once to first order against the other columns, then orthonormalized by QR.
    Row i of ``tuples`` holds the generators' eigenvalues at column i.

    The columns are only as accurate as the probe's own eigenvalue gaps,
    which a random real projection can make far smaller than the gaps
    between joint eigenvalue tuples.  Column i gains ``sum_m u_m X_mi`` with
    ``X_mi = -sum_j conj(delta_j) (U* c_j U)_mi / sum_j |delta_j|^2`` and
    ``delta_j = lambda_j(m) - lambda_j(i)``, the least-squares first-order
    solution over every generator at once.  Pairs whose tuples lie within
    the probes' cut gap ``1e-6 * scale`` of each other (a column and its own
    eigenspace) are left out.  All of it is read on the generators divided
    by ``scale``, so nothing under- or overflows.
    """
    unit = scale if scale > 0.0 else 1.0
    lam = tuples / unit
    delta = lam[:, None, :] - lam[None, cols, :]
    coupling = np.stack([basis.conj().T @ (c @ basis[:, cols]) for c in mats], axis=-1) / unit
    far = _row_norms(delta) > 1e-6
    weight = np.where(far, (delta.real**2 + delta.imag**2).sum(axis=-1), 1.0)
    step = np.where(far, -(delta.conj() * coupling).sum(axis=-1) / weight, 0.0)
    return np.linalg.qr(basis[:, cols] + basis @ step)[0]


def _joint_intertwiners(af: CommutingFamily, bf: CommutingFamily, tol: float) -> SubspaceBasis:
    """The intertwiners ``{x : a_j x = x b_j*}`` of two accepted families, read
    from their stored joint eigenbases.

    With ``a_j = U diag(lambda_j) U*`` and ``b_j = V diag(mu_j) V*``,
    ``x = U y V*`` intertwines iff ``y_ik (lambda_j(i) - conj mu_j(k)) = 0``
    for every j.  In these coordinates the Sylvester stack of
    :func:`intertwiner_space` is diagonal with singular values
    ``||lambda(i) - conj mu(k)||_2``, so the basis is
    ``{u_i v_k* : ||lambda(i) - conj mu(k)||_2 <= tol}``: that function's cut
    up to the gated diagonalization residuals.  The columns it uses are
    corrected by :func:`_first_order`.  No stack is formed or factorized.
    """
    (u, lam), (v, mu) = af._diagonalized(), bf._diagonalized()
    lam, mu = np.stack(lam, axis=1), np.stack(mu, axis=1)
    i, k = np.nonzero(_row_norms(lam[:, None] - mu.conj()[None]) <= tol)
    basis = ()
    if i.size:
        rows, at_i = np.unique(i, return_inverse=True)
        cols, at_k = np.unique(k, return_inverse=True)
        left = _first_order(u, af.mats, lam, rows, af.scale)[:, at_i]
        right = _first_order(v, bf.mats, mu, cols, bf.scale)[:, at_k].conj()
        basis = tuple(np.outer(x, y) for x, y in zip(left.T, right.T))
    return SubspaceBasis(rows=af.dim, cols=bf.dim, basis=basis)


@dataclass(frozen=True)
class IntertwinerFixedReport:
    """Fixed points of sum_j a_j x b_j versus the intertwiner space."""

    fix_dim: int
    intertwiner_dim: int
    subspace_distance: float
    passed: bool


def _theta_fixed_space(theta: np.ndarray, tol: float) -> tuple:
    """Orthonormal columns spanning Fix(theta) of a normal ``theta``, and
    theta's diagonal in :func:`_eigenbasis` at ``||theta||_F``.

    The eigenvectors with ``|lambda - 1| <= tol`` are kept, corrected once
    by :func:`_first_order` against the columns whose eigenvalue lies more
    than ``1e-6 * ||theta||_F`` from theirs, and orthonormalized by QR.
    """
    scale = opcore.frobenius(theta)
    basis, (eigs,) = _eigenbasis([theta], scale)
    near = np.flatnonzero(np.abs(eigs - 1.0) <= tol)
    return _first_order(basis, [theta], eigs[:, None], near, scale), eigs


def intertwiner_fixed_point_check(a, b, tol: float = 1e-7) -> IntertwinerFixedReport:
    """Check that fixed points of x -> sum_j a_j x b_j are the intertwiners.

    Both families must pass the commuting-normal gates; a family that fails
    raises ``ValueError`` before theta is built.  Theta is then normal, so
    the singular values of theta - I are ``|lambda - 1|`` over spec(theta).
    Fix(theta) is read from theta's eigenbasis (:func:`_theta_fixed_space`):
    the eigenvectors whose ``lambda``, theta's diagonal in that basis, has
    ``|lambda - 1| <= tol``.  By the Hoffman-Wielandt theorem that diagonal
    is within the gated off-diagonal residual (at most
    ``1e-8 * ||theta||_F``) of spec(theta), so the cut is
    ``sigma(theta - I) <= tol`` up to that residual.  The intertwiners are
    read from the two families' stored joint eigenbases
    (:func:`_joint_intertwiners`): ``u_i v_k*`` wherever the tuples satisfy
    ``||lambda(i) - conj mu(k)||_2 <= tol``, the same cut as
    :func:`intertwiner_space`'s Sylvester null space up to the gated
    diagonalization residuals, with no stack formed.  Neither space is read
    from the other's basis, so the comparison stays a check.  The check
    passes when the dimensions agree and the mutual subspace distance is at
    most ``tol``.  Incomplete families are warned about as in
    :func:`intertwiner_space`.  Theta's diagonal is left on ``a`` for
    :func:`spectrum_product_check`.
    """
    af, bf = _gated_family(a), _gated_family(b)
    am, bm = _family_pair(af, bf, "ab")
    _warn_incomplete(am, bm)
    na, nb = am[0].shape[0], bm[0].shape[0]
    kernel, eigs = _theta_fixed_space(theta_superoperator(am, bm), tol)
    af._theta_spectrum = (bf, eigs)
    fixed = SubspaceBasis(
        rows=na, cols=nb, basis=tuple(opcore.devectorize(k, na, nb) for k in kernel.T)
    )
    inter = _joint_intertwiners(af, bf, tol)
    dist = subspace_distance(fixed, inter)
    passed = len(fixed) == len(inter) and dist <= tol
    return IntertwinerFixedReport(
        fix_dim=len(fixed),
        intertwiner_dim=len(inter),
        subspace_distance=dist,
        passed=passed,
    )


@dataclass(frozen=True, eq=False)
class PositiveSpectrumReport:
    """Bendixson bounds on the spectrum of theta with PSD coefficients.

    ``eigs`` are the ascending eigenvalues of the Hermitian part
    ``H = (theta + theta*) / 2``; every eigenvalue of theta has real part at
    least ``min_real = lambda_min(H)`` and imaginary part at most
    ``max_imag = ||K||_op`` in modulus, ``K = (theta - theta*) / 2i``.
    """

    eigs: np.ndarray
    min_real: float
    max_imag: float


def positive_eigenvalue_check(c, d) -> PositiveSpectrumReport:
    """Bendixson bounds on spec(theta) when every coefficient on both sides is PSD.

    The superoperator is then a sum of Kronecker products of PSD matrices,
    hence PSD itself.  It is built from the coefficients as given, so those
    Hermitian only within the :func:`opcore.require_psd` tolerance leave a
    nonzero anti-Hermitian part K; by Bendixson's theorem the spectrum lies
    in the rectangle with real parts at least ``lambda_min(H)`` and
    imaginary parts at most ``||K||_op`` in modulus, both read off
    ``eigvalsh``.  When ``theta - theta*`` is exactly zero, theta is H
    bit for bit: ``eigvalsh(theta)`` is taken without forming the copy H,
    and K's solve is skipped (``max_imag = 0.0``).  Commutativity is not
    required.  Non-PSD inputs raise.
    """
    cm, dm = _family_pair(c, d, "cd")
    for name, mats in (("c", cm), ("d", dm)):
        for j, m in enumerate(mats):
            opcore.require_psd(m, name=f"{name}[{j}]")
    theta = theta_superoperator(cm, dm)
    diff = theta - theta.conj().T
    if diff.any():
        eigs = np.linalg.eigvalsh(_hermitian_part(theta))
        max_imag = float(np.abs(np.linalg.eigvalsh(diff / 2.0j)).max())
    else:
        # theta is exactly H, and K = 0 has only the eigenvalue 0.0
        eigs, max_imag = np.linalg.eigvalsh(theta), 0.0
    return PositiveSpectrumReport(
        eigs=eigs,
        min_real=float(eigs[0]),
        max_imag=max_imag,
    )
