"""Commuting normal coefficient families and product maps built from them.

For families ``c = (c_j)`` and ``d = (d_j)`` the product map is
``theta(x) = sum_j c_j x d_j``.  When each family is commuting and normal the
two families diagonalize simultaneously, the spectrum of ``theta`` is the set
of pointwise products of joint-spectrum tuples, and the fixed points of the
Kraus-like variant ``sum_j a_j x b_j`` are exactly the intertwiners
``{x : a_j x = x b_j*}``.  :func:`product_map_check` quantifies both
statements for one pair.

Every spectrum here comes from a Hermitian eigensolver.  One routine,
:func:`_eigenbasis`, diagonalizes commuting normal matrices: one ``eigh`` of
the probe ``m + m*`` (``m`` a fixed pseudorandom combination of them), cut
at gaps relative to its Frobenius norm, with only the clusters it leaves
refined, part by part; the off-diagonal residual is gated.  Every
Frobenius norm is :func:`opcore.frobenius`, opcore's one rescale rule.
A family is diagonalized once and keeps its eigenbasis; its joint spectrum
is the generators' diagonals there.  Theta is diagonalized from its factor
pairs (:func:`_kron_eigenbasis`): random combinations of {d_j.T} and of
{c_j} give ``V`` and ``U``, and theta in its eigenbasis is read from the
rotated factors without being formed: its diagonal there is spec(theta),
certified by a gated bound on its off-diagonal part, and Fix(theta) is
formed from its columns with eigenvalue within ``tol`` of 1 alone,
corrected once to first order; theta - I is never factorized.  The
intertwiners of a gated pair are the ``u_i v_k*`` of the two joint
eigenbases with ``||lambda(i) - conj mu(k)|| <= tol``, corrected the same
way; neither space is read from the other's basis.  One check of a pair diagonalizes
its theta once and reads both Fix(theta) and spec(theta) from it; no check
leaves state on its arguments but a family's own eigenbasis.
:func:`intertwiner_space` still solves the Sylvester stack for any pair.
The positivity check builds theta once, densely, and reads Bendixson
bounds off its two parts.  No general (non-Hermitian) eigensolver runs.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import opcore
from .channel import SubspaceBasis, fix_tol, subspace_distance, unital_tol

__all__ = [
    "CommutingFamily",
    "DiagonalizationResult",
    "JointSpectrum",
    "ProductMapReport",
    "PositiveSpectrumReport",
    "simultaneous_diagonalize",
    "joint_spectrum",
    "theta_superoperator",
    "product_spectrum",
    "hausdorff_distance",
    "intertwiner_space",
    "product_map_check",
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

    The family's joint eigenbasis and diagonals, :func:`_eigenbasis` of the
    generators at ``scale``, are computed once, on first use by a check
    that gated the family, and kept frozen:
    :func:`simultaneous_diagonalize`, :func:`joint_spectrum` and
    :func:`product_map_check` all read them, so a family is diagonalized
    once however many of those run.  It stores nothing else.
    """

    def __init__(self, mats):
        sq = opcore.square_family(mats, "mats")
        self.dim = sq[0].shape[0]
        self.mats = sq
        self.scale = float(np.linalg.svd(np.stack(sq), compute_uv=False)[:, 0].max())
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
    return basis, tuple(_gated_diagonal(basis.conj().T @ c @ basis, 1e-8 * scale) for c in mats)


def _gated_diagonal(rotated: np.ndarray, limit: float) -> np.ndarray:
    """The diagonal of ``rotated``, or a ``ValueError`` when the Frobenius
    norm of its off-diagonal part exceeds ``limit``."""
    diag = np.diagonal(rotated).copy()
    off = opcore.frobenius(rotated - np.diag(diag))
    if off > limit:
        raise ValueError(f"diagonalization residual {off:.3e} above tolerance {limit:.3e}")
    return diag


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

    Every product is at most ``s = max ||lambda|| * max ||mu||`` in modulus
    (the maxima over the points of each spectrum).  They are one broadcast
    multiply-and-sum of the points divided by those maxima, merged within
    ``1e-8`` there, that is within ``1e-8 * s``, and scaled back, so none
    underflows into a merge; a ``ValueError`` where one overflows.
    """
    if not sc.points or not sd.points:
        raise ValueError("joint spectra must be non-empty")
    if len(sc.points[0]) != len(sd.points[0]):
        raise ValueError("joint spectra have different tuple lengths")
    scales, units = [], []
    for points in (sc.points, sd.points):
        pts = np.array(points, dtype=np.complex128)
        scales.append(float(_row_norms(pts).max()) or 1.0)
        units.append(pts / scales[-1])
    merged = _merge((units[0][:, None, :] * units[1][None, :, :]).sum(axis=-1).reshape(-1, 1), 1e-8)[:, 0]
    return opcore._finite_sum(
        lambda: merged * max(scales) * min(scales), "product_spectrum: the products overflow the float range"
    )


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite sets of complex numbers; a
    ``ValueError`` where a gap between a point of ``a`` and one of ``b``
    overflows the float range."""
    av = np.asarray(a, dtype=np.complex128).ravel()
    bv = np.asarray(b, dtype=np.complex128).ravel()
    if av.size == 0 or bv.size == 0:
        raise ValueError("Hausdorff distance needs non-empty sets")
    gaps = opcore._finite_sum(
        lambda: np.abs(av[:, None] - bv[None, :]), "hausdorff_distance: a gap overflows the float range"
    )
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def _kron_eigenbasis(c, d) -> tuple:
    """``(U, V, (D, C), eigs)`` for ``theta = sum_j kron(d_j.T, c_j)`` of the
    factor pairs ``(c_j, d_j)``: the rotated factors ``D_j = V* d_j.T V``
    and ``C_j = U* c_j U`` as (m, q, q) and (m, p, p) stacks, and ``eigs``
    the diagonal of theta in its eigenbasis ``kron(V, U)``, where theta is
    ``T = sum_j kron(D_j, C_j)`` (Van Loan and Pitsianis).

    m fixed pseudorandom unit combinations (seed ``0x7E7A``) of {d_j.T} and
    of {c_j} are commuting normal whenever the families are;
    :func:`_eigenbasis` of each set at its Frobenius norm, each column
    corrected once by :func:`_first_order` against the set's m-entry
    diagonals, gives ``V`` and ``U``.  ``T`` itself is never formed:
    ``eigs`` is ``sum_j diag(D_j) (x) diag(C_j)``, added in order to zeros
    (a ``ValueError`` where it overflows), and :func:`_off_diagonal_bound`
    of the factors, at least the Frobenius norm of T's off-diagonal part,
    is gated at ``1e-8 * ||eigs||``, below ``1e-8 * ||T||_F``: theta being
    normal, ``eigs`` lie that close to spec(theta) (Hoffman-Wielandt).
    """
    rng, bases = np.random.default_rng(0x7E7A), []
    for family in (np.stack([x.T for x in d]), np.stack(c)):
        g = rng.standard_normal((len(family), len(family), 2)) @ [1.0, 1.0j]
        mats = np.tensordot(g / np.linalg.norm(g, axis=0), family, axes=(0, 0))
        size = opcore.frobenius(mats)
        basis, diags = _eigenbasis(list(mats), size)
        bases.append(_first_order(basis, mats, np.stack(diags, axis=1), np.arange(len(basis)), size))
    v, u = bases
    dr = np.stack([v.T @ x @ v.conj() for x in d]).transpose(0, 2, 1)
    cr = np.stack([u.conj().T @ x @ u for x in c])

    def diagonal():
        eigs = np.zeros(len(v) * len(u), dtype=np.complex128)
        for x, y in zip(np.diagonal(dr, axis1=1, axis2=2), np.diagonal(cr, axis1=1, axis2=2)):
            eigs += np.multiply.outer(x, y).ravel()
        return eigs

    eigs = opcore._finite_sum(diagonal, "theta's eigenvalues overflow the float range")
    off, limit = _off_diagonal_bound(dr, cr), 1e-8 * opcore.frobenius(eigs)
    if off > limit:
        raise ValueError(f"diagonalization residual {off:.3e} above tolerance {limit:.3e}")
    return u, v, (dr, cr), eigs


def _off_diagonal_bound(dr: np.ndarray, cr: np.ndarray) -> float:
    """An upper bound on ``||T - diag(T)||_F`` for ``T = sum_j kron(D_j, C_j)``.

    With ``delta_j``, ``gamma_j`` the diagonals and ``D~_j``, ``C~_j`` the
    off-diagonal parts of ``D_j`` and ``C_j``, the off-diagonal part of
    ``kron(D_j, C_j)`` is ``kron(delta_j, C~_j) + kron(D~_j, gamma_j) +
    kron(D~_j, C~_j)`` on disjoint supports, so its norm is the ``hypot``
    of the three products of norms; the bound sums it over j.  Each norm is
    :func:`opcore.frobenius` and no norm is squared, so only a product
    beyond the float range reads inf.
    """
    total = 0.0
    for x, y in zip(dr, cr):
        (dx, ox), (dy, oy) = _split_norms(x), _split_norms(y)
        total += math.hypot(dx * oy, ox * dy, ox * oy)
    return total


def _split_norms(m: np.ndarray) -> tuple:
    """Frobenius norms of the diagonal and of the off-diagonal part of ``m``."""
    diag = np.diagonal(m)
    return opcore.frobenius(diag), opcore.frobenius(m - np.diag(diag))


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
    coupling = np.stack([basis.conj().T @ (c @ basis[:, cols]) for c in mats], axis=-1)
    return np.linalg.qr(basis[:, cols] + basis @ _first_order_step(coupling, tuples, cols, scale))[0]


def _first_order_step(coupling: np.ndarray, tuples: np.ndarray, cols: np.ndarray, scale: float) -> np.ndarray:
    """The coefficients ``X`` of :func:`_first_order`, from the couplings
    ``coupling[m, i, j] = (U* c_j U)[m, cols[i]]``."""
    unit = scale if scale > 0.0 else 1.0
    lam = tuples / unit
    delta = lam[:, None, :] - lam[None, cols, :]
    far = _row_norms(delta) > 1e-6
    weight = np.where(far, (delta.real**2 + delta.imag**2).sum(axis=-1), 1.0)
    return np.where(far, -(delta.conj() * (coupling / unit)).sum(axis=-1) / weight, 0.0)


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


def _theta_fixed_space(c, d, tol: float) -> tuple:
    """Fix(theta) of a normal ``theta = sum_j kron(d_j.T, c_j)`` (p x p
    ``c_j``, q x q ``d_j``) as a (k, p, q) stack of HS-orthonormal matrices,
    and theta's diagonal ``eigs`` in :func:`_kron_eigenbasis`.

    Only the k columns of ``T`` with ``|lambda - 1| <= tol`` are formed,
    column ``a * p + b`` as ``sum_j kron(D_j[:, a], C_j[:, b])`` added in
    order to zeros.  They are corrected once by :func:`_first_order_step`
    against the columns whose eigenvalue lies more than ``1e-6 * ||eigs||``
    from theirs, and orthonormalized by QR to ``Q`` (pq x k); each column
    ``Q_k`` is the matrix ``U Q_k V.T``, so the eigenbasis ``kron(V, U)`` is
    never formed.
    """
    u, v, (dr, cr), eigs = _kron_eigenbasis(c, d)
    near = np.flatnonzero(np.abs(eigs - 1.0) <= tol)
    a, b = np.divmod(near, len(u))
    cols = np.zeros((len(v), len(u), near.size), dtype=np.complex128)
    for x, y in zip(dr, cr):
        cols += x[:, None, a] * y[None, :, b]
    step = _first_order_step(cols.reshape(len(eigs), near.size, 1), eigs[:, None], near, opcore.frobenius(eigs))
    step[near, np.arange(near.size)] = 1.0
    q = np.linalg.qr(step)[0]
    return u @ q.T.reshape(-1, len(v), len(u)).transpose(0, 2, 1) @ v.T, eigs


@dataclass(frozen=True, eq=False)
class ProductMapReport:
    """Both claims about one pair's ``theta(x) = sum_j a_j x b_j``.

    ``fix_dim`` and ``intertwiner_dim`` are the dimensions of Fix(theta)
    and of the intertwiners, ``subspace_distance`` their mutual distance,
    and ``passed`` holds when the dimensions agree and that distance is at
    most the check's ``tol``.  ``eigs`` is spec(theta), ``product`` the
    product set of the two joint spectra and ``hausdorff`` the distance
    between them, which scales as the families squared and so is not part
    of ``passed``.  ``eigs`` and ``product`` are in lexicographic (real,
    imaginary) order, so rounding can permute values whose real parts tie:
    compare them across code paths as multisets.
    """

    fix_dim: int
    intertwiner_dim: int
    subspace_distance: float
    passed: bool
    eigs: np.ndarray
    product: np.ndarray
    hausdorff: float


def product_map_check(a, b, tol: float = 1e-7) -> ProductMapReport:
    """Check Fix(theta) against the intertwiners, and spec(theta) against
    the product set of the joint spectra, for ``theta(x) = sum_j a_j x b_j``.

    Both families must pass the commuting-normal gates, and both are gated
    before theta is built, so a family that fails raises ``ValueError``
    before any eigensolver runs.  Theta is then normal, so the singular
    values of theta - I are ``|lambda - 1|`` over spec(theta).  Theta is
    diagonalized once (:func:`_theta_fixed_space`): its diagonal in its own
    eigenbasis, within the gated residual ``1e-8 * ||theta||_F`` of
    spec(theta) (Hoffman-Wielandt), is ``eigs``, and Fix(theta) is the
    eigenvectors with ``|lambda - 1| <= tol``.  A theta beyond the float
    range raises ``ValueError`` there.  The intertwiners and the joint
    spectra are read from the two families' stored joint eigenbases: the
    intertwiners (:func:`_joint_intertwiners`) are ``u_i v_k*`` wherever
    ``||lambda(i) - conj mu(k)||_2 <= tol``, the same cut as
    :func:`intertwiner_space`'s Sylvester null space up to the gated
    diagonalization residuals, with no stack formed.  Theta's eigenbasis is
    never read from the families' bases, so both comparisons stay checks.
    Incomplete families are warned about as in :func:`intertwiner_space`.
    """
    af, bf = _gated_family(a), _gated_family(b)
    am, bm = _family_pair(af, bf, "ab")
    _warn_incomplete(am, bm)
    kernel, diagonal = _theta_fixed_space(am, bm, tol)
    fixed = SubspaceBasis(rows=af.dim, cols=bf.dim, basis=tuple(kernel))
    inter = _joint_intertwiners(af, bf, tol)
    dist = subspace_distance(fixed, inter)
    eigs = _sorted_complex(diagonal)
    product = product_spectrum(joint_spectrum(af), joint_spectrum(bf))
    return ProductMapReport(
        fix_dim=len(fixed),
        intertwiner_dim=len(inter),
        subspace_distance=dist,
        passed=len(fixed) == len(inter) and dist <= tol,
        eigs=eigs,
        product=product,
        hausdorff=hausdorff_distance(eigs, product),
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


def _exactly_hermitian(m: np.ndarray) -> bool:
    """Whether ``m == m*`` entry for entry, which for finite ``m`` is
    ``m - m* == 0``: each block of rows is compared with the conjugate of
    the matching block of columns, so no copy the size of ``m`` is formed."""
    step = max(1, opcore._KRON_CHUNK // len(m))
    return all(np.array_equal(m[lo : lo + step], m[:, lo : lo + step].conj().T) for lo in range(0, len(m), step))


def positive_eigenvalue_check(c, d) -> PositiveSpectrumReport:
    """Bendixson bounds on spec(theta) when every coefficient on both sides is PSD.

    The superoperator is then a sum of Kronecker products of PSD matrices,
    hence PSD itself.  It is built from the coefficients as given, so those
    Hermitian only within the :func:`opcore.require_psd` tolerance leave a
    nonzero anti-Hermitian part K; by Bendixson's theorem the spectrum lies
    in the rectangle with real parts at least ``lambda_min(H)`` and
    imaginary parts at most ``||K||_op`` in modulus, both read off
    ``eigvalsh``.  Theta is built once, by :func:`opcore.kron_sum`.  When
    theta equals theta* entry for entry (:func:`_exactly_hermitian`, which
    forms no copy of theta), theta is H bit for bit: ``eigvalsh(theta)``
    is taken without forming H, and K's solve is skipped
    (``max_imag = 0.0``).  Commutativity is not required.  Non-PSD inputs
    raise.
    """
    cm, dm = _family_pair(c, d, "cd")
    # one stacked gate per side, naming c[j] and d[j]
    opcore.require_psd(np.stack(cm), "c")
    opcore.require_psd(np.stack(dm), "d")
    theta = theta_superoperator(cm, dm)
    if not _exactly_hermitian(theta):
        eigs = np.linalg.eigvalsh(_hermitian_part(theta))
        max_imag = float(np.abs(np.linalg.eigvalsh((theta - theta.conj().T) / 2.0j)).max())
    else:
        # theta is exactly H, and K = 0 has only the eigenvalue 0.0
        eigs, max_imag = np.linalg.eigvalsh(theta), 0.0
    return PositiveSpectrumReport(
        eigs=eigs,
        min_real=float(eigs[0]),
        max_imag=max_imag,
    )
