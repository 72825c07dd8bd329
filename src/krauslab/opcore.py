"""Dense complex matrix primitives shared by the rest of the package.

Operators are plain 2-D complex128 numpy arrays.  Vectorization is column
stacking, so ``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``.  This module is the
one place that convention, the PSD tolerance and the validation of matrix
families are written down: superoperators come from :func:`kron_sum` (their
action from :func:`product_map`), solution spaces of ``l_j x = x r_j`` from
:func:`sylvester_null_space`, PSD inputs pass :func:`require_psd` and families
pass :func:`square_family` (their defects from :func:`completeness_defects`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "MatrixNorms",
    "HermitianWitness",
    "as_matrix",
    "norms",
    "op_norm",
    "hs_norm",
    "trace_norm",
    "hs_inner",
    "hermitian_witness",
    "symmetrized",
    "positive_part",
    "require_psd",
    "psd_sqrt",
    "square_family",
    "completeness_defects",
    "vectorize",
    "devectorize",
    "null_space_basis",
    "null_space_matrices",
    "kron_sum",
    "product_map",
    "sylvester_null_space",
    "linear_map_matrix",
    "matrix_to_json",
    "matrix_from_json",
]


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-D complex128 array, rejecting empty or non-finite input."""
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"{name} must have positive dimensions, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _square(x, name: str = "matrix") -> np.ndarray:
    m = as_matrix(x, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


class MatrixNorms(NamedTuple):
    op: float
    hs: float
    tr: float


def norms(x) -> MatrixNorms:
    """Operator, Hilbert-Schmidt and trace norms, all read off one SVD.

    The three values satisfy ``op <= hs <= tr`` up to rounding.
    """
    s = np.linalg.svd(as_matrix(x), compute_uv=False)
    return MatrixNorms(
        op=float(s[0]),
        hs=float(np.sqrt(np.sum(s * s))),
        tr=float(np.sum(s)),
    )


def op_norm(x) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(as_matrix(x), compute_uv=False)[0])


def hs_norm(x) -> float:
    """Hilbert-Schmidt (Frobenius) norm, sqrt(tr(x* x))."""
    return float(np.linalg.norm(as_matrix(x)))


def trace_norm(x) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(as_matrix(x), compute_uv=False)))


def hs_inner(x, y) -> complex:
    """Hilbert-Schmidt inner product tr(x* y), conjugate-linear in ``x``."""
    mx = as_matrix(x, "x")
    my = as_matrix(y, "y")
    if mx.shape != my.shape:
        raise ValueError(f"shape mismatch {mx.shape} vs {my.shape}")
    return complex(np.vdot(mx, my))


@dataclass(frozen=True, eq=False)
class HermitianWitness:
    """Symmetrized matrix together with how far the input was from Hermitian."""

    matrix: np.ndarray
    asymmetry: float
    tolerance: float

    @property
    def accepted(self) -> bool:
        return self.asymmetry <= self.tolerance


def hermitian_witness(m, name: str = "matrix") -> HermitianWitness:
    """Measure ``||m - m*||_2`` against the scale-aware Hermitian tolerance.

    A matrix passes iff its asymmetry is at most ``1e-10 * (1 + ||m||_2)``.
    """
    a = _square(m, name)
    asym = float(np.linalg.norm(a - a.conj().T))
    tol = 1e-10 * (1.0 + float(np.linalg.norm(a)))
    return HermitianWitness(matrix=(a + a.conj().T) / 2.0, asymmetry=asym, tolerance=tol)


def symmetrized(m, name: str = "matrix") -> np.ndarray:
    """Return (m + m*)/2, raising if the asymmetry exceeds tolerance."""
    w = hermitian_witness(m, name)
    if not w.accepted:
        raise ValueError(
            f"{name} is not Hermitian: asymmetry {w.asymmetry:.3e} "
            f"exceeds tolerance {w.tolerance:.3e}"
        )
    return w.matrix


def positive_part(h) -> np.ndarray:
    """Spectral positive part h_+ of a Hermitian matrix.

    Satisfies h = positive_part(h) - positive_part(-h) after symmetrization.
    """
    sym = symmetrized(h)
    w, v = np.linalg.eigh(sym)
    out = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return (out + out.conj().T) / 2.0


def _psd_gate(w: np.ndarray, name: str) -> None:
    """Raise unless the ascending eigenvalues ``w`` are all at least -psd_tol.

    ``psd_tol = 1e-10 * (1 + max|w|)``, which is ``1e-10 * (1 + ||m||_op)``
    for the Hermitian matrix the eigenvalues belong to.
    """
    ptol = 1e-10 * (1.0 + float(np.max(np.abs(w))))
    if float(w[0]) < -ptol:
        raise ValueError(
            f"{name} is not PSD: eigenvalue {float(w[0]):.3e} below -{ptol:.3e}"
        )


def require_psd(m, name: str = "matrix") -> np.ndarray:
    """Symmetrize ``m`` and raise unless it is PSD up to the PSD tolerance.

    Returns the symmetrized matrix; eigenvalues in ``[-psd_tol, 0)`` with
    ``psd_tol = 1e-10 * (1 + ||m||_op)`` are accepted as rounding.
    """
    sym = symmetrized(m, name)
    _psd_gate(np.linalg.eigvalsh(sym), name)
    return sym


def psd_sqrt(p) -> np.ndarray:
    """Positive square root of a PSD matrix.

    The matrix passes the same gate as :func:`require_psd`, read off the one
    eigendecomposition that also yields the root; eigenvalues in
    ``[-psd_tol, 0)`` are clipped to zero.
    """
    sym = symmetrized(p)
    w, v = np.linalg.eigh(sym)
    _psd_gate(w, "matrix")
    out = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (out + out.conj().T) / 2.0


def square_family(mats, name: str = "mats") -> tuple:
    """Validate a non-empty family of same-size square matrices.

    Each matrix is copied and the copy frozen, so the caller's arrays stay
    writable and later writes to them cannot reach the family.
    """
    mats = list(mats)
    if not mats:
        raise ValueError(f"{name} must be a non-empty family")
    out = []
    for j, x in enumerate(mats):
        m = _square(x, f"{name}[{j}]").copy()
        m.setflags(write=False)
        out.append(m)
    d = out[0].shape[0]
    if any(m.shape != (d, d) for m in out):
        raise ValueError(f"{name} matrices must share one dimension")
    return tuple(out)


def completeness_defects(mats) -> tuple:
    """Unital and counital defects ``||sum a_j* a_j - 1||_op``, ``||sum a_j a_j* - 1||_op``."""
    eye = np.eye(mats[0].shape[0])
    return (
        op_norm(sum(a.conj().T @ a for a in mats) - eye),
        op_norm(sum(a @ a.conj().T for a in mats) - eye),
    )


def vectorize(x) -> np.ndarray:
    """Column-stack a rows x cols matrix into a vector of length rows*cols."""
    return as_matrix(x).reshape(-1, order="F").copy()


def devectorize(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vectorize` for the given shape."""
    a = np.asarray(v, dtype=np.complex128).ravel()
    if a.size != rows * cols:
        raise ValueError(f"vector of length {a.size} does not fill {rows}x{cols}")
    return a.reshape((rows, cols), order="F").copy()


def null_space_basis(a: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal columns spanning the numerical right null space of ``a``.

    Right singular vectors whose singular value is at most ``tol`` are kept;
    columns beyond the rank of a wide matrix count as exact null directions.
    The economy SVD already holds every right singular vector of a tall
    matrix and skips its full left factor; only a wide matrix needs full V.
    """
    m = as_matrix(a, "a")
    n = m.shape[1]
    _, sv, vh = np.linalg.svd(m, full_matrices=m.shape[0] < n)
    keep = [i for i in range(n) if (sv[i] if i < sv.size else 0.0) <= tol]
    if not keep:
        return np.zeros((n, 0), dtype=np.complex128)
    return vh[keep].conj().T


def null_space_matrices(a: np.ndarray, rows: int, cols: int, tol: float) -> tuple:
    """The numerical null space of ``a`` as devectorized rows x cols matrices.

    ``a`` acts on column-stacked rows x cols input; the matrices are the
    orthonormal columns of :func:`null_space_basis`, so they are
    HS-orthonormal.
    """
    kernel = null_space_basis(a, tol)
    return tuple(devectorize(kernel[:, i], rows, cols) for i in range(kernel.shape[1]))


def _paired(lefts, rights) -> tuple:
    """Lists of the two families with their dimensions p (lefts) and q (rights)."""
    lefts, rights = list(lefts), list(rights)
    if not lefts or len(lefts) != len(rights):
        raise ValueError(
            f"need two equal-length non-empty families, got {len(lefts)} and {len(rights)}"
        )
    return lefts, rights, lefts[0].shape[0], rights[0].shape[0]


def kron_sum(lefts, rights) -> np.ndarray:
    """Matrix ``sum_j kron(r_j.T, l_j)`` of ``x -> sum_j l_j x r_j``.

    With p x p matrices ``l_j`` and q x q matrices ``r_j`` it acts on
    column-stacked p x q input.  Each term is written by one broadcast
    multiply into a reused (q, p, q, p) buffer and added in order, which is
    bitwise the same as summing the ``np.kron`` products.
    """
    lefts, rights, p, q = _paired(lefts, rights)
    s = np.zeros((q, p, q, p), dtype=np.complex128)
    term = np.empty_like(s)
    for l, r in zip(lefts, rights):
        # term[i, k, j, m] = r.T[i, j] * l[k, m]: kron(r.T, l) with its row
        # and column indices split.
        np.multiply(r.T[:, None, :, None], l[None, :, None, :], out=term)
        s += term
    return s.reshape(p * q, p * q)


def product_map(lefts, rights, x, name: str = "x") -> np.ndarray:
    """Evaluate ``sum_j l_j x r_j``, the action of :func:`kron_sum` without its matrix.

    ``x`` must be p x q for p x p matrices ``l_j`` and q x q matrices
    ``r_j``; the terms are added in order to a zero matrix.
    """
    lefts, rights, p, q = _paired(lefts, rights)
    m = as_matrix(x, name)
    if m.shape != (p, q):
        raise ValueError(f"{name} has shape {m.shape}, expected {(p, q)}")
    out = np.zeros_like(m)
    for l, r in zip(lefts, rights):
        out += l @ m @ r
    return out


def sylvester_null_space(lefts, rights, tol: float) -> tuple:
    """Solution space ``{x : l_j x = x r_j for all j}`` as HS-orthonormal matrices.

    With p x p matrices ``l_j`` and q x q matrices ``r_j`` the blocks
    ``kron(I_q, l_j) - kron(r_j.T, I_p)`` are stacked and their numerical
    null space (singular values at most ``tol``) is returned as p x q
    matrices.
    """
    lefts, rights, p, q = _paired(lefts, rights)
    eye_p, eye_q = np.eye(p), np.eye(q)
    stacked = np.vstack(
        [np.kron(eye_q, l) - np.kron(r.T, eye_p) for l, r in zip(lefts, rights)]
    )
    return null_space_matrices(stacked, p, q, tol)


def linear_map_matrix(fn: Callable[[np.ndarray], np.ndarray], rows: int, cols: int) -> np.ndarray:
    """Matrix of an arbitrary linear map on rows x cols matrices.

    Column ``k`` is the vectorized image of the k-th vectorization basis
    element, so the result acts on column-stacked input.
    """
    columns = []
    for k in range(rows * cols):
        e = np.zeros(rows * cols, dtype=np.complex128)
        e[k] = 1.0
        columns.append(vectorize(fn(devectorize(e, rows, cols))))
    return np.column_stack(columns)


def matrix_to_json(x) -> dict:
    """Encode as ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` row-major."""
    m = as_matrix(x)
    data = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _json_number(value, field: str, integer: bool = False):
    """A decoded JSON number as a float (as an int when ``integer``).

    Anything else raises a ``ValueError`` naming ``field``: booleans and
    numeric strings are not numbers, and neither is an integer literal too
    large for a float.
    """
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    if integer:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field} must be {kind}, got an out-of-range {value!r}") from None


def matrix_from_json(obj) -> np.ndarray:
    """Decode the row-major ``{"rows", "cols", "data"}`` matrix object."""
    if not isinstance(obj, dict):
        raise ValueError("matrix object must be a JSON dict")
    missing = {"rows", "cols", "data"} - set(obj)
    if missing:
        raise ValueError(f"matrix object missing keys {sorted(missing)}")
    rows = _json_number(obj["rows"], "rows", integer=True)
    cols = _json_number(obj["cols"], "cols", integer=True)
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive integers")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"data must list {rows * cols} [re, im] pairs")
    flat = np.empty(rows * cols, dtype=np.complex128)
    for k, pair in enumerate(data):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"data[{k}] is not an [re, im] pair")
        re = _json_number(pair[0], f"data[{k}][0]")
        im = _json_number(pair[1], f"data[{k}][1]")
        if not (np.isfinite(re) and np.isfinite(im)):
            raise ValueError(f"data[{k}] is not finite")
        flat[k] = complex(re, im)
    return flat.reshape((rows, cols))
