"""Complex matrix primitives shared by the rest of the package.

Operators are plain 2-D complex128 numpy arrays.  Vectorization is column
stacking, so ``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``.  This module is the
one place that convention, the PSD tolerance and the validation of matrix
families are written down: superoperators come from :func:`kron_entries`
(densely from :func:`kron_sum`, their action from :func:`product_map`, all
three summing the same products in the same order),
PSD inputs pass :func:`require_psd` and families pass :func:`square_family`
(their defects from :func:`completeness_defects`, one Gram for a Hermitian
family).
Every kernel and solve is cut from a :class:`SpectralCore`, which holds the
blocks in one form: :func:`factorize` reads the choice off the input's type,
a stacked ``eigvalsh`` per stack of a :class:`BlockSplit` (the connected
components of an exact nonzero pattern, from :func:`block_split`; a
connected pattern is one block, and of each pair of blocks a given swap
exchanges one is cut), with ``eigh`` of the blocks a kernel or solve reads
(a solve reads only the blocks its right-hand side reaches), and one SVD in
its own dtype for any 2-D array.  A query that reads only singular
values asks :func:`factorize` for values only and gets the same blocks and
values, and no vectors.

Two reference solvers stand apart from that core, and no CLI report reads
them: :func:`sylvester_null_space` solves ``l_j x = x r_j`` on the whole
kron-stacked system (one SVD per component of its nonzero pattern), and
:func:`linear_map_matrix` builds the matrix of any linear map column by
column.  Tests compare the fast paths against them.

The gates take stacks: :func:`require_psd`, :func:`psd_sqrt` and
:func:`positive_part` accept one matrix or a (k, n, n) stack, one matrix
being the k = 1 case, and pass it through one Hermitian gate (and, but for
:func:`positive_part`, the PSD gate) with one stacked ``eigvalsh`` or
``eigh``.  The first matrix that fails is named, a Hermitian failure before
a PSD one.

One rescale rule serves each norm, product or spectrum that could over- or
underflow: :func:`_exponent` reads the even power of two that brings an
array whose largest part leaves ``[2**-400, 2**400]`` into ``[1/4, 1)``,
and :func:`frobenius`, :func:`hs_inner` and the gates compute on each
matrix at that power (:func:`_to_units`) and scale back, so a root scales
back exactly and a gate judges in the input's units; their answer is
finite or a ``ValueError``, never NaN.  :func:`kron_entries`,
:func:`kron_sum` and :func:`product_map` refuse, with a ``ValueError``
naming themselves, a sum of products that overflows the float range.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "as_matrix",
    "op_norm",
    "trace_norm",
    "frobenius",
    "hs_inner",
    "positive_part",
    "require_psd",
    "psd_sqrt",
    "square_family",
    "completeness_defects",
    "unital_defect",
    "counital_defect",
    "vectorize",
    "devectorize",
    "components",
    "BlockSplit",
    "block_split",
    "SpectralCore",
    "minus_identity",
    "factorize",
    "KronEntries",
    "kron_entries",
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
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _square(x, name: str = "matrix") -> np.ndarray:
    m = as_matrix(x, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def op_norm(x) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(as_matrix(x), compute_uv=False)[0])


def trace_norm(x) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(as_matrix(x), compute_uv=False)))


def _peaks(stack: np.ndarray) -> list:
    """Largest real or imaginary part in modulus of each entry of a float64
    or complex128 (k, ...) stack, read off its float64 view: one reduction,
    as a list of floats; 0 where empty, and inf or NaN where the entry
    holds one."""
    parts = np.ascontiguousarray(stack).view(np.float64).reshape(len(stack), -1)
    return np.abs(parts).max(axis=1, initial=0.0).tolist()


def _exponent(peak: float) -> int:
    """The rule above for an array whose largest part is ``peak``: ``e >=
    -1022`` is the even exponent, rounded up from the binade of ``peak``,
    that brings ``peak`` into ``[1/4, 1)``, so ``2**(e/2)`` is exact too;
    and 0 where ``peak`` is 0 or not finite, or lies in ``[2**-400,
    2**400]``."""
    e = 0 if 2.0**-400 <= peak <= 2.0**400 else max(math.frexp(peak)[1], -1022)
    return e + (e & 1)


def _to_units(stack: np.ndarray, exps: list | None = None) -> tuple:
    """``(scaled, exps)`` of a float64 or complex128 (k, ...) stack: entry j
    times ``2**-exps[j]``, ``exps`` the :func:`_exponent` of each entry
    unless given; ``stack`` itself where every exponent is 0.  Exact but for
    entries it takes below the normal range, negligible against the largest."""
    if exps is None:
        exps = [_exponent(peak) for peak in _peaks(stack)]
    if not any(exps):
        return stack, exps
    scale = np.array([math.ldexp(1.0, -e) for e in exps])
    return stack * scale.reshape(-1, *(1,) * (stack.ndim - 1)), exps


def _scaled_back(x: float, e: int) -> float:
    """``x * 2**e``, exact where normal, and an infinity of ``x``'s sign beyond the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def frobenius(m) -> float:
    """``||m||_F`` of a real or complex array: ``np.linalg.norm`` (bitwise in
    the safe range) of ``m`` at :func:`_to_units`, scaled back, so no square
    over- or underflows; inf, without a warning, only beyond the float range.
    A norm in ``[2**-300, 2**300]`` is returned as read: every part then
    lies in ``[2**-400, 2**400]``, where the rule scales by 1."""
    m = np.asarray(m)
    m = m.astype(np.result_type(m.dtype, np.float64), copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(m))
    if 2.0**-300 <= norm <= 2.0**300:
        return norm
    s, (e,) = _to_units(m[None])
    return _scaled_back(float(np.linalg.norm(s)), e)


def hs_inner(x, y) -> complex:
    """Hilbert-Schmidt inner product tr(x* y), conjugate-linear in ``x``: one
    ``np.vdot`` of ``x`` and ``y`` at :func:`_to_units` (bitwise in the safe
    range), scaled back; a ``ValueError`` beyond the float range."""
    mx, my = as_matrix(x, "x"), as_matrix(y, "y")
    if mx.shape != my.shape:
        raise ValueError(f"shape mismatch {mx.shape} vs {my.shape}")
    (sx, (ex,)), (sy, (ey,)) = _to_units(mx[None]), _to_units(my[None])
    z = complex(np.vdot(sx, sy))
    z = complex(_scaled_back(z.real, ex + ey), _scaled_back(z.imag, ex + ey))
    if not cmath.isfinite(z):
        raise ValueError("hs_inner overflows: tr(x* y) is beyond the float range")
    return z


def _stack(m, name) -> tuple:
    """``(a, names)``: ``m`` as a complex128 (k, n, n) stack and the names of
    its matrices: ``name`` for one matrix, which passes :func:`_square`, and
    ``name[j]``, or ``name`` itself when it is a sequence of k names, for a
    stack, whose shape alone is checked here and finiteness by the gate."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 3:
        return _square(a, name)[None], (name,)
    names = tuple(f"{name}[{j}]" for j in range(len(a))) if isinstance(name, str) else tuple(name)
    if not names:
        raise ValueError(f"{name} must hold at least one matrix")
    if len(names) != len(a):
        raise ValueError(f"{len(names)} names for a stack of {len(a)} matrices")
    if not a.shape[1] == a.shape[2] > 0:
        _square(a[0], names[0])
    return a, names


def _gated(m, name, spectrum: Callable, psd: bool = True) -> tuple:
    """One pass of the Hermitian gate, and with ``psd`` of the PSD gate,
    over ``m``: one matrix or a (k, n, n) stack (see :func:`_stack`).

    One reduction reads each matrix's peak and whether it is finite (one
    that is not is gated as zeros).  A matrix passes the Hermitian gate iff
    ``||m - m*||_F <= 1e-10 * (1 + ||m||_F)``, both norms ``np.linalg.norm``'s
    bits of ``m 2**-e`` at :func:`_to_units`, all 2k of them in one stacked
    ``matmul`` per part: the asymmetry reads inf only beyond the float range.
    The symmetrized ``m / 2 + m* / 2`` cannot overflow; ``spectrum`` of it,
    at its own :func:`_to_units` ``e``, returns ``(least, peak, payload)``:
    lists of each matrix's least eigenvalue and largest ``|eigenvalue|`` in
    units of ``2**e``.  The PSD gate passes a matrix iff ``least >=
    -1e-10 * (2**-e + peak)``, ``1e-10 * (1 + ||m||_op)`` in the input's
    units.  The first matrix that fails is named, with the first check it
    fails of finite, Hermitian and PSD.  Returns ``(sym, e, payload, names)``.
    """
    a, names = _stack(m, name)
    k, n = a.shape[:2]
    peaks = _peaks(a)
    finite = [math.isfinite(peak) for peak in peaks]
    if not all(finite):
        a = np.where(np.array(finite)[:, None, None], a, 0.0)
    # a peak that is not finite reads the exponent 0, as the zeros put in its place
    s, e = _to_units(a, [_exponent(peak) for peak in peaks])
    # s - s* read in row-major order and s in memory order, as np.linalg.norm reads them
    both = np.empty((2 * k, n, n), dtype=np.complex128)
    np.subtract(s, s.conj().swapaxes(1, 2), out=both[:k])
    both[k:] = s.swapaxes(1, 2) if abs(s.strides[2]) > abs(s.strides[1]) else s
    parts = both.view(np.float64).reshape(2 * k, 1, 2 * n * n)
    re, im = parts[..., 0::2], parts[..., 1::2]
    norms = re @ re.swapaxes(1, 2)
    norms += im @ im.swapaxes(1, 2)
    norms = np.sqrt(norms.ravel()).tolist()
    asymmetry, size = norms[:k], norms[k:]
    half = a * 0.5
    sym = np.add(half, half.conj().swapaxes(1, 2), order="C")
    scaled, exps = _to_units(sym)
    least, peak, payload = spectrum(scaled)
    for j, back in enumerate(exps):
        tolerance = 1e-10 * (math.ldexp(1.0, -e[j]) + size[j])
        psd_tol = 1e-10 * (math.ldexp(1.0, -back) + peak[j])
        if finite[j] and asymmetry[j] <= tolerance and not (psd and least[j] < -psd_tol):
            continue
        if not finite[j]:
            raise ValueError(f"{names[j]} contains non-finite entries")
        if not asymmetry[j] <= tolerance:
            raise ValueError(
                f"{names[j]} is not Hermitian: asymmetry {_scaled_back(asymmetry[j], e[j]):.3e} "
                f"exceeds tolerance {_scaled_back(tolerance, e[j]):.3e}"
            )
        raise ValueError(
            f"{names[j]} is not PSD: eigenvalue {_scaled_back(least[j], back):.3e} "
            f"below -{_scaled_back(psd_tol, back):.3e}"
        )
    return sym, exps, payload, names


def positive_part(h) -> np.ndarray:
    """Spectral positive part h_+ of a Hermitian matrix, or of each matrix of
    a (k, n, n) stack.

    Satisfies h = positive_part(h) - positive_part(-h) after symmetrization.
    It is factored per component of the exact nonzero pattern of ``h``
    (see :func:`_spectral_map`), so it is exactly zero where ``h`` splits.
    A ``ValueError`` where h_+ itself lies beyond the float range.
    """
    return _spectral_map(h, lambda w: np.clip(w, 0.0, None), 1)


def _spectral_map(h, f: Callable, degree: float, psd: bool = False) -> np.ndarray:
    """``v f(w) v*`` of each symmetrized ``h = v diag(w) v*``, symmetrized;
    ``h`` is one matrix or a (k, n, n) stack, and the result has its shape.

    ``f`` is positively homogeneous of ``degree`` (1 or 1/2).  The stack
    passes :func:`_gated` (its PSD gate too with ``psd``), read off the
    eigenvalues that also yield the map, before any output is formed.  Each
    matrix is mapped at its own :func:`_to_units` ``e``, so no eigenvalue
    overflows, and scaled back by ``2**(degree e)``: the result is finite,
    or a ``ValueError`` where it lies beyond the float range.  When every
    matrix has a full nonzero pattern, each is its own block and the stack
    takes one ``eigh``; otherwise the direct sum of the stack is cut by
    :func:`block_split` (a connected matrix is one block), each block size
    gets one stacked ``eigh``, and the result is exactly zero off the blocks.
    """

    def spectrum(sym):
        k, n = sym.shape[:2]
        if sym.all():
            w, v = np.linalg.eigh(sym)
            return (*_extremes(w), (None, [(w, v)]))
        # row j * n + r of flat is row r of matrix j, and of their direct sum
        flat = sym.reshape(k * n, n)
        rows, cols = np.nonzero(flat)
        split = block_split(k * n, rows, cols + rows // n * n, flat[rows, cols])
        eigen = [np.linalg.eigh(stack) for stack in split.stacks]
        w = np.concatenate([w.ravel() for w, _ in eigen])
        owner = np.concatenate([np.repeat(index[:, 0] // n, index.shape[1]) for index in split.index])
        least, peak = np.full(k, np.inf), np.zeros(k)
        np.minimum.at(least, owner, w)
        np.maximum.at(peak, owner, np.abs(w))
        return least.tolist(), peak.tolist(), (split.index, eigen)

    def image(w, v):
        blocks = (v * f(w)[:, None, :]) @ v.conj().swapaxes(1, 2)
        return (blocks + blocks.conj().swapaxes(1, 2)) / 2.0

    sym, exps, (index, eigen), names = _gated(h, "matrix", spectrum, psd)
    k, n = sym.shape[:2]
    if index is None:
        out = image(*eigen[0])
    else:
        out = np.zeros((k * n, n), dtype=sym.dtype)
        for at, (w, v) in zip(index, eigen):
            out[at[:, :, None], at[:, None, :] % n] = image(w, v)
        out = out.reshape(k, n, n)
    for j, e in enumerate(exps):
        if not e:
            continue
        back = int(degree * e)
        parts = out[j].view(np.float64)
        if _scaled_back(float(np.abs(parts).max()), back) == math.inf:
            raise ValueError(f"the image of {names[j]} lies beyond the float range")
        # two exact factors, since 2**1024 itself is not a float
        parts *= math.ldexp(1.0, back // 2)
        parts *= math.ldexp(1.0, back - back // 2)
    return out if np.ndim(h) == 3 else out[0]


def _extremes(w: np.ndarray) -> tuple:
    """Lists of the least value and the largest ``|value|`` of each row of
    ascending eigenvalues ``w``."""
    least, top = w[:, 0].tolist(), w[:, -1].tolist()
    return least, [max(abs(lo), abs(hi)) for lo, hi in zip(least, top)]


def require_psd(m, name="matrix") -> np.ndarray:
    """Symmetrize ``m`` and raise unless it is PSD up to the PSD tolerance.

    Returns the symmetrized matrix; eigenvalues in ``[-psd_tol, 0)`` with
    ``psd_tol = 1e-10 * (1 + ||m||_op)`` are accepted as rounding.  A
    (k, n, n) stack passes :func:`_gated` as one, with one stacked
    ``eigvalsh``, and returns its symmetrized stack; one matrix is the k = 1
    case.  The matrices of a stack are named ``name[j]``, or by ``name``
    itself when it is a sequence of k names.
    """

    def spectrum(scaled):
        return (*_extremes(np.linalg.eigvalsh(scaled)), None)

    sym = _gated(m, name, spectrum)[0]
    return sym if np.ndim(m) == 3 else sym[0]


def psd_sqrt(p) -> np.ndarray:
    """Positive square root of a PSD matrix.

    The matrix passes the same gate as :func:`require_psd`, read off the
    eigenvalues that also yield the root; eigenvalues in ``[-psd_tol, 0)``
    are clipped to zero.  Like :func:`positive_part` it is factored per
    component of the input's exact nonzero pattern and takes a (k, n, n)
    stack, gating each matrix alone.
    """
    return _spectral_map(p, lambda w: np.sqrt(np.clip(w, 0.0, None)), 0.5, psd=True)


def square_family(mats, name: str = "mats") -> tuple:
    """Validate a non-empty family of same-size square matrices.

    The family is copied into one complex128 (k, d, d) stack, checked as
    one, and frozen; its matrices are returned as views of that stack, so
    the caller's arrays stay writable and later writes to them cannot reach
    the family.  Where the stack fails, the first matrix that fails alone is
    named, as one check per matrix would.
    """
    mats = list(mats)
    if not mats:
        raise ValueError(f"{name} must be a non-empty family")
    try:
        stack = np.array(mats, dtype=np.complex128)
    except (TypeError, ValueError):
        stack = None
    if stack is None or stack.ndim != 3 or not stack.shape[1] == stack.shape[2] > 0 or not np.isfinite(stack).all():
        for j, x in enumerate(mats):
            _square(x, f"{name}[{j}]")
        raise ValueError(f"{name} matrices must share one dimension")
    stack.setflags(write=False)
    return tuple(stack)


def completeness_defects(mats) -> tuple:
    """Unital and counital defects ``||sum a_j* a_j - 1||_op``, ``||sum a_j a_j* - 1||_op``.

    Both defects are Hermitian, so each norm is the largest ``|lambda|`` of
    its ``eigvalsh``, and both sums take one ``eigvalsh`` of the pair.  When
    every ``a_j`` is exactly Hermitian the two sums are one, formed and
    measured once.
    """
    hermitian = all((a == a.conj().T).all() for a in mats)
    defects = _gram_defects(mats, counital=not hermitian)
    return (defects[0], defects[0]) if hermitian else tuple(defects)


def unital_defect(mats) -> float:
    """``||sum a_j* a_j - 1||_op`` (inf where it overflows), the first of :func:`completeness_defects`."""
    return _gram_defects(mats, counital=False)[0]


def counital_defect(mats) -> float:
    """``||sum a_j a_j* - 1||_op`` (inf where it overflows), the second of :func:`completeness_defects`."""
    return _gram_defects(mats, unital=False)[0]


def _gram_defects(mats, unital: bool = True, counital: bool = True) -> list:
    """``||sum_j g_j - 1||_op`` of the Grams ``a_j* a_j`` (``unital``) and
    ``a_j a_j*`` (``counital``), in that order: each Gram one product and
    each sum taken in order, and one ``eigvalsh`` of the sums less the
    identity; inf, without a warning, where a sum overflows.

    The Grams are formed one matrix at a time, not as one stacked product:
    the (k, n, n) temporaries of a stacked product of the n = 48 Lüders
    family (330 KB each) made glibc hand heap memory back to the system and
    fault it in again on every ``cuntz --dim 48`` run, about 400 page
    faults and a tenth of the run's time on a 2-vCPU host.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [sum(a.conj().T @ a for a in mats)] if unital else []
        sums += [sum(a @ a.conj().T for a in mats)] if counital else []
    h = np.stack(sums)
    finite = [math.isfinite(peak) for peak in _peaks(h)]
    if not any(finite):
        return [math.inf] * len(finite)
    if not all(finite):
        h = h[finite]
    # h - I in place: the diagonal of each sum, one stride n + 1 apart
    h.reshape(len(h), -1)[:, :: h.shape[1] + 1] -= 1.0
    out = iter(_extremes(np.linalg.eigvalsh(h))[1])
    return [next(out) if ok else math.inf for ok in finite]


def vectorize(x) -> np.ndarray:
    """Column-stack a rows x cols matrix into a vector of length rows*cols."""
    return as_matrix(x).reshape(-1, order="F").copy()


def devectorize(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vectorize` for the given shape."""
    a = np.asarray(v, dtype=np.complex128).ravel()
    if a.size != rows * cols:
        raise ValueError(f"vector of length {a.size} does not fill {rows}x{cols}")
    return a.reshape((rows, cols), order="F").copy()


def _vec_times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v @ m`` for complex row vectors, without casting a real ``m`` to complex."""
    if np.iscomplexobj(m):
        return v @ m
    return v.real @ m + 1j * (v.imag @ m)


def components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected components of the graph on ``n`` nodes with edges ``rows[t] -- cols[t]``.

    Each node is labelled with the smallest node of its component.  A round
    pulls both ends of every edge down to the smaller of their labels, then
    replaces each label by that node's own label; it stops when no label
    moves.
    """
    label = np.arange(n)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


class BlockSplit(NamedTuple):
    """A square matrix cut along the connected components of its nonzero pattern.

    ``stacks[g][b]`` is the principal submatrix on rows and columns
    ``index[g][b]``, and on ``index[g][b + k]`` when ``index[g]`` lists the
    k blocks twice (a swap pair's kept blocks, then their images).  From
    :func:`block_split`, a stack holds components of one size, in the order
    of their smallest indices, each listing its indices ascending.  Every
    entry off these blocks is zero.
    """

    index: tuple
    stacks: tuple


def block_split(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, swap=None) -> BlockSplit:
    """The :class:`BlockSplit` of the n x n matrix whose nonzero entries are
    ``values`` at ``(rows, cols)`` (each position listed once).  A connected
    pattern is one block; a full one is scattered straight into it.

    ``swap`` is an involution of the indices that the matrix commutes with
    bitwise (``m[swap][:, swap] == m``).  Of each pair of blocks it
    exchanges only the one with the smaller indices is cut; per size, one
    stack holds the blocks it maps to themselves and one the k kept blocks,
    whose ``index`` has 2k rows: theirs, then their swapped indices.
    """
    if rows.size == n * n:
        # every position is listed, so the scatter writes every entry
        stack = np.empty((1, n, n), dtype=values.dtype)
        stack[0, rows, cols] = values
        return BlockSplit(index=(np.arange(n)[None],), stacks=(stack,))
    _, comp, sizes = np.unique(components(n, rows, cols), return_inverse=True, return_counts=True)
    # members lists the nodes component by component; pos is a node's place in its block
    members = np.argsort(comp, kind="stable")
    first = np.cumsum(sizes) - sizes
    pos = np.empty(n, dtype=np.intp)
    pos[members] = np.arange(n) - np.repeat(first, sizes)
    kinds, group = np.unique(sizes, return_inverse=True)
    part = 2 * group
    if swap is not None:
        # part 2g + 1 holds the kept blocks of size g's pairs; images are not cut
        label, partner = np.arange(sizes.size), comp[swap[members[first]]]
        part = np.where(partner == label, part, np.where(partner > label, part + 1, -1))
    slot = np.empty_like(part)
    entry_part = part[comp[rows]]
    index, stacks = [], []
    for p in range(0, 2 * kinds.size, 2 if swap is None else 1):
        mine = np.flatnonzero(part == p)
        if not mine.size:
            continue
        size = kinds[p // 2]
        slot[mine] = np.arange(mine.size)
        e = np.flatnonzero(entry_part == p)
        stack = np.zeros((mine.size, size, size), dtype=values.dtype)
        stack[slot[comp[rows[e]]], pos[rows[e]], pos[cols[e]]] = values[e]
        kept = members[first[mine][:, None] + np.arange(size)]
        index.append(np.concatenate([kept, swap[kept]]) if p % 2 else kept)
        stacks.append(stack)
    return BlockSplit(index=tuple(index), stacks=tuple(stacks))


@dataclass(frozen=True, eq=False)
class SpectralCore:
    """Factors of a matrix ``m``, from :func:`factorize`; ``m`` is not kept.

    ``factors`` holds one ``(index, u, w, vh)`` per stack of blocks, with
    real ``w`` for every block: block b of the stack sits on rows
    ``index[b, :u.shape[1]]`` and columns ``index[b, :vh.shape[2]]`` of
    ``m`` and is ``u[b] diag(w[b]) vh[b]``, and ``m`` is zero off its
    blocks.  Where ``u`` and ``vh`` are None the blocks are square, may be
    listed twice (see :class:`BlockSplit`), and a core with vectors holds
    factor f's real symmetric blocks as ``stacks[f]``.  ``sv`` holds each
    ``|w|`` once per listing, descending (ties in factor order): the
    singular values of ``m``, padded with zeros when ``m`` is wide.  A
    values-only core (``factorize(m, vectors=False)``) answers ``sv``,
    ``blocks`` and ``largest_block``, and its ``kernel`` and ``solve``
    raise.
    """

    sv: np.ndarray
    factors: tuple
    stacks: tuple | None = None

    @property
    def blocks(self) -> int:
        """Number of diagonal blocks the factors come in."""
        return sum(index.shape[0] for index, _, _, _ in self.factors)

    @property
    def largest_block(self) -> int:
        """Column count of the largest block."""
        return max(w.shape[1] for _, _, w, _ in self.factors)

    def _require_vectors(self) -> None:
        if self.stacks is None and self.factors[0][3] is None:
            raise ValueError(
                "this spectral core holds singular values only; "
                "factorize with vectors=True for kernels and solves"
            )

    def _cut(self, tol: float, b: np.ndarray | None = None) -> tuple:
        """Factors with vectors, one per listing, on the blocks holding some
        ``|w| <= tol`` (``u = q`` of their ``eigh``, ``vh`` its transposed
        view), and ``(stack, mask, indices)`` of each stack's other blocks.
        With ``b``, only blocks a listing of which meets a nonzero of ``b``
        are taken (z is exactly zero on the others)."""
        whole, rest = [], []
        for f, (index, u, w, vh) in enumerate(self.factors):
            if vh is not None:
                whole.append((index, u, w, vh))
                continue
            stack = self.stacks[f]
            # listings[r, k] is listing r of block k
            listings = index.reshape(-1, *stack.shape[:2])
            near = (np.abs(w) <= tol).any(axis=1)
            live = np.ones_like(near) if b is None else b[listings].any(axis=(0, 2))
            on, off = live & near, live & ~near
            if on.any():
                q = np.linalg.eigh(stack[on])[1]
                whole += [(at[on], q, w[on], q.swapaxes(1, 2)) for at in listings]
            if off.any():
                rest.append((stack, off, [at[off] for at in listings]))
        return whole, rest

    def kernel(self, tol: float) -> np.ndarray:
        """Orthonormal columns of V whose singular value is at most ``tol``
        (with the rows of V* past the last singular value of a wide ``m``),
        as full-length columns ordered like ``sv`` (ties in factor order).
        ``kernel(sv[-1])[:, -1]`` is the right singular vector of the least
        singular value (of the last of several equal ones)."""
        self._require_vectors()
        values, columns = [np.zeros(0)], [np.zeros((self.sv.size, 0))]
        for index, _, w, vh in self._cut(tol)[0]:
            b, t = np.nonzero(np.abs(w) <= tol)
            col = np.zeros((self.sv.size, b.size), dtype=vh.dtype)
            col[index[b, : vh.shape[2]].T, np.arange(b.size)] = vh[b, t].conj().T
            values.append(np.abs(w[b, t]))
            columns.append(col)
        order = np.argsort(-np.concatenate(values), kind="stable")
        return np.concatenate(columns, axis=1)[:, order]

    def solve(self, b: np.ndarray, tol: float) -> np.ndarray:
        """Least-squares ``m z = b``, dropping (not amplifying) singular values <= ``tol``."""
        self._require_vectors()
        rows = sum(index.shape[0] * (w if u is None else u).shape[1] for index, u, w, _ in self.factors)
        if np.shape(b) != (rows,):
            raise ValueError(f"b has shape {np.shape(b)}, expected ({rows},)")
        whole, rest = self._cut(tol, b)
        z = np.zeros(self.sv.size, dtype=np.complex128)
        for index, u, w, vh in whole:
            inv = np.zeros_like(w)
            np.divide(1.0, w, out=inv, where=np.abs(w) > tol)
            # per block vh* diag(inv) u* b, as row vectors: u* b = conj(conj(b) u)
            # and vh* c = conj(conj(c) vh), so no factor is conjugated or cast
            rhs = b[index[:, : u.shape[1]]].conj()[:, None, :]
            coef = inv[:, None, :] * _vec_times(rhs, u).conj()
            z[index[:, : vh.shape[2]]] = _vec_times(coef.conj(), vh)[:, 0].conj()
        for stack, mask, indices in rest:
            # nonsingular blocks: each factor's real and imaginary parts of b are columns of one solve
            rhs = np.stack([part for index in indices for part in (b[index].real, b[index].imag)], axis=-1)
            x = np.linalg.solve(stack[mask], rhs)
            for k, index in enumerate(indices):
                z[index] = x[..., 2 * k] + 1j * x[..., 2 * k + 1]
        return z


def minus_identity(m):
    """``m - I`` formed in place on a fresh square ``m`` or on each stack of
    a fresh :class:`BlockSplit`."""
    if isinstance(m, BlockSplit):
        for stack in m.stacks:
            side = stack.shape[1]
            stack.reshape(stack.shape[0], side * side)[:, :: side + 1] -= 1.0
        return m
    m.flat[:: m.shape[0] + 1] -= 1.0
    return m


def factorize(m, vectors: bool = True) -> SpectralCore:
    """The :class:`SpectralCore` of a :class:`BlockSplit` or of a 2-D array.

    Each stack of a :class:`BlockSplit` gets one stacked ``eigvalsh``,
    listed by its index; with ``vectors`` the core also keeps the stacks,
    which must be exactly real symmetric, and without them they may be
    complex Hermitian.  A 2-D ``m``, whatever its entries, gets one SVD in
    its own dtype (real or complex), one block covering every row and
    column, with full V only when ``m`` is wide; with ``vectors=False`` it
    gets an SVD without U and V*.
    """
    if not isinstance(m, BlockSplit):
        return _core((_svd_factor(m, vectors),))
    factors = tuple((index, None, np.linalg.eigvalsh(stack), None) for index, stack in zip(m.index, m.stacks))
    return _core(factors, m.stacks if vectors else None)


def _svd_factor(m: np.ndarray, vectors: bool = True) -> tuple:
    """The ``(index, u, w, vh)`` factor of the SVD of the 2-D ``m``, one block,
    with full V* only when ``m`` is wide; the extra rows of V* get zero
    singular values.  ``u`` and ``vh`` are None unless ``vectors``."""
    rows, n = m.shape
    index, stack = np.arange(max(rows, n))[None], m[None]
    if not vectors:
        s = np.linalg.svd(stack, compute_uv=False)
        return index, None, np.pad(s, ((0, 0), (0, max(n - rows, 0)))), None
    u, s, vh = np.linalg.svd(stack, full_matrices=rows < n)
    if rows < n:
        u, s = np.pad(u, ((0, 0), (0, 0), (0, n - rows))), np.pad(s, ((0, 0), (0, n - rows)))
    return index, u, s, vh


def _core(factors: tuple, stacks: tuple | None = None) -> SpectralCore:
    """The :class:`SpectralCore` of ``factors``, with ``sv`` gathered from them."""
    sv = np.concatenate([np.abs(w).ravel() for index, _, w, _ in factors for _ in range(len(index) // len(w))])
    return SpectralCore(sv=sv[np.argsort(-sv, kind="stable")], factors=factors, stacks=stacks)


def _paired(lefts, rights) -> tuple:
    """Lists of the two families with their dimensions p (lefts) and q (rights)."""
    lefts, rights = list(lefts), list(rights)
    if not lefts or len(lefts) != len(rights):
        raise ValueError(
            f"need two equal-length non-empty families, got {len(lefts)} and {len(rights)}"
        )
    return lefts, rights, lefts[0].shape[0], rights[0].shape[0]


class KronEntries(NamedTuple):
    """Entries of ``sum_t kron(r_t.T, l_t)`` on the product of its factors' patterns.

    ``values[a, b]`` sits at row ``i[a] * p + k[b]`` and column
    ``j[a] * p + m[b]``.  The pairs ``(i[a], j[a])`` are the positions where
    some ``r_t.T`` is nonzero and ``(k[b], m[b])`` those where some ``l_t``
    is, both in row-major order; every other entry of the sum is zero.
    """

    p: int
    q: int
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    m: np.ndarray
    values: np.ndarray

    def nonzero(self) -> tuple:
        """Rows, columns and values of the exactly nonzero entries."""
        a, b = np.nonzero(self.values)
        return self.i[a] * self.p + self.k[b], self.j[a] * self.p + self.m[b], self.values[a, b]

    def tensor(self) -> np.ndarray:
        """The whole matrix as a (q, p, q, p) array: entry ``[i, k, j, m]``
        sits at row ``i * p + k`` and column ``j * p + m``.  When both
        patterns are full it is a transposed view of ``values``; otherwise
        ``values`` are scattered into zeros."""
        p, q = self.p, self.q
        if self.values.size == (p * q) ** 2:
            return self.values.reshape(q, q, p, p).transpose(0, 2, 1, 3)
        s = np.zeros((q, p, q, p), dtype=np.complex128)
        s[self.i[:, None], self.k[None, :], self.j[:, None], self.m[None, :]] = self.values
        return s


_KRON_CHUNK = 1 << 12  # entries of the term buffer in kron_entries and kron_sum (64 KiB)


def _finite_sum(total: Callable, what: str) -> np.ndarray:
    """``total()``, a sum of products taken as is, or a ``ValueError``
    saying ``what`` where any of its entries overflows on the way."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = total()
        # every entry is finite iff the largest and least parts are (max and
        # min pass a NaN on), read with no temporary the size of out
        parts = np.ascontiguousarray(out).view(np.float64)
        if math.isfinite(parts.max(initial=0.0)) and math.isfinite(parts.min(initial=0.0)):
            return out
    raise ValueError(what)


def kron_entries(lefts, rights) -> KronEntries:
    """:class:`KronEntries` of ``x -> sum_t l_t x r_t`` (p x p ``l_t``, q x q ``r_t``).

    The values are filled a chunk of rows at a time: each term's products
    ``r_t.T[i, j] * l_t[k, m]`` on those rows are written by one broadcast
    multiply into a reused buffer of at most ``_KRON_CHUNK`` entries and added
    in order to zeros, as ``np.kron`` sums them; a product with a zero factor
    is a zero and adds nothing, so every entry is bitwise that of the summed
    ``np.kron`` products, and the buffer adds little to the values' bytes.
    A ``ValueError`` where a product or sum overflows the float range.
    """
    lefts, rights, p, q = _paired(lefts, rights)
    i, j = np.nonzero(np.logical_or.reduce([r.T != 0 for r in rights]))
    k, m = np.nonzero(np.logical_or.reduce([l != 0 for l in lefts]))
    row_factors = [r.T[i, j][:, None] for r in rights]
    col_factors = [l[k, m][None, :] for l in lefts]
    step = max(1, _KRON_CHUNK // max(1, k.size))

    def fill():
        values = np.zeros((i.size, k.size), dtype=np.complex128)
        term = np.empty((min(step, i.size), k.size), dtype=np.complex128)
        for lo in range(0, i.size, step):
            rows = values[lo : lo + step]
            buf = term[: rows.shape[0]]
            for r, l in zip(row_factors, col_factors):
                np.multiply(r[lo : lo + step], l, out=buf)
                rows += buf
        return values

    values = _finite_sum(fill, "kron_entries: the map's entries overflow the float range")
    return KronEntries(p=p, q=q, i=i, j=j, k=k, m=m, values=values)


def kron_sum(lefts, rights) -> np.ndarray:
    """Matrix ``sum_j kron(r_j.T, l_j)`` of ``x -> sum_j l_j x r_j``, acting on
    column-stacked p x q input: a fresh (pq, pq) array, filled in place.

    Row ``i * p + k`` holds the products ``r_j.T[i, :] (x) l_j[k, :]``.  The
    rows are filled a chunk at a time: each term's products on a chunk are
    written by one broadcast multiply into a reused buffer of at most
    ``_KRON_CHUNK`` entries (or one row) and added in order to zeros, so
    every entry is bitwise that of the summed ``np.kron`` products and no
    second matrix is formed.  A ``ValueError`` where a product or sum
    overflows the float range.
    """
    lefts, rights, p, q = _paired(lefts, rights)
    n = p * q
    i, k = np.divmod(np.arange(n), p)
    pairs = [(np.asarray(r).T, np.asarray(l)) for l, r in zip(lefts, rights)]
    step = max(1, _KRON_CHUNK // n)

    def fill():
        s = np.zeros((n, q, p), dtype=np.complex128)
        term = np.empty((min(step, n), q, p), dtype=np.complex128)
        for lo in range(0, n, step):
            rows = s[lo : lo + step]
            buf, at_i, at_k = term[: len(rows)], i[lo : lo + step], k[lo : lo + step]
            for r, l in pairs:
                np.multiply(r[at_i, :, None], l[at_k, None, :], out=buf)
                rows += buf
        return s.reshape(n, n)

    return _finite_sum(fill, "kron_sum: the map's entries overflow the float range")


def product_map(lefts, rights, x, name: str = "x") -> np.ndarray:
    """Evaluate ``sum_j l_j x r_j``, the action of :func:`kron_sum` without its matrix.

    ``x`` must be p x q for p x p matrices ``l_j`` and q x q matrices
    ``r_j``; the terms are added in order to a zero matrix.  A
    ``ValueError`` where a product or sum overflows the float range.
    """
    lefts, rights, p, q = _paired(lefts, rights)
    m = as_matrix(x, name)
    if m.shape != (p, q):
        raise ValueError(f"{name} has shape {m.shape}, expected {(p, q)}")

    def total():
        out = np.zeros_like(m)
        for l, r in zip(lefts, rights):
            out += l @ m @ r
        return out

    return _finite_sum(total, f"product_map: the image of {name} overflows the float range")


def sylvester_null_space(lefts, rights, tol: float) -> tuple:
    """Solution space ``{x : l_j x = x r_j for all j}`` as HS-orthonormal matrices.

    With p x p matrices ``l_j`` and q x q matrices ``r_j`` the blocks
    ``kron(I_q, l_j) - kron(r_j.T, I_p)`` are stacked and their numerical
    null space (singular values at most ``tol``) is returned as p x q
    matrices.  The stack is cut into the connected components of its own
    nonzero pattern; each component's nonzero rows are reduced to their R
    factor by ``qr(mode="r")`` when they outnumber its columns, and its
    kernel is read off one SVD.  A column no row reaches solves alone.
    """
    lefts, rights, p, q = _paired(square_family(lefts, "lefts"), square_family(rights, "rights"))
    n = p * q
    stack = np.vstack([kron_sum([l, -np.eye(p)], [np.eye(q), r]) for l, r in zip(lefts, rights)])
    rows, cols = np.nonzero(stack)
    label = components(n + stack.shape[0], cols, n + rows)
    kernels = []
    for root in np.unique(label[:n]):
        on = np.flatnonzero(label[:n] == root)
        block = stack[np.flatnonzero(label[n:] == root)][:, on]
        if block.shape[0] > on.size:
            block = np.linalg.qr(block, mode="r")
        kernel = factorize(block).kernel(tol) if block.size else np.eye(1)
        full = np.zeros((n, kernel.shape[1]), dtype=kernel.dtype)
        full[on] = kernel
        kernels.append(full)
    return tuple(devectorize(k, p, q) for k in np.concatenate(kernels, axis=1).T)


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
    # whole-array checks (type() is int excludes bool); only when one fails
    # does the loop below walk the pairs, to name the first bad one
    if (
        set(map(type, data)) <= {list, tuple}
        and set(map(len, data)) == {2}
        and set(map(type, itertools.chain.from_iterable(data))) <= {float, int}
    ):
        try:
            pairs = np.array(data, dtype=np.float64)
        except OverflowError:
            pairs = None
        if pairs is not None and np.isfinite(pairs).all():
            return pairs.view(np.complex128).reshape((rows, cols))
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
