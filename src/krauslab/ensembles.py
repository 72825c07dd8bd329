"""Seed-stable random ensembles used by the fuzz suites and the CLI.

Every trial draws from its own Philox4x64 stream keyed by
``(master_seed, trial_index)``, a counter-based scheme: trial i is
reproducible in isolation, independent of how many other trials ran, and
identical across processes and platforms that share numpy's Generator.

A family draws its generators in the order one call per generator would,
then factors them together: one stacked QR for its Haar unitaries, one
stacked Gram and one stacked SVD (for the norms) for its PSD effects, and
one :func:`opcore.psd_sqrt` of the stack for its Lüders roots.
:func:`haar_unitary` and :func:`random_psd` are the one-matrix case of the
same helpers.  Stacked ``matmul``, ``qr``, ``svd``, ``eigh`` and
``eigvalsh`` return the per-matrix results bit for bit on the builds tested
(OpenBLAS 0.3.31, numpy 2.4), so each family equals its per-generator draws
bitwise.
"""

from __future__ import annotations

import numpy as np

from . import opcore
from .channel import KrausFamily
from .commuting import CommutingFamily

__all__ = [
    "trial_rng",
    "ginibre",
    "haar_unitary",
    "random_psd",
    "random_density",
    "mixed_unitary_family",
    "random_luders_family",
    "commuting_normal_family",
    "intertwining_pair",
    "random_psd_coefficients",
]


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator for one trial, from Philox keyed by (seed, trial), each in [0, 2**64)."""
    if not (0 <= seed < 1 << 64 and 0 <= trial < 1 << 64):
        raise ValueError(f"seed and trial must lie in [0, 2**64), got {seed} and {trial}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussian entries."""
    if cols is None:
        cols = rows
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def _ginibres(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """(k, d, d) stack of k :func:`ginibre` draws from one draw of their
    parts, in the order k calls make them (real part, then imaginary)."""
    z = rng.standard_normal((k, 2, d, d))
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def _haar_unitaries(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """(k, d, d) stack of k :func:`haar_unitary` draws, factored by one stacked QR."""
    q, r = np.linalg.qr(_ginibres(rng, d, k))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _random_psds(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """(k, d, d) stack of k :func:`random_psd` draws: one stacked Gram, one stacked SVD for the norms."""
    g = _ginibres(rng, d, k)
    p = g.conj().swapaxes(1, 2) @ g
    return p / np.linalg.svd(p, compute_uv=False)[:, :1, None]


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Ginibre matrix."""
    return _haar_unitaries(rng, d, 1)[0]


def random_psd(rng: np.random.Generator, d: int) -> np.ndarray:
    """PSD matrix g* g with Ginibre g, scaled to unit operator norm."""
    return _random_psds(rng, d, 1)[0]


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random density matrix: trace-normalized Ginibre covariance."""
    g = ginibre(rng, d)
    p = g.conj().T @ g
    return p / np.trace(p).real


def mixed_unitary_family(rng: np.random.Generator, d: int, m: int) -> KrausFamily:
    """Kraus family sqrt(p_j) u_j with Haar unitaries and Dirichlet weights.

    Unital and trace-preserving up to floating-point rounding.
    """
    probs = rng.dirichlet(np.ones(m))
    return KrausFamily(np.sqrt(probs)[:, None, None] * _haar_unitaries(rng, d, m))


def random_luders_family(rng: np.random.Generator, d: int, m: int) -> KrausFamily:
    """Kraus family of PSD operators a_j with sum a_j^2 = 1.

    Draws random PSD effects p_j, renormalizes them into a resolution
    q_j = T^(-1/2) p_j T^(-1/2) of the identity, and takes a_j = sqrt(q_j).
    Hermitian generators make the family unital and trace-preserving at once.
    """
    effects = _random_psds(rng, d, m)
    total = sum(effects)
    w, v = np.linalg.eigh((total + total.conj().T) / 2.0)
    if float(w[0]) <= 1e-12:
        raise ValueError("degenerate effect total; retry with another stream")
    root_inv = (v / np.sqrt(w)) @ v.conj().T
    return KrausFamily(opcore.psd_sqrt(root_inv @ effects @ root_inv))


def commuting_normal_family(rng: np.random.Generator, d: int, m: int) -> CommutingFamily:
    """Commuting normal family c_j = U D_j U* that is row- and column-complete.

    The diagonal of (D_1, ..., D_m) at each basis index is a random unit
    vector of C^m, which makes sum_j c_j c_j* = 1 hold to rounding; normality
    gives the column variant for free.
    """
    u = haar_unitary(rng, d)
    cols = ginibre(rng, m, d)
    cols /= np.linalg.norm(cols, axis=0, keepdims=True)
    mats = [u @ np.diag(cols[j]) @ u.conj().T for j in range(m)]
    return CommutingFamily(mats)


def intertwining_pair(
    rng: np.random.Generator, d: int, m: int
) -> tuple[CommutingFamily, CommutingFamily]:
    """Pair of commuting normal families with a d-dimensional intertwiner space.

    The first family is a_j = U diag(lambda_j) U* and the second takes the
    conjugated joint tuple in another Haar basis, b_j = V diag(conj(lambda_j)) V*.
    Every x = U y V* with diagonal y
    then satisfies a_j x = x b_j*, so the space {x : a_j x = x b_j* for all j}
    has dimension exactly d.
    """
    u = haar_unitary(rng, d)
    v = haar_unitary(rng, d)
    cols = ginibre(rng, m, d)
    cols /= np.linalg.norm(cols, axis=0, keepdims=True)
    a = CommutingFamily([u @ np.diag(cols[j]) @ u.conj().T for j in range(m)])
    b = CommutingFamily([v @ np.diag(cols[j].conj()) @ v.conj().T for j in range(m)])
    return a, b


def random_psd_coefficients(rng: np.random.Generator, d: int, m: int) -> list:
    """Independent PSD coefficient matrices for product-map positivity checks."""
    return list(_random_psds(rng, d, m))
