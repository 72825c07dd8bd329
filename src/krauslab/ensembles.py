"""Seed-stable random ensembles used by the fuzz suites and the CLI.

Every trial draws from its own Philox4x64 stream keyed by
``(master_seed, trial_index)``, a counter-based scheme: trial i is
reproducible in isolation, independent of how many other trials ran, and
identical across processes and platforms that share numpy's Generator.
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

_MASK = (1 << 64) - 1


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator for one trial, from Philox keyed by (seed, trial)."""
    key = np.array([seed & _MASK, trial & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussian entries."""
    if cols is None:
        cols = rows
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Ginibre matrix."""
    q, r = np.linalg.qr(ginibre(rng, d))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_psd(rng: np.random.Generator, d: int) -> np.ndarray:
    """PSD matrix g* g with Ginibre g, scaled to unit operator norm."""
    g = ginibre(rng, d)
    p = g.conj().T @ g
    return p / opcore.op_norm(p)


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
    ops = [np.sqrt(p) * haar_unitary(rng, d) for p in probs]
    return KrausFamily(ops)


def random_luders_family(rng: np.random.Generator, d: int, m: int) -> KrausFamily:
    """Kraus family of PSD operators a_j with sum a_j^2 = 1.

    Draws random PSD effects p_j, renormalizes them into a resolution
    q_j = T^(-1/2) p_j T^(-1/2) of the identity, and takes a_j = sqrt(q_j).
    Hermitian generators make the family unital and trace-preserving at once.
    """
    effects = [random_psd(rng, d) for _ in range(m)]
    total = sum(effects)
    w, v = np.linalg.eigh((total + total.conj().T) / 2.0)
    if float(w[0]) <= 1e-12:
        raise ValueError("degenerate effect total; retry with another stream")
    root_inv = (v / np.sqrt(w)) @ v.conj().T
    ops = [opcore.psd_sqrt(root_inv @ p @ root_inv) for p in effects]
    return KrausFamily(ops)


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
    return [random_psd(rng, d) for _ in range(m)]
