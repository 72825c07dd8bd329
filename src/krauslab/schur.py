"""Toeplitz-patterned Schur multipliers from measures on the unit circle.

A finite measure mu on the circle induces Fourier coefficients
``d_k = integral of conj(z)^k d mu(z)`` and the entrywise multiplier
``x_ij -> d_{i-j} x_ij`` on truncations.  The multiplier matrix ``[d_{i-j}]``
is Toeplitz; acting entrywise it is diagonal in the matrix-unit basis, so its
truncated spectrum is just ``{d_k}`` with multiplicity ``n - |k|``.  A unit
point mass acts as a diagonal-unitary conjugation, normalized Lebesgue
measure as the projection onto the main diagonal, and positive measures give
PSD Toeplitz matrices.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from . import opcore

__all__ = [
    "DEFAULT_GRID",
    "ToeplitzSymbol",
    "CircleMeasure",
    "fourier_coeffs",
    "multiplier_matrix",
    "schur_apply",
    "truncated_spectrum",
    "pointwise_invertibility",
    "min_abs_coeff",
    "symbol_to_json",
    "symbol_from_json",
    "measure_to_json",
    "measure_from_json",
]

DEFAULT_GRID = 4096


class ToeplitzSymbol:
    """Coefficient map ``k -> d_k`` on the full window ``|k| <= kmax``; every key is an integer."""

    def __init__(self, coeffs):
        items = dict(coeffs)
        if not items:
            raise ValueError("a symbol needs at least the k = 0 coefficient")
        norm = {}
        for k, v in items.items():
            if not isinstance(k, numbers.Integral):
                raise ValueError(f"symbol key k must be an integer, got {k!r}")
            kk, vv = int(k), complex(v)
            if not (np.isfinite(vv.real) and np.isfinite(vv.imag)):
                raise ValueError(f"coefficient at k={kk} is not finite")
            norm[kk] = vv
        kmax = max(abs(k) for k in norm)
        holes = 2 * kmax + 1 - len(norm)
        if holes:
            # Only the first few are named: the window can be far larger than the input.
            first = itertools.islice((k for k in range(-kmax, kmax + 1) if k not in norm), 3)
            listed = ", ".join(map(str, first)) + (", ..." if holes > 3 else "")
            raise ValueError(
                f"symbol window |k| <= {kmax} misses {holes} of {2 * kmax + 1} "
                f"coefficients, at k={listed}"
            )
        self.kmax = kmax
        self.coeffs = norm

    def __repr__(self) -> str:
        return f"ToeplitzSymbol(kmax={self.kmax})"

    def coeff(self, k: int) -> complex:
        if abs(k) > self.kmax:
            raise ValueError(f"k={k} outside the symbol window |k| <= {self.kmax}")
        return self.coeffs[int(k)]


@dataclass(frozen=True, eq=False)
class CircleMeasure:
    """Atoms plus an optional density sampled on a uniform angle grid.

    Atoms are ``(z, w)`` pairs with ``|z| = 1`` (checked to 1e-12) and complex
    weights.  The density is a real array of values at ``theta_g = 2 pi g / G``
    taken against normalized arclength, so the constant density 1 is the
    normalized Lebesgue measure.
    """

    atoms: tuple = ()
    density: np.ndarray | None = None

    def __post_init__(self):
        checked = []
        for i, (z, w) in enumerate(self.atoms):
            zz, ww = complex(z), complex(w)
            if not (np.isfinite(zz.real) and np.isfinite(zz.imag)
                    and np.isfinite(ww.real) and np.isfinite(ww.imag)):
                raise ValueError(f"atom {i} is not finite")
            if abs(abs(zz) - 1.0) > 1e-12:
                raise ValueError(f"atom {i} is off the unit circle: |z| = {abs(zz)!r}")
            checked.append((zz, ww))
        object.__setattr__(self, "atoms", tuple(checked))
        if self.density is not None:
            dens = np.asarray(self.density, dtype=np.float64)
            if dens.ndim != 1 or dens.size < 2:
                raise ValueError("density must be a 1-D grid of at least 2 values")
            if not np.all(np.isfinite(dens)):
                raise ValueError("density contains non-finite values")
            dens.setflags(write=False)
            object.__setattr__(self, "density", dens)
        if not self.atoms and self.density is None:
            raise ValueError("measure needs atoms, a density, or both")

    @classmethod
    def point_mass(cls, z, w=1.0) -> "CircleMeasure":
        return cls(atoms=((z, w),))

    @classmethod
    def lebesgue(cls, grid: int = DEFAULT_GRID) -> "CircleMeasure":
        return cls(density=np.ones(grid))


def fourier_coeffs(mu: CircleMeasure, kmax: int) -> ToeplitzSymbol:
    """Symbol d_k = sum_atoms w conj(z)^k + rectangle quadrature of the density.

    The periodic rectangle (= trapezoid) rule on a G-point grid is exact for
    trigonometric polynomials of degree below G and O(G^-2) for generic smooth
    densities, so ``G > 2 kmax`` is required to keep the window alias-free.
    """
    if not isinstance(kmax, int) or kmax < 0:
        raise ValueError(f"kmax must be a nonnegative integer, got {kmax!r}")
    ks = np.arange(-kmax, kmax + 1)
    vals = np.zeros(ks.size, dtype=np.complex128)
    for z, w in mu.atoms:
        vals += w * np.conj(z) ** ks
    if mu.density is not None:
        grid = mu.density.size
        if grid <= 2 * kmax:
            raise ValueError(
                f"density grid of {grid} points aliases the window kmax={kmax}"
            )
        theta = 2.0 * np.pi * np.arange(grid) / grid
        phases = np.exp(-1j * np.outer(ks, theta))
        vals += phases @ mu.density / grid
    return ToeplitzSymbol({int(k): complex(v) for k, v in zip(ks, vals)})


def multiplier_matrix(s: ToeplitzSymbol, rows: int, cols: int | None = None) -> np.ndarray:
    """Toeplitz mask ``[d_{i-j}]`` for the given truncation shape."""
    if cols is None:
        cols = rows
    if rows < 1 or cols < 1:
        raise ValueError("truncation must have positive dimensions")
    if max(rows, cols) - 1 > s.kmax:
        raise ValueError(
            f"truncation {rows}x{cols} exceeds the symbol window kmax={s.kmax}"
        )
    i = np.arange(rows)[:, None]
    j = np.arange(cols)[None, :]
    lookup = np.array([s.coeffs[int(k)] for k in range(-s.kmax, s.kmax + 1)])
    return lookup[(i - j) + s.kmax]


def schur_apply(s: ToeplitzSymbol, x) -> np.ndarray:
    """Entrywise action ``(i, j) -> d_{i-j} x_ij`` of the symbol on a matrix."""
    m = opcore.as_matrix(x, "x")
    return multiplier_matrix(s, m.shape[0], m.shape[1]) * m


def truncated_spectrum(s: ToeplitzSymbol, n: int) -> np.ndarray:
    """Eigenvalue multiset of the entrywise action on n x n matrices.

    The multiplier is diagonal on matrix units, so the multiset is each
    ``d_k`` with multiplicity ``n - |k|``, sorted by (real, imaginary) part.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n - 1 > s.kmax:
        raise ValueError(f"truncation n={n} exceeds the symbol window kmax={s.kmax}")
    vals = []
    for k in range(-(n - 1), n):
        vals.extend([s.coeffs[k]] * (n - abs(k)))
    arr = np.array(vals, dtype=np.complex128)
    return arr[np.lexsort((arr.imag, arr.real))]


def pointwise_invertibility(s: ToeplitzSymbol, eps: float) -> bool:
    """Whether every coefficient in the window clears ``|d_k| >= eps``.

    This is only the diagonal-action criterion on the truncated side; it makes
    no claim about inverting the symbol as a function on the circle.
    """
    if not (eps > 0 and np.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return min_abs_coeff(s) >= eps


def min_abs_coeff(s: ToeplitzSymbol) -> float:
    """Smallest coefficient magnitude over the symbol window."""
    return float(min(abs(v) for v in s.coeffs.values()))


def symbol_to_json(s: ToeplitzSymbol) -> dict:
    """Encode as ``{"kmax": n, "coeffs": [[k, re, im], ...]}`` with sorted k."""
    return {
        "kmax": int(s.kmax),
        "coeffs": [
            [int(k), float(s.coeffs[k].real), float(s.coeffs[k].imag)]
            for k in sorted(s.coeffs)
        ],
    }


def _json_rows(obj, key: str, width: int, shape: str) -> list:
    """``obj[key]``, a list of rows of ``width`` JSON numbers, as float rows."""
    rows = obj[key]
    if not isinstance(rows, list):
        raise ValueError(f"{key} must be a list of {shape} rows")
    out = []
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) == width):
            raise ValueError(f"each {key} row must be {shape}")
        out.append([opcore._json_number(v, f"{key}[{i}][{j}]") for j, v in enumerate(row)])
    return out


def symbol_from_json(obj) -> ToeplitzSymbol:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError("symbol object must be a JSON dict with a 'coeffs' list")
    coeffs = {}
    for i, (_, re, im) in enumerate(_json_rows(obj, "coeffs", 3, "[k, re, im]")):
        k = opcore._json_number(obj["coeffs"][i][0], f"coeffs[{i}][0]", integer=True)
        if k in coeffs:
            raise ValueError(f"coeffs[{i}][0] must be a new k, got {k} again")
        coeffs[k] = complex(re, im)
    s = ToeplitzSymbol(coeffs)
    kmax = opcore._json_number(obj.get("kmax", s.kmax), "kmax", integer=True)
    if kmax != s.kmax:
        raise ValueError(f"declared kmax {kmax} does not match rows ({s.kmax})")
    return s


def measure_to_json(mu: CircleMeasure) -> dict:
    """Encode atoms as ``[re z, im z, re w, im w]`` rows plus the density grid."""
    out: dict = {
        "atoms": [
            [float(z.real), float(z.imag), float(w.real), float(w.imag)]
            for z, w in mu.atoms
        ]
    }
    if mu.density is None:
        out["density"] = None
    else:
        out["density"] = {
            "grid": int(mu.density.size),
            "values": [float(v) for v in mu.density],
        }
    return out


def measure_from_json(obj) -> CircleMeasure:
    """Decode :func:`measure_to_json` output; a missing ``atoms`` list means no atoms."""
    if not isinstance(obj, dict):
        raise ValueError("measure object must be a JSON dict")
    rows = _json_rows(obj, "atoms", 4, "[re z, im z, re w, im w]") if "atoms" in obj else []
    atoms = [(complex(zr, zi), complex(wr, wi)) for zr, zi, wr, wi in rows]
    density = None
    dens_obj = obj.get("density")
    if dens_obj is not None:
        if not isinstance(dens_obj, dict) or not isinstance(dens_obj.get("values"), list):
            raise ValueError("density must be a dict with 'grid' and a 'values' list")
        values = [
            opcore._json_number(v, f"density.values[{i}]")
            for i, v in enumerate(dens_obj["values"])
        ]
        density = np.asarray(values, dtype=np.float64)
        grid = opcore._json_number(dens_obj.get("grid", density.size), "grid", integer=True)
        if grid != density.size:
            raise ValueError("declared grid size does not match the values list")
    return CircleMeasure(atoms=tuple(atoms), density=density)
