"""Metamorphic laws of the mathematics, on seeded numpy streams.

* Kraus unitary freedom: a'_i = sum_j u_ij a_j defines the same map psi.
* Unitary covariance: Fix({V* a_j V}) = V* Fix({a_j}) V.
* Both leave the singular values of S - I, and so the gap report, unchanged.
* Scaling: both sides of the square-difference bounds are homogeneous of
  degree 2 in (x, y), and the commutant of {t a_j} is that of {a_j}, as
  are the intertwiners of {t a_j} and {t b_j} those of {a_j} and {b_j}.
* The scaling table (SCALING): every name of opcore.__all__, commutant,
  intertwiner_space, the two halves of product_map_check (Fix(theta) against
  the intertwiners, spec(theta) against the product set), the positivity
  check of theta, the product of two joint spectra and the Hausdorff
  distance states its law under x -> t x,
  checked at t = 2**e from e = -1000 to 1000; require_psd, psd_sqrt and
  positive_part also for a stack of t x beside x, exactly.  The Hermitian gate has no row of its
  own: require_psd and positive_part run it.  Every other function of
  krauslab.__all__ is in NO_SCALING_ROW, with its reason.
"""

import inspect
import math
import re
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

import krauslab as kl
from krauslab import commuting, opcore
from krauslab.channel import SubspaceBasis
from krauslab.ensembles import (
    ginibre,
    haar_unitary,
    mixed_unitary_family,
    random_luders_family,
    random_psd,
    trial_rng,
)


def tensor_family(rng):
    """Mixed-unitary family u_j (x) I_2 on C^6, whose fixed space is I_3 (x) M_2."""
    probs = rng.dirichlet(np.ones(3))
    return kl.KrausFamily(
        [np.sqrt(p) * np.kron(haar_unitary(rng, 3), np.eye(2)) for p in probs]
    )


def witness_family(rng):
    """Unital family on C^3 whose fixed space is not an algebra (rng unused)."""
    a1 = np.zeros((3, 3), dtype=complex)
    a1[0, 1] = 0.6
    return kl.KrausFamily([a1, np.diag([1.0, 0.8, 1.0]).astype(complex)])


FAMILIES = {
    "mixed_unitary": (lambda rng: mixed_unitary_family(rng, 4, 3), 1),
    "luders": (lambda rng: random_luders_family(rng, 4, 3), 1),
    "tensor": (tensor_family, 4),
    "witness": (witness_family, 4),
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_kraus_unitary_freedom(kind):
    make, fix_dim = FAMILIES[kind]
    for trial in range(3):
        rng = trial_rng(71, trial)
        fam = make(rng)
        u = haar_unitary(rng, len(fam))
        mixed = kl.KrausFamily(
            [sum(u[i, j] * a for j, a in enumerate(fam.ops)) for i in range(len(fam))]
        )
        np.testing.assert_allclose(
            kl.superoperator(mixed), kl.superoperator(fam), atol=1e-12
        )
        fs, fs_mixed = kl.fixed_space(fam), kl.fixed_space(mixed)
        assert len(fs) == len(fs_mixed) == fix_dim
        assert kl.subspace_distance(fs, fs_mixed) <= kl.fix_tol(fam.dim)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_fixed_space_is_unitarily_covariant(kind):
    make, fix_dim = FAMILIES[kind]
    for trial in range(3):
        rng = trial_rng(72, trial)
        fam = make(rng)
        v = haar_unitary(rng, fam.dim)
        moved = kl.KrausFamily([v.conj().T @ a @ v for a in fam.ops])
        fs = kl.fixed_space(fam)
        # conjugation by a unitary is an HS isometry, so the basis stays orthonormal
        image = SubspaceBasis(
            rows=fam.dim,
            cols=fam.dim,
            basis=tuple(v.conj().T @ h @ v for h in fs.basis),
        )
        fs_moved = kl.fixed_space(moved)
        assert len(fs_moved) == len(fs) == fix_dim
        assert kl.subspace_distance(fs_moved, image) <= kl.fix_tol(fam.dim)


def ginibre_family(rng):
    """Three Ginibre operators on C^5: neither unital nor trace-preserving."""
    return kl.KrausFamily([0.4 * ginibre(rng, 5) for _ in range(3)])


@pytest.mark.parametrize("kind", sorted(FAMILIES) + ["ginibre"])
def test_gap_report_is_invariant_under_kraus_freedom_and_covariance(kind):
    # both moves keep the singular values of S - I: the first keeps psi, the
    # second conjugates it by the HS unitary x -> v* x v
    make = ginibre_family if kind == "ginibre" else FAMILIES[kind][0]
    for trial in range(3):
        rng = trial_rng(74, trial)
        fam = make(rng)
        u, v = haar_unitary(rng, len(fam)), haar_unitary(rng, fam.dim)
        mixed = kl.KrausFamily(
            [sum(u[i, j] * a for j, a in enumerate(fam.ops)) for i in range(len(fam))]
        )
        moved = kl.KrausFamily([v.conj().T @ a @ v for a in fam.ops])
        base = kl.gap_report(fam)
        for other in (mixed, moved):
            rep = kl.gap_report(other)
            assert rep.fix_dim == base.fix_dim
            assert rep.sigma_min == pytest.approx(base.sigma_min, rel=0.0, abs=1e-12)
            assert rep.restricted_gap == pytest.approx(base.restricted_gap, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("s", [1e-3, 0.5, 7.5, 1e4])
def test_square_difference_bounds_scale_quadratically(s):
    for trial in range(5):
        rng = trial_rng(73, trial)
        x, y = random_psd(rng, 4), random_psd(rng, 4)
        base = kl.powers_stormer(x, y)
        scaled = kl.powers_stormer(s * x, s * y)
        assert scaled.lhs == pytest.approx(s * s * base.lhs, rel=1e-10)
        assert scaled.rhs == pytest.approx(s * s * base.rhs, rel=1e-10)
        b, yq = ginibre(rng, 4, 3), random_psd(rng, 3)
        base = kl.generalized_powers_stormer(b, x, yq)
        scaled = kl.generalized_powers_stormer(b, s * x, s * yq)
        assert scaled.lhs == pytest.approx(s * s * base.lhs, rel=1e-10)
        assert scaled.rhs == pytest.approx(s * s * base.rhs, rel=1e-10)


def test_commutant_is_invariant_under_scaling():
    # each generator has distinct eigenvalues, so it commutes with exactly
    # the polynomials in itself, span{1, a}, at every scale
    for a in (np.array([[1.0, 1.0], [0.0, 2.0]]), np.diag([1.0, 2.0])):
        for t in (1e-300, 1e-10, 1.0, 1e150, 1e300):
            com = kl.commutant([t * a])
            assert len(com) == 2, t
            for x in com.basis:
                np.testing.assert_allclose(a @ x, x @ a, atol=1e-12)
    # the zero family commutes with everything
    assert len(kl.commutant([np.zeros((2, 2))])) == 4


def test_intertwiner_space_is_invariant_under_scaling():
    # a x = x a** = x a holds exactly on span{1, a}, at every scale
    a = np.array([[1.0, 1.0], [0.0, 2.0]])
    for t in (1e-300, 1e-10, 1.0, 1e150, 1e300):
        with pytest.warns(UserWarning, match="is not (row|column)-complete"):
            inter = kl.intertwiner_space([t * a], [t * a.T])
        assert len(inter) == 2, t
        for x in inter.basis:
            np.testing.assert_allclose(a @ x, x @ a, atol=1e-12)


# The scaling table: each name's law under x -> t x, run at t = 2**e.
#
# A law is Degree(k): f(t x) = t**k f(x), with Degree(0) (invariant) for the
# subspace solvers, read as the orthogonal projector onto the space; or
# NoLaw, with the reason, whose reading must still never be NaN.  No name
# here refuses at every t: a refusal is what ``beyond`` names, or a gate's
# verdict on a non-Hermitian or non-PSD input.  An exact law holds
# bitwise wherever t**k f(x) is normal, and an approximate one to ``rtol``
# of its largest entry.  Where t**k f(x) is beyond the float range the
# function raises ValueError or reads inf, as ``beyond`` says; where it is
# below, it reads 0 or a subnormal within a few ulps.  No run may warn
# (the suite turns a RuntimeWarning into an error) or read NaN.
#
# Tolerance policies, as they are: the Hermitian gate passes an asymmetry
# of at most 1e-10 (1 + ||m||_F) and the PSD gate an eigenvalue of at least
# -1e-10 (1 + ||m||_op), so each is relative above unit norm and absolute
# below it (test_gates_are_absolute_below_unit_norm); sylvester_null_space
# cuts at an absolute tol, scaled here with its families; commutant and
# intertwiner_space cut at fix_tol(d) times their generators' scale, so
# their spaces follow no common factor.

EXPONENTS = (-1000, -500, -100, 0, 100, 500, 1000)


class Degree(NamedTuple):
    k: float
    reading: Callable
    exact: bool = False
    rtol: float = 1e-12
    beyond: str = "never"


class NoLaw(NamedTuple):
    reason: str
    reading: Callable | None = None


def bounded(rng, *shape):
    """Complex entries whose parts lie in +-[1/2, 2), so t x is exact for every t of the table."""
    parts = rng.uniform(0.5, 2.0, (2, *shape)) * rng.choice([-1.0, 1.0], (2, *shape))
    return parts[0] + 1j * parts[1]


_rng = trial_rng(75, 0)
X, Y = bounded(_rng, 4, 4), bounded(_rng, 4, 4)
H = X + X.conj().T
P = X.conj().T @ X
P = (P + P.conj().T) / 2.0
Q = Y.conj().T @ Y
Q = (Q + Q.conj().T) / 2.0
# np.full((2, 2), 1e308) at t = 2**1000, whose eigenvalue 2e308 is beyond the float range
FULL = np.full((2, 2), math.ldexp(1e308, -1000))
# distinct eigenvalues, so span{1, A} is its commutant and its intertwiners with A
A = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
# points with real parts in +-[1.25, 1.75) * 2**23: at t = 2**1000 each is
# finite, and every gap between the two sets is beyond the float range
SETS = math.ldexp(1.0, 23) * (1.5 + X.ravel() / 8), math.ldexp(1.0, 23) * (-1.5 + Y.ravel() / 8)


def projector(space) -> np.ndarray:
    """Orthogonal projector onto the span of HS-orthonormal matrices."""
    v = np.array([opcore.vectorize(x) for x in (space.basis if hasattr(space, "basis") else space)])
    return v.T @ v.conj()


def quiet(fn):
    """``fn`` with the incomplete-family UserWarning of intertwiner_space silenced."""

    def call(*args):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return fn(*args)

    return call


def _beside_fixed(gate, m, fixed):
    """``gate`` of the stack ``[m, fixed]``, read at ``m``; its ``fixed`` matrix
    must read the bits ``gate`` gives it alone."""
    out = gate(np.stack([m, fixed]))
    assert np.array_equal(out[1], gate(fixed))
    return out[0]


def _commuting_pair():
    """Commuting normal families a, b on C^3 with two generators, rotated by
    seeded Haar unitaries, whose joint tuples meet twice: a's first tuple is
    conj of b's first two.  So at every scale t the pair t a, t b has two
    intertwiners, and theta (eigenvalue ||lambda||^2 t^2 = 2.2 t^2 at the
    meeting pairs, none near 1 at t = 1) no fixed point.  The other tuples
    are seeded draws, so no two eigenvalues of theta share a real part and
    the sorted spectrum keeps its order at every scale."""
    rng = trial_rng(76, 0)
    lam = ginibre(rng, 3, 2)
    lam[0] *= np.sqrt(2.2) / np.linalg.norm(lam[0])
    mu = np.vstack([lam[[0, 0]].conj(), ginibre(rng, 1, 2)])
    u, v = haar_unitary(rng, 3), haar_unitary(rng, 3)
    return tuple(np.stack([w @ np.diag(col) @ w.conj().T for col in tuples.T]) for w, tuples in ((u, lam), (v, mu)))


CA, CB = _commuting_pair()


@quiet
def _intertwiner_theta_eigs(t):
    """spec(theta) of t a, t b as product_map_check reads it, with its cut
    tol scaled with t; the check's dimensions and verdict must not move."""
    rep = kl.product_map_check(t * CA, t * CB, t * 1e-7)
    assert (rep.fix_dim, rep.intertwiner_dim, rep.passed) == (0, 2, False)
    return rep.eigs


@quiet
def _spectrum_theta_eigs(t):
    """spec(theta) of t a, t b at the default tol; the product set must
    meet it."""
    rep = kl.product_map_check(t * CA, t * CB)
    assert rep.hausdorff <= 1e-12 * float(np.abs(rep.eigs).max()) + math.ldexp(1.0, -1020)
    return rep.eigs


def _positive_theta_eigs(t):
    """The eigenvalues of theta's Hermitian part, PSD coefficients t P, t Q on each side."""
    return kl.positive_eigenvalue_check([t * P, t * Q], [t * Q, t * P]).eigs


def _product_spectrum(t):
    """The product set of the joint spectra of t a and t b."""
    return commuting.product_spectrum(kl.joint_spectrum(t * CA), kl.joint_spectrum(t * CB))


def _block_stacks(t):
    m = t * np.kron(np.eye(2), X[:2, :2] + X[:2, :2].conj().T)
    rows, cols = np.nonzero(m)
    return opcore.block_split(4, rows, cols, m[rows, cols])


SCALING = {
    "as_matrix": Degree(1, lambda t: opcore.as_matrix(t * X), exact=True),
    "op_norm": Degree(1, lambda t: opcore.op_norm(t * X)),
    "trace_norm": Degree(1, lambda t: opcore.trace_norm(t * X)),
    "frobenius": Degree(1, lambda t: opcore.frobenius(t * X), exact=True, beyond="inf"),
    # sesquilinear, so degree 2 with both arguments scaled
    "hs_inner": Degree(2, lambda t: opcore.hs_inner(t * X, t * Y), exact=True, beyond="ValueError"),
    "positive_part": Degree(1, lambda t: np.concatenate([opcore.positive_part(m).ravel() for m in (t * H, t * FULL)])),
    "positive_part (stack)": Degree(1, lambda t: _beside_fixed(opcore.positive_part, t * H, H), exact=True),
    "require_psd": Degree(1, lambda t: opcore.require_psd(t * P), exact=True),
    # a stack: t P beside a fixed P, each matrix gated at its own power
    "require_psd (stack)": Degree(1, lambda t: _beside_fixed(opcore.require_psd, t * P, P), exact=True),
    "psd_sqrt": Degree(0.5, lambda t: np.concatenate([opcore.psd_sqrt(m).ravel() for m in (t * P, t * FULL)])),
    "psd_sqrt (stack)": Degree(0.5, lambda t: _beside_fixed(opcore.psd_sqrt, t * P, P), exact=True),
    "square_family": Degree(1, lambda t: np.stack(opcore.square_family([t * X, t * Y])), exact=True),
    "completeness_defects": NoLaw(
        "affine: ||sum a* a - 1|| subtracts the identity; reads inf where the Gram overflows",
        lambda t: opcore.completeness_defects([t * X, t * Y]),
    ),
    "unital_defect": NoLaw("affine, as completeness_defects", lambda t: opcore.unital_defect([t * X])),
    "counital_defect": NoLaw("affine, as completeness_defects", lambda t: opcore.counital_defect([t * X])),
    "vectorize": Degree(1, lambda t: opcore.vectorize(t * X), exact=True),
    "devectorize": Degree(1, lambda t: opcore.devectorize(t * X.ravel(), 4, 4), exact=True),
    "components": NoLaw("labels an index graph; it reads no entries"),
    "BlockSplit": NoLaw("a record: its stacks are the block_split row"),
    "block_split": Degree(1, lambda t: np.concatenate([s.ravel() for s in _block_stacks(t).stacks]), exact=True),
    "SpectralCore": NoLaw("a record: its values are the factorize row"),
    "minus_identity": NoLaw("affine: m - I", lambda t: opcore.minus_identity(t * X)),
    "factorize": Degree(1, lambda t: opcore.factorize(t * X).sv),
    "KronEntries": NoLaw("a record: its values are the kron_entries row"),
    # linear in each family; the lefts are scaled
    "kron_entries": Degree(1, lambda t: opcore.kron_entries([t * X], [Y]).values, exact=True),
    "kron_sum": Degree(1, lambda t: opcore.kron_sum([t * X, t * Y], [Y, X]), exact=True),
    "product_map": Degree(1, lambda t: opcore.product_map([X, Y], [Y, X], t * H)),
    # the cutoff is absolute, so it is scaled with the families
    "sylvester_null_space": Degree(0, lambda t: projector(opcore.sylvester_null_space([t * A], [t * A], t * 1e-8))),
    "linear_map_matrix": Degree(1, lambda t: opcore.linear_map_matrix(lambda x: (t * X) @ x, 4, 4), exact=True),
    "matrix_to_json": NoLaw("a codec"),
    "matrix_from_json": NoLaw("a codec"),
    "channel.commutant": Degree(0, lambda t: projector(kl.commutant([t * A]))),
    "commuting.intertwiner_space": Degree(0, quiet(lambda t: projector(kl.intertwiner_space([t * A], [t * A.T])))),
    # theta is quadratic in (a, b); theta beyond the float range is refused.
    # product_map_check has two rows, named after the two checks it reports:
    # Fix(theta) against the intertwiners, and spec(theta) against the
    # product set
    "commuting.intertwiner_fixed_point_check": Degree(2, _intertwiner_theta_eigs, beyond="ValueError"),
    "commuting.spectrum_product_check": Degree(2, _spectrum_theta_eigs, beyond="ValueError"),
    # theta with PSD coefficients, quadratic in them; beyond the float range
    # theta is refused where it is built
    "commuting.positive_eigenvalue_check": Degree(2, _positive_theta_eigs, beyond="ValueError"),
    # products of the two joint spectra; beyond the float range they are refused
    "commuting.product_spectrum": Degree(2, _product_spectrum, beyond="ValueError"),
    # a gap beyond the float range is refused
    "commuting.hausdorff_distance": Degree(
        1, lambda t: commuting.hausdorff_distance(t * SETS[0], t * SETS[1]), beyond="ValueError"
    ),
}


# The functions of krauslab.__all__ with no SCALING row, each with the reason.
# A new function gets a row or an entry here; entries only leave, as rows arrive.
NO_SCALING_ROW = {
    "channel.apply": "psi(x) is linear in x and quadratic in the family: no row yet",
    "channel.apply_predual": "linear in t and quadratic in the family: no row yet",
    "channel.superoperator": "quadratic in the family, bitwise the kron_sum it is built from: no row yet",
    "channel.spectral_core": "affine: S - I subtracts the identity",
    "channel.fixed_space": "not homogeneous: t a_j scales psi by t^2, whose fixed space is another",
    "channel.subspace_distance": "a distance between the spans of two orthonormal bases",
    "channel.gap_report": "affine, as spectral_core",
    "channel.solve_perturbation": "affine, as spectral_core",
    "channel.fix_closed_under_square": "not homogeneous, as fixed_space",
    "channel.fix_tol": "a tolerance of the dimension alone",
    "channel.unital_tol": "a tolerance of the dimension alone",
    "inequalities.defect_bounds": "degree 2 in x; the family stays unital and trace-preserving: no row yet",
    "inequalities.powers_stormer": "degree 2, in test_square_difference_bounds_scale_quadratically",
    "inequalities.generalized_powers_stormer": "degree 2 in (x, y), in the same test",
    "inequalities.gamma_curve": "a scalar curve of beta and t, of degree 1 in both: no row yet",
    "tracelab.extract_trace": "affine, as spectral_core",
    "tracelab.near_fixed_from_trace": "affine, as spectral_core",
    "commuting.simultaneous_diagonalize": "degree 1 in the diagonals and 0 in the eigenbasis: no row yet",
    "commuting.joint_spectrum": "degree 1: read through the commuting.product_spectrum row",
    "commuting.theta_superoperator": "degree 2 in (c, d), bitwise the kron_sum row",
}
# product_map_check's rows are named after the two checks it reports
ROWS_OF = {"commuting.product_map_check": ("commuting.intertwiner_fixed_point_check", "commuting.spectrum_product_check")}


def test_every_opcore_name_has_a_scaling_row():
    assert set(opcore.__all__) <= set(SCALING)
    others = {
        "channel.commutant",
        "commuting.intertwiner_space",
        "commuting.intertwiner_fixed_point_check",
        "commuting.spectrum_product_check",
        "commuting.product_spectrum",
        "commuting.hausdorff_distance",
        "commuting.positive_eigenvalue_check",
        "require_psd (stack)",
        "psd_sqrt (stack)",
        "positive_part (stack)",
    }
    assert not set(SCALING) - set(opcore.__all__) - others
    # every function of krauslab.__all__ has its rows or an entry in NO_SCALING_ROW, not both
    functions = {
        f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        for fn in (getattr(kl, name) for name in kl.__all__)
        if inspect.isfunction(fn)
    }
    rowless = {name for name in functions if not set(ROWS_OF.get(name, (name,))) <= set(SCALING)}
    assert sorted(rowless) == sorted(NO_SCALING_ROW)


def _scaled(base: np.ndarray, shift: float) -> np.ndarray:
    """``base * 2**shift``, exact where it is normal (``shift`` an integer)."""
    shift = int(shift)
    if np.iscomplexobj(base):
        return np.ldexp(base.real, shift) + 1j * np.ldexp(base.imag, shift)
    return np.ldexp(base, shift)


@pytest.mark.parametrize("e", EXPONENTS)
@pytest.mark.parametrize("name", sorted(SCALING))
def test_scaling_law(name, e):
    law, t = SCALING[name], math.ldexp(1.0, e)
    if isinstance(law, NoLaw):
        if law.reading is not None:
            out = np.asarray(law.reading(t), dtype=complex)
            assert not np.isnan(out).any()
        return
    base = np.atleast_1d(law.reading(1.0))
    parts = np.abs(base.astype(complex).view(float))
    shift = law.k * e
    if shift + math.log2(parts.max()) >= 1024:
        if law.beyond == "ValueError":
            with pytest.raises(ValueError):
                law.reading(t)
        else:
            assert law.beyond == "inf" and np.isinf(law.reading(t)).all()
        return
    got, want = np.atleast_1d(law.reading(t)), _scaled(base, shift)
    assert got.shape == want.shape and not np.isnan(got).any()
    normal = shift + math.log2(parts[parts > 0].min()) >= -1022 if parts.any() else True
    if law.exact and normal:
        assert np.array_equal(got, want), name
    else:
        slack = law.rtol * float(np.abs(want).max()) + math.ldexp(1.0, -1020)
        assert float(np.abs(got - want).max()) <= slack, name


def test_gates_are_absolute_below_unit_norm():
    # the 1 + in both tolerances: a matrix far from Hermitian (or PSD) at
    # unit scale passes once its norm is far below 1e-10; positive_part runs
    # the Hermitian gate without the PSD gate
    negative, asymmetry = -P, float(np.linalg.norm(X - X.conj().T))
    for e in EXPONENTS:
        t = math.ldexp(1.0, e)
        if e <= -100:
            opcore.positive_part(t * X)
            np.testing.assert_array_equal(opcore.require_psd(t * negative), t * negative)
        else:
            # the asymmetry it reports is t ||X - X*||_F
            with pytest.raises(ValueError, match=re.escape(f"not Hermitian: asymmetry {t * asymmetry:.3e} ")):
                opcore.positive_part(t * X)
            with pytest.raises(ValueError, match="not PSD"):
                opcore.require_psd(t * negative)
