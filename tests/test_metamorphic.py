"""Metamorphic laws of the mathematics, on seeded numpy streams.

* Kraus unitary freedom: a'_i = sum_j u_ij a_j defines the same map psi.
* Unitary covariance: Fix({V* a_j V}) = V* Fix({a_j}) V.
* Both leave the singular values of S - I, and so the gap report, unchanged.
* Scaling: both sides of the square-difference bounds are homogeneous of
  degree 2 in (x, y), and the commutant of {t a_j} is that of {a_j}.
"""

import numpy as np
import pytest

import krauslab as kl
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
