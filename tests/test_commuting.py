"""Commuting normal families, joint spectra, product maps, intertwiners."""

import warnings

import numpy as np
import pytest

import krauslab as kl
from krauslab import commuting, opcore
from krauslab.ensembles import (
    commuting_normal_family,
    ginibre,
    intertwining_pair,
    mixed_unitary_family,
    random_psd_coefficients,
    trial_rng,
)


def test_family_defect_oracles():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    fam = kl.CommutingFamily([np.diag([1.0, 2.0]).astype(complex), nil])
    # [nil, nil*] = e11 - e22, HS norm sqrt(2)
    assert fam.normality_defect == pytest.approx(np.sqrt(2.0), abs=1e-14)
    # [diag(1,2), e12] = -e12
    assert fam.commutation_defect == pytest.approx(1.0, abs=1e-14)
    assert not fam.accepted
    with pytest.raises(ValueError):
        fam.require_accepted()
    diag = kl.CommutingFamily([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
    assert diag.accepted
    assert diag.normality_defect == 0.0 and diag.commutation_defect == 0.0


def test_family_validation():
    with pytest.raises(ValueError):
        kl.CommutingFamily([])
    with pytest.raises(ValueError):
        kl.CommutingFamily([np.zeros((2, 3))])
    with pytest.raises(ValueError):
        kl.CommutingFamily([np.eye(2), np.eye(3)])


def test_family_copies_instead_of_freezing_the_callers_arrays():
    m = np.diag([1 + 0j, 1j])
    fam = kl.CommutingFamily([m])
    assert m.flags.writeable
    assert not fam.mats[0].flags.writeable
    m[0, 0] = 5.0
    np.testing.assert_array_equal(fam.mats[0], np.diag([1 + 0j, 1j]))


def test_defect_gate_scales_with_the_generators():
    base = commuting_normal_family(trial_rng(5, 4), 6, 3)
    s = max(np.linalg.norm(c, 2) for c in base.mats)
    assert base.defect_gate == pytest.approx(commuting.DEFECT_GATE * s * s, rel=1e-12)
    big = kl.CommutingFamily([1e5 * c for c in base.mats])
    # rounding alone puts the scaled defects far above the absolute 1e-9
    assert big.normality_defect > 1e3 * commuting.DEFECT_GATE
    assert big.accepted
    big.require_accepted()
    # a relative commutator of 1e-6 stays rejected at the same scale
    nudge = np.array([[0.0, 1e-6], [1e-6, 0.0]])
    pair = kl.CommutingFamily([1e5 * np.diag([1.0, 2.0]), 1e5 * (np.diag([3.0, 4.0]) + nudge)])
    assert pair.defect_gate == pytest.approx(commuting.DEFECT_GATE * (4e5) ** 2, rel=1e-6)
    assert not pair.accepted
    with pytest.raises(ValueError, match="gate"):
        pair.require_accepted()


def test_small_noncommuting_family_is_rejected():
    # [diag(1, 2), e12] = -e12: at norm 2e-5 the commutator is 1e-10, far
    # above a gate that scales with the square of the generators
    fam = kl.CommutingFamily(
        [1e-5 * np.diag([1.0, 2.0]), 1e-5 * np.array([[0.0, 1.0], [0.0, 0.0]])]
    )
    assert fam.defect_gate == pytest.approx(commuting.DEFECT_GATE * 4e-10, rel=1e-12)
    assert not fam.accepted
    with pytest.raises(ValueError, match="gate"):
        kl.simultaneous_diagonalize(fam)


@pytest.mark.parametrize("scale", [1e-9, 1e-5, 1e5, 1e8])
def test_scaling_a_family_scales_its_joint_spectrum(scale):
    for trial in range(80):
        dim, ops = (6, 12)[trial % 2], 1 + trial % 3
        base = commuting_normal_family(trial_rng(83, trial), dim, ops)
        fam = kl.CommutingFamily([scale * c for c in base.mats])
        assert fam.accepted == base.accepted
        points = np.array(kl.joint_spectrum(base).points)
        scaled = np.array(kl.joint_spectrum(fam).points)
        assert scaled.shape == points.shape
        np.testing.assert_allclose(scaled, scale * points, rtol=0.0, atol=1e-8 * scale)


def test_simultaneous_diagonalize_random():
    for trial in range(5):
        fam = commuting_normal_family(trial_rng(51, trial), 6, 3)
        res = kl.simultaneous_diagonalize(fam)
        u = res.unitary
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-10)
        for c, diag in zip(fam.mats, res.diags):
            rotated = u.conj().T @ c @ u
            np.testing.assert_allclose(rotated, np.diag(diag), atol=1e-8)


def test_simultaneous_diagonalize_degenerate_blocks():
    # first generator leaves {e1, e2} degenerate; the refinement must split it
    c1 = np.diag([1.0, 1.0, 2.0]).astype(complex)
    c2 = np.diag([3.0, 4.0, 5.0]).astype(complex)
    res = kl.simultaneous_diagonalize(kl.CommutingFamily([c1, c2]))
    for c, diag in zip((c1, c2), res.diags):
        rotated = res.unitary.conj().T @ c @ res.unitary
        np.testing.assert_allclose(rotated, np.diag(diag), atol=1e-10)


def test_simultaneous_diagonalize_rejects_noncommuting():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError):
        kl.simultaneous_diagonalize(kl.CommutingFamily([sx, sz]))


def test_joint_spectrum_oracle():
    c1 = np.diag([1.0, 1.0, 2.0]).astype(complex)
    c2 = np.diag([3.0, 4.0, 5.0]).astype(complex)
    spec = kl.joint_spectrum(kl.CommutingFamily([c1, c2]))
    pts = [tuple(complex(z) for z in p) for p in spec.points]
    assert pts == [(1.0, 3.0), (1.0, 4.0), (2.0, 5.0)]
    # dedupe merges the repeated tuple
    spec2 = kl.joint_spectrum(kl.CommutingFamily([np.diag([1.0, 1.0, 2.0])]))
    assert len(spec2.points) == 2


def test_theta_apply_matches_superoperator():
    rng = trial_rng(52, 0)
    c = [ginibre(rng, 3) for _ in range(2)]
    d = [ginibre(rng, 4) for _ in range(2)]
    s = kl.theta_superoperator(c, d)
    # independent oracle: column-by-column assembly of the same map
    direct = opcore.linear_map_matrix(lambda m: kl.theta_apply(c, d, m), 3, 4)
    np.testing.assert_allclose(s, direct, atol=1e-12)
    with pytest.raises(ValueError):
        kl.theta_apply(c, d[:1], np.zeros((3, 4)))
    with pytest.raises(ValueError):
        kl.theta_apply(c, d, np.zeros((4, 3)))


def test_theta_superoperator_is_bitwise_the_kron_sum():
    rng = trial_rng(57, 0)
    c = [ginibre(rng, 3) for _ in range(2)]
    d = [ginibre(rng, 2) for _ in range(2)]
    expected = np.zeros((6, 6), dtype=np.complex128)
    for cj, dj in zip(c, d):
        expected += np.kron(dj.T, cj)
    assert np.array_equal(kl.theta_superoperator(c, d), expected)


def test_channel_objects_are_the_product_map_objects():
    # S of a Kraus family is theta of (a_j*, a_j), and its commutant is the
    # intertwiner space of (a, a*), bit for bit
    fam = mixed_unitary_family(trial_rng(57, 1), 3, 2)
    adj = [a.conj().T for a in fam.ops]
    assert np.array_equal(kl.superoperator(fam), kl.theta_superoperator(adj, fam.ops))
    com = kl.commutant(fam.ops)
    inter = kl.intertwiner_space(fam.ops, adj)
    assert len(com) == len(inter) == 1
    for x, y in zip(com.basis, inter.basis):
        assert np.array_equal(x, y)


def test_product_spectrum_oracle():
    # single-generator families diag(2,0) and diag(3,1):
    # products {2*3, 2*1, 0*3, 0*1} = {6, 2, 0}
    sc = kl.joint_spectrum(kl.CommutingFamily([np.diag([2.0, 0.0])]))
    sd = kl.joint_spectrum(kl.CommutingFamily([np.diag([3.0, 1.0])]))
    prod = commuting.product_spectrum(sc, sd)
    np.testing.assert_allclose(np.sort(prod.real), [0.0, 2.0, 6.0], atol=1e-12)


def test_spectrum_product_check_oracle():
    rep = kl.spectrum_product_check([np.diag([2.0, 0.0])], [np.diag([3.0, 1.0])])
    assert rep.hausdorff <= 1e-12
    np.testing.assert_allclose(
        np.sort(rep.eigs.real), [0.0, 0.0, 2.0, 6.0], atol=1e-12
    )


@pytest.mark.parametrize("scale", [1.0, 1e-5, 1e5])
def test_spectrum_product_check_random(scale):
    for trial in range(10):
        rng = trial_rng(53, trial)
        c = commuting_normal_family(rng, 5, 2)
        d = commuting_normal_family(rng, 5, 2)
        unscaled = commuting.product_spectrum(kl.joint_spectrum(c), kl.joint_spectrum(d))
        rep = kl.spectrum_product_check(
            [scale * m for m in c.mats], [scale * m for m in d.mats]
        )
        assert rep.product.size == unscaled.size, f"trial {trial}"
        assert rep.hausdorff <= 1e-8 * scale**2, f"trial {trial}: {rep.hausdorff}"


def test_hausdorff_oracle():
    assert commuting.hausdorff_distance([0.0, 1.0], [0.5]) == pytest.approx(0.5)
    assert commuting.hausdorff_distance([1j], [1.0]) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        commuting.hausdorff_distance([], [1.0])


def test_intertwiner_space_oracles():
    # identity on both sides: every matrix intertwines
    eye = [np.eye(2, dtype=complex)]
    assert len(kl.intertwiner_space(eye, eye)) == 4
    # unimodular phases: a x = x b* forces x diagonal
    w = np.exp(2j * np.pi / 5)
    a = [np.diag([1.0, w])]
    b = [np.diag([1.0, np.conj(w)])]
    assert len(kl.intertwiner_space(a, b)) == 2


def test_intertwiner_space_warns_on_incomplete():
    half = [np.eye(2, dtype=complex) * 0.5]
    with pytest.warns(UserWarning):
        kl.intertwiner_space(half, [np.eye(2, dtype=complex)])


@pytest.mark.parametrize("scale, warns", [(1 + 2e-9, False), (1 + 1e-6, True)])
def test_intertwiner_space_warns_at_the_unital_tolerance(scale, warns):
    # row defect of (s a) is s^2 - 1: about 4e-9 stays under unital_tol(12) = 1.2e-8
    a, b = intertwining_pair(trial_rng(61, 0), 12, 3)
    scaled = [scale * x for x in a.mats]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kl.intertwiner_space(scaled, b)
    messages = [str(w.message) for w in caught]
    assert any("a is not row-complete" in m for m in messages) == warns
    assert not any("b is not column-complete" in m for m in messages)


def test_intertwiner_fixed_point_check_shared_pair():
    for trial in range(5):
        a, b = intertwining_pair(trial_rng(54, trial), 5, 3)
        rep = kl.intertwiner_fixed_point_check(a, b)
        assert rep.passed
        assert rep.fix_dim == 5 and rep.intertwiner_dim == 5
        assert rep.subspace_distance <= 1e-7


def test_intertwiner_fixed_point_check_fresh_pair():
    for trial in range(5):
        rng = trial_rng(55, trial)
        a = commuting_normal_family(rng, 5, 3)
        b = commuting_normal_family(rng, 5, 3)
        rep = kl.intertwiner_fixed_point_check(a, b)
        # independent generic families share no intertwiners
        assert rep.passed
        assert rep.fix_dim == 0 and rep.intertwiner_dim == 0


def test_positive_eigenvalue_check_oracle():
    rep = kl.positive_eigenvalue_check([np.diag([2.0, 0.0])], [np.diag([3.0, 1.0])])
    np.testing.assert_allclose(np.sort(rep.eigs.real), [0.0, 0.0, 2.0, 6.0], atol=1e-12)
    assert rep.min_real >= -1e-12
    assert rep.max_imag <= 1e-12


def test_positive_eigenvalue_check_random():
    for trial in range(10):
        rng = trial_rng(56, trial)
        c = random_psd_coefficients(rng, 4, 3)
        d = random_psd_coefficients(rng, 4, 3)
        rep = kl.positive_eigenvalue_check(c, d)
        assert rep.min_real >= -1e-9, f"trial {trial}"
        assert rep.max_imag <= 1e-9, f"trial {trial}"


def test_positive_eigenvalue_check_rejects_non_psd():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalue -1
    with pytest.raises(ValueError):
        kl.positive_eigenvalue_check([sx], [np.eye(2)])
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])  # not even Hermitian
    with pytest.raises(ValueError):
        kl.positive_eigenvalue_check([np.eye(2)], [nil])
