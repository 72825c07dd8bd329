"""Commuting normal families, joint spectra, product maps, intertwiners."""

import json
import warnings

import numpy as np
import pytest

import krauslab as kl
from krauslab import cli, commuting, opcore
from krauslab.ensembles import (
    commuting_normal_family,
    ginibre,
    haar_unitary,
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


@pytest.mark.parametrize("t", [1e-300, 1e-150, 1e-100, 1.0, 1e100, 1e150, 1e300])
def test_acceptance_does_not_change_under_scaling(t):
    # the gates are decided on the generators divided by their scale, so
    # squares of rounding-level commutators neither overflow nor underflow
    normal = commuting_normal_family(trial_rng(61, 0), 12, 3)
    rng = trial_rng(61, 1)
    pair = [ginibre(rng, 4), ginibre(rng, 4)]
    assert normal.accepted and not kl.CommutingFamily(pair).accepted
    scaled = kl.CommutingFamily([t * c for c in normal.mats])
    assert scaled.accepted
    scaled.require_accepted()
    rejected = kl.CommutingFamily([t * c for c in pair])
    assert not rejected.accepted
    with pytest.raises(ValueError, match="gate"):
        rejected.require_accepted()


def test_an_all_zero_family_is_accepted():
    fam = kl.CommutingFamily([np.zeros((3, 3)), np.zeros((3, 3))])
    assert fam.scale == 0.0 and fam.accepted
    assert fam.normality_defect == fam.commutation_defect == fam.defect_gate == 0.0


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


@pytest.mark.parametrize("t", [1e-300, 1e-200, 1.0, 1e5])
def test_joint_and_product_spectra_scale_without_underflow(t):
    # distances and norms are taken without squaring entries, so tuples of
    # size 1e-300 keep their distinct points instead of merging into one
    # (rounding may swap the lexicographic order of points sharing a real
    # part, so the point sets are compared, not the sequences)
    base = commuting_normal_family(trial_rng(84, 0), 4, 2)
    points = np.array(kl.joint_spectrum(base).points)
    assert len(points) == 4
    scaled = np.array(kl.joint_spectrum(kl.CommutingFamily([t * c for c in base.mats])).points)
    assert scaled.shape == points.shape
    gaps = np.abs(scaled[:, None, :] / t - points[None, :, :]).max(axis=2)
    assert gaps.min(axis=0).max() <= 1e-14 and gaps.min(axis=1).max() <= 1e-14
    a, b = intertwining_pair(trial_rng(84, 1), 3, 2)
    sb = kl.joint_spectrum(b)
    product = commuting.product_spectrum(kl.joint_spectrum(a), sb)
    assert len(product) == 7
    scaled = commuting.product_spectrum(kl.joint_spectrum(kl.CommutingFamily([t * c for c in a.mats])), sb)
    assert scaled.shape == product.shape
    assert commuting.hausdorff_distance(scaled / t, product) <= 1e-14


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
    direct = opcore.linear_map_matrix(lambda m: opcore.product_map(c, d, m), 3, 4)
    np.testing.assert_allclose(s, direct, atol=1e-12)
    with pytest.raises(ValueError):
        opcore.product_map(c, d[:1], np.zeros((3, 4)))
    with pytest.raises(ValueError):
        opcore.product_map(c, d, np.zeros((4, 3)))


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


def _refuse_eigvals(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refused)


def test_spectrum_product_check_takes_no_general_eigensolver(monkeypatch, capsys):
    _refuse_eigvals(monkeypatch)
    a, b = intertwining_pair(trial_rng(60, 0), 4, 2)
    assert kl.spectrum_product_check(a, b).hausdorff <= 1e-12
    assert cli.main(["commuting", "--dim", "4", "--trials", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["failures"] == 0


def _seeded_normal_thetas():
    """theta of seeded commuting and intertwining pairs at d <= 8."""
    for trial in range(12):
        rng = trial_rng(61, trial)
        dim, ops = (3, 5, 8)[trial % 3], 1 + trial % 3
        if trial % 2 == 0:
            a, b = intertwining_pair(rng, dim, ops)
        else:
            a, b = commuting_normal_family(rng, dim, ops), commuting_normal_family(rng, dim, ops)
        yield trial % 2 == 0, dim, kl.theta_superoperator(a, b)


def test_normal_eigvals_match_the_general_eigensolver():
    for intertwining, dim, theta in _seeded_normal_thetas():
        eigs = commuting._normal_eigvals(theta)
        want = np.linalg.eigvals(theta)
        norm = np.linalg.norm(theta, 2)
        assert eigs.shape == want.shape
        assert commuting.hausdorff_distance(eigs, want) <= 1e-12 * norm
        # multiplicities agree: as many values of each set near every eigenvalue
        radius = 1e-8 * norm
        for z in want:
            assert (np.abs(eigs - z) <= radius).sum() == (np.abs(want - z) <= radius).sum()
        if intertwining:
            # the joint tuples are unit vectors: eigenvalue 1 of multiplicity dim
            assert (np.abs(eigs - 1.0) <= radius).sum() == dim


def test_normal_eigvals_separate_eigenvalues_sharing_a_real_part():
    # i and -i share the real part 0, so H = 0 and the combined probe is a
    # multiple of K, which splits the four eigenvalues into i and -i at once
    rep = kl.spectrum_product_check([np.diag([1j, -1j])], [np.eye(2)])
    np.testing.assert_allclose(rep.eigs, [-1j, -1j, 1j, 1j], atol=1e-14)
    assert rep.hausdorff <= 1e-14
    # 1 + i and 1 - i share a real part, 1 + i and -1 + i an imaginary part
    u = haar_unitary(trial_rng(62, 0), 3)
    c = [u @ np.diag([1 + 1j, 1 - 1j, -1 + 1j]) @ u.conj().T]
    rep = kl.spectrum_product_check(c, [np.eye(2)])
    np.testing.assert_allclose(rep.eigs, [-1 + 1j, -1 + 1j, 1 - 1j, 1 - 1j, 1 + 1j, 1 + 1j], atol=1e-13)
    np.testing.assert_allclose(rep.product, [-1 + 1j, 1 - 1j, 1 + 1j], atol=1e-13)
    assert rep.hausdorff <= 1e-13


def _recorded_refinements(monkeypatch):
    """Cluster sizes going into and out of every ``commuting._refine`` call."""
    calls, refine = [], commuting._refine

    def recording(basis, clusters, c, part, scale):
        out = refine(basis, clusters, c, part, scale)
        calls.append((basis.shape[0], part.__name__, [b.size for b in clusters], [b.size for b in out]))
        return out

    monkeypatch.setattr(commuting, "_refine", recording)
    return calls


@pytest.mark.parametrize("scale", [1e-100, 1e-5, 1e5, 1e100])
def test_normal_eigvals_cluster_the_same_under_scaling(monkeypatch, scale):
    calls = _recorded_refinements(monkeypatch)
    pairs = [
        ([np.diag([1j, -1j])], [np.eye(2)]),
        intertwining_pair(trial_rng(63, 0), 5, 2),
        (commuting_normal_family(trial_rng(63, 1), 4, 2), commuting_normal_family(trial_rng(63, 2), 4, 2)),
    ]
    for c, d in pairs:
        c, d = commuting._family_pair(c, d, "cd")
        base = kl.spectrum_product_check(c, d)
        unscaled = list(calls)
        calls.clear()
        rep = kl.spectrum_product_check([scale * m for m in c], [scale * m for m in d])
        assert calls == unscaled
        calls.clear()
        assert commuting.hausdorff_distance(rep.eigs, scale**2 * base.eigs) <= 1e-12 * scale**2
        # the joint eigenbases refine the same clusters too
        for fam in (c, d):
            kl.simultaneous_diagonalize(fam)
            unscaled = list(calls)
            calls.clear()
            kl.simultaneous_diagonalize([scale * m for m in fam])
            assert calls == unscaled
            calls.clear()
    # theta of the first two pairs holds a cluster (i and -i twice each, and
    # eigenvalue 1 five times), refined at every scale; only clusters of at
    # least two columns go into a refinement
    for c, d in pairs[:2]:
        c, d = commuting._family_pair(c, d, "cd")
        kl.spectrum_product_check([scale * m for m in c], [scale * m for m in d])
        assert any(rows == c[0].shape[0] * d[0].shape[0] for rows, *_ in calls)
        assert all(size >= 2 for _, _, into, _ in calls for size in into)
        calls.clear()


def test_theta_of_an_intertwining_pair_takes_at_most_three_eigh(monkeypatch):
    # the combined probe separates theta's conjugate eigenvalue pairs, so only
    # eigenvalue 1 of multiplicity d is refined, by H and then by K
    a, b = intertwining_pair(trial_rng(65, 0), 12, 3)
    shapes, eigh = [], np.linalg.eigh
    diagonalized, eigenbasis = [], commuting._eigenbasis

    def recording(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return eigh(x, *args, **kwargs)

    def counting(mats, scale):
        diagonalized.append([np.shape(m) for m in mats])
        return eigenbasis(mats, scale)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    monkeypatch.setattr(commuting, "_eigenbasis", counting)
    kl.joint_spectrum(a)
    kl.joint_spectrum(b)
    spectra, families = len(shapes), len(diagonalized)
    assert kl.spectrum_product_check(a, b).hausdorff <= 1e-12
    theta = shapes[spectra:]
    assert theta[0] == (144, 144) and len(theta) <= 3
    # the spectrum check reads both families' stored eigenbases: no
    # family-sized diagonalization runs, only theta's
    assert families == 2 and diagonalized[families:] == [[(144, 144)]]


def test_normal_eigvals_gate_a_non_normal_input():
    # squared entries overflow at 1e200 and underflow at 1e-200, where a
    # plain np.linalg.norm would make the gate 1e-8 * inf or 0 <= 0
    for scale in (1e-200, 1.0, 1e200):
        for jordan in (np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(3, k=1)):
            with pytest.raises(ValueError, match="residual"):
                commuting._normal_eigvals(scale * jordan.astype(complex))


@pytest.mark.parametrize("scale", [5e-324, 1e-300, 1e-200, 1e-150, 1.0, 1e150, 1e200, 1e300])
def test_frobenius_norm_at_any_size(scale):
    m = ginibre(trial_rng(66, 0), 6)
    m /= np.abs(m).max()
    want = np.hypot.reduce(np.abs(scale * m), axis=None)
    assert opcore.frobenius(scale * m) == pytest.approx(want, rel=1e-13 if scale > 1e-300 else 1e-2)
    assert opcore.frobenius(np.zeros((3, 3))) == 0.0
    # a norm above the float range reads inf, without a warning
    assert opcore.frobenius(np.full((4, 4), 1.5e308)) == np.inf


def test_spectrum_product_check_gates_families_before_theta(monkeypatch):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    good = commuting_normal_family(trial_rng(64, 0), 2, 2)
    shapes, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    for c, d in ((good, [sx, sz]), ([sx, sz], good)):
        with pytest.raises(ValueError, match="commuting-normal gates"):
            kl.spectrum_product_check(c, d)
    assert shapes == []


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


def _real_diagonal_pair():
    # a_j real diagonal with sum a_j^2 = 1: theta - I is real and diagonal,
    # and E_ik is fixed iff the joint tuples at i and k agree (5 of 9 here)
    t = np.array([0.3, 1.1, 0.3])
    a = [np.diag(np.cos(t)), np.diag(np.sin(t))]
    return a, a


def _seeded_fix_pairs():
    """Seeded intertwining and independent pairs at d = 2..8, m = 1..3, with
    the dimension of Fix(theta) each must have."""
    for trial, (dim, ops) in enumerate((d, m) for d in range(2, 9) for m in (1, 2, 3)):
        rng = trial_rng(66, trial)
        yield intertwining_pair(rng, dim, ops), dim
        yield (commuting_normal_family(rng, dim, ops), commuting_normal_family(rng, dim, ops)), 0
    yield _real_diagonal_pair(), 5


def test_theta_fixed_space_spans_the_kernel_of_theta_minus_identity():
    for (a, b), dim in _seeded_fix_pairs():
        theta = kl.theta_superoperator(a, b)
        got, eigs = commuting._theta_fixed_space(theta, 1e-7)
        want = opcore.factorize(opcore.minus_identity(theta.copy())).kernel(1e-7)
        assert got.shape == want.shape == (theta.shape[0], dim)
        np.testing.assert_allclose(got.conj().T @ got, np.eye(dim), atol=1e-13)
        assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T, 2) <= 1e-13
        assert np.array_equal(eigs, commuting._normal_eigvals(theta))
    rep = kl.intertwiner_fixed_point_check(*_real_diagonal_pair())
    assert rep.passed and rep.fix_dim == rep.intertwiner_dim == 5


def test_both_checks_of_one_pair_build_and_diagonalize_theta_once(monkeypatch):
    a, b = intertwining_pair(trial_rng(67, 0), 5, 3)
    uncached = kl.spectrum_product_check(a.mats, b.mats)
    built, shapes = [], []
    theta_superoperator, eigh = commuting.theta_superoperator, np.linalg.eigh

    def building(c, d):
        built.append((c, d))
        return theta_superoperator(c, d)

    def recording(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return eigh(x, *args, **kwargs)

    def refused(m):
        raise AssertionError("opcore.minus_identity called")

    monkeypatch.setattr(commuting, "theta_superoperator", building)
    monkeypatch.setattr(np.linalg, "eigh", recording)
    monkeypatch.setattr(opcore, "minus_identity", refused)
    assert kl.intertwiner_fixed_point_check(a, b).passed
    rep = kl.spectrum_product_check(a, b)
    assert len(built) == 1 and shapes.count((25, 25)) == 1
    # the cached diagonal is bitwise the one a fresh diagonalization reads
    assert np.array_equal(rep.eigs, uncached.eigs) and rep.hausdorff == uncached.hausdorff


def test_intertwiner_fixed_point_check_gates_families_before_theta(monkeypatch):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    good = commuting_normal_family(trial_rng(64, 0), 2, 2)
    single = commuting_normal_family(trial_rng(64, 1), 2, 1)

    def refused(*args):
        raise AssertionError("theta built")

    monkeypatch.setattr(commuting, "theta_superoperator", refused)
    for c, d in ((good, [sx, sz]), ([sx, sz], good), (single, [jordan]), ([jordan], single)):
        with pytest.raises(ValueError, match="commuting-normal gates"):
            kl.intertwiner_fixed_point_check(c, d)


def _repeated_tuple_pair():
    """Families at d = 6 whose joint tuples repeat: a's tuples t1, t2 and b's
    conjugated tuples t1, t2 come with multiplicities (2, 3) and (2, 2), so
    the intertwiners have dimension 2 * 2 + 3 * 2 = 10."""
    rng = trial_rng(69, 100)
    t = ginibre(rng, 4, 2)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    u, v = haar_unitary(rng, 6), haar_unitary(rng, 6)
    left, right = t[[0, 0, 1, 1, 1, 2]], t[[0, 1, 1, 3, 3, 0]].conj()
    a = kl.CommutingFamily([u @ np.diag(left[:, j]) @ u.conj().T for j in range(2)])
    b = kl.CommutingFamily([v @ np.diag(right[:, j]) @ v.conj().T for j in range(2)])
    return a, b


def _gated_pairs():
    """Seeded intertwining and independent pairs at d = 2, 6, 12 with 1-3
    generators, a pair with repeated joint tuples, and the real diagonal pair."""
    for trial, (dim, ops) in enumerate((d, m) for d in (2, 6, 12) for m in (1, 2, 3)):
        rng = trial_rng(69, trial)
        yield intertwining_pair(rng, dim, ops)
        yield commuting_normal_family(rng, dim, ops), commuting_normal_family(rng, dim, ops)
    yield _repeated_tuple_pair()
    yield tuple(kl.CommutingFamily(f) for f in _real_diagonal_pair())


@pytest.mark.parametrize("tol", [1e-7, 1e-12])
def test_joint_intertwiners_match_the_sylvester_null_space(tol):
    # the closest case is the d = 12, m = 1 intertwining pair, whose joint
    # eigenvalues come within 7e-3 of each other: the two bases lie 8e-14
    # apart there, and of the two the eigenbasis one is closer to the exact
    # u_i v_i* of the construction (2.4e-14 against 6.4e-14)
    dims = []
    for a, b in _gated_pairs():
        got = commuting._joint_intertwiners(a, b, tol)
        want = kl.intertwiner_space(a, b, tol)
        assert len(got) == len(want)
        assert kl.subspace_distance(got, want) <= 1e-13
        dims.append(len(got))
    assert dims[-2:] == [10, 5] and max(dims[:-2]) == 12


def test_intertwiner_fixed_point_check_builds_no_sylvester_stack(monkeypatch):
    rng = trial_rng(70, 0)
    pairs = [
        intertwining_pair(rng, 12, 3),
        (commuting_normal_family(rng, 12, 3), commuting_normal_family(rng, 12, 3)),
        _repeated_tuple_pair(),
    ]
    qr = np.linalg.qr

    def no_r_factor(x, mode="reduced"):
        assert mode != "r", "a Sylvester stack was reduced to its R factor"
        return qr(x, mode)

    def refused(*args, **kwargs):
        raise AssertionError("a Sylvester stack was solved")

    monkeypatch.setattr(opcore, "sylvester_null_space", refused)
    monkeypatch.setattr(np.linalg, "qr", no_r_factor)
    monkeypatch.setattr(np.linalg, "svd", refused)
    for (a, b), dim in zip(pairs, (12, 0, 10)):
        rep = kl.intertwiner_fixed_point_check(a, b)
        assert rep.passed and rep.fix_dim == rep.intertwiner_dim == dim
    # the refusals are live: the general solver runs into them
    with pytest.raises(AssertionError, match="Sylvester"):
        kl.intertwiner_space(*pairs[0])


def test_each_family_is_diagonalized_once_across_both_checks(monkeypatch):
    a, b = intertwining_pair(trial_rng(71, 0), 6, 2)
    fresh = kl.simultaneous_diagonalize(kl.CommutingFamily(a.mats))
    calls, eigenbasis = [], commuting._eigenbasis

    def recording(mats, scale):
        calls.append(mats)
        return eigenbasis(mats, scale)

    monkeypatch.setattr(commuting, "_eigenbasis", recording)
    assert kl.intertwiner_fixed_point_check(a, b).passed
    assert kl.spectrum_product_check(a, b).hausdorff <= 1e-12
    stored = kl.simultaneous_diagonalize(a)
    kl.joint_spectrum(b)
    assert [m is a.mats for m in calls].count(True) == 1
    assert [m is b.mats for m in calls].count(True) == 1
    assert len(calls) == 3 and [m[0].shape for m in calls].count((36, 36)) == 1
    # the stored eigenbasis is bitwise a fresh family's, and read-only
    assert np.array_equal(stored.unitary, fresh.unitary)
    assert all(np.array_equal(x, y) for x, y in zip(stored.diags, fresh.diags))
    assert not stored.unitary.flags.writeable


def test_a_gated_incomplete_pair_still_warns():
    a, b = intertwining_pair(trial_rng(72, 0), 4, 2)
    half = [kl.CommutingFamily([0.5 * m for m in f.mats]) for f in (a, b)]
    assert all(f.accepted for f in half)
    with pytest.warns(UserWarning) as caught:
        kl.intertwiner_fixed_point_check(*half)
    messages = [str(w.message) for w in caught]
    assert any("a is not row-complete" in m for m in messages)
    assert any("b is not column-complete" in m for m in messages)
    # the warnings point at the caller of the check
    assert all(w.filename == __file__ for w in caught)


@pytest.mark.parametrize("seed", [1, 3])
def test_commuting_sweep_fixed_spaces_stay_at_rounding(capsys, seed):
    # Fix(theta) read from the probe's eigenvectors without the first-order
    # correction drifted to about 3e-13 on these sweeps
    argv = ["commuting", "--dim", "12", "--ops", "3", "--trials", "20", "--seed", str(seed)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"]["worst_subspace_distance"] <= 2e-14


def test_commuting_sweep_solves_only_what_each_trial_reads(monkeypatch):
    # the benchmark's sweep: per trial one eigh and one eigvalsh of the
    # 144 x 144 theta, refinements only where theta holds a cluster, and of
    # the 12 x 12 eigvalsh only the two completeness defects that are read
    # and one PSD gate per coefficient
    trials, events = [], []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    refine, check = commuting._refine, commuting.intertwiner_fixed_point_check
    inside = [False]

    def recording(kind, solve):
        def wrapped(a, *args, **kwargs):
            events.append((kind, np.shape(a), inside[0]))
            return solve(a, *args, **kwargs)

        return wrapped

    def refining(basis, *args):
        inside[0] = basis.shape
        try:
            return refine(basis, *args)
        finally:
            inside[0] = False

    def trial(*args, **kwargs):
        trials.append(len(events))
        return check(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording("eigh", eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording("eigvalsh", eigvalsh))
    monkeypatch.setattr(commuting, "_refine", refining)
    monkeypatch.setattr(commuting, "intertwiner_fixed_point_check", trial)
    rep = cli.run(cli.RunConfig(command="commuting", dim=12, ops=3, trials=20, seed=0))
    assert rep.results["failures"] == 0 and len(trials) == 20
    for t, (start, stop) in enumerate(zip(trials, trials[1:] + [len(events)])):
        row, seen = rep.csv_rows[t], events[start:stop]
        assert row[-1] == 1 and row[1] == row[2] == (12 if t % 2 == 0 else 0)
        assert seen.count(("eigh", (144, 144), False)) == 1
        assert seen.count(("eigvalsh", (144, 144), False)) == 1
        assert seen.count(("eigvalsh", (12, 12), False)) == 2 + 2 * 3
        # only theta's basis is refined, never a family's, and only by eigh
        assert {(kind, inside) for kind, _, inside in seen if inside} <= {("eigh", (144, 144))}
        refined = [shape for _, shape, inside in seen if inside]
        # eigenvalue 1 of multiplicity 12 is a cluster of every even theta,
        # refined by both parts of its one generator; any other cluster is a
        # few eigenvalues that share a probe value
        assert refined.count((12, 12)) == (2 if t % 2 == 0 else 0)
        assert all(shape[0] < 12 for shape in refined if shape != (12, 12))


def _merge_loop(rows, radius):
    """The row-by-row reference: each sorted row against the rows kept so far."""
    ordered = rows[commuting._lex_order(rows)]
    keep = np.zeros(len(ordered), dtype=bool)
    for i, row in enumerate(ordered):
        keep[i] = not (commuting._row_norms(ordered[keep] - row) <= radius).any()
    return ordered[keep]


def _merge_cases():
    rng = np.random.default_rng(68)
    for m in (1, 2, 3):
        # clusters of near-duplicates and chains of rows 0.6 radius apart,
        # where a dropped row's neighbour must still be kept
        centers = ginibre(rng, 6, m)
        near = np.repeat(centers, 5, axis=0) + 1e-9 * ginibre(rng, 30, m)
        chain = centers[0] + 0.6e-8 * np.arange(8)[:, None] * np.exp(1j * rng.uniform(0, 6.3, m))
        rows = np.vstack([near, chain, ginibre(rng, 20, m)])
        yield rows, 1e-8
        for scale in (1e300, 1e-300):
            yield scale * rows, scale * 1e-8
    # rows exactly the radius apart: (3s, 4s) is 5s away in hypot, exactly
    yield np.arange(10)[:, None] * 0.25 + 0j, 0.25
    s = 2.0**-4
    yield np.array([[0, 0], [3 * s, 4 * s], [6 * s, 8 * s], [3 * s, 4j * s]]), 5 * s


def test_merge_is_bitwise_the_row_by_row_loop():
    for rows, radius in _merge_cases():
        got, want = commuting._merge(rows, radius), _merge_loop(rows, radius)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert 0 < len(got) < len(rows)


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


def _hermitian(m):
    return (m + m.conj().T) / 2.0


def _count_eigvalsh(monkeypatch, n):
    """Calls of ``np.linalg.eigvalsh`` on n x n matrices, in a one-item list."""
    calls, eigvalsh = [0], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls[0] += np.shape(a) == (n, n)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_positive_eigenvalue_check_reads_exact_hermitian_theta(monkeypatch):
    rng = trial_rng(57, 0)
    c = [_hermitian(p) for p in random_psd_coefficients(rng, 4, 3)]
    d = [_hermitian(p) for p in random_psd_coefficients(rng, 4, 3)]
    calls = _count_eigvalsh(monkeypatch, 16)
    rep = kl.positive_eigenvalue_check(c, d)
    theta = kl.theta_superoperator(c, d)
    # theta - theta* is exactly zero: only the Hermitian part is solved
    assert calls == [1]
    assert rep.max_imag == 0.0
    want = np.sort(np.linalg.eigvals(theta).real)
    np.testing.assert_allclose(rep.eigs, want, rtol=0, atol=1e-12 * np.linalg.norm(theta, 2))
    assert rep.min_real == rep.eigs[0]


def test_positive_eigenvalue_check_bounds_a_nearly_hermitian_theta(monkeypatch):
    # coefficients pass require_psd yet are not Hermitian: theta is not
    # either, both parts are solved, and the Bendixson bounds enclose its
    # eigenvalues
    calls = _count_eigvalsh(monkeypatch, 16)
    for trial in range(5):
        rng = trial_rng(58, trial)
        c = [p + 2e-11 * ginibre(rng, 4) for p in random_psd_coefficients(rng, 4, 3)]
        d = [p + 2e-11 * ginibre(rng, 4) for p in random_psd_coefficients(rng, 4, 3)]
        rep = kl.positive_eigenvalue_check(c, d)
        assert calls == [2 * (trial + 1)]
        eigs = np.linalg.eigvals(kl.theta_superoperator(c, d))
        assert rep.min_real <= eigs.real.min() + 1e-12
        assert rep.max_imag >= np.abs(eigs.imag).max() - 1e-12
        assert 0.0 < rep.max_imag <= 1e-9


def test_positive_eigenvalue_check_takes_no_general_eigensolver(monkeypatch):
    _refuse_eigvals(monkeypatch)
    rng = trial_rng(59, 0)
    rep = kl.positive_eigenvalue_check(random_psd_coefficients(rng, 3, 2), random_psd_coefficients(rng, 3, 2))
    assert rep.eigs.shape == (9,) and rep.min_real >= -1e-12


def test_positive_eigenvalue_check_rejects_non_psd():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalue -1
    with pytest.raises(ValueError):
        kl.positive_eigenvalue_check([sx], [np.eye(2)])
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])  # not even Hermitian
    with pytest.raises(ValueError):
        kl.positive_eigenvalue_check([np.eye(2)], [nil])
