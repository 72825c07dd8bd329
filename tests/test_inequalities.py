"""Commutator and square-difference inequalities: oracles, equality cases, fuzz."""

import math

import numpy as np
import pytest

import krauslab as kl
from krauslab import inequalities, opcore
from krauslab.ensembles import (
    ginibre,
    haar_unitary,
    mixed_unitary_family,
    random_luders_family,
    random_psd,
    trial_rng,
)


def test_gamma_value():
    assert kl.GAMMA == pytest.approx(8.0 * math.sqrt(3.0) / 9.0, rel=1e-15)
    assert kl.GAMMA == pytest.approx(1.5396007178390019, abs=1e-15)


def test_gamma_curve_minimum():
    # the curve (beta^2 + t^2)^2 / (2 t^3) bottoms out at t = sqrt(3) beta
    for beta in (0.5, 1.0, 2.0):
        t_star = math.sqrt(3.0) * beta
        assert kl.gamma_curve(beta, t_star) == pytest.approx(kl.GAMMA * beta, rel=1e-12)
        ts = np.linspace(0.1 * beta, 10.0 * beta, 400)
        curve = kl.gamma_curve(beta, ts)
        assert curve.shape == ts.shape
        assert np.all(curve >= kl.GAMMA * beta - 1e-12)
    with pytest.raises(ValueError):
        kl.gamma_curve(-1.0, 1.0)
    with pytest.raises(ValueError):
        kl.gamma_curve(1.0, 0.0)


def test_report_slack_and_counterexample_flag():
    ok = inequalities.InequalityReport(lhs=1.0, rhs=2.0, inputs_digest="x")
    assert ok.slack == 1.0 and not ok.is_counterexample
    tiny = inequalities.InequalityReport(lhs=1.0 + 1e-12, rhs=1.0, inputs_digest="x")
    assert not tiny.is_counterexample  # within the rounding allowance
    bad = inequalities.InequalityReport(lhs=1.1, rhs=1.0, inputs_digest="x")
    assert bad.is_counterexample


def test_digest_inputs_is_stable_and_sensitive():
    x = np.arange(6.0).reshape(2, 3)
    assert inequalities.digest_inputs(x) == inequalities.digest_inputs(x.copy())
    assert inequalities.digest_inputs(x) != inequalities.digest_inputs(x + 1e-14)
    assert inequalities.digest_inputs(x) != inequalities.digest_inputs(x.T)
    assert len(inequalities.digest_inputs(x)) == 16


def test_defect_bounds_requires_unital_trace_preserving():
    nil = kl.KrausFamily([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError):
        kl.defect_bounds(nil, np.eye(2))


def test_defect_bounds_single_unitary_equality():
    # one unitary: ||psi(x) - x|| = ||u* x u - x|| = ||x u - u x||, so the
    # second bound is an exact equality
    rng = trial_rng(31, 0)
    u = haar_unitary(rng, 4)
    fam = kl.KrausFamily([u])
    x = ginibre(rng, 4)
    first, second = kl.defect_bounds(fam, x)
    assert second.lhs == pytest.approx(second.rhs, rel=1e-12)
    assert not first.is_counterexample
    assert first.inputs_digest == second.inputs_digest


def test_defect_bounds_fixed_point_gives_zero_lhs():
    fam = kl.KrausFamily([np.diag([1.0, 0.0]).astype(complex),
                          np.diag([0.0, 1.0]).astype(complex)])
    x = np.diag([2.0, -1.0]).astype(complex)
    first, second = kl.defect_bounds(fam, x)
    assert first.lhs == pytest.approx(0.0, abs=1e-14)
    assert second.lhs == pytest.approx(0.0, abs=1e-14)


def test_defect_bounds_fuzz():
    for trial in range(100):
        rng = trial_rng(32, trial)
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        if trial % 2 == 0:
            fam = mixed_unitary_family(rng, d, m)
        else:
            fam = random_luders_family(rng, d, m)
        x = ginibre(rng, d) * float(rng.uniform(0.1, 4.0))
        first, second = kl.defect_bounds(fam, x)
        assert not first.is_counterexample, f"trial {trial}: {first}"
        assert not second.is_counterexample, f"trial {trial}: {second}"


def test_powers_stormer_commuting_oracle():
    # diagonal case: lhs = (2-1)^2 = 1, rhs = |4-1| = 3
    rep = kl.powers_stormer(np.diag([2.0, 0.0]), np.diag([1.0, 0.0]))
    assert rep.lhs == pytest.approx(1.0, abs=1e-14)
    assert rep.rhs == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(ValueError):
        kl.powers_stormer(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError):
        kl.powers_stormer(np.eye(2), np.eye(3))


def test_powers_stormer_fuzz():
    for trial in range(100):
        rng = trial_rng(33, trial)
        d = int(rng.integers(1, 8))
        x = random_psd(rng, d) * float(rng.uniform(0.1, 5.0))
        y = random_psd(rng, d) * float(rng.uniform(0.1, 5.0))
        rep = kl.powers_stormer(x, y)
        assert not rep.is_counterexample, f"trial {trial}: {rep}"


def test_generalized_powers_stormer_fuzz():
    for trial in range(100):
        rng = trial_rng(34, trial)
        p = int(rng.integers(1, 7))
        q = int(rng.integers(1, 7))
        b = ginibre(rng, p, q) * float(rng.uniform(0.1, 3.0))
        x = random_psd(rng, p) * float(rng.uniform(0.1, 5.0))
        y = random_psd(rng, q) * float(rng.uniform(0.1, 5.0))
        rep = kl.generalized_powers_stormer(b, x, y)
        assert not rep.is_counterexample, f"trial {trial}: {rep}"


def test_generalized_powers_stormer_scaling_in_b():
    # both sides are quadratic in b, so the ratio is scale-invariant
    rng = trial_rng(35, 0)
    b = ginibre(rng, 3, 4)
    x = random_psd(rng, 3)
    y = random_psd(rng, 4)
    base = kl.generalized_powers_stormer(b, x, y)
    scaled = kl.generalized_powers_stormer(5.0 * b, x, y)
    assert scaled.lhs == pytest.approx(25.0 * base.lhs, rel=1e-10)
    assert scaled.rhs == pytest.approx(25.0 * base.rhs, rel=1e-10)


def test_generalized_shape_validation():
    rng = trial_rng(35, 1)
    with pytest.raises(ValueError):
        kl.generalized_powers_stormer(ginibre(rng, 2, 2), random_psd(rng, 3), random_psd(rng, 2))


def test_hermitian_embedding_doubles_both_sides():
    rng = trial_rng(36, 0)
    for trial in range(10):
        r = trial_rng(36, trial + 1)
        p = int(r.integers(1, 5))
        q = int(r.integers(1, 5))
        b = ginibre(r, p, q)
        x = random_psd(r, p) * float(r.uniform(0.5, 2.0))
        y = random_psd(r, q) * float(r.uniform(0.5, 2.0))
        big_b = np.block([[np.zeros((p, p)), b], [b.conj().T, np.zeros((q, q))]])
        big_x = np.block([[x, np.zeros((p, q))], [np.zeros((q, p)), y]])
        assert big_b.shape == (p + q, p + q)
        np.testing.assert_allclose(big_b, big_b.conj().T, atol=1e-14)
        small = kl.generalized_powers_stormer(b, x, y)
        big = kl.generalized_powers_stormer(big_b, big_x, big_x)
        assert big.lhs == pytest.approx(2.0 * small.lhs, rel=1e-10, abs=1e-12)
        assert big.rhs == pytest.approx(2.0 * small.rhs, rel=1e-10, abs=1e-12)


def test_square_root_difference_bound():
    # the certified-bound workhorse: ||b p^(1/2) - p^(1/2) b||^2
    # <= GAMMA ||b p - p b||_1 ||b||_op, read off the rectangular bound
    # at x = y = sqrt(p)
    for trial in range(50):
        rng = trial_rng(37, trial)
        d = int(rng.integers(2, 6))
        p = random_psd(rng, d)
        root = opcore.psd_sqrt(p)
        b = ginibre(rng, d)
        lhs = np.linalg.norm(b @ root - root @ b) ** 2
        rhs = kl.GAMMA * opcore.trace_norm(b @ p - p @ b) * opcore.op_norm(b)
        assert lhs <= rhs + 1e-9 * (1.0 + rhs), f"trial {trial}"
