"""Approximate traces and the near-fixed elements recovered from them."""

import warnings

import numpy as np
import pytest

import krauslab as kl
from krauslab import tracelab
from krauslab.ensembles import (
    mixed_unitary_family,
    random_density,
    random_luders_family,
    trial_rng,
)

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)


def pinching():
    return kl.KrausFamily([E11, E22])


def test_density_validation():
    with pytest.raises(ValueError):
        tracelab.trace_defect(np.diag([0.9, 0.3]), [np.eye(2)])  # trace 1.2
    with pytest.raises(ValueError):
        tracelab.trace_defect(np.diag([1.5, -0.5]), [np.eye(2)])  # not PSD
    with pytest.raises(ValueError):
        tracelab.trace_defect(np.diag([0.5, 0.5]), [])


def test_trace_defect_oracles():
    # maximally mixed state commutes with everything
    assert tracelab.trace_defect(np.eye(3) / 3.0, [np.ones((3, 3))]) <= 1e-14
    # |+><+| against both pinching projections: each commutator has trace norm 1
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert tracelab.trace_defect(plus, [E11, E22]) == pytest.approx(2.0, abs=1e-12)


def test_approx_trace_normalization():
    fam = pinching()
    rho = np.diag([0.75, 0.25]).astype(complex)
    tr = tracelab.approx_trace(fam, rho)
    assert tr.defect <= 1e-14
    # unital family: sum_j tr(rho a_j* a_j) = tr(rho) = 1
    assert tr.normalization == pytest.approx(1.0, abs=1e-12)
    # non-unital family {e12}: sum a*a = e22, so the weight is rho_22
    nil = kl.KrausFamily([np.array([[0.0, 1.0], [0.0, 0.0]])])
    tr2 = tracelab.approx_trace(nil, np.diag([0.75, 0.25]).astype(complex))
    assert tr2.normalization == pytest.approx(0.25, abs=1e-12)


def test_extract_trace_pinching():
    tr = tracelab.extract_trace(pinching())
    np.testing.assert_allclose(tr.density, np.eye(2) / 2.0, atol=1e-10)
    assert tr.defect <= 1e-10
    assert tr.normalization == pytest.approx(1.0, abs=1e-10)


def test_extract_trace_mixed_unitary():
    for trial in range(5):
        fam = mixed_unitary_family(trial_rng(41, trial), 4, 3)
        tr = tracelab.extract_trace(fam)
        np.testing.assert_allclose(tr.density, np.eye(4) / 4.0, atol=1e-8)
        assert tr.defect <= 1e-7


def test_extract_trace_fallback_branch():
    # scaled identity: non-unital, empty fixed space, so the least singular
    # vector of S - I supplies the candidate; any unit-trace diagonal works
    fam = kl.KrausFamily([0.9 * np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tr = tracelab.extract_trace(fam)
    assert np.trace(tr.density).real == pytest.approx(1.0, abs=1e-10)
    assert tr.defect <= 1e-12
    assert tr.normalization == pytest.approx(0.81, abs=1e-12)


def test_near_fixed_commuting_oracle():
    fam = pinching()
    rho = np.diag([0.75, 0.25]).astype(complex)
    rep = tracelab.near_fixed_from_trace(fam, tracelab.approx_trace(fam, rho))
    np.testing.assert_allclose(rep.x, np.diag(np.sqrt([0.75, 0.25])), atol=1e-12)
    assert rep.commutator_hs <= 1e-12
    assert rep.fixed_defect <= 1e-12
    assert rep.certified_bound <= 1e-6


def test_near_fixed_accepts_raw_density():
    fam = pinching()
    rep = tracelab.near_fixed_from_trace(fam, np.eye(2) / 2.0)
    assert rep.fixed_defect <= 1e-12


def test_near_fixed_warns_without_trace_preservation():
    # nilpotent shift plus its unital completion: unital but not trace-preserving
    a1 = np.zeros((3, 3), dtype=complex)
    a1[0, 1] = 0.6
    a2 = np.diag([1.0, 0.8, 1.0]).astype(complex)
    fam = kl.KrausFamily([a1, a2])
    assert fam.is_unital and not fam.is_trace_preserving
    with pytest.warns(UserWarning):
        tracelab.near_fixed_from_trace(fam, np.eye(3) / 3.0)


def test_certified_bound_dominates_commutator():
    # sqrt-lifting: commutator_hs^2 = sum ||[a_j, sqrt(rho)]||^2 is bounded by
    # sum GAMMA ||[a_j, rho]||_1 ||a_j||, generator by generator
    for trial in range(100):
        rng = trial_rng(42, trial)
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        if trial % 2 == 0:
            fam = mixed_unitary_family(rng, d, m)
        else:
            fam = random_luders_family(rng, d, m)
        rho = random_density(rng, d)
        rep = tracelab.near_fixed_from_trace(fam, tracelab.approx_trace(fam, rho))
        bound = rep.certified_bound
        assert rep.commutator_hs <= bound + 1e-9 * (1.0 + bound), f"trial {trial}"
        # unital trace-preserving: defect is in turn bounded by the commutators
        assert rep.fixed_defect <= rep.commutator_hs + 1e-9, f"trial {trial}"
