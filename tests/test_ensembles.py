"""Random ensembles: stream keying, exact normalizations, structural gates."""

import numpy as np
import pytest

from krauslab import ensembles, opcore
from krauslab.channel import unital_tol


def test_trial_rng_is_keyed_by_seed_and_trial():
    a = ensembles.trial_rng(42, 7).standard_normal(8)
    b = ensembles.trial_rng(42, 7).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = ensembles.trial_rng(42, 8).standard_normal(8)
    d = ensembles.trial_rng(43, 7).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # negative seeds wrap into the 64-bit key instead of failing
    ensembles.trial_rng(-1, 0).standard_normal(1)


def test_haar_unitary_is_unitary():
    rng = ensembles.trial_rng(1, 0)
    for d in (2, 5):
        u = ensembles.haar_unitary(rng, d)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)


def test_random_psd_and_density():
    rng = ensembles.trial_rng(1, 1)
    p = ensembles.random_psd(rng, 4)
    assert np.linalg.eigvalsh(p)[0] >= -1e-12
    assert opcore.op_norm(p) == pytest.approx(1.0, abs=1e-12)
    rho = ensembles.random_density(rng, 4)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_mixed_unitary_family_flags():
    for trial in range(10):
        rng = ensembles.trial_rng(2, trial)
        fam = ensembles.mixed_unitary_family(rng, 4, 3)
        assert fam.is_unital and fam.is_trace_preserving
        assert fam.unital_defect <= unital_tol(4)


def test_random_luders_family_flags():
    for trial in range(10):
        rng = ensembles.trial_rng(3, trial)
        fam = ensembles.random_luders_family(rng, 4, 3)
        assert fam.is_unital and fam.is_trace_preserving
        for a in fam.ops:
            np.testing.assert_allclose(a, a.conj().T, atol=1e-10)
            assert np.linalg.eigvalsh((a + a.conj().T) / 2)[0] >= -1e-10


def test_commuting_normal_family_gates():
    for trial in range(10):
        rng = ensembles.trial_rng(4, trial)
        fam = ensembles.commuting_normal_family(rng, 5, 3)
        assert fam.accepted
        col, row = opcore.completeness_defects(fam.mats)
        assert row <= 1e-9
        assert col <= 1e-9


def test_intertwining_pair_structure():
    rng = ensembles.trial_rng(5, 0)
    a, b = ensembles.intertwining_pair(rng, 5, 3)
    assert a.accepted and b.accepted
    assert opcore.completeness_defects(a.mats)[1] <= 1e-9
    assert opcore.completeness_defects(b.mats)[0] <= 1e-9
    # shared conjugated diagonals force a d-dimensional intertwiner space
    from krauslab.commuting import intertwiner_space

    assert len(intertwiner_space(a, b)) == 5


def test_random_psd_coefficients():
    rng = ensembles.trial_rng(6, 0)
    mats = ensembles.random_psd_coefficients(rng, 3, 4)
    assert len(mats) == 4
    for m in mats:
        assert np.linalg.eigvalsh((m + m.conj().T) / 2)[0] >= -1e-12
