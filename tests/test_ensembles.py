"""Random ensembles: stream keying, exact normalizations, structural gates."""

import numpy as np
import pytest

from krauslab import cli, ensembles, inequalities, opcore
from krauslab.channel import KrausFamily, unital_tol


def test_trial_rng_is_keyed_by_seed_and_trial():
    a = ensembles.trial_rng(42, 7).standard_normal(8)
    b = ensembles.trial_rng(42, 7).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = ensembles.trial_rng(42, 8).standard_normal(8)
    d = ensembles.trial_rng(43, 7).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # the key is two 64-bit words: a seed or trial outside them would alias one inside
    ensembles.trial_rng(2**64 - 1, 2**64 - 1).standard_normal(1)
    for seed, trial in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
            ensembles.trial_rng(seed, trial)


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


# Per-generator constructions: each family's generators drawn and factored
# one call at a time.  The stacked ensembles must equal them bitwise.


def _haar_one(rng, d):
    q, r = np.linalg.qr(ensembles.ginibre(rng, d))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _psd_one(rng, d):
    g = ensembles.ginibre(rng, d)
    p = g.conj().T @ g
    return p / opcore.op_norm(p)


def _mixed_unitary_ops(rng, d, m):
    probs = rng.dirichlet(np.ones(m))
    return [np.sqrt(p) * _haar_one(rng, d) for p in probs]


def _luders_ops(rng, d, m):
    effects = [_psd_one(rng, d) for _ in range(m)]
    total = sum(effects)
    w, v = np.linalg.eigh((total + total.conj().T) / 2.0)
    root_inv = (v / np.sqrt(w)) @ v.conj().T
    return [opcore.psd_sqrt(root_inv @ p @ root_inv) for p in effects]


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        # bytes, so a flipped bit or a zero's sign fails too
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_ensembles_are_bitwise_the_per_generator_draws(d):
    for m in range(1, 7):
        key = 10 * d + m
        pairs = (
            (lambda rng: ensembles.mixed_unitary_family(rng, d, m).ops, lambda rng: _mixed_unitary_ops(rng, d, m)),
            (lambda rng: ensembles.random_luders_family(rng, d, m).ops, lambda rng: _luders_ops(rng, d, m)),
            (lambda rng: ensembles.random_psd_coefficients(rng, d, m), lambda rng: [_psd_one(rng, d) for _ in range(m)]),
            (lambda rng: [ensembles.haar_unitary(rng, d)], lambda rng: [_haar_one(rng, d)]),
            (lambda rng: [ensembles.random_psd(rng, d)], lambda rng: [_psd_one(rng, d)]),
        )
        for stacked, reference in pairs:
            got_rng, want_rng = ensembles.trial_rng(29, key), ensembles.trial_rng(29, key)
            _assert_bitwise(stacked(got_rng), reference(want_rng))
            # and the stream is left where the per-generator draws leave it
            assert got_rng.standard_normal() == want_rng.standard_normal()


def _fuzz_trial_one_at_a_time(rng, dim, ops):
    """``cli._fuzz_reports`` with every generator drawn by its own call."""
    d = int(rng.integers(2, dim + 1))
    m = int(rng.integers(1, ops + 1))
    draw = _mixed_unitary_ops if int(rng.integers(0, 2)) == 0 else _luders_ops
    fam = KrausFamily(draw(rng, d, m))
    x = ensembles.ginibre(rng, d) * float(rng.uniform(0.2, 3.0))
    first, second = inequalities.defect_bounds(fam, x)
    scale = float(rng.uniform(0.2, 3.0))
    ps = inequalities.powers_stormer(scale * _psd_one(rng, d), scale * _psd_one(rng, d))
    p = int(rng.integers(1, dim + 1))
    q = int(rng.integers(1, dim + 1))
    gps = inequalities.generalized_powers_stormer(
        ensembles.ginibre(rng, p, q),
        float(rng.uniform(0.2, 3.0)) * _psd_one(rng, p),
        float(rng.uniform(0.2, 3.0)) * _psd_one(rng, q),
    )
    return [first, second, ps, gps]


def test_fuzz_trial_draws_are_bitwise_the_per_generator_draws():
    # each report's digest hashes the bytes of its inputs, so equal reports
    # mean bitwise-equal families, Powers-Stormer pairs and coefficients
    for trial in range(48):
        got = cli._fuzz_reports(ensembles.trial_rng(0, trial), 8, 6)
        want = _fuzz_trial_one_at_a_time(ensembles.trial_rng(0, trial), 8, 6)
        assert got == want, trial
