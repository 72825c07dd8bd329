"""Circle measures, Fourier windows, and Toeplitz-patterned entrywise action."""

import json

import numpy as np
import pytest

from krauslab import opcore, schur


def test_symbol_validation():
    s = schur.ToeplitzSymbol({-1: 1j, 0: 2.0, 1: -1j})
    assert s.kmax == 1
    assert s.coeff(0) == 2.0
    with pytest.raises(ValueError):
        s.coeff(2)
    with pytest.raises(ValueError):
        schur.ToeplitzSymbol({})
    with pytest.raises(ValueError):
        schur.ToeplitzSymbol({0: 1.0, 2: 1.0})  # hole at |k| = 1
    with pytest.raises(ValueError):
        schur.ToeplitzSymbol({0: np.inf})


def test_symbol_rejects_a_fractional_key():
    with pytest.raises(ValueError, match="integer, got 0.5"):
        schur.ToeplitzSymbol({0: 1.0, 0.5: 2.0})


def test_symbol_hole_message_counts_the_holes():
    with pytest.raises(ValueError) as err:
        schur.ToeplitzSymbol({0: 1.0, 10**6: 0.0})
    msg = str(err.value)
    assert "misses 1999999 of 2000001" in msg
    assert "k=-1000000, -999999, -999998, ..." in msg
    assert len(msg) < 200
    with pytest.raises(ValueError, match=r"misses 2 of 5 coefficients, at k=-1, 1$"):
        schur.ToeplitzSymbol({-2: 1.0, 0: 1.0, 2: 1.0})


def test_measure_validation():
    with pytest.raises(ValueError):
        schur.CircleMeasure(atoms=((2.0, 1.0),))  # off the circle
    with pytest.raises(ValueError):
        schur.CircleMeasure()
    with pytest.raises(ValueError):
        schur.CircleMeasure(density=np.array([1.0]))
    mu = schur.CircleMeasure.point_mass(1j, 0.5)
    assert mu.atoms == ((1j, 0.5),)


def test_point_mass_coefficients_oracle():
    # d_k = conj(i)^k: {-1: i, 0: 1, 1: -i}
    s = schur.fourier_coeffs(schur.CircleMeasure.point_mass(1j), 1)
    assert s.coeffs[0] == pytest.approx(1.0)
    assert s.coeffs[1] == pytest.approx(-1j)
    assert s.coeffs[-1] == pytest.approx(1j)


def test_lebesgue_coefficients_oracle():
    # normalized arclength integrates conj(z)^k to the k = 0 indicator
    s = schur.fourier_coeffs(schur.CircleMeasure.lebesgue(), 3)
    assert s.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    for k in (-3, -2, -1, 1, 2, 3):
        assert abs(s.coeffs[k]) <= 1e-12


def test_cosine_density_oracle():
    # density 1 + cos(theta): d_0 = 1, d_{+-1} = 1/2, rest 0; the rectangle
    # rule is exact for trigonometric polynomials below the grid size
    grid = 64
    theta = 2.0 * np.pi * np.arange(grid) / grid
    mu = schur.CircleMeasure(density=1.0 + np.cos(theta))
    s = schur.fourier_coeffs(mu, 2)
    assert s.coeffs[0] == pytest.approx(1.0, abs=1e-13)
    assert s.coeffs[1] == pytest.approx(0.5, abs=1e-13)
    assert s.coeffs[-1] == pytest.approx(0.5, abs=1e-13)
    assert abs(s.coeffs[2]) <= 1e-13


def test_alias_guard():
    mu = schur.CircleMeasure(density=np.ones(8))
    with pytest.raises(ValueError):
        schur.fourier_coeffs(mu, 4)  # grid must exceed 2 kmax
    schur.fourier_coeffs(mu, 3)


def test_multiplier_matrix_toeplitz_structure():
    s = schur.ToeplitzSymbol({-2: 5.0, -1: 3.0, 0: 1.0, 1: 2.0, 2: 4.0})
    m = schur.multiplier_matrix(s, 3)
    np.testing.assert_allclose(
        m, [[1.0, 3.0, 5.0], [2.0, 1.0, 3.0], [4.0, 2.0, 1.0]]
    )
    rect = schur.multiplier_matrix(s, 2, 3)
    np.testing.assert_allclose(rect, [[1.0, 3.0, 5.0], [2.0, 1.0, 3.0]])
    with pytest.raises(ValueError):
        schur.multiplier_matrix(s, 4)


def test_unit_point_mass_acts_as_diagonal_conjugation():
    z = np.exp(0.7j)
    s = schur.fourier_coeffs(schur.CircleMeasure.point_mass(z), 3)
    rng = np.random.default_rng(61)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = schur.schur_apply(s, x)
    d = np.diag(np.conj(z) ** np.arange(4))
    np.testing.assert_allclose(out, d @ x @ d.conj().T, atol=1e-12)
    # unimodular mask: entrywise action preserves the HS norm
    assert opcore.hs_norm(out) == pytest.approx(opcore.hs_norm(x), rel=1e-12)


def test_lebesgue_acts_as_diagonal_projection():
    s = schur.fourier_coeffs(schur.CircleMeasure.lebesgue(), 3)
    rng = np.random.default_rng(62)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = schur.schur_apply(s, x)
    np.testing.assert_allclose(out, np.diag(np.diagonal(x)), atol=1e-10)


def test_positive_measure_gives_psd_toeplitz():
    grid = 256
    theta = 2.0 * np.pi * np.arange(grid) / grid
    mu = schur.CircleMeasure(
        atoms=((np.exp(0.3j), 0.7), (-1.0, 0.1)),
        density=1.0 + 0.5 * np.sin(theta),
    )
    s = schur.fourier_coeffs(mu, 5)
    m = schur.multiplier_matrix(s, 6)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh((m + m.conj().T) / 2)[0] >= -1e-10


def test_truncated_spectrum_point_mass_oracle():
    # point mass at i, truncation 2: multiset {1, 1, -i, i}
    s = schur.fourier_coeffs(schur.CircleMeasure.point_mass(1j), 1)
    spec = schur.truncated_spectrum(s, 2)
    np.testing.assert_allclose(spec, [-1j, 1j, 1.0, 1.0], atol=1e-12)


def test_truncated_spectrum_matches_superoperator():
    # independent oracle: eigenvalues of the entrywise action as a matrix
    s = schur.ToeplitzSymbol({-2: 0.3j, -1: 2.0, 0: 1.0, 1: -1.0, 2: 0.5})
    n = 3
    spec = schur.truncated_spectrum(s, n)
    assert spec.size == n * n
    mat = opcore.linear_map_matrix(lambda m: schur.schur_apply(s, m), n, n)
    eigs = np.linalg.eigvals(mat)
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    np.testing.assert_allclose(eigs, spec, atol=1e-10)
    with pytest.raises(ValueError):
        schur.truncated_spectrum(s, 4)


def test_pointwise_invertibility():
    s = schur.ToeplitzSymbol({-1: 0.3, 0: 1.0, 1: 0.5})
    assert schur.min_abs_coeff(s) == pytest.approx(0.3)
    assert schur.pointwise_invertibility(s, 0.2)
    assert not schur.pointwise_invertibility(s, 0.4)
    with pytest.raises(ValueError):
        schur.pointwise_invertibility(s, 0.0)


def test_symbol_json_roundtrip():
    s = schur.ToeplitzSymbol({-1: 1.0 + 2.0j, 0: 3.0, 1: -1.0j})
    obj = json.loads(json.dumps(schur.symbol_to_json(s)))
    back = schur.symbol_from_json(obj)
    assert back.kmax == 1
    for k in (-1, 0, 1):
        assert back.coeffs[k] == s.coeffs[k]
    obj["kmax"] = 5
    with pytest.raises(ValueError):
        schur.symbol_from_json(obj)
    with pytest.raises(ValueError):
        schur.symbol_from_json({"coeffs": [[0, 1.0]]})


def test_measure_json_roundtrip():
    grid = 16
    mu = schur.CircleMeasure(
        atoms=((1j, 0.25), (-1.0, 0.5 + 0.5j)),
        density=np.linspace(0.5, 1.5, grid),
    )
    obj = json.loads(json.dumps(schur.measure_to_json(mu)))
    back = schur.measure_from_json(obj)
    assert back.atoms == mu.atoms
    np.testing.assert_allclose(back.density, mu.density)
    atoms_only = schur.measure_from_json(
        json.loads(json.dumps(schur.measure_to_json(schur.CircleMeasure.point_mass(1.0))))
    )
    assert atoms_only.density is None
    obj["density"]["grid"] = 5
    with pytest.raises(ValueError):
        schur.measure_from_json(obj)
