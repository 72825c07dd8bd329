"""Exact spectra of S for two commuting normal Kraus families.

Both families have the whole spectrum of their superoperator S in closed
form, so a core can be checked against values it did not record itself:

* the cyclic-shift mix a = (U / sqrt 2, U* / sqrt 2), U e_k = e_{k+1} on C^n:
  spec(S) = {cos 2 pi (k - i) / n}, Fix is the circulant matrices (dim n);
* the diagonal unitaries a_j = sqrt(w_j) diag(z_j^k), k = 0 .. n - 1:
  spec(S) = {c(k - i)} with c(s) = sum_j w_j z_j^s, and Fix is the diagonal
  matrices (dim n), since one z_j is a primitive n-th root of unity.

Either family u_j of size n, tensored as u_j (x) I_k, has the spectrum of
the u family with each value k^2 times, Fix(u) (x) M_k as its fixed space
(dim n k^2) and the u family's gap.

S is normal, so the singular values of S - I are |lambda - 1|.  Each
family is read through theta's Kronecker eigenbasis
(``commuting._kron_eigenbasis`` of the factor pairs (a_j*, a_j), S =
sum_j kron(a_j.T, a_j*)) and through ``channel.gap_report``.

One tolerance rule, tied to the input's scale: ``m * d * eps * max_j
||a_j||_op^2`` times 4, for m operators on C^d.
"""

import numpy as np
import pytest

import krauslab as kl
from krauslab import commuting, opcore

DIMS = (3, 8, 16, 24)


def tolerance(ops) -> float:
    """The bank's one tolerance: 4 m d eps max_j ||a_j||_op^2."""
    m, d = len(ops), ops[0].shape[0]
    return 4 * m * d * np.finfo(float).eps * max(np.linalg.norm(a, 2) ** 2 for a in ops)


def shift_mix(n):
    """(U / sqrt 2, U* / sqrt 2), and the distinct values of spec(S) with
    their counts: cos(2 pi j / n) for j = 0 .. n / 2, taken n times for
    k - i = j mod n and n more for k - i = -j, unless j = -j mod n."""
    u = np.roll(np.eye(n), 1, axis=0).astype(complex)
    ops = [u / np.sqrt(2.0), u.conj().T / np.sqrt(2.0)]
    j = np.arange(n // 2 + 1)
    return ops, np.cos(2 * np.pi * j / n) + 0j, np.where((j == 0) | (2 * j == n), n, 2 * n)


def diagonal_unitaries(n):
    """sqrt(w_j) diag(z_j^k), and the distinct values of spec(S) with their
    counts: c(s) for s = k - i in (-n, n), taken n - |s| times."""
    w = np.array([0.5, 0.3, 0.2])
    z = np.exp(2j * np.pi * np.array([1.0 / n, 0.37, -0.21]))
    k = np.arange(n)
    ops = [np.sqrt(wj) * np.diag(zj**k) for wj, zj in zip(w, z)]
    s = np.arange(-(n - 1), n)
    return ops, (w * z ** s[:, None]).sum(axis=1), n - np.abs(s)


FAMILIES = {"shift_mix": shift_mix, "diagonal_unitaries": diagonal_unitaries}
# the tensor families: u_j of size 6, each tensored with I_4 (d = 24)
TENSOR_N, TENSOR_K = 6, 4


def tensored(kind):
    """The family u_j (x) I_k of ``kind`` at n = TENSOR_N, and the distinct
    values of spec(S) with their counts: the u family's, each k^2 times."""
    ops, values, counts = FAMILIES[kind](TENSOR_N)
    eye = np.eye(TENSOR_K)
    return [np.kron(a, eye) for a in ops], values, counts * TENSOR_K**2


def _closed_form(kind, n):
    """The family, the distinct eigenvalues of S with their counts, its fix
    dimension and its restricted gap, all from the closed form."""
    ops, values, counts = FAMILIES[kind](n)
    dist = np.abs(values - 1.0)
    fixed = dist <= kl.fix_tol(n)
    return ops, values, counts, int(counts[fixed].sum()), float(dist[~fixed].min())


def _assert_spectrum(got, values, counts, tol):
    """``got`` is the multiset of ``values`` taken ``counts`` times, within tol."""
    gaps = np.abs(values[:, None] - values[None, :]) + np.diag(np.full(values.size, np.inf))
    assert gaps.min() > 2 * tol  # each computed value has one nearest exact value
    dist = np.abs(got[:, None] - values[None, :])
    assert dist.min(axis=1).max() <= tol
    assert np.array_equal(np.bincount(dist.argmin(axis=1), minlength=values.size), counts)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_kron_eigenbasis_reads_the_closed_form_spectrum(kind, n):
    ops, values, counts, fix_dim, gap = _closed_form(kind, n)
    tol = tolerance(ops)
    fam = kl.KrausFamily(ops)
    eigs = commuting._kron_eigenbasis(fam._adjoints, fam.ops)[3]
    _assert_spectrum(eigs, values, counts, tol)
    dist = np.abs(eigs - 1.0)
    cut = dist <= kl.fix_tol(n)
    assert int(cut.sum()) == fix_dim == n
    assert abs(dist[~cut].min() - gap) <= tol


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_gap_report_reads_the_closed_form_gap(kind, n):
    ops, _, _, fix_dim, gap = _closed_form(kind, n)
    tol = tolerance(ops)
    rep = kl.gap_report(kl.KrausFamily(ops))
    assert rep.fix_dim == fix_dim == n
    assert rep.sigma_min <= tol
    assert abs(rep.restricted_gap - gap) <= tol


def test_the_closed_forms_hold_their_stated_structure():
    # the shift's gap is 1 - cos(2 pi / n) = 2 sin^2(pi / n); each spectrum
    # has n^2 values, n of them 1
    for n in DIMS:
        *_, gap = _closed_form("shift_mix", n)
        assert gap == pytest.approx(2 * np.sin(np.pi / n) ** 2, rel=1e-12)
        for kind in FAMILIES:
            ops, values, counts, fix_dim, _ = _closed_form(kind, n)
            assert counts.sum() == n * n and fix_dim == n
            # unital and trace-preserving: sum_j a_j* a_j = sum_j a_j a_j* = 1
            assert max(opcore.unital_defect(ops), opcore.counital_defect(ops)) <= tolerance(ops)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_tensor_family_reads_the_closed_form_of_its_factor(kind):
    ops, values, counts = tensored(kind)
    _, _, _, fix_dim, gap = _closed_form(kind, TENSOR_N)
    fix_dim *= TENSOR_K**2
    tol = tolerance(ops)
    fam = kl.KrausFamily(ops)
    eigs = commuting._kron_eigenbasis(fam._adjoints, fam.ops)[3]
    _assert_spectrum(eigs, values, counts, tol)
    rep = kl.gap_report(fam)
    assert rep.fix_dim == fix_dim == int((np.abs(eigs - 1.0) <= kl.fix_tol(fam.dim)).sum())
    assert rep.sigma_min <= tol
    assert abs(rep.restricted_gap - gap) <= tol
