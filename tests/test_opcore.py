"""Matrix primitives: frozen small-case oracles plus randomized invariants."""

import importlib
import math
import pkgutil
import tracemalloc
import warnings

import numpy as np
import pytest

import krauslab
from krauslab import channel, commuting, cuntz, inequalities, opcore
from krauslab.ensembles import ginibre, haar_unitary, intertwining_pair, mixed_unitary_family, trial_rng


def test_norm_ordering_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        op, hs, tr = opcore.op_norm(x), np.linalg.norm(x), opcore.trace_norm(x)
        assert op <= hs + 1e-12
        assert hs <= tr + 1e-12
        assert op == pytest.approx(np.linalg.norm(x, 2), rel=1e-12)
        assert tr == pytest.approx(np.linalg.norm(x, "nuc"), rel=1e-12)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        opcore.as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        opcore.as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        opcore.as_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_hs_inner_conjugate_linear_first_argument():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = 0.7 - 1.3j
    assert opcore.hs_inner(c * x, y) == pytest.approx(np.conj(c) * opcore.hs_inner(x, y))
    assert opcore.hs_inner(x, c * y) == pytest.approx(c * opcore.hs_inner(x, y))
    assert opcore.hs_inner(x, x) == pytest.approx(np.linalg.norm(x) ** 2)
    # tr(x* y) written out entrywise
    assert opcore.hs_inner(x, y) == pytest.approx(np.trace(x.conj().T @ y))


def test_hs_inner_retakes_an_overflowing_sum_scaled():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # a finite sum keeps np.vdot's bits
    assert opcore.hs_inner(a, b) == complex(np.vdot(a, b))
    assert opcore.hs_inner(1e150 * a, 1e150 * a) == pytest.approx(1e300 * opcore.hs_inner(a, a), rel=1e-14)
    # the first product overflows, the sum 7.5e307 does not
    assert opcore.hs_inner([[1.5e308, -1e308]], [[1.5, 1.5]]) == pytest.approx(7.5e307, rel=1e-15)
    # np.vdot reads nan+nanj here, with no warning
    with pytest.raises(ValueError, match="overflows"):
        opcore.hs_inner(1e160 * a, 1e160 * a)


def test_hermitian_witness_and_symmetrized():
    h = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -3.0]])
    w = opcore.hermitian_witness(h)
    assert w.accepted and w.asymmetry == 0.0
    skew = h + np.array([[0.0, 1e-3], [0.0, 0.0]])
    assert not opcore.hermitian_witness(skew).accepted
    with pytest.raises(ValueError):
        opcore.symmetrized(skew)
    np.testing.assert_allclose(opcore.symmetrized(h), h)


def test_hermitian_witness_is_bitwise_its_formulas():
    rng = np.random.default_rng(14)
    for d in (1, 2, 4, 8):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for m in (g, g + g.conj().T + 1e-11 * g, np.real(g + g.T)):
            w = opcore.hermitian_witness(m)
            a = np.asarray(m, dtype=np.complex128)
            assert np.array_equal(w.matrix, (a + a.conj().T) / 2.0)
            assert w.asymmetry == float(np.linalg.norm(a - a.conj().T))
            assert w.tolerance == 1e-10 * (1.0 + float(np.linalg.norm(a)))
            if w.accepted:
                assert np.array_equal(opcore.symmetrized(m), w.matrix)
    # the witness never writes to its input
    m = g.copy()
    opcore.hermitian_witness(m)
    assert np.array_equal(m, g)


def test_hermitian_gate_holds_past_the_square_overflow():
    # entries past about 1e154 overflow a squared norm; the gate must still reject
    skew = np.array([[1.0, 5.0], [0.0, 100.0]])
    for t in (1.0, 1e160, 1e300):
        assert not opcore.hermitian_witness(t * skew).accepted
        with pytest.raises(ValueError, match="not Hermitian"):
            opcore.require_psd(t * skew)
    h = np.array([[1.0, 2.0], [2.0, 5.0]])
    for t in (1.0, 1e300):
        np.testing.assert_array_equal(opcore.require_psd(t * h), t * h)
    w = opcore.hermitian_witness(1e300 * skew)
    assert w.asymmetry == pytest.approx(5e300 * np.sqrt(2.0), rel=1e-15)
    assert w.tolerance == pytest.approx(1e-10 * np.linalg.norm(skew) * 1e300, rel=1e-15)


def test_hermitian_gate_output_stays_finite_past_the_overflow():
    # (m + m*) / 2 overflows to inf+nanj entries here, which require_psd's
    # NaN eigenvalues would never reject
    ones = np.ones((2, 2))
    w = opcore.hermitian_witness(1.5e308 * ones)
    assert w.accepted and np.array_equal(w.matrix, 1.5e308 * ones)
    np.testing.assert_array_equal(opcore.require_psd(1.5e308 * ones), 1.5e308 * ones)
    # and would put NaN on psd_sqrt's diagonal
    np.testing.assert_array_equal(opcore.psd_sqrt(np.diag([1e308, 1e308])), np.diag([1e154, 1e154]))


@pytest.mark.parametrize(
    "m",
    [np.array([[1.0, 1e308j], [1e308j, 1.0]]), np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])],
    ids=["skew-1e308", "diagonal-1.5e308"],
)
def test_hermitian_gate_rejects_an_overflowing_difference_without_a_warning(m):
    # ||m - m*|| is beyond the float range for both, and 1e-10 (1 + ||m||) is
    # not (||m|| itself is, for the second); the suite turns any
    # RuntimeWarning into an error
    w = opcore.hermitian_witness(m)
    assert not w.accepted
    assert w.asymmetry == math.inf
    half_norm = math.hypot(*np.abs(m.view(float)).ravel() / 2.0)
    assert w.tolerance == pytest.approx(2e-10 * half_norm, rel=1e-15)
    for gate in (opcore.symmetrized, opcore.require_psd):
        with pytest.raises(ValueError, match="not Hermitian: asymmetry inf"):
            gate(m)


def test_hermitian_asymmetry_reads_inf_only_beyond_the_float_range():
    # ||m - m*|| = 2**1023 * sqrt(2) overflows; one binade lower it is finite
    for e, want in ((1022, math.ldexp(math.sqrt(2.0), 1023)), (1023, math.inf)):
        m = np.array([[0.0, math.ldexp(1.0, e)], [-math.ldexp(1.0, e), 0.0]])
        w = opcore.hermitian_witness(m)
        assert w.asymmetry == want and not w.accepted
        assert w.tolerance == 1e-10 * (math.ldexp(1.0, -e) + math.sqrt(2.0)) * math.ldexp(1.0, e)


def test_positive_part_oracle_and_decomposition():
    np.testing.assert_allclose(
        opcore.positive_part(np.diag([3.0, -2.0])), np.diag([3.0, 0.0]), atol=1e-14
    )
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2.0
        plus = opcore.positive_part(h)
        minus = opcore.positive_part(-h)
        np.testing.assert_allclose(plus - minus, h, atol=1e-12)
        assert np.linalg.eigvalsh(plus)[0] >= -1e-12
        # positive and negative parts are orthogonal pieces of h
        assert np.linalg.norm(plus @ minus) <= 1e-12


def test_psd_sqrt_oracle_and_roundtrip():
    np.testing.assert_allclose(
        opcore.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
    )
    rng = np.random.default_rng(14)
    for _ in range(10):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        p = g.conj().T @ g
        r = opcore.psd_sqrt(p)
        np.testing.assert_allclose(r @ r, p, atol=1e-10 * (1 + opcore.op_norm(p)))
    with pytest.raises(ValueError):
        opcore.psd_sqrt(np.diag([1.0, -0.5]))


def test_vectorize_is_column_stacking():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(opcore.vectorize(m), [1.0, 3.0, 2.0, 4.0])
    np.testing.assert_array_equal(opcore.devectorize([1.0, 3.0, 2.0, 4.0], 2, 2), m)
    with pytest.raises(ValueError):
        opcore.devectorize([1.0, 2.0, 3.0], 2, 2)


def test_vectorize_kron_identity():
    # vec(A X B) = kron(B.T, A) vec(X), the convention everything relies on
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    b = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    np.testing.assert_allclose(
        opcore.vectorize(a @ x @ b),
        np.kron(b.T, a) @ opcore.vectorize(x),
        atol=1e-12,
    )


def test_null_space_basis():
    k = opcore.factorize(np.diag([1.0, 0.0])).kernel(1e-12)
    assert k.shape == (2, 1)
    np.testing.assert_allclose(np.abs(k[:, 0]), [0.0, 1.0], atol=1e-14)
    # wide matrix: columns beyond the singular-value list are null directions
    wide = np.array([[1.0, 0.0, 0.0]])
    kw = opcore.factorize(wide).kernel(1e-12)
    assert kw.shape == (3, 2)
    np.testing.assert_allclose(wide @ kw, 0.0, atol=1e-14)
    np.testing.assert_allclose(kw.conj().T @ kw, np.eye(2), atol=1e-12)
    full = opcore.factorize(np.eye(3)).kernel(1e-12)
    assert full.shape == (3, 0)
    # tall matrix whose third column is the sum of the first two
    c = np.random.default_rng(3).standard_normal((6, 2))
    tall = np.column_stack([c, c[:, 0] + c[:, 1]])
    kt = opcore.factorize(tall).kernel(1e-10)
    assert kt.shape == (3, 1)
    np.testing.assert_allclose(
        np.abs(kt[:, 0]), np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0), atol=1e-12
    )
    np.testing.assert_allclose(tall @ kt, 0.0, atol=1e-12)


def test_linear_map_matrix_transpose_oracle():
    # the transpose on 2x2 permutes vec components 1 and 2
    t = opcore.linear_map_matrix(lambda m: m.T, 2, 2)
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[3, 3] = perm[1, 2] = perm[2, 1] = 1.0
    np.testing.assert_allclose(t, perm, atol=1e-14)


def test_linear_map_matrix_matches_direct_application():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mat = opcore.linear_map_matrix(lambda m: a @ m @ b, 3, 3)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(
        mat @ opcore.vectorize(x), opcore.vectorize(a @ x @ b), atol=1e-12
    )


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    obj = opcore.matrix_to_json(m)
    assert obj["rows"] == 2 and obj["cols"] == 3 and len(obj["data"]) == 6
    np.testing.assert_array_equal(opcore.matrix_from_json(obj), m)


@pytest.mark.parametrize(
    "obj",
    [
        "nope",
        {"rows": 2, "cols": 2},
        {"rows": 0, "cols": 2, "data": []},
        {"rows": 1, "cols": 1, "data": [[1.0]]},
        {"rows": 1, "cols": 1, "data": [[np.inf, 0.0]]},
        {"rows": 2, "cols": 1, "data": [[1.0, 0.0]]},
    ],
)
def test_matrix_from_json_rejects(obj):
    with pytest.raises(ValueError):
        opcore.matrix_from_json(obj)


def test_matrix_from_json_matches_the_per_number_decode():
    # ints, floats, signed zeros and ints past 2^53, against complex(float, float)
    values = [0, -0.0, 0.0, 3, -7, 2.5, -1e-300, 1e300, 2**70 + 1, -(2**63), 0.1]
    data = [[values[k % 11], values[(3 * k + 1) % 11]] for k in range(24)]
    got = opcore.matrix_from_json({"rows": 4, "cols": 6, "data": data})
    want = np.array([complex(float(re), float(im)) for re, im in data]).reshape(4, 6)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


@pytest.mark.parametrize(
    "bad, message",
    [
        ({2: [1.0], 4: [True, 0.0]}, r"^data\[2\] is not an \[re, im\] pair$"),
        ({3: (0.0, 1.0), 4: [0.0, False]}, r"^data\[4\]\[1\] must be a number, got False$"),
        ({1: [np.nan, 0.0], 5: ["1", 0.0]}, r"^data\[1\] is not finite$"),
        ({3: [0.0, 10**400], 4: [np.inf, 0.0]}, r"^data\[3\]\[1\] must be a number, got an out-of-range 1000"),
        ({0: [None, 0.0]}, r"^data\[0\]\[0\] must be a number, got None$"),
    ],
    ids=["short-pair", "bool", "nan", "huge-int", "null"],
)
def test_matrix_from_json_names_the_first_bad_pair(bad, message):
    data = [[1.0, 0.0] for _ in range(6)]
    for k, pair in bad.items():
        data[k] = pair
    with pytest.raises(ValueError, match=message):
        opcore.matrix_from_json({"rows": 2, "cols": 3, "data": data})


def test_require_psd_gate_and_message():
    # the gate sits at -1e-10 * (1 + max|lambda|) = -3e-10 here
    inside = np.diag([2.0, -2.9e-10])
    np.testing.assert_array_equal(opcore.require_psd(inside), inside)
    with pytest.raises(ValueError, match=r"rho is not PSD: eigenvalue -3\.100e-10 below -3\.000e-10"):
        opcore.require_psd(np.diag([2.0, -3.1e-10]), "rho")
    with pytest.raises(ValueError, match="not Hermitian"):
        opcore.require_psd([[0.0, 1.0], [0.0, 0.0]])


def test_psd_sqrt_gates_on_its_own_eigh(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    np.testing.assert_allclose(opcore.psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-15)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    with pytest.raises(ValueError, match="matrix is not PSD"):
        opcore.psd_sqrt(np.diag([1.0, -0.5]))


def test_square_family_copies_and_freezes():
    a = np.diag([1.0 + 0j, 1j])  # already complex128, so as_matrix returns it uncopied
    fam = opcore.square_family([a, np.eye(2)], "ops")
    assert a.flags.writeable
    assert all(not m.flags.writeable for m in fam)
    a[0, 0] = 7.0
    np.testing.assert_array_equal(fam[0], np.diag([1.0 + 0j, 1j]))
    with pytest.raises(ValueError, match="ops must be a non-empty family"):
        opcore.square_family([], "ops")
    with pytest.raises(ValueError, match=r"ops\[1\] must be square"):
        opcore.square_family([np.eye(2), np.zeros((2, 3))], "ops")
    with pytest.raises(ValueError, match="ops matrices must share one dimension"):
        opcore.square_family([np.eye(2), np.eye(3)], "ops")


@pytest.mark.parametrize("p, q", [(3, 3), (3, 2), (1, 4)])
def test_kron_sum_is_bitwise_the_kron_sum(p, q):
    rng = np.random.default_rng(41)
    lefts = [rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)) for _ in range(3)]
    rights = [rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)) for _ in range(3)]
    expected = np.zeros((p * q, p * q), dtype=np.complex128)
    for l, r in zip(lefts, rights):
        expected += np.kron(r.T, l)
    s = opcore.kron_sum(lefts, rights)
    assert np.array_equal(s, expected)
    x = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
    direct = sum(l @ x @ r for l, r in zip(lefts, rights))
    np.testing.assert_allclose(s @ opcore.vectorize(x), opcore.vectorize(direct), atol=1e-12)
    with pytest.raises(ValueError):
        opcore.kron_sum(lefts, rights[:2])


def test_kron_entries_sums_in_row_chunks_without_a_second_values_buffer():
    # generic d = 16: 256 x 256 entries (1 MiB), many _KRON_CHUNK row chunks;
    # one term buffer as large as the values peaked at 2.27x their bytes
    fam = mixed_unitary_family(trial_rng(0, 0), 16, 3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        entries = opcore.kron_entries(fam._adjoints, fam.ops)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert entries.values.size > 4 * opcore._KRON_CHUNK
    # the values, the chunk buffer and numpy's constant ufunc buffer
    assert peak < 1.5 * entries.values.nbytes
    expected = np.zeros((256, 256), dtype=np.complex128)
    for l, r in zip(fam._adjoints, fam.ops):
        expected += np.kron(r.T, l)
    assert np.array_equal(entries.dense(), expected)


def test_null_space_basis_of_a_real_symmetric_indefinite_matrix():
    # the kernel is the eigenvectors with |lambda| <= tol: -1e-12 is kept, -1 is not
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]
    m = q @ np.diag([1.0, -1.0, -1e-12, 0.0]) @ q.T
    m = (m + m.T) / 2.0
    k = opcore.factorize(m).kernel(1e-10)
    assert k.shape == (4, 2) and np.isrealobj(k)
    np.testing.assert_allclose(k.T @ k, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(k @ k.T, q[:, 2:] @ q[:, 2:].T, atol=1e-12)


def test_null_space_basis_keeps_the_extra_rows_of_a_wide_matrix():
    rng = np.random.default_rng(8)
    wide = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    _, sv, vh = np.linalg.svd(wide)
    assert np.array_equal(opcore.factorize(wide).kernel(1e-12), vh[2:].conj().T)
    # a cut between the two singular values keeps the smaller one's row too
    cut = (sv[0] + sv[1]) / 2.0
    assert np.array_equal(opcore.factorize(wide).kernel(cut), vh[1:].conj().T)


def _tall_stacks():
    """Tall complex stacks: the kron-stacked commutant of a u_j (x) I_4 family
    at d = 24 (a 1728 x 576 stack with a 16-dimensional null space) and
    random tall matrices of deficient rank."""
    rng = np.random.default_rng(53)
    u = [np.kron(haar_unitary(rng, 6), np.eye(4)) for _ in range(3)]
    eye = np.eye(24)
    yield np.vstack([np.kron(eye, a) - np.kron(a.T, eye) for a in u]), channel.fix_tol(24), 16
    for rows, cols, rank in ((30, 12, 7), (9, 8, 1), (40, 6, 5)):
        a = ginibre(rng, rows, rank) @ ginibre(rng, rank, cols)
        yield a, 1e-10 * float(np.linalg.norm(a)), cols - rank


def test_tall_null_space_takes_no_tall_svd(monkeypatch):
    # a tall matrix and the square R of its QR share their kernel, which is
    # what lets every Sylvester stack be reduced to R before its SVD
    for a, tol, dim in _tall_stacks():
        want = opcore.factorize(a).kernel(tol)
        got = opcore.factorize(np.linalg.qr(a, mode="r")).kernel(tol)
        assert got.shape == want.shape == (a.shape[1], dim)
        np.testing.assert_allclose(got.conj().T @ got, np.eye(dim), atol=1e-12)
        assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T, 2) <= 1e-12
    rng = np.random.default_rng(53)
    split = [np.kron(haar_unitary(rng, 6), np.eye(4)) for _ in range(3)]
    connected = [ginibre(rng, 6) for _ in range(3)]
    svd = np.linalg.svd

    def square_only(a, *args, **kwargs):
        assert np.shape(a)[-2] <= np.shape(a)[-1], f"tall SVD of {np.shape(a)}"
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", square_only)
    # the first of _tall_stacks splits into 16 components; a generic
    # family's 108 x 36 stack is one
    split_basis = opcore.sylvester_null_space(split, split, channel.fix_tol(24))
    connected_basis = opcore.sylvester_null_space(connected, connected, channel.fix_tol(6))
    # the callers of the stacked null space reach it only through the R factor
    rng = np.random.default_rng(54)
    assert len(channel.commutant([np.kron(haar_unitary(rng, 4), np.eye(2)) for _ in range(3)])) == 4
    rep = commuting.intertwiner_fixed_point_check(*intertwining_pair(trial_rng(55, 0), 5, 3))
    assert rep.passed and rep.intertwiner_dim >= 1
    monkeypatch.undo()
    _assert_solution_space(split_basis, split, split, 16)
    _assert_solution_space(connected_basis, connected, connected, 1)


def test_square_and_wide_null_spaces_are_bitwise_the_direct_kernel():
    # a square or wide complex matrix's kernel is read off its own SVD: the
    # rows of V* past the singular values above tol, bit for bit
    rng = np.random.default_rng(57)
    for rows, cols in ((5, 5), (3, 7), (1, 4)):
        a = ginibre(rng, rows, cols)
        a[:, -1] = a[:, 0]
        _, sv, vh = np.linalg.svd(a, full_matrices=rows < cols)
        for tol in (1e-12, 0.5):
            keep = int((sv > tol).sum())
            assert np.array_equal(opcore.factorize(a).kernel(tol), vh[keep:].conj().T)


def _explicit_sylvester(lefts, rights, tol):
    """The null space of the explicitly stacked krons, read off their SVD."""
    p, q = lefts[0].shape[0], rights[0].shape[0]
    stacked = np.vstack(
        [np.kron(np.eye(q), l) - np.kron(r.T, np.eye(p)) for l, r in zip(lefts, rights)]
    )
    kernel = opcore.factorize(stacked).kernel(tol)
    return [opcore.devectorize(kernel[:, i], p, q) for i in range(kernel.shape[1])]


def _assert_solution_space(got, lefts, rights, dim):
    """``got`` is an HS-orthonormal basis of the explicit stack's null space."""
    want = _explicit_sylvester(lefts, rights, 1e-8)
    assert len(got) == len(want) == dim
    g = np.column_stack([opcore.vectorize(x) for x in got])
    w = np.column_stack([opcore.vectorize(x) for x in want])
    np.testing.assert_allclose(g.conj().T @ g, np.eye(dim), atol=1e-12)
    assert np.linalg.norm(g @ g.conj().T - w @ w.conj().T, 2) <= 1e-12
    for x in got:
        for l, r in zip(lefts, rights):
            np.testing.assert_allclose(l @ x, x @ r, atol=1e-12)


def test_sylvester_null_space_matches_the_explicit_stack(monkeypatch):
    rng = np.random.default_rng(43)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    lam = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    # commuting pair on C^3, and b_j* acting on C^2 with two shared joint eigenvalues
    lefts = [u @ np.diag(lam[j]) @ u.conj().T for j in range(2)]
    rights = [np.diag(lam[j, :2]) for j in range(2)]
    svd, shapes = np.linalg.svd, []

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    # a connected stack is one component: its 18 x 9 stack is one 9 x 9 R
    basis = opcore.sylvester_null_space(lefts, lefts, 1e-8)
    assert shapes == [(1, 9, 9)]
    _assert_solution_space(basis, lefts, lefts, 3)
    # diagonal rights split the stack into one component per column of x
    shapes.clear()
    basis = opcore.sylvester_null_space(lefts, rights, 1e-8)
    assert shapes == [(1, 3, 3), (1, 3, 3)]
    _assert_solution_space(basis, lefts, rights, 2)


def _tensor_kind(d, seed=0, m=3):
    """Weighted u_j (x) I_4, the benchmark's tensor kind: commutant I (x) M_4."""
    rng = trial_rng(31, seed)
    probs = rng.dirichlet(np.ones(m))
    return [np.sqrt(p) * np.kron(haar_unitary(rng, d // 4), np.eye(4)) for p in probs]


def test_split_sylvester_stack_of_the_tensor_kind():
    ops = _tensor_kind(8)
    _assert_solution_space(opcore.sylvester_null_space(ops, ops, 1e-8), ops, ops, 16)
    ops = _tensor_kind(24)
    basis = opcore.sylvester_null_space(ops, ops, channel.fix_tol(24))
    assert len(basis) == 16
    for x in basis:
        for a in ops:
            assert np.linalg.norm(a @ x - x @ a) <= 1e-12


def test_commutant_of_a_generic_family_forms_no_kron(monkeypatch):
    # a connected stack is built per component like a split one, never
    # from dense Kronecker products
    rng = trial_rng(32, 0)
    ops = [ginibre(rng, 8) for _ in range(3)]

    def refused(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", refused)
    com = channel.commutant(ops)
    assert len(com) == 1
    (x,) = com.basis
    np.testing.assert_allclose(np.abs(x), np.eye(8) / np.sqrt(8.0), atol=1e-12)
    for a in ops:
        assert np.linalg.norm(a @ x - x @ a) <= 1e-12


def test_sylvester_null_space_validates_its_families():
    for lefts, rights, message in (
        ([np.eye(2), np.eye(3)], [np.eye(2), np.eye(2)], "lefts matrices must share one dimension"),
        ([np.eye(2)], [np.ones((2, 3))], r"rights\[0\] must be square"),
        ([np.array([[1.0, np.nan], [0.0, 1.0]])], [np.eye(2)], r"lefts\[0\] contains non-finite"),
    ):
        with pytest.raises(ValueError, match=message):
            opcore.sylvester_null_space(lefts, rights, 1e-8)


def test_split_sylvester_oracles():
    zero = np.zeros((3, 3))
    # a zero generator: no row is nonzero, every direction solves
    basis = opcore.sylvester_null_space([zero], [np.zeros((2, 2))], 1e-8)
    g = np.column_stack([opcore.vectorize(x) for x in basis])
    assert g.shape == (6, 6)
    np.testing.assert_allclose(np.abs(g), np.eye(6), atol=0)
    # identity generators: the stack is exactly zero, so again every direction
    eye = [np.eye(3), np.eye(3)]
    assert not np.vstack([np.kron(np.eye(3), l) - np.kron(r.T, np.eye(3)) for l, r in zip(eye, eye)]).any()
    _assert_solution_space(opcore.sylvester_null_space(eye, eye, 1e-8), eye, eye, 9)
    # an intertwiner of C^2 into C^3: l x = x r with a Jordan block in l
    l = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    r = np.diag([2.0, 1.0])
    basis = opcore.sylvester_null_space([l], [r], 1e-8)
    _assert_solution_space(basis, [l], [r], 2)
    supports = sorted(tuple(np.argwhere(np.abs(x) > 0.5)[0]) for x in basis)
    assert supports == [(0, 1), (2, 0)]
    # l[0, 0] - r[0, 0] cancels exactly: the pattern joins what the stack does not
    l = np.array([[1.0, 1.0], [0.0, 2.0]])
    r = np.diag([1.0, 5.0])
    ((x,),) = [opcore.sylvester_null_space([l], [r], 1e-8)]
    _assert_solution_space((x,), [l], [r], 1)
    np.testing.assert_allclose(np.abs(x), [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def _family(rng, p, m=3):
    return [rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)) for _ in range(m)]


def test_product_map_is_the_explicit_loop():
    rng = np.random.default_rng(47)
    lefts, rights = _family(rng, 4), _family(rng, 4)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    expected = np.zeros_like(x)
    for l, r in zip(lefts, rights):
        expected += l @ x @ r
    assert np.array_equal(opcore.product_map(lefts, rights, x), expected)


def test_product_map_is_the_action_of_kron_sum_on_rectangular_input():
    rng = np.random.default_rng(53)
    lefts, rights = _family(rng, 3), _family(rng, 5)
    x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    np.testing.assert_allclose(
        opcore.vectorize(opcore.product_map(lefts, rights, x)),
        opcore.kron_sum(lefts, rights) @ opcore.vectorize(x),
        atol=1e-12,
    )
    with pytest.raises(ValueError, match=r"x has shape \(5, 3\), expected \(3, 5\)"):
        opcore.product_map(lefts, rights, x.T)
    with pytest.raises(ValueError):
        opcore.product_map(lefts, rights[:2], x)


def test_completeness_defects_are_the_gram_sums(monkeypatch):
    rng = np.random.default_rng(59)
    mats = [0.5 * a for a in _family(rng, 5)]
    eye = np.eye(5)
    unital_ref = opcore.op_norm(sum(a.conj().T @ a for a in mats) - eye)
    counital_ref = opcore.op_norm(sum(a @ a.conj().T for a in mats) - eye)

    def refused(*args, **kwargs):
        raise AssertionError("a Hermitian defect took an SVD")

    # the defects are Hermitian: their norms come from eigvalsh, not an SVD
    monkeypatch.setattr(np.linalg, "svd", refused)
    unital, counital = opcore.completeness_defects(mats)
    monkeypatch.undo()
    assert unital == pytest.approx(unital_ref, rel=1e-14)
    assert counital == pytest.approx(counital_ref, rel=1e-14)
    assert unital > 0.1 and counital > 0.1
    # a defect of either sign: -1/2 I and +1/2 I both have norm 1/2
    assert opcore.completeness_defects([np.eye(3) / np.sqrt(2.0)]) == pytest.approx((0.5, 0.5), abs=1e-15)
    assert opcore.completeness_defects([np.eye(3) * np.sqrt(1.5)]) == pytest.approx((0.5, 0.5), abs=1e-15)


def test_completeness_defects_of_the_truncated_cuntz_pair():
    tr = cuntz.build_isometries(8)
    unital, counital = opcore.completeness_defects([tr.v1, tr.v2])
    assert counital == 0.0
    assert unital == pytest.approx(1.0, abs=1e-15)


def test_overflowing_gram_sums_read_inf_without_a_warning():
    rng = np.random.default_rng(60)
    a = 1e160 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    # the Grams' +inf and -inf off-diagonal entries sum to nan
    pair = [1e160 * np.array([[1.0, 1.0], [0.0, 0.0]]), 1e160 * np.array([[1.0, -1.0], [0.0, 0.0]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert opcore.completeness_defects([a]) == (math.inf, math.inf)
        assert opcore.unital_defect(pair) == math.inf
        assert opcore.counital_defect(pair) == math.inf
        with pytest.raises(ValueError, match="overflows the float range"):
            channel.KrausFamily([a])


def test_every_name_in_an_all_list_resolves():
    # a deleted definition takes its __all__ entries and re-exports with it
    modules = [krauslab] + [importlib.import_module(f"krauslab.{m.name}") for m in pkgutil.iter_modules(krauslab.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules for name in module.__all__ if not hasattr(module, name)]
    assert len(modules) > 1 and stale == []


def test_wrong_shaped_input_names_its_argument():
    fam = channel.KrausFamily([np.eye(3) / np.sqrt(2), np.eye(3) / np.sqrt(2)])
    with pytest.raises(ValueError, match=r"^t has shape \(2, 2\), expected \(3, 3\)$"):
        channel.apply_predual(fam, np.eye(2))
    with pytest.raises(ValueError, match=r"^y has shape \(3, 2\), expected \(3, 3\)$"):
        channel.solve_perturbation(fam, np.ones((3, 2)))
    with pytest.raises(ValueError, match=r"^x has shape \(2, 2\), expected \(3, 3\)$"):
        channel.apply(fam, np.eye(2))
    with pytest.raises(ValueError, match=r"^x has shape \(3, 2\), expected \(3, 3\)$"):
        inequalities.defect_bounds(fam, np.ones((3, 2)))


def _block_diagonal_hermitian(rng):
    """A 7 x 7 Hermitian matrix with components {0, 3, 5}, {1, 6}, {2} and {4}."""
    h = np.zeros((7, 7), dtype=complex)
    for comp in ([0, 3, 5], [1, 6], [2], [4]):
        g = rng.standard_normal((len(comp),) * 2) + 1j * rng.standard_normal((len(comp),) * 2)
        h[np.ix_(comp, comp)] = g + g.conj().T
    return h, [[0, 3, 5], [1, 6], [2], [4]]


def test_values_only_core_of_a_complex_hermitian_split_is_its_eigvalsh():
    h, _ = _block_diagonal_hermitian(np.random.default_rng(6))
    rows, cols = np.nonzero(h)
    core = opcore.factorize(opcore.block_split(7, rows, cols, h[rows, cols]), vectors=False)
    assert core.blocks == 4 and core.largest_block == 3
    want = np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]
    np.testing.assert_allclose(core.sv, want, rtol=0, atol=1e-13 * opcore.op_norm(h))


def test_positive_part_and_psd_sqrt_vanish_off_the_blocks():
    h, comps = _block_diagonal_hermitian(np.random.default_rng(3))
    on = np.zeros(h.shape, dtype=bool)
    for comp in comps:
        on[np.ix_(comp, comp)] = True
    plus, minus = opcore.positive_part(h), opcore.positive_part(-h)
    root = opcore.psd_sqrt(h @ h)
    for out in (plus, minus, root):
        assert not out[~on].any()
    np.testing.assert_allclose(plus - minus, h, atol=1e-12)
    np.testing.assert_allclose(root @ root, h @ h, atol=1e-10 * (1 + opcore.op_norm(h @ h)))
    for comp in comps:
        # each block is the function of its own block of h
        w, v = np.linalg.eigh(h[np.ix_(comp, comp)])
        np.testing.assert_allclose(plus[np.ix_(comp, comp)], (v * np.clip(w, 0.0, None)) @ v.conj().T, atol=1e-12)


def test_positive_part_and_psd_sqrt_of_a_connected_input_are_bitwise_one_eigh():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (g + g.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    out = (v * np.clip(w, 0.0, None)) @ v.conj().T
    assert np.array_equal(opcore.positive_part(h), (out + out.conj().T) / 2.0)
    p = g @ g.conj().T
    sym = (p + p.conj().T) / 2.0
    w, v = np.linalg.eigh(sym)
    out = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    assert np.array_equal(opcore.psd_sqrt(p), (out + out.conj().T) / 2.0)


@pytest.mark.parametrize("d", [1, 2, 5, 8])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_dense_psd_sqrt_and_positive_part_are_bitwise_the_plain_eigh_formula(d, field):
    rng = np.random.default_rng(100 + d)
    g = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if field == "complex" else 0.0)
    cases = (
        (opcore.psd_sqrt, g @ g.conj().T, lambda w: np.sqrt(np.clip(w, 0.0, None))),
        (opcore.positive_part, g + g.conj().T, lambda w: np.clip(w, 0.0, None)),
    )
    for fn, m, f in cases:
        sym = opcore.symmetrized(m)
        # a full pattern: one block
        assert np.count_nonzero(sym) == d * d
        w, v = np.linalg.eigh(sym)
        out = (v * f(w)) @ v.conj().T
        want = (out + out.conj().T) / 2.0
        got = fn(m)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_psd_sqrt_gates_across_blocks():
    with pytest.raises(ValueError, match="matrix is not PSD: eigenvalue -5.000e-01"):
        opcore.psd_sqrt(np.diag([1.0, -0.5, 2.0]))
    # rounding-level negatives relative to the largest block are clipped
    np.testing.assert_array_equal(opcore.psd_sqrt(np.diag([4.0, -1e-12])), np.diag([2.0, 0.0]))


def test_components_oracle():
    # edges 0-3, 3-5, 6-1 and a self-loop at 2; node 4 has none
    labels = opcore.components(7, np.array([0, 5, 6, 2]), np.array([3, 3, 1, 2]))
    np.testing.assert_array_equal(labels, [0, 1, 2, 0, 4, 0, 1])
    # a long path settles on its smallest node
    path = np.arange(99)
    np.testing.assert_array_equal(opcore.components(100, path[::-1], path[::-1] + 1), np.zeros(100))


def _mixed_hermitian_stack(rng):
    """Five 7 x 7 Hermitian matrices: full, split, diagonal, zero and real."""
    g = rng.standard_normal((5, 7, 7)) + 1j * rng.standard_normal((5, 7, 7))
    h = g + g.conj().swapaxes(1, 2)
    h[1] = _block_diagonal_hermitian(rng)[0]
    h[2] = np.diag(np.diag(h[2]).real)
    h[3] = 0.0
    h[4] = h[4].real
    return h[rng.permutation(5)]


def test_stacked_positive_part_and_psd_sqrt_are_bitwise_the_per_matrix_calls():
    rng = np.random.default_rng(8)
    for _ in range(4):
        h = _mixed_hermitian_stack(rng)
        p = h @ h
        for fn, stack in ((opcore.positive_part, h), (opcore.psd_sqrt, p)):
            out = fn(stack)
            assert out.shape == stack.shape
            for j, m in enumerate(stack):
                assert np.array_equal(out[j], fn(m))


def test_stacked_spectral_maps_validate_and_gate_each_matrix_alone():
    # 1e-8 below zero passes against a stack-wide scale of 1e6, not against its own
    with pytest.raises(ValueError, match=r"matrix\[1\] is not PSD: eigenvalue -1.000e-08"):
        opcore.psd_sqrt(np.stack([np.diag([1e6, 0.0]), np.diag([1.0, -1e-8])]))
    with pytest.raises(ValueError, match=r"matrix\[1\] is not Hermitian"):
        opcore.positive_part(np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))


def test_completeness_defects_of_a_hermitian_family_take_one_gram(monkeypatch):
    rng = np.random.default_rng(61)
    g = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    families = [
        cuntz.luders_family(16).ops,
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        list((g + g.conj().swapaxes(1, 2)) / 6.0),
    ]
    eigvalsh = np.linalg.eigvalsh
    for mats in families:
        assert all(np.array_equal(a, a.conj().T) for a in mats)
        eye = np.eye(mats[0].shape[0])
        # the two-Gram value
        want = tuple(
            float(np.abs(eigvalsh(sum(gram) - eye)).max())
            for gram in ((a.conj().T @ a for a in mats), (a @ a.conj().T for a in mats))
        )
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        got = opcore.completeness_defects(mats)
        monkeypatch.undo()
        assert got == want and len(calls) == 1


def test_block_split_cuts_each_swap_pair_once():
    # components {0, 2} and {1, 3} are exchanged by the swap, {4, 5} maps to itself
    swap = np.array([1, 0, 3, 2, 5, 4])
    m = np.zeros((6, 6))
    m[np.ix_([0, 2], [0, 2])] = m[np.ix_([1, 3], [1, 3])] = [[1.0, 2.0], [2.0, 3.0]]
    m[np.ix_([4, 5], [4, 5])] = [[4.0, 5.0], [5.0, 4.0]]
    assert np.array_equal(m[swap][:, swap], m)
    rows, cols = np.nonzero(m)
    split = opcore.block_split(6, rows, cols, m[rows, cols], swap)
    # the pair is one stack of one block, listed as the kept block, then its image
    assert [index.tolist() for index in split.index] == [[[4, 5]], [[0, 2], [1, 3]]]
    assert [len(stack) for stack in split.stacks] == [1, 1] and split.stacks[0] is not split.stacks[1]
    for index, stack in zip(split.index, split.stacks):
        for b, idx in enumerate(index):
            assert np.array_equal(stack[b % len(stack)], m[np.ix_(idx, idx)])
    # minus_identity subtracts 1 once from the stack the pair shares
    opcore.minus_identity(split)
    assert np.array_equal(split.stacks[1][0], [[0.0, 2.0], [2.0, 2.0]])


def _swap_symmetric(rng, e, f, density):
    """A real symmetric m of size e + f with ``m[swap][:, swap] == m``
    bitwise, and the seeded involution ``swap``.

    e indices, in a random order, form swap pairs whose first halves carry a
    sparse symmetric pattern (each entry present with probability
    ``density``), so the swap exchanges those blocks; the other f indices
    carry a full symmetric block under an involution of their own (not the
    identity), so the swap maps it to itself.
    """
    n = e + f
    order = rng.permutation(n)
    first, second, rest = order[: e // 2], order[e // 2 : e], order[e:]
    k = rng.integers(1, f // 2 + 1) if f else 0
    swap = np.arange(n)
    swap[first], swap[second] = second, first
    swap[rest[:k]], swap[rest[k : 2 * k]] = rest[k : 2 * k], rest[:k]
    a = np.zeros((n, n))
    a[np.ix_(first, first)] = rng.standard_normal((e // 2, e // 2)) * (rng.random((e // 2, e // 2)) < density)
    a[np.ix_(rest, rest)] = rng.standard_normal((f, f))
    a = a + a.T
    # (x + y) and (y + x) are the same double, so m commutes with the swap bitwise
    return a + a[swap][:, swap], swap


@pytest.mark.parametrize(
    "seed, e, f, kinds",
    [
        (0, 24, 0, {"exchanged"}),
        (1, 30, 0, {"exchanged"}),
        (2, 16, 8, {"exchanged", "self"}),
        (3, 20, 10, {"exchanged", "self"}),
        (4, 0, 12, {"full"}),
    ],
    ids=["exchanged24", "exchanged30", "mixed24", "mixed30", "full12"],
)
def test_swap_split_core_answers_like_a_dense_eigh(seed, e, f, kinds):
    rng = np.random.default_rng(seed)
    m, swap = _swap_symmetric(rng, e, f, 0.15)
    n = e + f
    assert np.array_equal(m[swap][:, swap], m)
    rows, cols = np.nonzero(m)
    split = opcore.block_split(n, rows, cols, m[rows, cols], swap)
    # each stack object once, each index once, each listing of a block m's block
    assert all(s is not t for j, s in enumerate(split.stacks) for t in split.stacks[:j])
    assert np.array_equal(np.sort(np.concatenate([index.ravel() for index in split.index])), np.arange(n))
    seen = set()
    for index, stack in zip(split.index, split.stacks):
        at = index.reshape(-1, *stack.shape[:2])
        for idx in at:
            assert np.array_equal(stack, m[idx[:, :, None], idx[:, None, :]])
        if len(at) == 2:
            assert np.array_equal(at[1], swap[at[0]])
            seen.add("exchanged")
        else:
            # the full pattern's fast path ignores the swap: one block, listed once
            assert len(at) == 1 and np.array_equal(np.sort(swap[at[0]], axis=1), at[0])
            seen.add("full" if rows.size == n * n else "self")
    assert seen == kinds
    core = opcore.factorize(opcore.minus_identity(split))
    a = m - np.eye(n)
    w, q = np.linalg.eigh(a)
    # S - I's blocks: connected components of m's pattern, each listed once
    labels = opcore.components(n, rows, cols)
    assert core.blocks == np.unique(labels).size
    np.testing.assert_allclose(core.sv, np.sort(np.abs(w))[::-1], rtol=0.0, atol=1e-12)
    # cut in the widest gap among the smallest |w|, so no cluster is split
    absw = np.sort(np.abs(w))
    g = int(np.argmax(np.diff(absw[: n // 2])))
    tol = (absw[g] + absw[g + 1]) / 2.0
    k, ref = core.kernel(tol), q[:, np.abs(w) <= tol]
    assert k.shape == ref.shape and k.shape[1] > 0
    assert np.linalg.norm(k @ k.conj().T - ref @ ref.T, 2) <= 1e-12
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=np.abs(w) > tol)
    np.testing.assert_allclose(core.solve(b, tol), q @ (inv * (q.T @ b)), rtol=0.0, atol=1e-12)


def test_block_split_oracle():
    h, _ = _block_diagonal_hermitian(np.random.default_rng(5))
    rows, cols = np.nonzero(h)
    split = opcore.block_split(7, rows, cols, h[rows, cols])
    assert [index.tolist() for index in split.index] == [[[2], [4]], [[1, 6]], [[0, 3, 5]]]
    for index, stack in zip(split.index, split.stacks):
        for b, idx in enumerate(index):
            assert np.array_equal(stack[b], h[np.ix_(idx, idx)])
    # a connected pattern, and a full one, is one block: the whole matrix
    full = np.arange(1.0, 10.0).reshape(3, 3)
    for dense in (np.array([[0.0, 1.0], [0.0, 0.0]]), full):
        rows, cols = np.nonzero(dense)
        (index,), (stack,) = opcore.block_split(len(dense), rows, cols, dense[rows, cols])
        assert np.array_equal(index, np.arange(len(dense))[None])
        assert np.array_equal(stack, dense[None])


def test_kron_entries_sit_where_kron_sum_puts_them():
    rng = np.random.default_rng(42)
    lefts = [np.diag(rng.standard_normal(3)), np.triu(rng.standard_normal((3, 3)))]
    rights = [np.eye(2), rng.standard_normal((2, 2)) * [[1, 0], [1, 1]]]
    e = opcore.kron_entries(lefts, rights)
    s = opcore.kron_sum(lefts, rights)
    rows, cols, values = e.nonzero()
    assert np.array_equal(s[rows, cols], values)
    off = np.ones(s.shape, dtype=bool)
    off[rows, cols] = False
    assert not s[off].any()
    # only pairs where some factor is nonzero are stored
    assert e.values.shape == (3, 6)


@pytest.mark.parametrize("p, q, full", [(3, 2, True), (1, 1, True), (3, 2, False)])
def test_kron_entries_tensor_is_the_dense_matrix(p, q, full):
    rng = np.random.default_rng(43)
    lefts = [ginibre(rng, p) for _ in range(2)]
    rights = [ginibre(rng, q) for _ in range(2)]
    if not full:
        lefts = [np.triu(l) for l in lefts]
    e = opcore.kron_entries(lefts, rights)
    t, s = e.tensor(), e.dense()
    assert t.shape == (q, p, q, p)
    assert np.array_equal(t.reshape(p * q, p * q), s)
    # a full pattern's tensor is a view of the values; dense is always fresh
    assert np.shares_memory(t, e.values) == full
    assert not np.shares_memory(s, e.values) and s.flags.c_contiguous


def test_block_core_serves_the_dense_answers():
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    a = np.zeros((6, 6))
    a[np.ix_([0, 2, 4], [0, 2, 4])] = q @ np.diag([2.0, -1.0, 1e-13]) @ q.T
    a[np.ix_([1, 5], [1, 5])] = [[0.5, 0.25], [0.25, -0.5]]
    a[3, 3] = -3.0
    a = (a + a.T) / 2.0
    rows, cols = np.nonzero(a)
    split = opcore.block_split(6, rows, cols, a[rows, cols])
    core, dense = opcore.factorize(split), opcore.factorize(a.copy())
    assert core.blocks == 3 and core.largest_block == 3 and dense.blocks == 1
    np.testing.assert_allclose(core.sv, dense.sv, atol=1e-14)
    k = core.kernel(1e-10)
    assert k.shape == (6, 1)
    np.testing.assert_allclose(np.abs(k.T @ dense.kernel(1e-10)), [[1.0]], atol=1e-12)
    least, dense_least = core.kernel(core.sv[-1])[:, -1], dense.kernel(dense.sv[-1])[:, -1]
    np.testing.assert_allclose(np.abs(least), np.abs(dense_least), atol=1e-12)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_allclose(core.solve(b, 1e-10), dense.solve(b, 1e-10), atol=1e-12)


def _core_kind(kind: str) -> tuple:
    """A matrix and its core, for each of the four ways a core comes to be."""
    rng = np.random.default_rng(13)
    if kind == "luders8":
        # exactly real symmetric S - I that splits into stacked blocks
        fam = cuntz.luders_family(8)
        return (channel.superoperator(fam) - np.eye(64)).real, channel.spectral_core(fam)
    if kind == "connected-real":
        # real symmetric with a full pattern and a two-dimensional kernel
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        m = q @ np.diag([2.0, -1.0, 0.5, 0.0, 0.0]) @ q.T
        m = (m + m.T) / 2.0
        rows, cols = np.nonzero(m)
        return m, opcore.factorize(opcore.block_split(5, rows, cols, m[rows, cols]))
    if kind == "complex-svd":
        # complex 6 x 6 of rank 4
        m = (rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))) @ (
            rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        )
    else:
        m = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    return m, opcore.factorize(m.copy())


@pytest.mark.parametrize("kind", ["luders8", "connected-real", "complex-svd", "wide3x7"])
def test_every_core_kind_answers_like_its_matrix(kind):
    m, core = _core_kind(kind)
    rows, cols = m.shape
    tol = 1e-10
    assert (core.blocks > 1) == (kind == "luders8")
    # block b is u diag(w) vh on its rows and columns, or held whole with its
    # eigenvalues w when u and vh are not computed; m is zero off the blocks
    on = np.zeros(m.shape, dtype=bool)
    for f, (index, u, w, vh) in enumerate(core.factors):
        assert np.isrealobj(w)
        if u is None:
            # listing r of held block k is index[r * len(stack) + k]
            at = index.reshape(-1, *core.stacks[f].shape[:2])
            r, c = at[..., :, None], at[..., None, :]
            assert vh is None and (m[r, c] == core.stacks[f]).all()
            np.testing.assert_allclose(np.linalg.eigvalsh(core.stacks[f]), w, atol=1e-12)
        else:
            r, c = index[:, : u.shape[1], None], index[:, None, : vh.shape[2]]
            np.testing.assert_allclose((u * w[:, None, :]) @ vh, m[r, c], atol=1e-12)
        on[r, c] = True
    assert not m[~on].any()
    # sv: the singular values, padded with zeros when m is wide
    sv = np.linalg.svd(m, compute_uv=False)
    np.testing.assert_allclose(core.sv, np.pad(sv, (0, cols - sv.size)), atol=1e-12)
    # the kernel is an orthonormal basis of the null space
    k = core.kernel(tol)
    assert k.shape == (cols, cols - int(np.sum(sv > tol)))
    np.testing.assert_allclose(k.conj().T @ k, np.eye(k.shape[1]), atol=1e-12)
    np.testing.assert_allclose(m @ k, 0.0, atol=1e-12)
    v = core.kernel(core.sv[-1])[:, -1]
    assert np.linalg.norm(m @ v) == pytest.approx(core.sv[-1], abs=1e-12)
    # solve is the pseudo-inverse with singular values <= tol dropped
    b = [1.0, 1j] @ np.random.default_rng(14).standard_normal((2, rows))
    np.testing.assert_allclose(core.solve(b, tol), np.linalg.pinv(m, rcond=tol / sv[0]) @ b, atol=1e-12)
    with pytest.raises(ValueError, match="b has shape"):
        core.solve(np.ones(rows + 1), tol)


def test_a_real_symmetric_array_is_one_svd_that_answers_like_its_block_split():
    # only a BlockSplit asks for eigh: the array itself gets one real SVD
    m, split_core = _core_kind("connected-real")
    core = opcore.factorize(m)
    u, sv, vh = np.linalg.svd(m)
    ((index, core_u, w, core_vh),) = core.factors
    assert np.array_equal(index, np.arange(5)[None])
    assert np.array_equal(core_u, u[None]) and np.array_equal(w, sv[None])
    assert np.array_equal(core_vh, vh[None]) and core_vh.dtype == np.float64
    np.testing.assert_allclose(core.sv, split_core.sv, atol=1e-12)
    # the same two-dimensional kernel span, and the same pseudo-inverse
    tol = 1e-10
    k, split_k = core.kernel(tol), split_core.kernel(tol)
    assert k.shape == split_k.shape == (5, 2)
    np.testing.assert_allclose(k @ k.conj().T, split_k @ split_k.conj().T, atol=1e-12)
    b = [1.0, 1j] @ np.random.default_rng(15).standard_normal((2, 5))
    np.testing.assert_allclose(core.solve(b, tol), split_core.solve(b, tol), atol=1e-12)
