"""Truncated shift isometries, the diagonal t-sequence, and the experiment run."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import krauslab as kl
from krauslab import cuntz, opcore


def test_build_isometries_oracle():
    tr = cuntz.build_isometries(6)
    # v1 e_j = e_{2j} while 2j < 6
    expected_v1 = np.zeros((6, 6))
    expected_v1[0, 0] = expected_v1[2, 1] = expected_v1[4, 2] = 1.0
    expected_v2 = np.zeros((6, 6))
    expected_v2[1, 0] = expected_v2[3, 1] = expected_v2[5, 2] = 1.0
    np.testing.assert_array_equal(tr.v1, expected_v1)
    np.testing.assert_array_equal(tr.v2, expected_v2)
    with pytest.raises(ValueError):
        cuntz.build_isometries(1)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33])
def test_completeness_exact_isometry_broken(n):
    tr = cuntz.build_isometries(n)
    # every basis index is even or odd exactly once, so completeness is exact
    assert tr.completeness_defect == 0.0
    if n >= 3:
        assert tr.isometry_defects[0] == pytest.approx(1.0, abs=1e-15)
        assert tr.isometry_defects[1] == pytest.approx(1.0, abs=1e-15)


def test_truncation_defects_are_computed_on_first_access(monkeypatch):
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    tr = cuntz.build_isometries(8)
    assert calls == []
    assert tr.isometry_defects == pytest.approx((1.0, 1.0), abs=1e-15) and tr.completeness_defect == 0.0
    reads = len(calls)
    assert tr.isometry_defects and tr.completeness_defect == 0.0 and len(calls) == reads


def test_t_sequence_oracle_n9():
    t = cuntz.t_sequence(9).values
    expected = [
        1.0,  # t_0
        1.0,  # 2^0
        2.0 ** -0.5,  # 2^1
        1.0,  # copies t_1
        3.0 ** -0.5,  # 2^2
        2.0 ** -0.5,  # copies t_2
        1.0,  # copies t_3
        1.0,  # copies t_3
        0.5,  # 2^3
    ]
    np.testing.assert_allclose(t, expected, atol=0.0)


def test_t_sequence_copy_rules():
    t = cuntz.t_sequence(64).values
    for j in range(2, 64):
        if j & (j - 1) == 0:
            continue
        parent = j // 2 if j % 2 == 0 else (j - 1) // 2
        assert t[j] == t[parent]  # bitwise copies, no rounding
    with pytest.raises(ValueError):
        cuntz.t_sequence(0)


def test_commutation_report_oracle_n9():
    rep = cuntz.commutation_report(9)
    assert rep.v2_comm == 0.0
    exact = (
        (1.0 - 2.0 ** -0.5) ** 2
        + (2.0 ** -0.5 - 3.0 ** -0.5) ** 2
        + (3.0 ** -0.5 - 0.5) ** 2
    )
    assert rep.v1_comm_sq == pytest.approx(exact, abs=1e-12)
    assert rep.v1_comm_sq <= rep.tail_bound + 1e-12


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_v2_commutes_exactly_v1_below_tail(n):
    rep = cuntz.commutation_report(n)
    assert rep.v2_comm == 0.0
    assert rep.v1_comm_sq <= rep.tail_bound + 1e-12
    # the tail is summable: it never exceeds the full series value
    assert rep.tail_bound < 0.3


def test_scalar_distance_oracle_and_growth():
    values = cuntz.t_sequence(4).values
    mean = values.mean()
    assert cuntz.scalar_distance(4) == pytest.approx(
        float(np.sum((values - mean) ** 2)), abs=1e-15
    )
    assert cuntz.scalar_distance(4) == pytest.approx(0.0643398, abs=1e-6)
    dists = [cuntz.scalar_distance(n) for n in (16, 64, 256, 1024)]
    assert all(b > a for a, b in zip(dists, dists[1:]))


def test_luders_family_structure():
    fam = cuntz.luders_family(8)
    assert len(fam) == 9 and fam.dim == 8
    assert fam.is_unital and fam.is_trace_preserving
    for a in fam.ops:
        np.testing.assert_allclose(a, a.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh((a + a.conj().T) / 2)[0] >= -1e-12
    total = sum(a @ a for a in fam.ops)
    assert opcore.op_norm(total - np.eye(8)) <= 1e-12


def test_luders_family_recovers_isometries():
    fam = cuntz.luders_family(8)
    s = math.sqrt(8.0)
    a = fam.ops
    v1 = s * (a[1] - a[2] + 1j * a[3] - 1j * a[4])
    v2 = s * (a[5] - a[6] + 1j * a[7] - 1j * a[8])
    np.testing.assert_allclose(v1, fam.truncation.v1, atol=1e-12)
    np.testing.assert_allclose(v2, fam.truncation.v2, atol=1e-12)


def test_experiment_report():
    rep = cuntz.experiment(8)
    assert rep.n == 8
    assert rep.gap.fix_dim == 1
    assert rep.commutation.v2_comm == 0.0
    assert rep.unital_defect <= 8e-9 and rep.counital_defect <= 8e-9
    # the least-squares repair hits an exactly fixed element up to rounding
    assert rep.candidate_fixed_defect == pytest.approx(
        rep.perturbation_residual, abs=1e-9
    )
    assert rep.candidate_fixed_defect <= 1e-7
    # repairing diag(t) collapses it toward the scalar line, while the
    # t-sequence itself stays far away
    assert rep.scalar_line_distance < rep.t_scalar_distance
    assert len(rep.generator_commutators) == 9
    obj = rep.to_json()
    assert obj["n"] == 8 and isinstance(obj["generator_commutators"], list)


def test_experiment_warns_off_power_of_two():
    with pytest.warns(UserWarning):
        cuntz.experiment(6)
    with pytest.raises(ValueError):
        cuntz.experiment(3)


EXPERIMENT_KEYS = {
    "n",
    "sigma_min",
    "restricted_gap",
    "fix_dim",
    "unital_defect",
    "counital_defect",
    "generator_commutators",
    "perturbation_residual",
    "candidate_fixed_defect",
    "scalar_line_distance",
    "v2_comm",
    "v1_comm_sq",
    "tail_bound",
    "t_scalar_distance",
    "diagnostics",
}


@pytest.mark.parametrize("n", [4, 8, 16])
def test_experiment_json_flattens_its_reports(n):
    rep = cuntz.experiment(n)
    obj = rep.to_json()
    assert set(obj) == EXPERIMENT_KEYS
    assert json.loads(json.dumps(obj)) == obj
    assert {k: obj[k] for k in ("sigma_min", "restricted_gap", "fix_dim", "diagnostics")} == rep.gap.to_json()
    assert (obj["v2_comm"], obj["v1_comm_sq"], obj["tail_bound"]) == dataclasses.astuple(rep.commutation)


def test_luders_commutant_is_scalar():
    fam = cuntz.luders_family(8)
    com = kl.commutant(list(fam.ops))
    assert len(com) == 1
    assert com.distance(np.eye(8) / math.sqrt(8.0)) <= 1e-10


@pytest.mark.parametrize("n", [16, 32, 48])
def test_block_core_agrees_with_a_dense_reference(n):
    fam = cuntz.luders_family(n)
    a = kl.superoperator(fam) - np.eye(n * n)
    assert not a.imag.any()
    sv = np.sort(np.abs(np.linalg.eigvalsh(a.real)))
    tol = kl.fix_tol(n)
    fix_dim = int(np.sum(sv <= tol))
    rep = kl.gap_report(fam)
    assert rep.fix_dim == fix_dim == 1
    assert abs(rep.restricted_gap - sv[fix_dim]) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cuntz.experiment(n).candidate_fixed_defect <= tol


def test_luders_core_splits_into_blocks():
    # Only facts that hold on any BLAS build are pinned.  Each part a_j is
    # supported on the components of the real or imaginary part h of its
    # isometry (structural zeros, exact everywhere); those supports cut S
    # into 289 components, the largest of side 2016.  Rounding zeros and
    # exact cancellations in S can only cut further.
    n = 48
    fam = cuntz.luders_family(n)
    masks = [np.eye(n)]
    for v in (fam.truncation.v1, fam.truncation.v2):
        for h in ((v + v.conj().T) / 2.0, (v - v.conj().T) / 2.0j):
            rows, cols = np.nonzero(h)
            label = opcore.components(n, rows, cols)
            mask = (label[:, None] == label[None, :]) & (h != 0).any(axis=0)
            masks += [mask.astype(float)] * 2
    for a, mask in zip(fam.ops, masks):
        assert not a[mask == 0].any()
    rows, cols, _ = opcore.kron_entries(masks, masks).nonzero()
    _, sizes = np.unique(opcore.components(n * n, rows, cols), return_counts=True)
    assert (sizes.size, sizes.max()) == (289, 2016)
    core = kl.spectral_core(fam)
    assert core.blocks >= 289 and core.largest_block <= 2016
    assert sum(index.size for index, _, _, _ in core.factors) == n * n


@pytest.mark.parametrize("n", [4, 5, 8, 16, 48, 64, 128])
def test_luders_operators_are_bitwise_the_per_matrix_parts(n):
    # the six positive parts come from one stacked spectral map; each equals
    # the spectral map of its own matrix, signs of zeros included
    trunc = cuntz.build_isometries(n)
    scale = 1.0 / math.sqrt(8.0)
    parts = []
    for v in (trunc.v1, trunc.v2):
        re = (v + v.conj().T) / 2.0
        im_plus = scale * opcore.positive_part((v - v.conj().T) / 2.0j)
        parts += [scale * opcore.positive_part(re), scale * opcore.positive_part(-re), im_plus, im_plus.conj()]
    total = sum(v.conj().T @ v + v @ v.conj().T for v in (trunc.v1, trunc.v2)) / 16.0
    ops = [opcore.psd_sqrt(np.eye(n) - total)] + parts
    fam = cuntz.luders_family(n)
    assert len(fam.ops) == len(ops) == 9
    for a, b in zip(fam.ops, ops):
        assert np.array_equal(a.view(np.float64), b.view(np.float64))
        assert np.array_equal(np.signbit(a.view(np.float64)), np.signbit(b.view(np.float64)))


def test_luders_a0_is_exactly_diagonal():
    a0 = cuntz.luders_family(16).ops[0]
    assert np.array_equal(a0, np.diag(np.diag(a0)))


def test_experiment_allocates_no_dense_superoperator():
    # a complex S at n = 64 takes 16 n^4 bytes (268 MB)
    n = 64
    tracemalloc.start()
    try:
        cuntz.experiment(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n**4


def test_experiment_factors_each_block_once(monkeypatch):
    # the gap report reads the full core, so each swap pair of blocks gets its
    # values once, and only the solve takes eigenvectors, of the kernel's block
    calls, cores = [], []
    inside = []
    factorize, solve = opcore.factorize, opcore.SpectralCore.solve

    def tracking(fn, tag):
        def wrapper(*args, **kwargs):
            inside.append(tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                inside.pop()
            if tag == "core":
                cores.append(out)
            return out

        return wrapper

    def watching(name):
        fn = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            if inside:
                calls.append((name, inside[-1], np.shape(a)))
            return fn(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(opcore, "factorize", tracking(factorize, "core"))
    monkeypatch.setattr(opcore.SpectralCore, "solve", tracking(solve, "solve"))
    for name in ("eigh", "eigvalsh", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, watching(name))
    rep = cuntz.experiment(16)
    (core,) = cores
    values = [c for c in calls if c[0] == "eigvalsh"]
    assert [c for c in calls if c[0] == "svd"] == []
    # one eigvalsh per held stack, inside factorize; a swap pair's images
    # are listed over its stack, so fewer blocks are held than listed
    assert len(values) == len(core.stacks) == len(core.factors) and {c[1] for c in values} == {"core"}
    assert sum(len(s) for s in core.stacks) < core.blocks
    assert sum(int(np.prod(shape[:-1])) for _, _, shape in values) < 256
    # fix_dim 1: one eigh, of the one block holding the kernel; the rest are solved directly
    assert [(tag, shape[0]) for name, tag, shape in calls if name == "eigh"] == [("solve", 1)]
    assert {tag for name, tag, _ in calls if name == "solve"} == {"solve"}
    assert rep.gap.blocks == 97 and rep.gap.fix_dim == 1


def test_experiment_builds_the_isometries_once_and_takes_no_svd(monkeypatch):
    # completeness and isometry defects are Hermitian, read off eigvalsh, and
    # the commutators of diag(t) come from the isometries' index maps
    builds = []
    build = cuntz.build_isometries

    def counting(n):
        builds.append(n)
        return build(n)

    def refused(*args, **kwargs):
        raise AssertionError("the experiment took an SVD")

    monkeypatch.setattr(cuntz, "build_isometries", counting)
    monkeypatch.setattr(np.linalg, "svd", refused)
    rep = cuntz.experiment(16)
    assert builds == [16]
    assert rep.commutation.v2_comm == 0.0 and rep.commutation.v1_comm_sq <= rep.commutation.tail_bound
