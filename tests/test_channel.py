"""Kraus families, superoperators, fixed spaces, commutants, perturbations.

Frozen oracles: the two-projection pinching on M2, conjugation by diag(1, i),
and a three-dimensional unital family built from a nilpotent shift whose
fixed space strictly contains the commutant.
"""

import json
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

import krauslab as kl
from krauslab import channel, cuntz, opcore, tracelab
from krauslab.channel import SubspaceBasis
from krauslab.ensembles import (
    ginibre,
    haar_unitary,
    intertwining_pair,
    mixed_unitary_family,
    random_luders_family,
    trial_rng,
)

DEMO_DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)


def pinching():
    return kl.KrausFamily([E11, E22])


def witness_family(lam=0.6):
    """Unital, non-trace-preserving family with fixed space bigger than the commutant."""
    a1 = np.zeros((3, 3), dtype=complex)
    a1[0, 1] = lam
    a2 = np.diag([1.0, np.sqrt(1.0 - lam * lam), 1.0]).astype(complex)
    return kl.KrausFamily([a1, a2])


def tensor_family(d=8, m=3, seed=5):
    """The benchmark's tensor kind: weighted u_j (x) I_4, complex, many blocks."""
    rng = trial_rng(21, seed)
    probs = rng.dirichlet(np.ones(m))
    return kl.KrausFamily([np.sqrt(p) * np.kron(haar_unitary(rng, d // 4), np.eye(4)) for p in probs])


def core_matrix(core, n):
    """The square matrix a core factors, assembled densely from its blocks:
    ``u diag(w) vh`` where it holds vectors, else the held block, written at
    each of its listings."""
    m = np.zeros((n, n), dtype=complex)
    for f, (index, u, w, vh) in enumerate(core.factors):
        block = core.stacks[f] if u is None else (u * w[:, None, :]) @ vh
        at = listings(index, block)
        m[at[..., :, None], at[..., None, :]] = block
    return m


def listings(index, stack):
    """``index`` as (listings, blocks, size): row r * len(stack) + k is listing r of block k."""
    return index.reshape(-1, *stack.shape[:2])


def core_factors(core):
    """The arrays a core keeps beside ``w``: its vectors or its held blocks."""
    return [f for _, u, _, vh in core.factors for f in (u, vh) if f is not None] + list(core.stacks or ())


def test_family_validation():
    with pytest.raises(ValueError):
        kl.KrausFamily([])
    with pytest.raises(ValueError):
        kl.KrausFamily([np.zeros((2, 3))])
    with pytest.raises(ValueError):
        kl.KrausFamily([np.eye(2), np.eye(3)])
    fam = pinching()
    assert len(fam) == 2 and fam.dim == 2
    assert not fam.ops[0].flags.writeable


def test_family_copies_its_operators():
    a = E11.copy()
    view = a[:]
    fam = kl.KrausFamily([a, E22])
    before = kl.gap_report(fam)
    # the caller's array stays writable, and writing to it reaches nothing
    assert a.flags.writeable
    view[0, 1] = 5.0
    a[1, 1] = 2.0
    np.testing.assert_array_equal(fam.ops[0], E11)
    assert kl.gap_report(fam) == before
    assert kl.gap_report(kl.KrausFamily(fam.ops)) == before


def test_defect_flags():
    fam = pinching()
    assert fam.unital_defect == 0.0 and fam.counital_defect == 0.0
    assert fam.is_unital and fam.is_trace_preserving
    # lone nilpotent: sum a*a = e22, both defects exactly 1
    nil = kl.KrausFamily([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert nil.unital_defect == pytest.approx(1.0, abs=1e-15)
    assert nil.counital_defect == pytest.approx(1.0, abs=1e-15)
    assert not nil.is_unital and not nil.is_trace_preserving


def test_apply_and_predual_oracle():
    fam = pinching()
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    # pinching kills the off-diagonal in both directions
    np.testing.assert_allclose(kl.apply(fam, x), np.diag([1.0, 4.0]), atol=1e-15)
    np.testing.assert_allclose(kl.apply_predual(fam, x), np.diag([1.0, 4.0]), atol=1e-15)


def test_apply_predual_duality_and_trace():
    rng = trial_rng(21, 0)
    fam = mixed_unitary_family(rng, 4, 3)
    x = ginibre(rng, 4)
    t = ginibre(rng, 4)
    lhs = np.trace(kl.apply(fam, x) @ t)
    rhs = np.trace(x @ kl.apply_predual(fam, t))
    assert lhs == pytest.approx(rhs, abs=1e-10)
    # unital family: the predual preserves the trace
    assert np.trace(kl.apply_predual(fam, t)) == pytest.approx(np.trace(t), abs=1e-10)


def test_superoperator_pinching_oracle():
    s = kl.superoperator(pinching())
    np.testing.assert_array_equal(s, np.diag([1.0, 0.0, 0.0, 1.0]))


def test_superoperator_unitary_oracle():
    u = np.diag([1.0, 1j])
    s = kl.superoperator(kl.KrausFamily([u]))
    np.testing.assert_allclose(s, np.diag([1.0, -1j, 1j, 1.0]), atol=1e-15)


def test_superoperator_matches_apply():
    rng = trial_rng(21, 1)
    fam = mixed_unitary_family(rng, 3, 2)
    s = kl.superoperator(fam)
    # independent oracle: assemble the matrix column by column
    direct = opcore.linear_map_matrix(lambda m: kl.apply(fam, m), 3, 3)
    np.testing.assert_allclose(s, direct, atol=1e-12)


@pytest.mark.parametrize(
    "make",
    [lambda: cuntz.luders_family(8), lambda: mixed_unitary_family(trial_rng(21, 6), 5, 3), tensor_family],
    ids=["luders8", "mixed_unitary5", "tensor8"],
)
def test_superoperator_is_the_kron_sum(make):
    fam = make()
    expected = sum(np.kron(a.T, a.conj().T) for a in fam.ops)
    assert np.array_equal(kl.superoperator(fam), expected)


@pytest.mark.parametrize(
    "make, real",
    [
        (lambda: cuntz.luders_family(8), True),
        (lambda: mixed_unitary_family(trial_rng(21, 6), 5, 3), False),
    ],
    ids=["luders8-eigh", "mixed_unitary5-svd"],
)
def test_factorization_leaves_returned_superoperators_alone(make, real):
    # S - I is formed in place, on the core's own blocks or dense buffer
    fam = make()
    before = kl.superoperator(fam)
    kept = before.copy()
    core = kl.spectral_core(fam)
    assert (core.blocks > 1) == real
    assert all(np.isrealobj(f) == real for f in core_factors(core))
    assert np.array_equal(before, kept)
    assert np.array_equal(before, kl.superoperator(fam))


@pytest.mark.parametrize(
    "make, real",
    [
        # S - I = diag(0.44, 0.08, -0.4, ...): eigenvalues of both signs
        (lambda: kl.KrausFamily([np.diag([1.2, 0.5, 0.9])]), True),
        (lambda: witness_family(), False),
        (lambda: mixed_unitary_family(trial_rng(21, 9), 3, 2), False),
    ],
    ids=["diag-mixed-signs", "witness", "mixed_unitary3"],
)
def test_spectral_core_factorizes_s_minus_identity(make, real):
    fam = make()
    core = kl.spectral_core(fam)
    assert kl.spectral_core(fam) is core
    assert all(np.isrealobj(f) == real for f in core_factors(core))
    n = fam.dim**2
    a = kl.superoperator(fam) - np.eye(n)
    np.testing.assert_allclose(core_matrix(core, n), a, atol=1e-12)
    np.testing.assert_allclose(core.sv, np.linalg.svd(a, compute_uv=False), atol=1e-12)


def test_real_symmetric_core_matches_explicit_svd():
    fam = cuntz.luders_family(16)
    core = kl.spectral_core(fam)
    assert all(np.isrealobj(f) for f in core_factors(core))
    d = fam.dim
    tol = kl.fix_tol(d)
    s = kl.superoperator(fam)
    u, sv, vh = np.linalg.svd(s - np.eye(d * d))
    np.testing.assert_allclose(core.sv, sv, rtol=0.0, atol=1e-10)
    fix_dim = int(np.sum(sv <= tol))
    rep = kl.gap_report(fam)
    assert rep.fix_dim == fix_dim == len(kl.fixed_space(fam))
    assert rep.sigma_min == pytest.approx(sv[-1], abs=1e-10)
    assert rep.restricted_gap == pytest.approx(sv[-1 - fix_dim], abs=1e-10)
    y = np.diag(cuntz.t_sequence(d).values).astype(complex)
    b = opcore.vectorize(y - kl.apply(fam, y))
    inv = np.zeros_like(sv)
    np.divide(1.0, sv, out=inv, where=sv > tol)
    z = vh.conj().T @ (inv * (u.conj().T @ b))
    residual = float(np.linalg.norm((s - np.eye(d * d)) @ z - b))
    res = kl.solve_perturbation(fam, y)
    np.testing.assert_allclose(res.z, opcore.devectorize(z, d, d), rtol=0.0, atol=1e-10)
    assert res.residual == pytest.approx(residual, abs=1e-10)


@pytest.mark.parametrize(
    "make",
    [lambda: mixed_unitary_family(trial_rng(21, 6), 5, 3), witness_family, tensor_family],
    ids=["mixed_unitary5", "witness-real-nonsymmetric", "tensor8"],
)
def test_complex_core_is_bitwise_the_svd(make):
    # fixed_space, extract_trace and near_fixed_from_trace read these factors,
    # and no CLI report diff reaches them
    fam = make()
    core = kl.spectral_core(fam)
    n = fam.dim**2
    u, sv, vh = np.linalg.svd(kl.superoperator(fam) - np.eye(n))
    # one block covering every row and column
    ((index, core_u, w, core_vh),) = core.factors
    assert np.array_equal(index, np.arange(n)[None])
    assert np.array_equal(core_u, u[None])
    assert np.array_equal(w, sv[None]) and np.array_equal(core.sv, sv)
    assert np.array_equal(core_vh, vh[None])


def demo_family(name):
    return kl.KrausFamily.from_json(json.loads((DEMO_DATA / f"{name}.json").read_text()))


def real_symmetric_generators(seed, d=5, m=3):
    g = np.random.default_rng(seed).standard_normal((m, d, d))
    return kl.KrausFamily([(x + x.T) / (2 * d) for x in g])


BLOCK_PATH = {
    "luders8": lambda: cuntz.luders_family(8),
    "luders16": lambda: cuntz.luders_family(16),
    "luders48": lambda: cuntz.luders_family(48),
    "pinching.json": lambda: demo_family("pinching"),
    "reflection_mix.json": lambda: demo_family("reflection_mix"),
    "real-symmetric": lambda: real_symmetric_generators(18),
    "real-diagonal": lambda: kl.KrausFamily([np.diag([1.2, 0.5, 0.9])]),
}


@pytest.mark.parametrize("make", BLOCK_PATH.values(), ids=BLOCK_PATH.keys())
def test_s_commutes_with_the_transpose_swap_bitwise_on_the_block_path(make):
    # P S P = conj(S) for every Kraus map, and S is exactly real here, so
    # opcore.block_split may cut each swap pair's blocks once, on one stack
    fam = make()
    assert isinstance(channel._s_minus_identity(fam), opcore.BlockSplit)
    d = fam.dim
    s = kl.superoperator(fam)
    swap = (np.arange(d * d) % d) * d + np.arange(d * d) // d
    assert np.array_equal(s[swap][:, swap], s)


@pytest.mark.parametrize("n", [16, 32])
def test_paired_lazy_core_answers_like_a_dense_eigh(n):
    fam = cuntz.luders_family(n)
    core = kl.spectral_core(fam)
    # some stack is a swap pair's, listed twice under one factor
    assert any(len(index) == 2 * len(s) for (index, _, _, _), s in zip(core.factors, core.stacks))
    a = (kl.superoperator(fam) - np.eye(n * n)).real
    w, q = np.linalg.eigh(a)
    tol = kl.fix_tol(n)
    np.testing.assert_allclose(core.sv, np.sort(np.abs(w))[::-1], rtol=0.0, atol=1e-12)
    k, ref = core.kernel(tol), q[:, np.abs(w) <= tol]
    assert k.shape == ref.shape
    assert np.linalg.norm(k @ k.conj().T - ref @ ref.T, 2) <= 1e-12
    y = np.diag(cuntz.t_sequence(n).values).astype(complex)
    b = opcore.vectorize(y - kl.apply(fam, y))
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=np.abs(w) > tol)
    np.testing.assert_allclose(core.solve(b, tol), q @ (inv * (q.T @ b)), rtol=0.0, atol=1e-12)


@pytest.mark.filterwarnings("ignore:fixed_space of a non-unital family")
@pytest.mark.parametrize("make", BLOCK_PATH.values(), ids=BLOCK_PATH.keys())
def test_block_gap_report_reads_the_same_values_with_or_without_the_core(make):
    fam = make()
    values_only = kl.gap_report(fam)
    assert fam._spectral_core is None
    kl.spectral_core(fam)
    assert kl.gap_report(fam) == values_only
    assert len(kl.fixed_space(fam)) == values_only.fix_dim


def test_tensor_family_splits_but_keeps_one_svd():
    # its exact pattern has many components, yet S - I is complex: one SVD
    fam = tensor_family()
    n = fam.dim**2
    rows, cols, values = opcore.kron_entries(fam._adjoints, fam.ops).nonzero()
    assert np.iscomplexobj(values) and values.imag.any()
    split = opcore.block_split(n, rows, cols, values)
    assert sum(len(index) for index in split.index) > 1
    assert kl.spectral_core(fam).blocks == 1


def test_real_core_is_bitwise_the_stable_sorted_eigvalsh():
    fam = cuntz.luders_family(8)
    core = kl.spectral_core(fam)
    n = fam.dim**2
    a = (kl.superoperator(fam) - np.eye(n)).real
    assert core.blocks > 1
    # the blocks partition the indices, and S - I vanishes off them
    seen = np.concatenate([index.ravel() for index, _, _, _ in core.factors])
    assert np.array_equal(np.sort(seen), np.arange(n))
    on_blocks = np.zeros((n, n), dtype=bool)
    absw = []
    for (index, u, w, vh), stack in zip(core.factors, core.stacks):
        for at in listings(index, stack):
            on_blocks[at[:, :, None], at[:, None, :]] = True
            # each held block is S - I's at each of its listings, an image's too
            assert np.array_equal(stack, a[at[:, :, None], at[:, None, :]])
            absw.append(np.abs(w).ravel())
        assert np.array_equal(w, np.linalg.eigvalsh(stack)) and u is None and vh is None
    assert not a[~on_blocks].any()
    # sv repeats a pair's values once per listing, in factor order
    absw = np.concatenate(absw)
    assert np.array_equal(core.sv, absw[np.argsort(-absw, kind="stable")])


def test_swap_pairs_share_one_stack_and_its_values(monkeypatch):
    # n = 48: 819 blocks, 403 swap pairs and 13 blocks the swap maps to themselves
    fam = cuntz.luders_family(48)
    d = fam.dim
    rows, cols, values = opcore.kron_entries(fam._adjoints, fam.ops).nonzero()
    swap = np.arange(d * d) % d * d + np.arange(d * d) // d
    split = opcore.minus_identity(opcore.block_split(d * d, rows, cols, values.real, swap))
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    core = opcore.factorize(split)
    assert core.blocks == 819 and core.stacks == split.stacks
    # one eigvalsh per stack, of that stack, and one factor per stack
    assert len(calls) == len(core.factors) == len(core.stacks) == 28
    assert all(a is s for a, s in zip(calls, core.stacks))
    assert all(s is not t for j, s in enumerate(core.stacks) for t in core.stacks[:j])
    paired = selfswapped = 0
    for (index, _, w, _), stack in zip(core.factors, core.stacks):
        at = listings(index, stack)
        assert w.shape == stack.shape[:2]
        if len(at) == 2:
            # the images list the swapped indices of the kept blocks, over one stack
            assert np.array_equal(at[1], swap[at[0]])
            paired += len(stack)
        else:
            assert np.array_equal(np.sort(swap[at[0]], axis=1), at[0])
            selfswapped += len(stack)
    assert (paired, selfswapped) == (403, 13)
    # the held blocks take fewer bytes than one eigenvector stack per listing did
    assert sum(s.nbytes for s in core.stacks) < sum(8 * len(index) * w.shape[1] ** 2 for index, _, w, _ in core.factors)


PAIRED = {name: BLOCK_PATH[name] for name in ("luders8", "luders16", "luders48", "pinching.json", "reflection_mix.json")}


@pytest.mark.parametrize("make", PAIRED.values(), ids=PAIRED.keys())
def test_paired_split_cuts_each_block_of_s_minus_identity_once(make):
    fam = make()
    d = fam.dim
    n = d * d
    a = (kl.superoperator(fam) - np.eye(n)).real
    split = channel._s_minus_identity(fam)
    swap = np.arange(n) % d * d + np.arange(n) // d
    # every index lies in exactly one block, and no stack is listed twice
    assert np.array_equal(np.sort(np.concatenate([index.ravel() for index in split.index])), np.arange(n))
    assert all(s is not t for j, s in enumerate(split.stacks) for t in split.stacks[:j])
    for index, stack in zip(split.index, split.stacks):
        at = listings(index, stack)
        assert len(at) in (1, 2)
        if len(at) == 2:
            # the images: the kept blocks' indices, swapped
            assert np.array_equal(at[1], swap[at[0]])
        # S - I's block at every listing is the held block
        for idx in at:
            assert np.array_equal(stack, a[idx[:, :, None], idx[:, None, :]])


def test_solve_takes_only_the_blocks_the_defect_reaches(monkeypatch):
    n = 48
    fam = cuntz.luders_family(n)
    tol = kl.fix_tol(n)
    y = np.diag(cuntz.t_sequence(n).values).astype(complex)
    b = opcore.vectorize(y - kl.apply(fam, y))
    eigh, solve, blocks = np.linalg.eigh, np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: blocks.append(len(a)) or eigh(a))
    monkeypatch.setattr(np.linalg, "solve", lambda a, x: blocks.append(len(a)) or solve(a, x))
    z = kl.spectral_core(fam).solve(b, tol)
    assert sum(blocks) == 11
    # a full walk of a fresh core, its cut blind to b
    cut = opcore.SpectralCore._cut
    monkeypatch.setattr(opcore.SpectralCore, "_cut", lambda core, tol, b=None: cut(core, tol))
    blocks.clear()
    core = opcore.factorize(channel._s_minus_identity(fam))
    full = core.solve(b, tol)
    assert sum(blocks) == sum(s.shape[0] for s in core.stacks) == 403 + 13
    assert np.array_equal(z, full)


def test_connected_real_core_is_bitwise_the_stable_sorted_eigvalsh():
    # real symmetric generators with full patterns: S - I is one component
    g = np.random.default_rng(12).standard_normal((2, 3, 3))
    fam = kl.KrausFamily([(x + x.T) / 4.0 for x in g])
    core = kl.spectral_core(fam)
    n = fam.dim**2
    a = (kl.superoperator(fam) - np.eye(n)).real.copy()
    w = np.linalg.eigvalsh(a)
    # one block covering every row and column, held as it is
    ((index, u, core_w, vh),) = core.factors
    assert np.array_equal(index, np.arange(n)[None])
    assert np.array_equal(core_w, w[None]) and u is None and vh is None
    assert np.array_equal(core.stacks[0], a[None])
    assert np.array_equal(core.sv, np.abs(w)[np.argsort(-np.abs(w), kind="stable")])


def test_no_complex_superoperator_is_live_during_the_real_eigvalsh(monkeypatch):
    # real symmetric generators with full patterns: S - I is exactly real
    # symmetric and connected, one block of n = 144
    g = np.random.default_rng(16).standard_normal((2, 12, 12))
    connected = kl.KrausFamily([(x + x.T) / 8.0 for x in g])
    eigvalsh = np.linalg.eigvalsh
    traced = []

    def watching(a, *args, **kwargs):
        traced.append((np.shape(a), np.asarray(a).dtype, tracemalloc.get_traced_memory()[0]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", watching)
    for fam, split in ((cuntz.luders_family(16), True), (connected, False)):
        n = fam.dim**2
        traced.clear()
        tracemalloc.start()
        try:
            core = kl.spectral_core(fam)
        finally:
            tracemalloc.stop()
        # one stacked real eigvalsh per held stack, a swap pair's image
        # taking none, and never a complex S (16 n^2 bytes) live while they
        # run: split blocks hold less than a real S - I, and one block little
        # more than the real S - I it is
        held = core.stacks
        assert len(traced) == len(held)
        assert (len(traced) > 1) == split
        assert sum(np.prod(shape[:-1]) for shape, _, _ in traced) == sum(s.shape[0] * s.shape[1] for s in held)
        assert (sum(s.shape[0] * s.shape[1] for s in held) < n) == split
        assert all(dtype == np.float64 for _, dtype, _ in traced)
        assert max(mem for _, _, mem in traced) < 8 * n * n * (1.0 if split else 1.25)


@pytest.mark.parametrize(
    "make, path",
    [
        (lambda: mixed_unitary_family(trial_rng(21, 7), 4, 3), "svd"),
        # contraction with trivial fixed space: extract_trace falls back to
        # the least singular vector of S - I, which is e33
        (lambda: kl.KrausFamily([np.diag([0.5, 0.6, 0.75])]), "eigh"),
    ],
    ids=["complex-svd", "real-eigh"],
)
def test_family_queries_build_and_factorize_once(make, path, monkeypatch):
    fam = make()
    n = fam.dim * fam.dim
    calls = {"kron_entries": 0, "factorize": 0, "svd": 0}
    held = []

    def counting(name, fn):
        # a dense factorization of S - I covers its n rows
        def wrapper(*args, **kwargs):
            if name != "svd" or np.prod(np.shape(args[0])[:-1]) == n:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            held.append(a)
            return fn(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(opcore, "kron_entries", counting("kron_entries", opcore.kron_entries))
    monkeypatch.setattr(opcore, "factorize", counting("factorize", opcore.factorize))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
    y = ginibre(trial_rng(21, 8), fam.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kl.fixed_space(fam)
        kl.gap_report(fam)
        kl.solve_perturbation(fam, y)
        trace = tracelab.extract_trace(fam)
    assert calls == {"kron_entries": 1, "factorize": 1, "svd": int(path == "svd")}
    stacks = fam._spectral_core.stacks
    if path == "svd":
        assert stacks is None
    else:
        # every held stack's values are read once, and nothing else of S - I
        assert all(sum(a is s for a in held) == 1 for s in stacks)
        np.testing.assert_allclose(trace.density, np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_fixed_space_pinching():
    fs = kl.fixed_space(pinching())
    assert len(fs) == 2
    for h in fs.basis:
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
        # diagonal fixed space: off-diagonal entries vanish
        assert abs(h[0, 1]) <= 1e-12
    q = fs.stacked()
    np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-12)
    # the normalized identity lies in the span
    assert fs.distance(np.eye(2) / np.sqrt(2.0)) <= 1e-12


def test_fixed_space_is_cached_and_read_only(monkeypatch):
    fam = pinching()
    first = kl.fixed_space(fam)
    monkeypatch.setattr(channel, "_hermitian_basis", None)  # a second rotation would fail
    assert kl.fixed_space(fam) is first
    with pytest.raises(ValueError, match="read-only"):
        first.basis[0][0, 0] = 7.0


def test_fixed_space_generic_mixed_unitary_is_scalar():
    rng = trial_rng(21, 2)
    fam = mixed_unitary_family(rng, 4, 2)
    fs = kl.fixed_space(fam)
    assert len(fs) == 1
    assert fs.distance(np.eye(4) / 2.0) <= 1e-8


def test_fixed_space_warns_when_not_unital():
    nil = kl.KrausFamily([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.warns(UserWarning):
        kl.fixed_space(nil)


def test_commutant_oracles():
    com = kl.commutant([E11, E22])
    assert len(com) == 2
    for b in com.basis:
        assert abs(b[0, 1]) <= 1e-12 and abs(b[1, 0]) <= 1e-12
    # generic matrix with distinct eigenvalues: commutant = polynomials in it
    rng = trial_rng(21, 3)
    g = ginibre(rng, 4)
    assert len(kl.commutant([g])) == 4
    # nilpotent 2x2 shift: {aI + b shift}, dimension 2
    assert len(kl.commutant([np.array([[0.0, 1.0], [0.0, 0.0]])])) == 2
    with pytest.raises(ValueError):
        kl.commutant([])


def test_commutant_elements_commute():
    rng = trial_rng(21, 4)
    mats = [ginibre(rng, 3), ginibre(rng, 3)]
    com = kl.commutant(mats)
    for b in com.basis:
        for a in mats:
            assert opcore.hs_norm(a @ b - b @ a) <= 1e-7


def test_subspace_distance_and_projection():
    fs = kl.fixed_space(pinching())
    com = kl.commutant([E11, E22])
    assert kl.subspace_distance(fs, com) <= 1e-10
    x = np.array([[2.0, 5.0], [7.0, -1.0]], dtype=complex)
    np.testing.assert_allclose(fs.project(x), np.diag([2.0, -1.0]), atol=1e-12)
    assert fs.distance(x) == pytest.approx(np.sqrt(25.0 + 49.0), abs=1e-12)


def _per_element_distance(a, b):
    """The loop reference: largest distance of one space's element to the other."""
    return max([b.distance(x) for x in a.basis] + [a.distance(x) for x in b.basis] + [0.0])


def test_subspace_distance_matches_the_per_element_maximum():
    spaces = []
    for trial in range(4):
        a, b = intertwining_pair(trial_rng(22, trial), 5, 2)
        theta = kl.theta_superoperator(a, b)
        kernel = opcore.factorize(opcore.minus_identity(theta)).kernel(1e-7)
        fixed = SubspaceBasis(5, 5, tuple(opcore.devectorize(k, 5, 5) for k in kernel.T))
        inter = kl.intertwiner_space(a, b)
        q, _ = np.linalg.qr(ginibre(trial_rng(23, trial), 25, 5))
        other = SubspaceBasis(5, 5, tuple(opcore.devectorize(v, 5, 5) for v in q.T))
        part = SubspaceBasis(5, 5, inter.basis[: 2 + trial % 3])
        empty = SubspaceBasis(5, 5, ())
        spaces += [(fixed, inter), (inter, other), (part, inter), (inter, empty), (empty, empty)]
    fam = tensor_family()
    spaces.append((kl.fixed_space(fam), kl.commutant(fam.ops)))
    for a, b in spaces:
        want = _per_element_distance(a, b)
        assert abs(kl.subspace_distance(a, b) - want) <= 1e-15
        assert abs(kl.subspace_distance(b, a) - want) <= 1e-15
    assert kl.subspace_distance(inter, empty) == pytest.approx(1.0, abs=1e-15)
    assert kl.subspace_distance(empty, empty) == 0.0
    rep = kl.fix_closed_under_square(fam)
    assert rep.closed and rep.fix_dim == 16
    # the closure check reports a certified bound, not the measured distance
    assert kl.subspace_distance(*spaces[-1]) <= rep.commutant_distance_bound <= channel.SQUARE_TOL


def test_gap_report_oracles():
    rep = kl.gap_report(pinching())
    assert rep.sigma_min == pytest.approx(0.0, abs=1e-14)
    assert rep.fix_dim == 2
    assert rep.restricted_gap == pytest.approx(1.0, abs=1e-12)
    rep_u = kl.gap_report(kl.KrausFamily([np.diag([1.0, 1j])]))
    assert rep_u.fix_dim == 2
    assert rep_u.restricted_gap == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # identity channel: S - I = 0, every direction is fixed
    rep_id = kl.gap_report(kl.KrausFamily([np.eye(3)]))
    assert rep_id.fix_dim == 9 and np.isinf(rep_id.restricted_gap)


def test_gap_report_json_maps_infinite_gap_to_null():
    rep = kl.gap_report(kl.KrausFamily([np.eye(3)]))
    assert np.isinf(rep.restricted_gap)
    assert rep.to_json() == {
        "sigma_min": rep.sigma_min,
        "restricted_gap": None,
        "fix_dim": 9,
        "diagnostics": {"blocks": rep.blocks, "largest_block": rep.largest_block},
    }
    finite = kl.gap_report(pinching()).to_json()
    assert finite["restricted_gap"] == pytest.approx(1.0, abs=1e-12)
    assert finite["diagnostics"] == {"blocks": 4, "largest_block": 1}


@pytest.mark.parametrize(
    "make",
    [
        pinching,
        lambda: kl.KrausFamily.from_json(json.loads((DEMO_DATA / "unitary_mix.json").read_text())),
        lambda: cuntz.luders_family(8),
        lambda: mixed_unitary_family(trial_rng(21, 9), 8, 3),
        tensor_family,
    ],
    ids=["pinching", "unitary_mix", "luders8", "generic8", "tensor8"],
)
def test_values_only_gap_report_matches_the_full_core(make):
    fam = make()
    values_only = kl.gap_report(fam)
    assert fam._spectral_core is None
    core = kl.spectral_core(fam)
    full = kl.gap_report(fam)
    assert (values_only.fix_dim, values_only.blocks, values_only.largest_block) == (
        full.fix_dim,
        core.blocks,
        core.largest_block,
    )
    tol = 1e-12 * max(1.0, float(core.sv[0]))
    assert abs(values_only.sigma_min - full.sigma_min) <= tol
    assert abs(values_only.restricted_gap - full.restricted_gap) <= tol


def _family_of_kind(kind, d, seed=0):
    """Seeded generic, Ginibre trace-preserving (not unital), tensor (u_j (x) I_k
    with k the largest of 4, 2, 1 dividing d) and plain Ginibre (neither unital
    nor trace-preserving) families of three operators."""
    rng = trial_rng(31, 100 * d + seed)
    if kind == "generic":
        return mixed_unitary_family(rng, d, 3)
    if kind == "tensor":
        k = next(k for k in (4, 2, 1) if d % k == 0)
        probs = rng.dirichlet(np.ones(3))
        return kl.KrausFamily([np.sqrt(p) * np.kron(haar_unitary(rng, d // k), np.eye(k)) for p in probs])
    gs = [ginibre(rng, d) for _ in range(3)]
    if kind == "neither":
        return kl.KrausFamily([0.4 * g for g in gs])
    w, v = np.linalg.eigh(sum(g @ g.conj().T for g in gs))
    return kl.KrausFamily([(v / np.sqrt(w)) @ v.conj().T @ g for g in gs])


@pytest.mark.parametrize("d", [1, 2, 5, 8, 24])
@pytest.mark.parametrize("kind", ["generic", "ginibre", "tensor", "neither"])
def test_hermitian_form_has_the_singular_values_of_s_minus_identity(kind, d):
    fam = _family_of_kind(kind, d)
    if d > 1 and kind == "ginibre":
        assert fam.is_trace_preserving and not fam.is_unital
    if kind == "neither":
        assert not fam.is_trace_preserving and not fam.is_unital
    n = d * d
    h = channel._s_minus_identity(fam, values_only=True)
    assert isinstance(h, np.ndarray) and h.dtype == np.float64 and h.shape == (n, n)
    want = np.linalg.svd(kl.superoperator(fam) - np.eye(n), compute_uv=False)
    got = np.linalg.svd(h, compute_uv=False)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * max(1.0, float(want[0])))


@pytest.mark.parametrize("kind", ["generic", "tensor", "neither"])
def test_hermitian_form_is_psi_in_the_hermitian_basis(kind):
    # entry (p, q) is <b_p, psi(b_q)> for the basis indexed like vec: E_rr,
    # (E_rc + E_cr)/sqrt 2 at r < c and i (E_cr - E_rc)/sqrt 2 at r > c
    d = 4
    fam = _family_of_kind(kind, d, seed=1)
    basis = []
    for c in range(d):
        for r in range(d):
            e = np.zeros((d, d), dtype=complex)
            if r == c:
                e[r, r] = 1.0
            elif r < c:
                e[r, c] = e[c, r] = 1.0 / np.sqrt(2.0)
            else:
                e[c, r], e[r, c] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            basis.append(e)
    want = np.array([[np.vdot(bp, kl.apply(fam, bq)) for bq in basis] for bp in basis])
    assert np.abs(want.imag).max() <= 1e-15
    t = opcore.kron_entries(fam._adjoints, fam.ops).tensor()
    np.testing.assert_allclose(channel._hermitian_form(t), want.real, rtol=0.0, atol=1e-14)


def test_values_only_gap_report_holds_no_complex_s_during_its_svd(monkeypatch):
    fam = _family_of_kind("generic", 16)
    n = fam.dim**2
    svd, kron_entries = np.linalg.svd, opcore.kron_entries
    traced = []

    def entries_then_reset(*args):
        out = kron_entries(*args)
        tracemalloc.reset_peak()
        return out

    def watching(a, *args, **kwargs):
        traced.append((np.asarray(a).dtype, *tracemalloc.get_traced_memory()))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(opcore, "kron_entries", entries_then_reset)
    monkeypatch.setattr(np.linalg, "svd", watching)
    tracemalloc.start()
    try:
        kl.gap_report(fam)
    finally:
        tracemalloc.stop()
    # the real S_h - I (8 n^2 bytes) is the only matrix live in the one SVD,
    # and while it is built from S (16 n^2 bytes) no other matrix is formed
    # (256 kB allow for the ufuncs' fixed-size buffers)
    ((dtype, mem, peak),) = traced
    assert dtype == np.float64 and mem < 9 * n * n
    assert peak < 24 * n * n + 2**18


@pytest.mark.parametrize("kind", ["luders8", "complex", "wide"])
def test_values_only_core_has_the_blocks_but_no_vectors(kind):
    rng = np.random.default_rng(17)
    if kind == "luders8":
        m = channel._s_minus_identity(cuntz.luders_family(8))
    elif kind == "complex":
        m = ginibre(rng, 6)
    else:
        m = ginibre(rng, 3, 5)
    full = opcore.factorize(m)
    core = opcore.factorize(m, vectors=False)
    assert (core.blocks, core.largest_block) == (full.blocks, full.largest_block)
    assert all(u is None and vh is None for _, u, _, vh in core.factors)
    np.testing.assert_allclose(core.sv, full.sv, atol=1e-12)
    for query in (lambda: core.kernel(1e-8), lambda: core.kernel(core.sv[-1]), lambda: core.solve(np.ones(full.sv.size), 1e-8)):
        with pytest.raises(ValueError, match="singular values only"):
            query()


def test_solve_perturbation_pinching_oracle():
    # y purely off-diagonal: psi(y) = 0, and z = -y repairs it exactly
    fam = pinching()
    y = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    res = kl.solve_perturbation(fam, y)
    np.testing.assert_allclose(res.z, -y, atol=1e-12)
    assert res.residual <= 1e-12


def test_solve_perturbation_residual_identity():
    rng = trial_rng(21, 5)
    for trial in range(5):
        fam = mixed_unitary_family(trial_rng(21, 10 + trial), 3, 2)
        y = ginibre(rng, 3)
        res = kl.solve_perturbation(fam, y)
        x = y + res.z
        defect = opcore.hs_norm(kl.apply(fam, x) - x)
        assert defect == pytest.approx(res.residual, abs=1e-9)


def test_fix_closed_under_square_pinching():
    assert pinching().is_unital
    rep = kl.fix_closed_under_square(pinching())
    assert rep.closed
    assert rep.fix_dim == 2 and rep.commutant_dim == 2
    assert rep.commutant_distance_bound <= 1e-10
    assert rep.witness is None


@pytest.mark.parametrize("op", [np.sqrt(0.5) * np.eye(2), np.zeros((2, 2))], ids=["half", "zero"])
def test_fix_closed_under_square_non_unital_trivial_fix(op):
    # Fix = {0} is closed under squares; {a_j}' = Fix is a theorem only for
    # unital families, so neither the commutant nor the distance is read
    fam = kl.KrausFamily([op])
    assert not fam.is_unital
    with pytest.warns(UserWarning, match="non-unital"):
        rep = kl.fix_closed_under_square(fam)
    assert rep.closed and rep.witness is None and rep.fix_dim == 0
    assert rep.commutant_dim is None and rep.commutant_distance_bound is None


def _closed_unital_families(seed):
    """Mixed-unitary (m = 1..4), Lüders and u (x) I_k families at d = 2..12."""
    for d in range(2, 13):
        for m in range(1, 5):
            yield mixed_unitary_family(trial_rng(seed, 100 * d + m), d, m)
        yield random_luders_family(trial_rng(seed, 100 * d + 50), d, 2 + d % 2)
        for k in (2, 3):
            if d % k == 0 and d > k:
                rng = trial_rng(seed, 100 * d + 60 + k)
                probs = rng.dirichlet(np.ones(3))
                yield kl.KrausFamily([np.sqrt(p) * np.kron(haar_unitary(rng, d // k), np.eye(k)) for p in probs])


def _commutator_certificate(basis, fam):
    """||ad Q||_F / sqrt(lambda_{r+1}(L)) of an r-element basis: its distance
    bound to the kernel of the commutator Gram operator L."""
    hs = np.array(basis.basis)
    residual = np.sqrt(sum(np.linalg.norm(a @ hs - hs @ a) ** 2 for a in fam.ops))
    lam = opcore.factorize(channel._commutator_gram(fam), vectors=False).sv[::-1]
    return residual / np.sqrt(lam[len(basis)])


@pytest.mark.parametrize("seed", [0, 1])
def test_fix_closed_under_square_agrees_with_the_svd_commutant(seed):
    eps = np.finfo(float).eps
    for fam in _closed_unital_families(seed):
        rep = kl.fix_closed_under_square(fam)
        com = kl.commutant(fam.ops)
        assert rep.closed and rep.commutant_dim == len(com) == rep.fix_dim
        # both bases lie within their certificates of ker L, so their distance is
        # at most the sum (the oracle's share is its own rounding, which alone
        # can exceed the bound); 8 eps cover the rounding of the distance itself
        dist = kl.subspace_distance(kl.fixed_space(fam), com)
        assert dist <= rep.commutant_distance_bound + _commutator_certificate(com, fam) + 8 * eps
        assert rep.commutant_distance_bound <= channel.SQUARE_TOL


def test_fix_closed_under_square_of_the_identity_channel():
    # Fix is every matrix, r = d^2, and L has no eigenvalue past the r-th
    rep = kl.fix_closed_under_square(kl.KrausFamily([np.eye(3)]))
    assert rep.closed and rep.fix_dim == rep.commutant_dim == 9
    assert rep.commutant_distance_bound == 0.0


def test_fix_closed_under_square_takes_no_qr_and_no_svd(monkeypatch):
    fam = mixed_unitary_family(trial_rng(24, 0), 24, 3)
    kl.fixed_space(fam)
    calls = []
    for name in ("qr", "svd"):
        fn = getattr(np.linalg, name)

        def counted(a, *args, _fn=fn, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rep = kl.fix_closed_under_square(fam)
    assert rep.closed and rep.commutant_dim == rep.fix_dim == 1
    assert calls == []
    # L is one 576 x 576 block here, and 16 blocks of 36 for the tensor kind
    assert [s.shape for s in channel._commutator_gram(fam).stacks] == [(1, 576, 576)]
    assert [s.shape for s in channel._commutator_gram(tensor_family(24)).stacks] == [(16, 36, 36)]


def test_fix_closed_under_square_witness():
    fam = witness_family()
    assert fam.is_unital and not fam.is_trace_preserving
    rep = kl.fix_closed_under_square(fam)
    assert not rep.closed and rep.fix_dim == 4
    assert rep.witness is not None
    # h = e13 + e31 is exactly fixed, yet its square leaks by lam^2 at (2, 2)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = 1.0
    assert opcore.hs_norm(kl.apply(fam, h) - h) <= 1e-14
    hh = h @ h
    assert opcore.hs_norm(kl.apply(fam, hh) - hh) == pytest.approx(0.36, abs=1e-12)
    fs = kl.fixed_space(fam)
    com = kl.commutant(list(fam.ops))
    assert len(fs) == 4 and len(com) == 3
    assert fs.distance(h) <= 1e-12
    assert com.distance(h) == pytest.approx(1.0, abs=1e-10)


def test_family_json_roundtrip():
    fam = witness_family()
    obj = json.loads(json.dumps(fam.to_json()))
    back = kl.KrausFamily.from_json(obj)
    assert back.dim == 3 and len(back) == 2
    for a, b in zip(fam.ops, back.ops):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        kl.KrausFamily.from_json({"kraus": []})
    bad = fam.to_json()
    bad["dim"] = 4
    with pytest.raises(ValueError):
        kl.KrausFamily.from_json(bad)


def test_tolerance_scales():
    assert kl.fix_tol(4) == pytest.approx(4e-8)
    assert kl.unital_tol(4) == pytest.approx(4e-9)
    assert pinching().defect_tol == pytest.approx(kl.unital_tol(2))
