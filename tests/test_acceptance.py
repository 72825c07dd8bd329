"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every criterion recomputes its evidence from scratch with its
own seeded streams, so a pass here is independent of the unit tests.
"""

import json
import math
import re
import time

import numpy as np

import krauslab as kl
from krauslab import cli, cuntz, opcore, schur, tracelab
from krauslab.channel import SubspaceBasis
from krauslab.ensembles import (
    commuting_normal_family,
    ginibre,
    intertwining_pair,
    mixed_unitary_family,
    random_density,
    random_luders_family,
    random_psd,
    random_psd_coefficients,
    trial_rng,
)

WALL = re.compile(rb'"wall_time_ms": \d+')


def verdict(num: int, name: str, ok: bool) -> None:
    print(f"acceptance {num:02d} {name:<42} {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def draw_family(rng, d: int, m: int):
    if int(rng.integers(0, 2)):
        return mixed_unitary_family(rng, d, m)
    return random_luders_family(rng, d, m)


def pinching():
    return kl.KrausFamily(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    )


def test_01_contraction_and_defect_bounds():
    start = time.perf_counter()
    ok = True
    for trial in range(1000):
        rng = trial_rng(101, trial)
        d = int(rng.integers(2, 9))
        fam = draw_family(rng, d, int(rng.integers(1, 7)))
        x = ginibre(rng, d, d) * rng.uniform(0.2, 3.0)
        ok = ok and float(np.linalg.norm(kl.apply(fam, x))) <= float(
            np.linalg.norm(x)
        ) + 1e-10
        first, second = kl.defect_bounds(fam, x)
        ok = ok and first.slack >= -1e-9 and second.slack >= -1e-9
    elapsed = time.perf_counter() - start
    verdict(1, "contraction + defect bounds, 1000 trials", ok and elapsed < 30.0)


def test_02_generalized_square_difference():
    start = time.perf_counter()
    ok = True
    for trial in range(1000):
        rng = trial_rng(102, trial)
        p = int(rng.integers(1, 8))
        q = int(rng.integers(1, 8))
        x = random_psd(rng, p) * rng.uniform(0.2, 3.0)
        y = random_psd(rng, q) * rng.uniform(0.2, 3.0)
        b = ginibre(rng, p, q)
        rep = kl.generalized_powers_stormer(b, x, y)
        ok = ok and rep.slack >= -1e-9
        # block embedding doubles both sides of the rectangular inequality
        big = np.block([[np.zeros((p, p)), b], [b.conj().T, np.zeros((q, q))]])
        diag = np.block([[x, np.zeros((p, q))], [np.zeros((q, p)), y]])
        emb = kl.generalized_powers_stormer(big, diag, diag)
        ok = ok and abs(emb.lhs - 2.0 * rep.lhs) <= 1e-10 * (1.0 + emb.lhs)
        ok = ok and abs(emb.rhs - 2.0 * rep.rhs) <= 1e-10 * (1.0 + emb.rhs)
    for beta in (0.7, 1.0):
        t_star = math.sqrt(3.0) * beta
        ts = np.linspace(0.8 * t_star, 1.2 * t_star, 40001)
        vals = kl.gamma_curve(beta, ts)
        i = int(np.argmin(vals))
        ok = ok and vals[i] - kl.GAMMA * beta <= 1e-6
        ok = ok and abs(ts[i] - t_star) <= 1e-3
    elapsed = time.perf_counter() - start
    verdict(2, "rectangular bound + block embedding + curve", ok and elapsed < 30.0)


def test_03_fixed_space_oracles():
    ident = kl.KrausFamily([np.eye(2, dtype=complex)])
    ok = kl.gap_report(ident).fix_dim == 4

    pinch = pinching()
    fs = kl.fixed_space(pinch)
    ok = ok and len(fs) == 2
    # brute force: null space of S - I, devectorized
    s = kl.superoperator(pinch)
    cols = opcore.factorize(s - np.eye(4)).kernel(kl.fix_tol(2))
    brute = SubspaceBasis(
        rows=2,
        cols=2,
        basis=tuple(
            opcore.devectorize(cols[:, j], 2, 2) for j in range(cols.shape[1])
        ),
    )
    ok = ok and len(brute) == 2 and kl.subspace_distance(fs, brute) <= 1e-9

    u = kl.KrausFamily([np.diag([1.0, 1j])])
    ok = ok and kl.gap_report(u).fix_dim == 2
    verdict(3, "fixed-space oracles vs brute force", ok)


def test_04_intertwiner_pairs():
    start = time.perf_counter()
    ok = True
    for trial in range(100):
        rng = trial_rng(104, trial)
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        if trial % 2 == 0:
            a, b = intertwining_pair(rng, d, m)
            want = d
        else:
            a = commuting_normal_family(rng, d, m)
            b = commuting_normal_family(rng, d, m)
            want = 0
        chk = kl.product_map_check(a, b, tol=1e-7)
        ok = ok and chk.passed and chk.fix_dim == want and chk.intertwiner_dim == want
        ok = ok and chk.subspace_distance <= 1e-7
    elapsed = time.perf_counter() - start
    verdict(4, "100 intertwiner/fixed-point pairs", ok and elapsed < 60.0)


def test_05_spectrum_products():
    start = time.perf_counter()
    ok = True
    for trial in range(50):
        rng = trial_rng(105, trial)
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        c = commuting_normal_family(rng, d, m)
        e = commuting_normal_family(rng, d, m)
        chk = kl.product_map_check(c, e)
        ok = ok and chk.hausdorff <= 1e-7
        directed = float(
            np.abs(chk.eigs[:, None] - chk.product[None, :]).min(axis=1).max()
        )
        ok = ok and directed <= 1e-7
    elapsed = time.perf_counter() - start
    verdict(5, "50 product-spectrum pairs", ok and elapsed < 60.0)


def test_06_positive_eigenvalues():
    ok = True
    for trial in range(200):
        rng = trial_rng(106, trial)
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        chk = kl.positive_eigenvalue_check(
            random_psd_coefficients(rng, d, m),
            random_psd_coefficients(rng, d, m),
        )
        ok = ok and chk.min_real >= -1e-9 and chk.max_imag <= 1e-9
    verdict(6, "200 positive-coefficient spectra", ok)


def test_07_isometry_truncations():
    start = time.perf_counter()
    ok = True
    for n in (4, 8, 16, 32):
        tr = cuntz.build_isometries(n)
        ok = ok and opcore.counital_defect([tr.v1, tr.v2]) == 0.0
        t = cuntz.t_sequence(n)
        k = 0
        while 2**k < n:
            ok = ok and t.values[2**k] == (k + 1) ** -0.5
            k += 1
        rep = cuntz.experiment(n)
        ok = (
            ok
            and rep.gap.fix_dim == 1
            and rep.commutation.v2_comm == 0.0
            and rep.commutation.v1_comm_sq <= rep.commutation.tail_bound
            and rep.gap.sigma_min <= 1e-8
        )

    root2 = 1.0 / math.sqrt(2.0)
    expected = (
        (1 - root2) ** 2
        + (root2 - 1 / math.sqrt(3.0)) ** 2
        + (1 / math.sqrt(3.0) - 0.5) ** 2
    )
    ok = ok and abs(cuntz.commutation_report(9).v1_comm_sq - expected) <= 1e-12

    fam = cuntz.luders_family(8)
    ok = ok and len(fam.ops) == 9 and fam.unital_defect <= 1e-12
    for a in fam.ops:
        ok = ok and float(np.linalg.eigvalsh(a)[0]) >= -1e-12
    s = math.sqrt(8.0)
    a = fam.ops
    ok = ok and np.allclose(
        s * (a[1] - a[2] + 1j * a[3] - 1j * a[4]), fam.truncation.v1, atol=1e-12
    )
    ok = ok and np.allclose(
        s * (a[5] - a[6] + 1j * a[7] - 1j * a[8]), fam.truncation.v2, atol=1e-12
    )
    ok = ok and len(kl.commutant(list(fam.ops))) == 1

    dists = [cuntz.scalar_distance(n) for n in (16, 64, 256, 1024)]
    ok = ok and all(lo < hi for lo, hi in zip(dists, dists[1:]))

    elapsed = time.perf_counter() - start
    verdict(7, "isometry truncation experiments", ok and elapsed < 120.0)


def test_08_trace_extraction_and_bounds():
    ok = True
    abelian = [
        pinching(),
        kl.KrausFamily(
            [
                math.sqrt(0.5) * np.diag([1.0, 1j, -1.0]),
                math.sqrt(0.5) * np.diag([1.0, -1j, 1.0]),
            ]
        ),
    ]
    for fam in abelian:
        tr = tracelab.extract_trace(fam)
        ok = ok and tr.defect <= 1e-9
        ok = ok and tracelab.near_fixed_from_trace(fam, tr).fixed_defect <= 1e-9

    for trial in range(500):
        rng = trial_rng(107, trial)
        d = int(rng.integers(2, 6))
        fam = draw_family(rng, d, int(rng.integers(1, 4)))
        approx = tracelab.approx_trace(fam, random_density(rng, d))
        ok = ok and abs(approx.normalization - 1.0) <= 1e-9
        rep = tracelab.near_fixed_from_trace(fam, approx)
        ok = ok and rep.certified_bound - rep.commutator_hs >= -1e-9
    verdict(8, "invariant traces + 500 certified bounds", ok)


def test_09_toeplitz_oracles():
    z = np.exp(0.7j)
    sym = schur.fourier_coeffs(schur.CircleMeasure.point_mass(z), 3)
    rng = np.random.default_rng(108)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = schur.schur_apply(sym, x)
    d = np.diag(np.conj(z) ** np.arange(4))
    ok = bool(np.allclose(out, d @ x @ d.conj().T, atol=1e-10))
    ok = ok and abs(np.linalg.norm(out) - np.linalg.norm(x)) <= 1e-10

    leb = schur.fourier_coeffs(schur.CircleMeasure.lebesgue(), 3)
    ok = ok and bool(
        np.allclose(schur.schur_apply(leb, x), np.diag(np.diag(x)), atol=1e-10)
    )

    theta = 2.0 * np.pi * np.arange(64) / 64.0
    mixed = schur.CircleMeasure(
        atoms=((1.0, 0.25), (-1.0, 0.25)), density=0.5 + 0.5 * np.sin(theta)
    )
    msym = schur.fourier_coeffs(mixed, 2)
    spec = schur.truncated_spectrum(msym, 3)
    action = opcore.linear_map_matrix(lambda m: schur.schur_apply(msym, m), 3, 3)
    eigs = np.linalg.eigvals(action)
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    ok = ok and bool(np.allclose(spec, eigs, atol=1e-10))

    toep = schur.multiplier_matrix(msym, 3)
    ok = ok and float(np.linalg.eigvalsh(toep)[0]) >= -1e-9
    verdict(9, "Schur multiplier action oracles", ok)


def test_10_cli_determinism(tmp_path):
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(pinching().to_json()))
    sym_path = tmp_path / "sym.json"
    sym_path.write_text(
        json.dumps(schur.symbol_to_json(schur.ToeplitzSymbol({-1: 0.5j, 0: 1.0, 1: -0.5j})))
    )
    commands = {
        "analyze": ["analyze", "--input", str(fam_path)],
        "cuntz": ["cuntz", "--dim", "8"],
        "commuting": ["commuting", "--dim", "4", "--ops", "2", "--trials", "3", "--seed", "5"],
        "fuzz": ["fuzz", "--trials", "10", "--dim", "4", "--ops", "3", "--seed", "7"],
        "schur": ["schur", "--input", str(sym_path)],
    }
    ok = True
    for name, argv in commands.items():
        blobs, sheets = [], []
        for attempt in ("a", "b"):
            jp = tmp_path / f"{name}-{attempt}.json"
            cp = tmp_path / f"{name}-{attempt}.csv"
            code = cli.main(argv + ["--json", str(jp), "--csv", str(cp)])
            ok = ok and code == 0
            blobs.append(WALL.sub(b'"wall_time_ms": 0', jp.read_bytes()))
            sheets.append(cp.read_bytes() if cp.exists() else b"")
        ok = ok and blobs[0] == blobs[1] and sheets[0] == sheets[1]
    verdict(10, "CLI byte determinism, all commands", ok)
