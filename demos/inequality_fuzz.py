"""Stress the defect and square-difference bounds on random inputs.

Every report carries lhs, rhs and a digest of its inputs, so a counterexample
would be reproducible from the printed line alone.  None is expected; the
interesting output is how tight each bound gets.  The script then shows the
single-unitary family, where the second defect bound is an exact equality.
"""

import numpy as np

import krauslab as kl
from krauslab.ensembles import (
    ginibre,
    haar_unitary,
    mixed_unitary_family,
    random_luders_family,
    random_psd,
    trial_rng,
)

TRIALS = 400

worst = {"first": None, "second": None, "ps": None, "gps": None}


def keep(kind, rep):
    if worst[kind] is None or rep.slack < worst[kind].slack:
        worst[kind] = rep


for trial in range(TRIALS):
    rng = trial_rng(2024, trial)
    d = int(rng.integers(2, 7))
    m = int(rng.integers(1, 5))
    fam = mixed_unitary_family(rng, d, m) if trial % 2 else random_luders_family(rng, d, m)
    x = ginibre(rng, d, d) * rng.uniform(0.2, 3.0)
    first, second = kl.defect_bounds(fam, x)
    keep("first", first)
    keep("second", second)
    keep("ps", kl.powers_stormer(random_psd(rng, d), random_psd(rng, d)))
    p, q = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    keep("gps", kl.generalized_powers_stormer(ginibre(rng, p, q), random_psd(rng, p), random_psd(rng, q)))

print(f"{TRIALS} trials, four checks each, no counterexamples expected\n")
print(f"{'check':<10} {'lhs':>12} {'rhs':>12} {'min slack':>12}  digest")
for kind, rep in worst.items():
    flag = "  <-- violated!" if rep.is_counterexample else ""
    print(f"{kind:<10} {rep.lhs:12.6f} {rep.rhs:12.6f} {rep.slack:12.3e}  {rep.inputs_digest}{flag}")

# equality case: psi(x) = u* x u for a single unitary makes the second bound sharp
rng = np.random.default_rng(5)
u = haar_unitary(rng, 4)
fam = kl.KrausFamily([u])
x = ginibre(rng, 4, 4)
_, second = kl.defect_bounds(fam, x)
print("\nsingle unitary family on M4:")
print(f"   lhs = {second.lhs:.12f}")
print(f"   rhs = {second.rhs:.12f}")
print(f"   the defect bound degenerates to ||xu - ux|| = ||psi(x) - x|| exactly")

print(f"\ngamma = 8 sqrt(3) / 9 = {kl.GAMMA!r}")
ts = np.linspace(0.2, 3.0, 5)
print("gamma_curve(1, t) along a grid, minimized at t = sqrt(3):")
for t, v in zip(ts, kl.gamma_curve(1.0, ts)):
    print(f"   t = {t:4.2f}   (1 + t^2)^2 / (2 t^3) = {v:.6f}")
print(f"   t = {np.sqrt(3):4.2f}   minimum value        = {kl.gamma_curve(1.0, np.sqrt(3.0)):.6f}")
