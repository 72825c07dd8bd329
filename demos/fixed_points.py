"""Fixed spaces of Kraus maps: when they are algebras and when they are not.

Three stops.  A diagonal pinching, whose fixed space is the diagonal algebra
and equals the commutant of the Kraus operators.  A generic mixed-unitary
channel, where everything collapses to the scalars.  And a unital map that is
not trace-preserving, whose fixed space is strictly larger than the commutant
and fails to be closed under squares; the script prints the witness.
"""

import numpy as np

import krauslab as kl


def show(title, fam):
    rep = kl.gap_report(fam)
    print(f"\n== {title} ==")
    print(f"   {fam}")
    print(f"   sigma_min(S - I)   = {rep.sigma_min:.3e}")
    gap = "inf" if rep.restricted_gap == float("inf") else f"{rep.restricted_gap:.6f}"
    print(f"   restricted gap     = {gap}")
    print(f"   dim Fix(psi)       = {rep.fix_dim}")
    com = kl.commutant(list(fam.ops))
    print(f"   dim commutant      = {len(com)}")
    sq = kl.fix_closed_under_square(fam)
    print(f"   closed under x^2   = {sq.closed}")
    if sq.commutant_dim is None:
        print("   Fix = commutant    : not certified (Fix is not closed under squares)")
    else:
        # read off the commutators and the eigenvalues of sum_j ad(a_j)* ad(a_j)
        print(f"   certified dim A'   = {sq.commutant_dim}")
        print(f"   dist(Fix, A') <=     {sq.commutant_distance_bound:.3e}")
    return sq


pinching = kl.KrausFamily(
    [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
)
show("pinching onto the diagonal of M2", pinching)

rng = np.random.default_rng(7)
us = []
for _ in range(3):
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    us.append(q * (np.diag(r) / np.abs(np.diag(r))))
w = rng.dirichlet(np.ones(3))
mixed = kl.KrausFamily([np.sqrt(wi) * u for wi, u in zip(w, us)])
show("random mixed-unitary channel on M4", mixed)

# unital but not trace-preserving: a nilpotent shift completed to sum a*a = 1
lam = 0.6
a1 = np.zeros((3, 3), dtype=complex)
a1[0, 1] = lam
a2 = np.diag([1.0, np.sqrt(1.0 - lam**2), 1.0]).astype(complex)
fam = kl.KrausFamily([a1, a2])
sq = show("unital, non-trace-preserving completion", fam)

print("\nThe fixed space exceeds the commutant, so it cannot be an algebra.")
h = np.zeros((3, 3), dtype=complex)
h[0, 2] = h[2, 0] = 1.0
print("h = e13 + e31 is fixed exactly:")
print(f"   ||psi(h) - h||_2     = {np.linalg.norm(kl.apply(fam, h) - h):.3e}")
defect = np.linalg.norm(kl.apply(fam, h @ h) - h @ h)
print(f"   ||psi(h^2) - h^2||_2 = {defect:.6f}   (exactly lam^2 = {lam**2})")
print(f"   distance of h from the commutant = {kl.commutant(list(fam.ops)).distance(h):.6f}")
