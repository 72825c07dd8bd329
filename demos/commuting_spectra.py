"""Two-sided maps from commuting normal families: spectra and intertwiners.

theta(x) = sum_j c_j x d_j is diagonalized by the tensor product of the two
common eigenbases, so its spectrum is exactly the product set of the joint
spectra.  When the coefficient families are spectrally matched, the fixed
space of theta coincides with the intertwiner space of the pair; for
independent families both are trivial.  For an abelian A = C*(a_j), the map
psi(x) = sum_j a_j* x a_j is theta with c_j = a_j* and d_j = a_j, whose
intertwiners are the commutant A'; repeated joint tuples give A' (and so
Fix(psi)) the dimension sum_t mult(t)^2.
"""

import numpy as np

import krauslab as kl
from krauslab.commuting import joint_spectrum
from krauslab.ensembles import commuting_normal_family, haar_unitary, intertwining_pair

rng = np.random.default_rng(12)

c = commuting_normal_family(rng, 3, 2)
d = commuting_normal_family(rng, 3, 2)
print("independent commuting families on M3, two generators each")
sc, sd = joint_spectrum(c), joint_spectrum(d)
print(f"   joint spectrum of c: {len(sc.points)} points")
print(f"   joint spectrum of d: {len(sd.points)} points")
chk = kl.product_map_check(c, d)
print(f"   Hausdorff(spec(theta), products) = {chk.hausdorff:.3e}")
print(f"   dim Fix(theta) = {chk.fix_dim}, dim intertwiners = {chk.intertwiner_dim}\n")

a, b = intertwining_pair(rng, 4, 3)
print("spectrally matched pair on M4, three generators")
fx = kl.product_map_check(a, b)
print(f"   dim Fix(theta) = {fx.fix_dim}, dim intertwiners = {fx.intertwiner_dim}")
print(f"   subspace distance between the two = {fx.subspace_distance:.3e}")
print(f"   check passed: {fx.passed}\n")

# the abelian case with multiplicities: unit joint tuples t1, t2, t3 taken
# 3, 2 and 1 times, so psi is unital and dim A' = 3^2 + 2^2 + 1^2 = 14
tuples = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
tuples /= np.linalg.norm(tuples, axis=1, keepdims=True)
lam = tuples[[0, 0, 0, 1, 1, 2]]
u = haar_unitary(rng, 6)
a = kl.CommutingFamily([u @ np.diag(lam[:, j]) @ u.conj().T for j in range(2)])
a_star = kl.CommutingFamily([m.conj().T for m in a.mats])
print("abelian A = C*(a_j) on M6, joint tuples of multiplicity 3, 2, 1")
fx = kl.product_map_check(a_star, a)
print(f"   dim Fix(psi) = {fx.fix_dim}, dim A' = {fx.intertwiner_dim}")
print(f"   subspace distance between the two = {fx.subspace_distance:.3e}")
print(f"   check passed: {fx.passed}\n")

# positivity: PSD coefficients on both sides force a PSD theta; Bendixson's
# theorem bounds its spectrum by the Hermitian part H and the anti-Hermitian
# part K of theta
ps = [np.diag([0.0, 1.0, 2.0]).astype(complex), np.diag([1.0, 1.0, 3.0]).astype(complex)]
qs = [np.diag([2.0, 0.0, 1.0]).astype(complex), np.diag([1.0, 2.0, 1.0]).astype(complex)]
pos = kl.positive_eigenvalue_check(ps, qs)
print("positive diagonal coefficients:")
print(f"   lower bound on Re spec(theta), lambda_min(H) = {pos.min_real:.3e}")
print(f"   upper bound on |Im spec(theta)|, ||K||_op    = {pos.max_imag:.3e}")
print("   the spectrum stays on the nonnegative half-line, as it must.")
