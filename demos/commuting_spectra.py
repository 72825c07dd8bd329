"""Two-sided maps from commuting normal families: spectra and intertwiners.

theta(x) = sum_j c_j x d_j* is diagonalized by the tensor product of the two
common eigenbases, so its spectrum is exactly the product set of the joint
spectra.  When the coefficient families are spectrally matched, the fixed
space of theta coincides with the intertwiner space of the pair; for
independent families both are trivial.
"""

import numpy as np

import krauslab as kl
from krauslab.commuting import joint_spectrum
from krauslab.ensembles import commuting_normal_family, intertwining_pair

rng = np.random.default_rng(12)

c = commuting_normal_family(rng, 3, 2)
d = commuting_normal_family(rng, 3, 2)
print("independent commuting families on M3, two generators each")
sc, sd = joint_spectrum(c), joint_spectrum(d)
print(f"   joint spectrum of c: {len(sc.points)} points")
print(f"   joint spectrum of d: {len(sd.points)} points")
chk = kl.spectrum_product_check(c, d)
print(f"   Hausdorff(spec(theta), products) = {chk.hausdorff:.3e}")
fx = kl.intertwiner_fixed_point_check(c, d)
print(f"   dim Fix(theta) = {fx.fix_dim}, dim intertwiners = {fx.intertwiner_dim}\n")

a, b = intertwining_pair(rng, 4, 3)
print("spectrally matched pair on M4, three generators")
fx = kl.intertwiner_fixed_point_check(a, b)
print(f"   dim Fix(theta) = {fx.fix_dim}, dim intertwiners = {fx.intertwiner_dim}")
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
