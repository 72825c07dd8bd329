"""Truncated isometry pairs: almost-commuting generators, trivial fixed space.

Two shift-like isometries compressed to n dimensions generate a channel whose
only fixed points are scalars, yet the diagonal contraction built from the
copy rule nearly commutes with both generators.  The commutator mass of the
first isometry is bounded by an explicit telescoping tail; the second one
commutes exactly.  Growth of the scalar-line distance shows the obstruction
does not vanish as n increases.
"""

from krauslab import cuntz

print("truncation reports")
print(f"{'n':>4} {'fix dim':>8} {'v1 commutator^2':>16} {'tail bound':>11} "
      f"{'v2':>4} {'t-line dist':>12} {'x-line dist':>12}")
for n in (4, 8, 16, 32, 64):
    rep = cuntz.experiment(n)
    comm = rep.commutation
    print(
        f"{rep.n:>4} {rep.gap.fix_dim:>8} {comm.v1_comm_sq:>16.8f} {comm.tail_bound:>11.8f}"
        f" {comm.v2_comm:>4.1f} {rep.t_scalar_distance:>12.8f} {rep.scalar_line_distance:>12.8f}"
    )

print("\nthe three-term sum behind v1 at n = 9:")
t = cuntz.t_sequence(9)
print(f"   t = {[round(v, 6) for v in t.values.tolist()]}")
rep9 = cuntz.commutation_report(9)
print(f"   squared commutator = {rep9.v1_comm_sq:.12f}")
print(f"   telescoping tail   = {rep9.tail_bound:.12f}")

print("\nscalar-line distance grows with n (no commuting scalar limit):")
for n in (16, 64, 256, 1024):
    print(f"   n = {n:>5}   dist = {cuntz.scalar_distance(n):.8f}")

fam = cuntz.luders_family(8)
print(f"\nsymmetrized generator family at n = 8: {fam}")
print("   nine positive parts, unital and trace-preserving; its commutant is")
print("   the scalars, so the channel admits exactly one invariant state.")
