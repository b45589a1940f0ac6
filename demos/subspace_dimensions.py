"""Dimension bookkeeping for the potential / harmonic / nonstrategic split.

The closed-form dimension counts are confirmed two ways: by the traces of
the three component projectors (the decomposition of every unit game, read
on its diagonal), and, for square bimatrix games, by intersecting with the
zero-sum and identical-interest subspaces through ranks of the complementary
projections.
"""

from gamehodge import empirical_dims, subspace_dims, zs_ii_intersection_dims

print("closed-form dimensions vs measured projector traces")
print(f"{'shape':>12} {'P':>4} {'H':>4} {'N':>4}   measured")
for counts in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 2)]:
    dims = subspace_dims(counts)
    measured = empirical_dims(counts, seed=0)
    tag = "ok" if measured == (dims.potential, dims.harmonic, dims.nonstrategic) else "MISMATCH"
    print(
        f"{str(counts):>12} {dims.potential:>4} {dims.harmonic:>4} "
        f"{dims.nonstrategic:>4}   {measured}  {tag}"
    )

print("\nevery dimension row sums to M * prod(h):")
for counts in [(2, 2), (2, 2, 2)]:
    dims = subspace_dims(counts)
    total = dims.potential + dims.harmonic + dims.nonstrategic
    print(f"  {counts}: {dims.potential} + {dims.harmonic} + {dims.nonstrategic} = {total}")

print("\nintersections with zero-sum (Z) and identical-interest (I) games, h x h")
for h in (2, 3):
    result = zs_ii_intersection_dims(h, seed=0)
    print(f"h = {h} (rank computation agrees: {result.agrees})")
    print(f"  {'':>18} {'Z':>6} {'I':>6} {'Z + I':>6}")
    for row in ("potential_games", "harmonic_games", "all_games"):
        cf = result.closed_form[row]
        print(f"  {row:>18} {cf['zero_sum']:>6} {cf['identical']:>6} {cf['direct_sum']:>6}")
