"""
Exact certification on small polynomials
========================================

Everything below runs in exact arithmetic: integer Sturm sequences for
counting real roots, rational bisection for isolating them, and a Cauchy
index read off an integer remainder sequence for interlacing.  No floats
anywhere.
"""

from chainpoly import (
    Poly,
    interlaces,
    is_real_rooted,
    isolate_real_roots,
    mode,
    symmetric_decomposition,
    has_nonneg_realrooted_symdec,
)

# The Eulerian polynomial of the symmetric group on four letters.
p = Poly([1, 4, 1])
print("p =", p.coeffs)
print("real-rooted:", is_real_rooted(p))
print("mode:", mode(p))

# Root isolation returns disjoint rational intervals with multiplicities.
iso = isolate_real_roots(p)
for lo, hi, mult in iso.intervals:
    print("root in [%s, %s] multiplicity %d" % (lo, hi, mult))

# A polynomial with a repeated root; multiplicity is tracked exactly.
q = Poly([1, 1]) ** 2 * Poly([3, 1])
print("\nq =", q.coeffs)
print("intervals:", isolate_real_roots(q).intervals)

# Interlacing: the roots of 1 + x sit between the roots of p.
print("\n1 + x interlaces p:", interlaces(Poly([1, 1]), p))
# The degree rule forbids the other direction.
print("p interlaces 1 + x:", interlaces(p, Poly([1, 1])))

# Symmetric decomposition with respect to n = 2: any polynomial of degree
# at most 2 splits uniquely as a + x*b with a symmetric about 1 and b
# symmetric about 1/2.
r = Poly([1, 3, 2])
dec = symmetric_decomposition(r, 2)
print("\nr =", r.coeffs)
print("symmetric part:", dec.symmetric.coeffs)
print("shifted part:", dec.shifted.coeffs)
print("both parts nonnegative and real-rooted:", has_nonneg_realrooted_symdec(r, 2))
