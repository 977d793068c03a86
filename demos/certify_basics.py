"""
Exact certification on small polynomials
========================================

Everything below runs in exact arithmetic: integer Sturm sequences for
counting real roots, and a Cauchy index read off an integer remainder
sequence for interlacing.  Every verdict is read from sign variations at
plus and minus infinity; no floats anywhere.
"""

from chainpoly import (
    Poly,
    interlaces,
    is_real_rooted,
    mode,
    real_rootedness,
    symmetric_decomposition,
    has_nonneg_realrooted_symdec,
)

# The Eulerian polynomial of the symmetric group on four letters.
p = Poly([1, 4, 1])
print("p =", p.coeffs)
print("real-rooted:", is_real_rooted(p))
print("mode:", mode(p))

# The certificate: distinct real roots counted by the Sturm chain, equal
# to the degree of the squarefree part exactly when p is real-rooted.
print("certificate:", real_rootedness(p))

# A polynomial with a repeated root: the gcd with its derivative absorbs
# the repetition, so 2 distinct roots certify the squarefree degree 2.
q = Poly([1, 1]) ** 2 * Poly([3, 1])
print("\nq =", q.coeffs)
print("certificate:", real_rootedness(q))

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
