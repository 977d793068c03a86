"""
Descent enumerators with restricted positions
=============================================

A permutation of 1..n has a descent at i when the letter at position i
exceeds the next one.  Fixing a set T of allowed descent positions and
summing x^(number of descents) over all permutations whose descents stay
inside T gives a polynomial that turns out to be real-rooted for every T.
"""

from chainpoly import (
    descent_enumerator,
    descent_mean_variance,
    determinant_descent_enumerator,
    first_letter_descent_polynomials,
    is_interlacing_sequence,
    mode,
)

# With all positions allowed this is the classical Eulerian polynomial.
full = frozenset(range(1, 5))
print("Eulerian, n=5:", descent_enumerator(5, full).coeffs)

# Restricting to even positions thins the distribution out.
t = frozenset({2, 4})
p = descent_enumerator(5, t)
print("T = {2,4}, n=5:", p.coeffs)
print("mode:", mode(p))

# The same polynomial through the determinant formula, in integers.
print("determinant path:", determinant_descent_enumerator(5, t).coeffs)

# Behind the real-rootedness proof sit the first-letter refinements:
# row k enumerates the permutations of 1..n+1 starting with k+1.
row = first_letter_descent_polynomials(4, t)
print("\nfirst-letter row for n=4:")
for k, q in enumerate(row):
    print("  k=%d:" % k, q.coeffs)
print("row is an interlacing sequence:", is_interlacing_sequence(row))

# Exact mean and variance of the descent count under the uniform
# distribution on the allowed permutations.
mu, var = descent_mean_variance(5, t)
print("\nmean:", mu, " variance:", var)
