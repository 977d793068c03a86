"""Symmetric decompositions of polynomials of degree at most n.

Every p with deg(p) <= n splits uniquely as p = a + x*b where a is
symmetric with center n/2 (coefficient i equals coefficient n-i) and b
is symmetric with center (n-1)/2.  The solve runs in one pass: the two
symmetries give a_i = p_i - b_(i-1) and b_i = p_(n-i) - a_i.

The decomposition is "nonnegative and real-rooted" when both parts have
nonnegative coefficients and are real-rooted; that property implies
unimodality of p with a peak at ceil(n/2).

Both parts are palindromic, so each is certified at half its degree by
Gal's gamma-substitution (Gal, DCG 34, 2005).  Split off x^k and, at odd
degree, one factor 1 + x, which a palindrome of odd degree has (its
value at -1 cancels in pairs).  What is left has even degree 2m and is
x^m A(z) with z = x + 1/x, deg A = m.  Put B(w) = A(w - 2): since
w = z + 2 = (1+x)^2/x, the rest is sum over j of b_j x^(m-j) (1+x)^(2j),
whose b_j are found by peeling, and each root w_j of B gives the factor
x^2 + (2 - w_j)x + 1.  Its roots are real and negative exactly when
w_j <= 0.  A part with nonnegative coefficients has no positive root,
so it is real-rooted exactly when every root of B is real and <= 0.
As the lead of B is the part's own, positive, that holds exactly when
B is real-rooted with nonnegative coefficients: B >= 0 rules out a
positive root, and a real-rooted B with every root <= 0 is a positive
multiple of a product of factors w + c, c >= 0.  The Sturm chain of B
has half the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InvalidDegreeError
from .polynomials import Poly, has_nonneg_coeffs
from .realroots import is_real_rooted


def _gamma_realrooted(part: Poly) -> bool:
    """Whether a part with nonnegative coefficients is real-rooted,
    decided on B (see the module docstring) when it is a palindrome."""
    cs = part.coeffs
    if not cs:
        return True
    cs = cs[next(i for i, c in enumerate(cs) if c):]
    if cs != cs[::-1]:  # not built by symmetric_decomposition
        return is_real_rooted(part)
    # cs = sum over j <= m of b_j x^(m-j) (1+x)^(2j+e), e = deg(cs) mod 2;
    # the term j = k is the only one of x^(k-j) (1+x)^(2j+e), j <= k, with
    # a constant term, so b_m, ..., b_0 peel off the low half in turn
    e = 1 - len(cs) % 2
    half = cs[: (len(cs) + 1) // 2]
    b = []
    for k in range(len(half) - 1, -1, -1):
        g = half[0]
        if g < 0:
            return False
        b.append(g)
        half = [c - g * comb(2 * k + e, i) for i, c in enumerate(half[1:], 1)]
    return is_real_rooted(Poly(b[::-1]))


@dataclass(frozen=True)
class SymmetricDecomposition:
    """The unique pair p = symmetric + x * antisymmetric_shift for one n."""

    n: int
    symmetric: Poly
    shifted: Poly

    def recombine(self) -> Poly:
        return self.symmetric + Poly([0, 1]) * self.shifted

    def nonneg_realrooted(self) -> bool:
        """Whether both parts are nonnegative and real-rooted."""
        return (
            has_nonneg_coeffs(self.symmetric)
            and has_nonneg_coeffs(self.shifted)
            and _gamma_realrooted(self.symmetric)
            and _gamma_realrooted(self.shifted)
        )


def symmetric_decomposition(p: Poly, n: int) -> SymmetricDecomposition:
    """Split p = a + x*b with a symmetric about n/2, b about (n-1)/2."""
    if not isinstance(n, int) or n < 0:
        raise InvalidDegreeError("decomposition degree must be a nonnegative integer")
    if p.degree > n:
        raise InvalidDegreeError(
            "polynomial degree %d exceeds decomposition degree %d" % (p.degree, n)
        )
    a = [0] * (n + 1)
    b = [0] * max(n, 1)
    prev_b = 0
    for i in range(n + 1):
        a[i] = p.coefficient(i) - prev_b
        if i < n:
            b[i] = p.coefficient(n - i) - a[i]
            prev_b = b[i]
    return SymmetricDecomposition(n, Poly(a), Poly(b[:n]))


def has_nonneg_realrooted_symdec(p: Poly, n: int) -> bool:
    """Whether both parts of the decomposition are nonnegative and
    real-rooted.  The zero polynomial qualifies trivially."""
    return symmetric_decomposition(p, n).nonneg_realrooted()
