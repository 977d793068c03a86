"""Symmetric decompositions of polynomials of degree at most n.

Every p with deg(p) <= n splits uniquely as p = a + x*b where a is
symmetric with center n/2 (coefficient i equals coefficient n-i) and b
is symmetric with center (n-1)/2.  The solve runs in one pass: the two
symmetries give a_i = p_i - b_(i-1) and b_i = p_(n-i) - a_i.

The decomposition is "nonnegative and real-rooted" when both parts have
nonnegative coefficients and are real-rooted; that property implies
unimodality of p with a peak at ceil(n/2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDegreeError
from .polynomials import Poly, has_nonneg_coeffs
from .realroots import is_real_rooted


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
            and is_real_rooted(self.symmetric)
            and is_real_rooted(self.shifted)
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
