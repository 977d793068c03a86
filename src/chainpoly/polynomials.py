"""Dense univariate polynomials with exact integer or rational coefficients.

The whole package funnels through this representation: a polynomial is an
immutable tuple of coefficients in ascending order with no trailing zeros,
each coefficient a Python ``int`` or a ``fractions.Fraction`` in lowest
terms.  The zero polynomial is the empty tuple and reports degree -1.
No floating point enters any computation here.

Besides ring arithmetic the module provides the coefficient-level
operations used by the combinatorial layers: reversal x^n p(1/x), the
r-th Veronese section (every r-th coefficient), the f/h transforms, the
slots of polynomials packed into ints, and the shape predicates
(symmetry, unimodality, log-concavity, mode) the reports quote.

The remainder sequence behind every certificate in realroots runs on
plain integer coefficient lists.  Its inputs are cleared of denominators
and made primitive once; each member after them is one pseudo-remainder,
scaled by the absolute lead of the divisor so every sign survives, then
divided by the gcd of its entries.  No Poly and no Fraction is built per
member.  Exact quotients by a member are integer long divisions, which
Gauss's lemma makes exact over Z whenever they are over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import DomainError, InvalidDegreeError

Scalar = Union[int, Fraction]

_MEMO_SIZE = 1024  # entries per functools memo: bounded memory in batch runs


def _as_scalar(value) -> Scalar:
    """Coerce to int or Fraction, collapsing integral fractions to int."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError("coefficients must be int or Fraction, got %r" % (value,))


class Poly:
    """Immutable dense polynomial over Z or Q.

    >>> p = Poly([1, 4, 1])
    >>> p.degree
    2
    >>> p(Fraction(1, 2))
    Fraction(13, 4)
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Scalar:
        if not self._coeffs:
            return 0
        return self._coeffs[-1]

    def coefficient(self, i: int) -> Scalar:
        """Coefficient of x^i, zero beyond the degree."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return "Poly(%r)" % (list(self._coeffs),)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self._coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("exponent must be a nonnegative integer")
        result = Poly([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, x: Scalar) -> Scalar:
        acc = Fraction(0) if isinstance(x, Fraction) else 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return _as_scalar(acc) if isinstance(acc, Fraction) else acc

    def scale(self, c: Scalar) -> "Poly":
        return Poly([ci * c for ci in self._coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self._coeffs)][1:])

    def reverse(self, n: int) -> "Poly":
        """x^n * p(1/x) for n >= deg(p); reverses the coefficient list."""
        if n < self.degree:
            raise InvalidDegreeError(
                "reversal degree %d is below the polynomial degree %d" % (n, self.degree)
            )
        out = [0] * (n + 1)
        for i, c in enumerate(self._coeffs):
            out[n - i] = c
        return Poly(out)


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def parse_poly(text: str) -> Poly:
    """Parse the ascending comma-separated coefficient format.

    Integers or rationals written p/q are accepted: "1,28,21" or "1/3,2".
    """
    if not isinstance(text, str) or not text.strip():
        raise DomainError("empty polynomial text")
    coeffs = []
    for field in text.split(","):
        field = field.strip()
        if not field:
            raise DomainError("empty coefficient in %r" % text)
        try:
            coeffs.append(int(field) if "/" not in field else Fraction(field))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError("bad coefficient %r: %s" % (field, exc)) from None
    return Poly(coeffs)


def format_poly(p: Poly) -> str:
    """Inverse of parse_poly; the zero polynomial prints as "0"."""
    if p.is_zero:
        return "0"
    return ",".join(str(c) for c in p.coeffs)


def veronese(p: Poly, r: int) -> Poly:
    """Section operator keeping coefficients of x^0, x^r, x^(2r), ..."""
    if not isinstance(r, int) or r < 1:
        raise DomainError("Veronese order must be a positive integer")
    return Poly(p.coeffs[::r])


def _integer_coeffs(p: Poly) -> list:
    """d * p as a coefficient list, with d the lcm of the denominators of
    p: the one place where a coefficient list leaves Q for Z."""
    denom = math.lcm(*(c.denominator for c in p.coeffs))
    return [int(c * denom) for c in p.coeffs] if denom > 1 else list(p.coeffs)


def _primitive(cs: list) -> list:
    """An integer coefficient list divided by the gcd of its entries."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _prem(a: list, b: list) -> list:
    """Remainder of integer list a by nonzero integer list b, times a
    positive integer so that it stays integral and keeps every sign a
    Sturm chain reads: each elimination step scales by |lc(b)|."""
    if b[-1] < 0:
        b = [-c for c in b]
    lead, db = b[-1], len(b) - 1
    rem = list(a)
    while len(rem) > db:
        c = rem.pop()
        if c:
            rem = [lead * r - c * d for r, d in zip(rem, [0] * (len(rem) - db) + b)]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _exact_quotient(a: list, b: list) -> list:
    """Quotient of integer lists a / b over Z, b nonzero, by long division
    with divmod on the lead; DomainError unless it is exact."""
    lead, db = b[-1], len(b) - 1
    rem = list(a)
    quot = []
    while len(rem) > db:
        q, r = divmod(rem.pop(), lead)
        if r:
            raise DomainError("inexact polynomial division")
        quot.append(q)
        if q:
            s = len(rem) - db
            rem[s:] = [c - q * d for c, d in zip(rem[s:], b)]
    if any(rem):
        raise DomainError("inexact polynomial division")
    quot.reverse()
    return quot


def _remainder_sequence(f0: list, f1: list) -> list:
    """f0, f1, -rem(f0, f1), ... down to gcd(f0, f1) for integer
    coefficient lists, every member a primitive integer list (positive
    rescaling only, so all signs are preserved)."""
    chain = [_primitive(f0)]
    if f1:
        chain.append(_primitive(f1))
        while True:
            rem = _prem(chain[-2], chain[-1])
            if not rem:
                break
            g = math.gcd(*rem)
            chain.append([c // -g for c in rem])
    return chain


def _slot_width(n: int, r: int) -> int:
    """Bits of a slot that holds every integer from 0 to 2 r^n.

    With b the bit length of r, r < 2^b and so 2 r^n < 2^(nb + 1).  Only
    bit lengths are formed, never r^n: on a huge r the caller's list of
    r entries must be what fails, and at once.
    """
    return n * r.bit_length() + 1


def _unpack(v: int, width: int, length: int) -> list:
    """The lowest ``length`` slots of a polynomial packed into an int
    (Kronecker substitution), lowest first.  Past 64 slots the int is
    cut in halves first: L slots of w bits cost O(L w log L), not the
    O(L^2 w) of shifting the whole int for every slot."""
    if length > 64:
        half = length >> 1
        low = v & ((1 << width * half) - 1)
        return _unpack(low, width, half) + _unpack(v >> width * half, width, length - half)
    mask = (1 << width) - 1
    return [(v >> (width * i)) & mask for i in range(length)]


def _binomial_transform(cs: list, n: int, sign: int) -> list:
    """sum over i of cs[i] x^i (1 + sign*x)^(n-i) as a coefficient list,
    for n >= len(cs) - 1.

    One Horner pass: acc_k = acc_(k-1) * (1 + sign*x) + cs[k] x^k, and
    acc_n is the result.
    """
    if n < len(cs) - 1:
        raise InvalidDegreeError("transform degree below polynomial degree")
    acc = []
    for c in cs + [0] * (n + 1 - len(cs)):
        acc = [a + sign * b for a, b in zip(acc + [c], [0] + acc)]
    return acc


def h_from_f(f: Poly, n: int) -> Poly:
    """h(x) = sum over i of f_i x^i (1-x)^(n-i), for n >= deg(f)."""
    return Poly(_binomial_transform(list(f.coeffs), n, -1))


def f_from_h(h: Poly, n: int) -> Poly:
    """Inverse of h_from_f: f(x) = sum over i of h_i x^i (1+x)^(n-i)."""
    return Poly(_binomial_transform(list(h.coeffs), n, 1))


def has_nonneg_coeffs(p: Poly) -> bool:
    return all(c >= 0 for c in p.coeffs)


def is_symmetric(p: Poly, n: int) -> bool:
    """True when coefficient i equals coefficient n-i for all i.

    The center of symmetry n/2 must be supplied: a polynomial can be
    symmetric with respect to several centers (the zero polynomial is
    symmetric with respect to all of them).
    """
    if not isinstance(n, int) or n < -1:
        raise DomainError("symmetry degree must be an integer >= -1")
    if p.is_zero:
        return True
    if p.degree > n:
        return False
    return all(p.coefficient(i) == p.coefficient(n - i) for i in range(n + 1))


def unimodal_peaks(p: Poly) -> tuple:
    """Indices k with coeffs ascending up to k and descending after.

    Empty tuple means not unimodal (or the zero polynomial).
    """
    cs = p.coeffs
    if not cs:
        return ()
    m = len(cs)
    prefix = [True] * m
    for i in range(1, m):
        prefix[i] = prefix[i - 1] and cs[i - 1] <= cs[i]
    suffix = [True] * m
    for i in range(m - 2, -1, -1):
        suffix[i] = suffix[i + 1] and cs[i] >= cs[i + 1]
    return tuple(k for k in range(m) if prefix[k] and suffix[k])


def is_unimodal(p: Poly) -> bool:
    return p.is_zero or bool(unimodal_peaks(p))


def is_log_concave(p: Poly) -> bool:
    """c_i^2 >= c_(i-1) c_(i+1) for all interior indices."""
    cs = p.coeffs
    return all(cs[i] * cs[i] >= cs[i - 1] * cs[i + 1] for i in range(1, len(cs) - 1))


def mode(p: Poly) -> Optional[Scalar]:
    """Mode of a nonnegative coefficient sequence, if one exists.

    A unique maximum at index i gives mode i; a tie between adjacent
    indices i, i+1 gives the half-integer i + 1/2; any other tie pattern
    has no mode and returns None.  Degree-0 polynomials have mode 0.
    """
    cs = p.coeffs
    if not cs:
        raise DomainError("the zero polynomial has no mode")
    if any(c < 0 for c in cs):
        raise DomainError("mode requires nonnegative coefficients")
    top = max(cs)
    where = [i for i, c in enumerate(cs) if c == top]
    if len(where) == 1:
        return where[0]
    if len(where) == 2 and where[1] == where[0] + 1:
        return Fraction(2 * where[0] + 1, 2)
    return None
