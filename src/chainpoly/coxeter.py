"""Noncrossing partition lattices of finite reflection groups.

Two independent routes to the same polynomials.  The concrete route
models a reflection group of classical type (permutations for type A,
signed permutations for B, the even-sign subgroup for D) by its
reflections and a fixed Coxeter element alone, reads absolute lengths
off Carter's lemma, l(w) = codim Fix(w), and generates the interval
below the Coxeter element upward from the identity as a graded bounded
poset; the whole group is listed only when asked for.  The formula
route evaluates closed descent-word expressions for the order
h-polynomial, with the exceptional types kept as a constant table.
The lattice route only scales to small ranks and exists chiefly to
certify the formula route.  This module only enumerates and transforms:
the chain polynomial and the reversed-h identity run off the formulas,
and certifying them is left to the callers.

Group elements are tuples w with w[i-1] = image of i, values in +-[n];
plain permutations are the all-positive case.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, permutations, product
from typing import Optional, Tuple

from .descents import signed_word_descent_enumerator, word_descent_enumerator
from .errors import DomainError, ResourceLimitError
from .polynomials import Poly, f_from_h, veronese
from .posets import GradedBoundedPoset

DEFAULT_GROUP_ORDER_CAP = 50000

EXCEPTIONAL_H = {
    "H3": (1, 28, 21),
    "H4": (1, 275, 842, 232),
    "F4": (1, 100, 265, 66),
    "E6": (1, 826, 10778, 21308, 8141, 418),
    "E7": (1, 4152, 110958, 446776, 412764, 85800, 2431),
    "E8": (1, 25071, 1295238, 9523785, 17304775, 8733249, 1069289, 17342),
}


@dataclass(frozen=True)
class CoxeterType:
    """An irreducible finite Coxeter type: A/B/D with a rank parameter,
    I2 with an edge label, or one of the six exceptional names."""

    family: str
    param: Optional[int] = None

    def __post_init__(self):
        fam, p = self.family, self.param
        if fam == "A":
            if type(p) is not int or p < 1:
                raise DomainError("type A needs rank >= 1")
        elif fam == "B":
            if type(p) is not int or p < 1:
                raise DomainError("type B needs rank >= 1")
        elif fam == "D":
            if type(p) is not int or p < 2:
                raise DomainError("type D needs rank >= 2")
        elif fam == "I2":
            if type(p) is not int or p < 3:
                raise DomainError("type I2 needs edge label m >= 3")
        elif fam in EXCEPTIONAL_H:
            if p is not None:
                raise DomainError("type %s takes no parameter" % fam)
        else:
            raise DomainError("unknown Coxeter family %r" % fam)

    @property
    def rank(self) -> int:
        if self.family in ("A", "B", "D"):
            return self.param
        if self.family == "I2":
            return 2
        return len(EXCEPTIONAL_H[self.family])

    @classmethod
    def parse(cls, text: str) -> "CoxeterType":
        """Parse notation like A4, B3, D5, I2:7, H3, E8."""
        s = text.strip().upper()
        m = re.fullmatch(r"([ABD]|I2:)(\d+)", s)
        if m:
            family = m.group(1).rstrip(":")
            try:
                param = int(m.group(2))
            except ValueError:  # past Python's int() digit limit
                raise DomainError("type %s parameter is too long" % family) from None
            return cls(family, param)
        if s in EXCEPTIONAL_H:
            return cls(s)
        raise DomainError(
            "cannot parse Coxeter type %r (expected e.g. A4, B3, D5, I2:7, H3)"
            % text
        )

    def __str__(self):
        if self.family == "I2":
            return "I2:%d" % self.param
        if self.param is not None:
            return "%s%d" % (self.family, self.param)
        return self.family


def compose(u: Tuple[int, ...], v: Tuple[int, ...]) -> Tuple[int, ...]:
    """The signed permutation u after v."""
    out = []
    for j in v:
        out.append(u[j - 1] if j > 0 else -u[-j - 1])
    return tuple(out)


def _identity(n: int) -> Tuple[int, ...]:
    return tuple(range(1, n + 1))


def _transposition(n: int, i: int, j: int) -> Tuple[int, ...]:
    w = list(range(1, n + 1))
    w[i - 1], w[j - 1] = j, i
    return tuple(w)


def _signed_transposition(n: int, i: int, j: int) -> Tuple[int, ...]:
    w = list(range(1, n + 1))
    w[i - 1], w[j - 1] = -j, -i
    return tuple(w)


def _absolute_length(w: Tuple[int, ...]) -> int:
    """Least number of reflections whose product is w, by Carter's lemma.

    The length is codim Fix(w): the degree minus the number of cycles of
    |w| carrying an even number of negative entries, each of which fixes
    one line.  For plain permutations that is n minus the cycle count.
    """
    seen = [False] * len(w)
    even = 0
    for start in range(len(w)):
        if seen[start]:
            continue
        negatives = 0
        i = start
        while not seen[i]:
            seen[i] = True
            negatives += w[i] < 0
            i = abs(w[i]) - 1
        if negatives % 2 == 0:
            even += 1
    return len(w) - even


@dataclass(frozen=True)
class ReflectionGroup:
    """A concrete classical reflection group, held as its reflections and
    the fixed Coxeter element ``gamma``.

    ``elements``, the sorted listing of the whole group, is built only
    when first read; the lattice route reads it only to check an
    explicit gamma.
    """

    coxeter_type: CoxeterType
    degree: int
    reflections: frozenset
    gamma: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.coxeter_type.rank

    @property
    def identity(self) -> Tuple[int, ...]:
        return _identity(self.degree)

    @cached_property
    def elements(self) -> tuple:
        """Every signed permutation of the family, sorted: no signs for A,
        any signs for B, an even number of negative entries for D."""
        n, fam = self.degree, self.coxeter_type.family
        signs = [(1,) * n] if fam == "A" else product((1, -1), repeat=n)
        return tuple(sorted(
            tuple(e * v for e, v in zip(s, w))
            for s in signs
            if fam != "D" or s.count(-1) % 2 == 0
            for w in permutations(range(1, n + 1))
        ))


def build_reflection_group(
    t: CoxeterType, max_order: int = DEFAULT_GROUP_ORDER_CAP
) -> ReflectionGroup:
    """Concrete model of a type A, B or D reflection group.

    Type A rank k is the symmetric group on k+1 letters with the long
    cycle as Coxeter element; types B and D act on signed letters with
    the usual signed cycle and bipartite product respectively.  The
    reflections are listed directly: the transpositions, for B and D
    also the signed transpositions, and for B the single sign changes.
    No group element is listed.
    """
    fam = t.family
    if fam not in ("A", "B", "D"):
        raise DomainError("no concrete group model for type %s" % t)
    n = t.param + 1 if fam == "A" else t.param
    # n! for A, 2^n n! for B and 2^(n-1) n! for D, factor by factor: an
    # order too long for "%d" stops as soon as it has too many digits
    digits = sys.get_int_max_str_digits()
    too_long = 10 ** digits if digits else math.inf
    order = 1
    for i in range(2 if fam != "B" else 1, n + 1):
        order *= i if fam == "A" else 2 * i
        if order >= too_long:
            raise ResourceLimitError(
                "group of type %s exceeds the cap %d" % (t, max_order)
            )
    if order > max_order:
        raise ResourceLimitError(
            "group of order %d exceeds the cap %d" % (order, max_order)
        )
    if fam == "D":
        gamma = _signed_transposition(n, 1, 2)
        for i in range(1, n):
            gamma = compose(gamma, _transposition(n, i, i + 1))
    else:
        gamma = tuple(range(2, n + 1)) + ((1,) if fam == "A" else (-1,))

    if _absolute_length(gamma) != t.rank:
        raise DomainError("Coxeter element has wrong absolute length")
    pairs = list(combinations(range(1, n + 1), 2))
    reflections = {_transposition(n, i, j) for i, j in pairs}
    if fam != "A":
        reflections.update(_signed_transposition(n, i, j) for i, j in pairs)
    if fam == "B":  # (i, i) is the sign change of i alone
        reflections.update(_signed_transposition(n, i, i) for i in range(1, n + 1))
    return ReflectionGroup(t, n, frozenset(reflections), gamma)


def noncrossing_lattice(
    g: ReflectionGroup, gamma: Optional[Tuple[int, ...]] = None
) -> GradedBoundedPoset:
    """The interval below a Coxeter element in absolute order.

    Generated upward from the identity, carrying c = a^-1 gamma for each
    element a of a level: for a reflection t, b = a t covers a inside
    the interval, with b^-1 gamma = t c, exactly when l(t c) = l(c) - 1,
    since then l(b) = l(a) + 1 by subadditivity of l.  Those t are the
    reflections below c in absolute order, and t c is below c, so the
    reflections tested at b are only those kept at a.  Only the
    reflections and gamma are read; the group is listed only to check
    an explicit gamma.  Elements are sorted and covers ordered by rank,
    then by their lower and upper ends.
    """
    if gamma is None:
        gamma = g.gamma
    elif gamma not in g.elements or _absolute_length(gamma) != g.rank:
        raise DomainError("gamma must be an element of absolute length = rank")
    level = {g.identity: (gamma, g.reflections)}
    elements = [g.identity]
    covers = []
    for length in reversed(range(g.rank)):  # of t c, one level up
        uppers = {}
        for a in sorted(level):
            c, candidates = level[a]
            kept = {t: compose(t, c) for t in candidates}
            kept = {t: tc for t, tc in kept.items() if _absolute_length(tc) == length}
            above = {compose(a, t): (tc, kept) for t, tc in kept.items()}
            covers.extend((a, b) for b in sorted(above))
            uppers.update(above)
        level = uppers
        elements.extend(level)
    elements.sort()
    position = {w: k for k, w in enumerate(elements)}
    pairs = [(position[a], position[b]) for a, b in covers]
    return GradedBoundedPoset._from_pairs(elements, pairs)


@lru_cache(maxsize=None)
def nc_h_formula(t: CoxeterType) -> Poly:
    """Order h-polynomial of the proper part of the noncrossing lattice,
    by closed formula.

    Classical types come from word descent enumerators: type A rank k is
    the descent enumerator of [k+1]^k split by k+1 (always integral),
    type B rank n that of [n]^n, type D the signed-word enumerator.
    I2(m) is 1 + (m-1)x and the exceptional types are a fixed table.
    """
    fam = t.family
    if fam == "A":
        n = t.param + 1
        counts = word_descent_enumerator(t.param, n).coeffs
        if any(c % n for c in counts):
            raise DomainError(
                "type A descent count not divisible by the group size"
            )
        return Poly([c // n for c in counts])
    if fam == "B":
        return word_descent_enumerator(t.param, t.param)
    if fam == "D":
        return signed_word_descent_enumerator(t.param)
    if fam == "I2":
        return Poly([1, t.param - 1])
    return Poly(EXCEPTIONAL_H[fam])


def nc_chain_polynomial(t: CoxeterType) -> Poly:
    """Chain polynomial of the full bounded noncrossing lattice.

    Chains of the proper part extend by the bottom and top elements
    independently, hence the (1+x)^2 factor in front of the proper-part
    chain polynomial recovered from the h-polynomial.
    """
    h = nc_h_formula(t)
    proper = f_from_h(h, t.rank - 1)
    return Poly([1, 2, 1]) * proper


def _window_sums(cs: list, r: int, times: int) -> list:
    """cs * (1 + x + ... + x^(r-1))^times, as `times` running-window sums
    of width r over a coefficient list."""
    pad = [0] * (r - 1)
    for _ in range(times):
        prefix = list(accumulate(cs + pad, initial=0))
        cs = [hi - lo for hi, lo in zip(prefix[1:], pad + prefix)]
    return cs


def _veronese_product(t: CoxeterType) -> Optional[Poly]:
    """The Veronese-section side of the reversed-h identity; None for types
    it does not cover.

    Type A rank k (n = k+1): the n-th section of x(1+x+...+x^(n-1))^n.
    Type B rank n: the n-th section of x(1+...+x^(n-1))^(n+1).  Type D
    rank n: the (n-1)-th section of (x+x^2)(1+...+x^(n-2))^(n+1).
    """
    fam = t.family
    if fam == "A":
        n = t.param + 1
        return veronese(Poly([0] + _window_sums([1], n, n)), n)
    if fam == "B":
        n = t.param
        return veronese(Poly([0] + _window_sums([1], n, n + 1)), n)
    if fam == "D":
        n = t.param
        return veronese(Poly([0] + _window_sums([1, 1], n - 1, n + 1)), n - 1)
    return None


def nc_reversed_h_identity(t: CoxeterType) -> Optional[bool]:
    """Whether the reversed h-polynomial matches its Veronese-section
    product form; None for types the identity does not cover.

    Type A rank k (n = k+1): n times the degree-(n-1) reversal of h.
    Types B and D rank n: the degree-n reversal.  The right-hand sides
    are in _veronese_product.
    """
    rhs = _veronese_product(t)
    if rhs is None:
        return None
    h = nc_h_formula(t)
    if t.family == "A":
        return h.reverse(t.param).scale(t.param + 1) == rhs
    return h.reverse(t.param) == rhs
