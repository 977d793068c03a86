"""Noncrossing partition lattices of finite reflection groups.

Two independent routes to the same polynomials.  The concrete route
models a reflection group of classical type (permutations for type A,
signed permutations for B, the even-sign subgroup for D) by its
reflections and a fixed Coxeter element alone, reads absolute lengths
off Carter's lemma, l(w) = codim Fix(w), and generates the interval
below the Coxeter element upward from the identity as a graded bounded
poset, deciding each step's reflections from the cycles of the part of
the Coxeter element still to be reached; the whole group is listed only
when asked for.  The formula route evaluates the paper's descent-word
expressions for the order h-polynomial of types A, B and D, and reads
the dihedral and exceptional types off their degrees: the zeta
polynomial of the noncrossing lattice is a Fuss-Catalan number
(Chapoton, Sem. Lothar. Combin. 51, 2004), and h is a finite difference
of it (Stanley, EC1 Sec. 3.12).
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
from operator import mul
from typing import Optional, Tuple

from .descents import signed_word_descent_enumerator, word_descent_enumerator
from .errors import DomainError, ResourceLimitError
from .polynomials import _MEMO_SIZE, Poly, f_from_h, veronese
from .posets import GradedBoundedPoset

DEFAULT_GROUP_ORDER_CAP = 50000

# the degrees of each exceptional type (Humphreys, Table 3.1)
EXCEPTIONAL_DEGREES = {
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
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
        elif fam in EXCEPTIONAL_DEGREES:
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
        return len(EXCEPTIONAL_DEGREES[self.family])

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
        if s in EXCEPTIONAL_DEGREES:
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
        if fam == "A":  # permutations come in lexicographic order
            return tuple(permutations(range(1, n + 1)))
        return tuple(sorted(
            tuple(map(mul, s, w))
            for s in product((1, -1), repeat=n)
            if fam == "B" or s.count(-1) % 2 == 0
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
    No group element is listed.  Other types have no model here, and,
    like a group over the order cap, raise ResourceLimitError.
    """
    fam = t.family
    if fam not in ("A", "B", "D"):
        raise ResourceLimitError("no concrete group model for type %s" % t)
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


def _root(t: Tuple[int, ...]) -> Tuple[int, int, bool]:
    """(i, j, plus) for a reflection t moving positions i <= j (from 0):
    its root is e_i - e_j, or e_i + e_j when plus, or e_i when i = j."""
    moved = [k for k, v in enumerate(t) if v != k + 1]
    return moved[0], moved[-1], t[moved[0]] < 0


def _times_reflection(
    a: Tuple[int, ...], i: int, j: int, plus: bool
) -> Tuple[int, ...]:
    """compose(a, t) for the reflection t with root (i, j, plus), as
    ``_root`` reads it: t swaps positions i and j for e_i - e_j, swaps
    and negates both for e_i + e_j, and negates position i for e_i
    (i = j), so a t is a with those entries edited."""
    w = list(a)
    if plus:
        w[i], w[j] = -a[j], -a[i]
    else:
        w[i], w[j] = a[j], a[i]
    return tuple(w)


def _below(c: Tuple[int, ...], candidates: list) -> list:
    """The candidates (i, j, plus, t), with (i, j, plus) the root of t,
    whose reflection t lies below c in absolute order.

    By Carter's lemma l(t c) = l(c) - 1 exactly when t's root lies in
    Mov(c), the orthogonal complement of Fix(c).  Fix(c) is spanned by
    one vector per cycle of |c| with an even number of negative entries:
    entries +-1 on the cycle, the sign flipping after each negative
    entry.  One pass over the cycles labels each position with its cycle
    and that sign, and with -1 in a cycle without a fixed line.  So e_i
    lies in Mov(c) when i's cycle has no fixed line; e_i - e_j when
    neither i's nor j's has, or both lie in one cycle with equal signs;
    and e_i + e_j likewise, but with opposite signs.
    """
    cycle = [None] * len(c)
    flip = [False] * len(c)
    for start in range(len(c)):
        if cycle[start] is not None:
            continue
        walk, odd, k = [], False, start
        while cycle[k] is None:
            cycle[k] = start
            flip[k] = odd
            walk.append(k)
            odd ^= c[k] < 0
            k = abs(c[k]) - 1
        if odd:
            for k in walk:
                cycle[k] = -1
    kept = []
    for entry in candidates:
        i, j, plus, _ = entry
        if i == j:
            moved = cycle[i] < 0
        elif cycle[i] < 0:
            moved = cycle[j] < 0
        else:
            moved = cycle[i] == cycle[j] and (flip[i] != flip[j]) == plus
        if moved:
            kept.append(entry)
    return kept


def noncrossing_lattice(
    g: ReflectionGroup, gamma: Optional[Tuple[int, ...]] = None
) -> GradedBoundedPoset:
    """The interval below a Coxeter element in absolute order.

    Generated upward from the identity, carrying c = a^-1 gamma for each
    element a of a level: for a reflection t, b = a t covers a inside
    the interval, with b^-1 gamma = t c, exactly when t lies below c in
    absolute order, since then l(b) = l(a) + 1 by subadditivity of l.
    ``_below`` decides that by a constant-time rule per reflection from
    the cycles of c, and each kept t gives b = a t as a two-entry edit
    of a, read off t's root (``_times_reflection``).  t c and the
    candidates tested at b are stored only when b is first reached in
    its level: b^-1 gamma is the same from every lower cover, and each
    lower cover's kept list holds every reflection below t c, as those
    lie below c.  Only the reflections and gamma are read; the group is
    listed only to check an explicit gamma.  Elements are sorted and
    covers ordered by rank, then by their lower and upper ends.
    """
    if gamma is None:
        gamma = g.gamma
    elif gamma not in g.elements or _absolute_length(gamma) != g.rank:
        raise DomainError("gamma must be an element of absolute length = rank")
    level = {g.identity: (gamma, [_root(t) + (t,) for t in g.reflections])}
    elements = [g.identity]
    covers = []
    for _ in range(g.rank):
        uppers = {}
        for a in sorted(level):
            c, candidates = level[a]
            kept = _below(c, candidates)
            above = []
            for i, j, plus, t in kept:
                b = _times_reflection(a, i, j, plus)
                above.append(b)
                if b not in uppers:
                    uppers[b] = compose(t, c), kept
            above.sort()
            covers.extend((a, b) for b in above)
        level = uppers
        elements.extend(level)
    elements.sort()
    position = {w: k for k, w in enumerate(elements)}
    pairs = [(position[a], position[b]) for a, b in covers]
    return GradedBoundedPoset._from_pairs(elements, pairs)


@lru_cache(maxsize=_MEMO_SIZE)
def nc_h_formula(t: CoxeterType) -> Poly:
    """Order h-polynomial of the proper part of the noncrossing lattice,
    by closed formula.

    Classical types come from the paper's word descent enumerators:
    type A rank k is the descent enumerator of [k+1]^k split by k+1
    (always integral), type B rank n that of [n]^n, type D the
    signed-word enumerator.  I2(m), with degrees (2, m), and the
    exceptional types come from their degrees d_1, ..., d_n and Coxeter
    number h = d_n: NC(W) has Z(m) = prod_i ((m-1)h + d_i)/d_i
    multichains x_1 <= ... <= x_(m-1) (Chapoton; Armstrong, Mem. AMS
    949, Thm 3.6.9) and, being bounded of rank n,
    sum_m Z(m) x^m (1-x)^(n+1) = sum_k h_k x^(k+1) (Stanley, EC1
    Sec. 3.12).  So h_k = sum_i (-1)^i C(n+1, i) Z(k+1-i), where
    Z(0) = 0 as d_n = h.
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
        return _h_from_degrees((2, t.param))
    return _h_from_degrees(EXCEPTIONAL_DEGREES[fam])


def _h_from_degrees(degrees: tuple) -> Poly:
    """nc_h_formula of the Coxeter group with these degrees."""
    n, h, order = len(degrees), max(degrees), math.prod(degrees)
    z = [math.prod((m - 1) * h + d for d in degrees) // order for m in range(n + 1)]
    weights = [(-1) ** i * math.comb(n + 1, i) for i in range(n + 1)]  # (1-x)^(n+1)
    return Poly([sum(w * v for w, v in zip(weights, z[k + 1::-1])) for k in range(n)])


def nc_chain_polynomial(t: CoxeterType) -> Poly:
    """Chain polynomial of the full bounded noncrossing lattice.

    The proper part has f_from_h(h, rank - 1); its chains extend by the
    bottom and top independently, a factor (1+x)^2, and
    (1+x)^2 f_from_h(h, m) = f_from_h(h, m + 2).
    """
    return f_from_h(nc_h_formula(t), t.rank + 1)


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
