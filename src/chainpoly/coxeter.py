"""Noncrossing partition lattices of finite reflection groups.

Two independent routes to the same polynomials.  The concrete route
builds a reflection group of classical type (permutations for type A,
signed permutations for B, the even-sign subgroup for D), computes
absolute lengths by breadth-first search over the reflection Cayley
graph, and assembles the interval below a fixed Coxeter element as a
graded bounded poset.  The formula route evaluates closed descent-word
expressions for the order h-polynomial, with the exceptional types kept
as a constant table.  The lattice route only scales to small ranks and
exists chiefly to certify the formula route; everything downstream
(chain polynomials, symmetric decompositions, unimodality reports) runs
off the formulas.

Group elements are tuples w with w[i-1] = image of i, values in +-[n];
plain permutations are the all-positive case.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Tuple

from .descents import signed_word_descent_enumerator, word_descent_enumerator
from .errors import DomainError, ResourceLimitError
from .polynomials import Poly, X, f_from_h, unimodal_peaks, veronese
from .posets import GradedBoundedPoset
from .realroots import is_real_rooted
from .symdecomp import has_nonneg_realrooted_symdec, symmetric_decomposition

DEFAULT_GROUP_ORDER_CAP = 50000

EXCEPTIONAL_H = {
    "H3": (1, 28, 21),
    "H4": (1, 275, 842, 232),
    "F4": (1, 100, 265, 66),
    "E6": (1, 826, 10778, 21308, 8141, 418),
    "E7": (1, 4152, 110958, 446776, 412764, 85800, 2431),
    "E8": (1, 25071, 1295238, 9523785, 17304775, 8733249, 1069289, 17342),
}

EXCEPTIONAL_RANK = {"H3": 3, "H4": 4, "F4": 4, "E6": 6, "E7": 7, "E8": 8}


@dataclass(frozen=True)
class CoxeterType:
    """An irreducible finite Coxeter type: A/B/D with a rank parameter,
    I2 with an edge label, or one of the six exceptional names."""

    family: str
    param: Optional[int] = None

    def __post_init__(self):
        fam, p = self.family, self.param
        if fam == "A":
            if not isinstance(p, int) or p < 1:
                raise DomainError("type A needs rank >= 1")
        elif fam == "B":
            if not isinstance(p, int) or p < 1:
                raise DomainError("type B needs rank >= 1")
        elif fam == "D":
            if not isinstance(p, int) or p < 2:
                raise DomainError("type D needs rank >= 2")
        elif fam == "I2":
            if not isinstance(p, int) or p < 3:
                raise DomainError("type I2 needs edge label m >= 3")
        elif fam in EXCEPTIONAL_RANK:
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
        return EXCEPTIONAL_RANK[self.family]

    @classmethod
    def parse(cls, text: str) -> "CoxeterType":
        """Parse notation like A4, B3, D5, I2:7, H3, E8."""
        s = text.strip().upper()
        m = re.fullmatch(r"([ABD])(\d+)", s)
        if m:
            return cls(m.group(1), int(m.group(2)))
        m = re.fullmatch(r"I2:(\d+)", s)
        if m:
            return cls("I2", int(m.group(1)))
        if s in EXCEPTIONAL_RANK:
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


def inverse(u: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * len(u)
    for i, j in enumerate(u, start=1):
        if j > 0:
            out[j - 1] = i
        else:
            out[-j - 1] = -i
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


def _sign_flip(n: int, i: int) -> Tuple[int, ...]:
    w = list(range(1, n + 1))
    w[i - 1] = -i
    return tuple(w)


@dataclass(frozen=True)
class ReflectionGroup:
    """A concrete classical reflection group with its absolute lengths.

    ``lengths`` maps every element to the least number of reflections
    whose product it is; ``gamma`` is the fixed Coxeter element.
    """

    coxeter_type: CoxeterType
    degree: int
    elements: tuple
    reflections: frozenset
    gamma: Tuple[int, ...]
    lengths: dict

    @property
    def rank(self) -> int:
        return self.coxeter_type.rank

    @property
    def identity(self) -> Tuple[int, ...]:
        return _identity(self.degree)


def build_reflection_group(
    t: CoxeterType, max_order: int = DEFAULT_GROUP_ORDER_CAP
) -> ReflectionGroup:
    """Concrete model of a type A, B or D reflection group.

    Type A rank k is the symmetric group on k+1 letters with the long
    cycle as Coxeter element; types B and D act on signed letters with
    the usual signed cycle and bipartite product respectively.  The
    whole group is generated by breadth-first search from the identity,
    which also yields every absolute length.
    """
    fam = t.family
    if fam == "A":
        n = t.param + 1
        order = math.factorial(n)
        reflections = [
            _transposition(n, i, j) for i, j in combinations(range(1, n + 1), 2)
        ]
        gamma = tuple(list(range(2, n + 1)) + [1])
    elif fam == "B":
        n = t.param
        order = 2 ** n * math.factorial(n)
        reflections = [_sign_flip(n, i) for i in range(1, n + 1)]
        for i, j in combinations(range(1, n + 1), 2):
            reflections.append(_transposition(n, i, j))
            reflections.append(_signed_transposition(n, i, j))
        gamma = tuple(list(range(2, n + 1)) + [-1])
    elif fam == "D":
        n = t.param
        order = 2 ** (n - 1) * math.factorial(n)
        reflections = []
        for i, j in combinations(range(1, n + 1), 2):
            reflections.append(_transposition(n, i, j))
            reflections.append(_signed_transposition(n, i, j))
        gamma = _signed_transposition(n, 1, 2)
        for i in range(1, n):
            gamma = compose(gamma, _transposition(n, i, i + 1))
    else:
        raise DomainError("no concrete group model for type %s" % t)
    if order > max_order:
        raise ResourceLimitError(
            "group of order %d exceeds the cap %d" % (order, max_order)
        )

    identity = _identity(n)
    lengths = {identity: 0}
    frontier = [identity]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for r in reflections:
                v = compose(u, r)
                if v not in lengths:
                    lengths[v] = depth
                    nxt.append(v)
        frontier = nxt
    if len(lengths) != order:
        raise DomainError("reflections failed to generate the expected group")
    if lengths[gamma] != t.rank:
        raise DomainError("Coxeter element has wrong absolute length")
    return ReflectionGroup(
        coxeter_type=t,
        degree=n,
        elements=tuple(sorted(lengths)),
        reflections=frozenset(reflections),
        gamma=gamma,
        lengths=lengths,
    )


def noncrossing_lattice(
    g: ReflectionGroup, gamma: Optional[Tuple[int, ...]] = None
) -> GradedBoundedPoset:
    """The interval below a Coxeter element in absolute order.

    Elements are the group members alpha with len(alpha) plus
    len(alpha^-1 gamma) equal to the rank; covers join consecutive
    lengths through a single reflection.
    """
    if gamma is None:
        gamma = g.gamma
    if g.lengths.get(gamma) != g.rank:
        raise DomainError("gamma must be an element of absolute length = rank")
    nc = [
        a
        for a in g.elements
        if g.lengths[a] + g.lengths[compose(inverse(a), gamma)] == g.rank
    ]
    by_rank = {}
    for a in nc:
        by_rank.setdefault(g.lengths[a], []).append(a)
    covers = []
    for ell in range(g.rank):
        uppers = by_rank.get(ell + 1, [])
        for a in by_rank.get(ell, []):
            ai = inverse(a)
            for b in uppers:
                if compose(ai, b) in g.reflections:
                    covers.append((a, b))
    ranks = {a: g.lengths[a] for a in nc}
    return GradedBoundedPoset(nc, covers, bottom=g.identity, ranks=ranks)


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


def _compositions(total: int, parts: int):
    """Compositions of ``total`` into ``parts`` positive parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total < parts:
        return
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in cuts:
            out.append(c - prev)
            prev = c
        out.append(total - prev)
        yield tuple(out)


def flag_f_nc_d(n: int, k: int) -> int:
    """Number of chains with k elements in the proper part of the type-D
    noncrossing lattice of rank n, by the composition formula.

    Two sums over compositions into k+1 positive parts, of n and of n-1,
    with all parts scored by binomials over n-1.
    """
    if not isinstance(n, int) or n < 3:
        raise DomainError("type D flag counts need n >= 3")
    if not isinstance(k, int) or not 0 <= k <= n - 1:
        raise DomainError("chain size k must lie in 0..n-1")
    total = 0
    for comp in _compositions(n, k + 1):
        prod = 1
        for a in comp:
            prod *= math.comb(n - 1, a) if a <= n - 1 else 0
        total += 2 * prod
    for comp in _compositions(n - 1, k + 1):
        prod = 1
        for a in comp:
            prod *= math.comb(n - 1, a) if a <= n - 1 else 0
        total += prod
    return total


def _geometric(r: int) -> Poly:
    return Poly([1] * r)


def nc_reversed_h_identity(t: CoxeterType) -> Optional[bool]:
    """Whether the reversed h-polynomial matches its Veronese-section
    product form; None for types the identity does not cover.

    Type A rank k (n = k+1): n times the degree-(n-1) reversal equals
    the n-th section of x(1+x+...+x^(n-1))^n.  Type B rank n: the
    degree-n reversal equals the n-th section of x(1+...+x^(n-1))^(n+1).
    Type D rank n: the degree-n reversal equals the (n-1)-th section of
    (x+x^2)(1+...+x^(n-2))^(n+1).
    """
    h = nc_h_formula(t)
    fam = t.family
    if fam == "A":
        n = t.param + 1
        lhs = h.reverse(n - 1).scale(n)
        rhs = veronese(X * _geometric(n) ** n, n)
        return lhs == rhs
    if fam == "B":
        n = t.param
        lhs = h.reverse(n)
        rhs = veronese(X * _geometric(n) ** (n + 1), n)
        return lhs == rhs
    if fam == "D":
        n = t.param
        lhs = h.reverse(n)
        rhs = veronese((X + X * X) * _geometric(n - 1) ** (n + 1), n - 1)
        return lhs == rhs
    return None


@dataclass(frozen=True)
class NCReport:
    """Certification summary for one noncrossing lattice."""

    coxeter_type: CoxeterType
    h: Poly
    chain: Poly
    h_real_rooted: bool
    chain_real_rooted: bool
    symmetric_part: Poly
    shifted_part: Poly
    symdec_nonneg_realrooted: bool
    peaks: tuple
    expected_peak: int
    peak_ok: bool
    veronese_identity: Optional[bool]


def nc_symdec_report(t: CoxeterType) -> NCReport:
    """Run the full certification pipeline on one Coxeter type: real
    rootedness of h and of the chain polynomial, the nonnegative
    real-rooted symmetric decomposition of h with respect to rank - 1,
    the unimodality peak at floor(rank/2), and (classical types) the
    reversed-h product identity."""
    h = nc_h_formula(t)
    chain = nc_chain_polynomial(t)
    r = t.rank
    dec = symmetric_decomposition(h, r - 1)
    peaks = unimodal_peaks(h)
    expected = r // 2
    return NCReport(
        coxeter_type=t,
        h=h,
        chain=chain,
        h_real_rooted=is_real_rooted(h),
        chain_real_rooted=is_real_rooted(chain),
        symmetric_part=dec.symmetric,
        shifted_part=dec.shifted,
        symdec_nonneg_realrooted=has_nonneg_realrooted_symdec(h, r - 1),
        peaks=peaks,
        expected_peak=expected,
        peak_ok=expected in peaks,
        veronese_identity=nc_reversed_h_identity(t),
    )
