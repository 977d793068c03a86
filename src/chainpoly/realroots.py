"""Exact real-rootedness and interlacing certificates.

Everything here runs over Z and Q only.  Every decision reads the sign
variations V of one integer remainder sequence f0, f1, -rem(f0, f1), ...
with primitive members and positive rescaling only; by Sturm's theorem
V(-inf) - V(+inf) is the Cauchy index of f1/f0.  For the Sturm chain
p, p', ..., gcd(p, p') that index counts the distinct real roots of p,
and p is real-rooted exactly when it equals deg(p) - deg(gcd(p, p')).
Root isolation refines Cauchy-bound intervals by rational bisection,
landing exactly on rational roots when a midpoint happens to hit one.

Interlacing p <= q (every root of q weakly separated by a root of p,
largest root of q outermost) locates no root.  Common roots never break
a weak alternation, so with g = gcd(p, q) it holds exactly when the
Cauchy index of (p/g)/(q/g) is deg(q/g) sign(lc(p) lc(q)).  Conventions:
the zero polynomial interlaces and is interlaced by every real-rooted
polynomial, and nonzero constants interlace every real-rooted polynomial
of degree at most one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DomainError, NotRealRootedError
from .polynomials import (
    Poly,
    _poly_rem,
    _remainder_sequence,
    exact_div,
    poly_gcd,
    primitive_part,
    squarefree_decomposition,
)

NEG_INF = object()
POS_INF = object()


def _sign_at(p: Poly, x) -> int:
    """Sign of p at a rational point or at +-infinity, by exact arithmetic.

    For x = u/v the value v^deg * p(u/v) is an integer whose sign is
    computed without constructing any Fraction.
    """
    cs = p.coeffs
    if not cs:
        return 0
    if x is POS_INF:
        lc = cs[-1]
        return 1 if lc > 0 else -1
    if x is NEG_INF:
        lc = cs[-1]
        sign = 1 if lc > 0 else -1
        return sign if (len(cs) - 1) % 2 == 0 else -sign
    if isinstance(x, int):
        u, v = x, 1
    else:
        u, v = x.numerator, x.denominator
    # Horner on the integer v^d * p(u/v): acc = acc * u + c_i * v^(d-i).
    d = len(cs) - 1
    vp = [1] * (d + 1)
    for i in range(1, d + 1):
        vp[i] = vp[i - 1] * v
    acc = 0
    for i in range(d, -1, -1):
        acc = acc * u + cs[i] * vp[d - i]
    if acc > 0:
        return 1
    if acc < 0:
        return -1
    return 0


@lru_cache(maxsize=None)
def sturm_chain(p: Poly) -> tuple:
    """Sturm chain p, p', ..., gcd(p, p'), every member primitive; it
    counts distinct real roots even when p is not squarefree."""
    return _remainder_sequence(p, p.derivative())


def _variations(chain: tuple, x) -> int:
    count = 0
    prev = 0
    for member in chain:
        s = _sign_at(member, x)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def count_roots_halfopen(sf: Poly, a, b) -> int:
    """Distinct real roots of squarefree sf in (a, b]; a, b rational or
    the infinity sentinels."""
    chain = sturm_chain(sf)
    return _variations(chain, a) - _variations(chain, b)


def count_distinct_real_roots(sf: Poly) -> int:
    return count_roots_halfopen(sf, NEG_INF, POS_INF)


def cauchy_bound(p: Poly) -> Fraction:
    """All complex roots of p lie strictly inside |z| < bound."""
    cs = p.coeffs
    if len(cs) <= 1:
        return Fraction(1)
    lead = abs(Fraction(cs[-1]))
    biggest = max(abs(Fraction(c)) for c in cs[:-1])
    return 1 + biggest / lead


def _isolate_squarefree(u: Poly) -> list:
    """Disjoint isolating intervals for the real roots of squarefree u.

    Returns ascending [(lo, hi)] with lo == hi for an exact rational root
    and otherwise u(lo) != 0 != u(hi) with exactly one root in (lo, hi).
    """
    if u.degree < 1:
        return []
    bound = cauchy_bound(u)
    lo, hi = -bound, bound
    out = []
    total = count_roots_halfopen(u, lo, hi)
    stack = [(lo, hi, total)]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            out.append((a, b))
            continue
        m = (a + b) / 2
        if _sign_at(u, m) == 0:
            out.append((m, m))
            eps = (b - a) / 4
            while (
                _sign_at(u, m - eps) == 0
                or _sign_at(u, m + eps) == 0
                or count_roots_halfopen(u, m - eps, m + eps) > 1
            ):
                eps /= 2
            left = count_roots_halfopen(u, a, m - eps)
            right = count_roots_halfopen(u, m + eps, b)
            if left:
                stack.append((a, m - eps, left))
            if right:
                stack.append((m + eps, b, right))
        else:
            left = count_roots_halfopen(u, a, m)
            if left:
                stack.append((a, m, left))
            if k - left:
                stack.append((m, b, k - left))
    out.sort(key=lambda iv: iv[0])
    return out


def _refine(u: Poly, interval):
    """Halve an isolating interval of squarefree u, keeping its root."""
    a, b = interval
    if a == b:
        return interval
    m = (a + b) / 2
    if _sign_at(u, m) == 0:
        return (m, m)
    if count_roots_halfopen(u, a, m) == 1:
        return (a, m)
    return (m, b)


def _overlap(i, j) -> bool:
    return not (i[1] < j[0] or j[1] < i[0])


@dataclass(frozen=True)
class RealRootedness:
    """Certificate for the real-rootedness decision on one polynomial."""

    holds: bool
    degree: int
    squarefree_degree: int
    distinct_real_roots: int
    variations_neg_inf: int
    variations_pos_inf: int


@lru_cache(maxsize=None)
def real_rootedness(p: Poly) -> RealRootedness:
    """Decide real-rootedness exactly and return the Sturm certificate.

    The decision is read off sturm_chain(p).  The zero polynomial and
    nonzero constants count as real-rooted.  The variation counts are those
    of the chain of sf = p / gcd(p, p'), which equal the ones on the chain
    of p unless p is neither squarefree nor real-rooted.
    """
    chain = sturm_chain(p)
    gcd = chain[-1]
    sf_degree = p.degree - gcd.degree
    vneg = _variations(chain, NEG_INF)
    vpos = _variations(chain, POS_INF)
    roots = vneg - vpos
    if roots != sf_degree and gcd.degree > 0:
        sf_chain = sturm_chain(exact_div(chain[0], gcd))
        vneg = _variations(sf_chain, NEG_INF)
        vpos = _variations(sf_chain, POS_INF)
    return RealRootedness(roots == sf_degree, p.degree, sf_degree, roots, vneg, vpos)


def is_real_rooted(p: Poly) -> bool:
    return real_rootedness(p).holds


@dataclass(frozen=True)
class RootIsolation:
    """Real roots of a polynomial as disjoint rational intervals.

    intervals: ascending (lo, hi, multiplicity) with lo == hi exactly when
    the root is rational.  real_root_count counts multiplicity, so
    real_root_count + nonreal_count == degree.
    """

    intervals: tuple
    degree: int
    real_root_count: int
    nonreal_count: int


@lru_cache(maxsize=None)
def isolate_real_roots(p: Poly) -> RootIsolation:
    """Isolate all real roots of nonzero p with multiplicities."""
    if p.is_zero:
        raise DomainError("cannot isolate roots of the zero polynomial")
    factors = squarefree_decomposition(p)
    tagged = []
    for f, mult in factors:
        for iv in _isolate_squarefree(f):
            tagged.append([iv, f, mult])
    # Roots of distinct Yun factors are distinct, so refinement separates.
    changed = True
    while changed:
        changed = False
        for i in range(len(tagged)):
            for j in range(i + 1, len(tagged)):
                if tagged[i][1] is tagged[j][1]:
                    continue
                while _overlap(tagged[i][0], tagged[j][0]):
                    tagged[i][0] = _refine(tagged[i][1], tagged[i][0])
                    tagged[j][0] = _refine(tagged[j][1], tagged[j][0])
                    changed = True
    tagged.sort(key=lambda t: t[0][0])
    intervals = tuple((iv[0], iv[1], mult) for iv, _, mult in tagged)
    real = sum(m for _, _, m in intervals)
    return RootIsolation(intervals, p.degree, real, p.degree - real)


@lru_cache(maxsize=None)
def interlaces(p: Poly, q: Poly) -> bool:
    """Exact decision of the weak root alternation p <= q.

    Reading roots downward the pattern must be
    beta_1 >= alpha_1 >= beta_2 >= alpha_2 >= ... with alphas the roots
    of p and betas the roots of q.  Raises NotRealRootedError unless both
    arguments are real-rooted.  Decided by a Cauchy index, see the module
    docstring.
    """
    if not is_real_rooted(p):
        raise NotRealRootedError("first argument is not real-rooted")
    if not is_real_rooted(q):
        raise NotRealRootedError("second argument is not real-rooted")
    if p.is_zero or q.is_zero:
        return True
    s, t = p.degree, q.degree
    if not s <= t <= s + 1:
        return False
    if s == 0:
        return True
    g = poly_gcd(p, q)
    pg = exact_div(primitive_part(p), g)  # primitive, by Gauss's lemma
    qg = exact_div(primitive_part(q), g)
    if qg.degree == 0:
        return True
    sign = 1 if (p.leading_coefficient > 0) == (q.leading_coefficient > 0) else -1
    if pg.degree == qg.degree:
        pg = _poly_rem(pg, qg)  # the polynomial part has no poles
    chain = _remainder_sequence(qg, pg)
    return _variations(chain, NEG_INF) - _variations(chain, POS_INF) == qg.degree * sign


def is_interlacing_sequence(ps: Sequence[Poly]) -> bool:
    """True when interlaces(ps[i], ps[j]) for every i < j."""
    ps = list(ps)
    for p in ps:
        if not is_real_rooted(p):
            raise NotRealRootedError("sequence member is not real-rooted")
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if not interlaces(ps[i], ps[j]):
                return False
    return True


def wronskian_semidefinite(p: Poly, q: Poly) -> bool:
    """Whether p'q - pq' never changes sign on the real line.

    Decided exactly: the Wronskian is semidefinite iff each of its real
    roots has even multiplicity (or it vanishes identically).
    """
    w = p.derivative() * q - p * q.derivative()
    if w.is_zero:
        return True
    return all(m % 2 == 0 for _, _, m in isolate_real_roots(w).intervals)
