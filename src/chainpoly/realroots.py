"""Exact real-rootedness and interlacing certificates.

Everything here runs over Z and Q only.  Every decision reads the sign
variations V of one integer remainder sequence f0, f1, -rem(f0, f1), ...
with primitive members and positive rescaling only; by Sturm's theorem
V(-inf) - V(+inf) is the Cauchy index of f1/f0.  For the Sturm chain
p, p', ..., gcd(p, p') that index counts the distinct real roots of p,
and p is real-rooted exactly when it equals deg(p) - deg(gcd(p, p')).
No polynomial is evaluated at a finite point: the sign of a member at
+-inf is the sign of its lead, flipped at -inf when its degree is odd.
Inside the kernel every chain member is a plain ascending list of
integers, so V reads the lead as m[-1] and the degree parity from
len(m).

Real-rootedness of p with positive coefficients and degree d may be
decided on f(x) = (1+x)^d p(x/(1+x)) instead (Brenti, Mem. AMS 413,
1989).  x -> x/(1+x) is a real Moebius map, so the roots of f are the
images y/(1-y) of the roots y of p, multiplicities kept, and none is
lost to infinity: the lead of f is p(1) > 0.  So f is real-rooted
exactly when p is, with the same squarefree degree, and then its roots
lie in (-1, 0).  The chain of f is far cheaper when the roots of p span
magnitudes far below and far above 1, which the coefficients show:
with r_i the bit-length drop from p_i to p_(i+1), both max r and
-min r reach 3d/8.  The rule asks for both ends, so a polynomial
already of f's kind (roots in (-1, 0), small max r) keeps its own
chain.  It also asks for d >= 11: below that both chains are short
and the transform costs more than it saves.  The fields of the
certificate do not change with the route.
A real-rooted p always reads (True, d, sf, sf, sf, 0): a chain of at
most sf + 1 members whose variations differ by sf has sf at -inf and
none at +inf.  So when f's chain holds, that certificate is returned;
when it fails, p's own chain runs and every field is read off it.

Interlacing p <= q (every root of q weakly separated by a root of p,
largest root of q outermost) locates no root.  Common roots never break
a weak alternation, so with g = gcd(p, q) it holds exactly when the
Cauchy index Ind(p/q), which counts only the poles left after
cancelling g, is deg(q/g) sign(lc(p) lc(q)).  The one remainder
sequence p, q, ..., g holds both sides: its variations give Ind(q/p),
its second and last members give deg(q/g), and by Cauchy index
reciprocity Ind(p/q) + Ind(q/p) is half the change of sign(pq) from -inf
to +inf, which is sign(lc(p) lc(q)) (deg q - deg p) when
deg p <= deg q <= deg p + 1 (Basu, Pollack & Roy, Algorithms in Real
Algebraic Geometry, ch. 2).  Conventions: the zero polynomial
interlaces and is interlaced by every real-rooted polynomial, and
nonzero constants interlace every real-rooted polynomial of degree at
most one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import NotRealRootedError
from .polynomials import (
    _MEMO_SIZE,
    Poly,
    _binomial_transform,
    _exact_quotient,
    _integer_coeffs,
    _remainder_sequence,
)


def _sturm(f: list) -> list:
    """The remainder sequence of the integer list f and its derivative."""
    return _remainder_sequence(f, [i * c for i, c in enumerate(f)][1:])


def _variations(chain: list) -> tuple:
    """Sign variations (V(-inf), V(+inf)) of a chain of integer lists,
    read from the sign of each lead and the parity of each degree; zero
    members are skipped."""
    ends = [(m[-1] > 0, len(m) % 2 == 0) for m in chain if m]
    pairs = list(zip(ends, ends[1:]))
    vneg = sum((a != da) != (b != db) for (a, da), (b, db) in pairs)
    vpos = sum(a != b for (a, _), (b, _) in pairs)
    return vneg, vpos


@dataclass(frozen=True)
class RealRootedness:
    """Certificate for the real-rootedness decision on one polynomial."""

    holds: bool
    degree: int
    squarefree_degree: int
    distinct_real_roots: int
    variations_neg_inf: int
    variations_pos_inf: int


def _spans_one(cs: list) -> bool:
    """The route rule of the module docstring: positive coefficients,
    degree d >= 11, and bit-length drops reaching 3d/8 both ways."""
    d = len(cs) - 1
    if d < 11 or min(cs) <= 0:
        return False
    r = [a.bit_length() - b.bit_length() for a, b in zip(cs, cs[1:])]
    return 8 * min(max(r), -min(r)) >= 3 * d


@lru_cache(maxsize=_MEMO_SIZE)
def real_rootedness(p: Poly) -> RealRootedness:
    """Decide real-rootedness exactly and return the Sturm certificate.

    The decision is read off the Sturm chain p, p', ..., gcd(p, p').  The
    zero polynomial and nonzero constants count as real-rooted.  The
    variation counts are those of the chain of sf = p / gcd(p, p'), which
    equal the ones on the chain of p unless p is neither squarefree nor
    real-rooted.  Inputs that `_spans_one` picks are tried on the chain
    of f first, see the module docstring.
    """
    cs = _integer_coeffs(p)
    if _spans_one(cs):
        chain = _sturm(_binomial_transform(cs, len(cs) - 1, 1))
        sf_degree = len(chain[0]) - len(chain[-1])
        vneg, vpos = _variations(chain)
        if vneg - vpos == sf_degree:  # p's own chain would read the same
            return RealRootedness(True, p.degree, sf_degree, sf_degree, sf_degree, 0)
    chain = _sturm(cs)
    gcd = chain[-1]
    sf_degree = len(chain[0]) - len(gcd)
    vneg, vpos = _variations(chain)
    roots = vneg - vpos
    if roots != sf_degree and len(gcd) > 1:
        vneg, vpos = _variations(_sturm(_exact_quotient(chain[0], gcd)))
    return RealRootedness(roots == sf_degree, p.degree, sf_degree, roots, vneg, vpos)


def is_real_rooted(p: Poly) -> bool:
    return real_rootedness(p).holds


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
    chain = _remainder_sequence(_integer_coeffs(p), _integer_coeffs(q))
    sign = 1 if (p.leading_coefficient > 0) == (q.leading_coefficient > 0) else -1
    vneg, vpos = _variations(chain)  # Ind(q/p) = vneg - vpos
    return sign * (t - s) - (vneg - vpos) == (len(chain[1]) - len(chain[-1])) * sign


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

