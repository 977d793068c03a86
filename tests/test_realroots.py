import random
from collections import Counter
from dataclasses import astuple
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from chainpoly import (
    ONE,
    ZERO,
    CoxeterType,
    NotRealRootedError,
    Poly,
    RealRootedness,
    boolean_lattice,
    chain_polynomial,
    descent_enumerator,
    f_from_h,
    interlaces,
    is_interlacing_sequence,
    is_real_rooted,
    nc_chain_polynomial,
    nc_h_formula,
    real_rootedness,
    signed_word_descent_enumerator,
    word_descent_enumerator,
)
from chainpoly.polynomials import _integer_coeffs, _remainder_sequence
from chainpoly.realroots import _sturm
from oracles import (
    interlaces_oracle,
    real_rootedness_oracle,
    remainder_sequence_oracle,
    sturm_chain_oracle,
    wronskian_semidefinite_oracle,
)


def linear_product(roots):
    """prod (x + a) for a in roots, so the actual roots are the negations."""
    p = ONE
    for a in roots:
        p = p * Poly([a, 1])
    return p


def test_low_degree():
    assert is_real_rooted(ZERO)
    assert is_real_rooted(Poly([7]))
    assert is_real_rooted(Poly([3, -2]))
    assert is_real_rooted(Poly([1, 2, 1]))
    assert not is_real_rooted(Poly([1, 0, 1]))
    assert not is_real_rooted(Poly([1, 1, 1]))
    assert not is_real_rooted(Poly([2, 3, 0, 0, 1]))


@given(st.lists(st.integers(-8, 8), min_size=1, max_size=6))
@settings(max_examples=100)
def test_products_of_linear_factors_are_real_rooted(roots):
    assert is_real_rooted(linear_product(roots))


@given(st.lists(st.integers(-6, 6), min_size=0, max_size=4), st.integers(1, 5))
@settings(max_examples=60)
def test_irreducible_quadratic_factor_detected(roots, c):
    p = linear_product(roots) * Poly([c, 0, 1])
    assert not is_real_rooted(p)


def distinct_real_roots(p):
    return real_rootedness(p).distinct_real_roots


def test_sturm_chain_sign_changes():
    p = Poly([-2, 0, 1])  # x^2 - 2
    assert _sturm(_integer_coeffs(p)) == [[-2, 0, 1], [0, 1], [1]]
    assert distinct_real_roots(p) == 2
    assert distinct_real_roots(Poly([2, 0, 1])) == 0
    assert distinct_real_roots(Poly([0, 0, 1])) == 1


@given(st.sets(st.integers(-10, 10), min_size=1, max_size=5))
@settings(max_examples=60)
def test_distinct_root_count_matches_construction(roots):
    assert distinct_real_roots(linear_product(sorted(roots))) == len(roots)


def test_interlaces_conventions():
    assert interlaces(ZERO, Poly([1, 2, 1]))
    assert interlaces(Poly([1, 2, 1]), ZERO)
    assert interlaces(Poly([3]), Poly([1, 1]))
    assert interlaces(Poly([3]), Poly([5]))
    # a nonzero constant only interlaces polynomials of degree <= 1
    assert not interlaces(Poly([1]), Poly([1, 4, 1]))
    assert interlaces(Poly([1, 1]), Poly([1, 4, 1]))
    assert not interlaces(Poly([1, 4, 1]), Poly([1, 1]))  # degree rule
    assert interlaces(Poly([1, 1]), Poly([1, 1]))
    assert interlaces(Poly([0, 1]), Poly([0, 1, 1]))


def test_interlaces_reads_one_remainder_sequence(monkeypatch):
    import chainpoly.realroots as realroots

    # fresh pairs with a shared root, equal degrees and a degree gap
    pairs = [
        (linear_product([2, 3, 8, 10]), linear_product([1, 3, 7, 9, 11])),
        (linear_product([2, 5, 9]), linear_product([1, 4, 9])),
        (Poly([-31]), linear_product([17])),
    ]
    for p, q in pairs:
        assert is_real_rooted(p) and is_real_rooted(q)
    calls = []
    real = realroots._remainder_sequence

    def counted(f0, f1):
        calls.append((f0, f1))
        return real(f0, f1)

    def forbidden(a, b):
        raise AssertionError("interlaces divided exactly")

    monkeypatch.setattr(realroots, "_remainder_sequence", counted)
    monkeypatch.setattr(realroots, "_exact_quotient", forbidden)
    for p, q in pairs:
        calls.clear()
        assert interlaces(p, q)
        assert calls == [(list(p.coeffs), list(q.coeffs))]


def test_interlaces_requires_real_rootedness():
    with pytest.raises(NotRealRootedError):
        interlaces(Poly([1, 0, 1]), Poly([1, 1]))
    with pytest.raises(NotRealRootedError):
        interlaces(Poly([1, 1]), Poly([1, 0, 1]))


def test_interlaces_shared_and_separated_roots():
    # roots -1, -3 vs -2: strictly separated
    assert interlaces(Poly([2, 1]), Poly([3, 4, 1]))
    # common root at -1 with alternation elsewhere
    p = Poly([1, 1]) * Poly([3, 1])
    q = Poly([1, 1]) * Poly([2, 1]) * Poly([4, 1])
    assert interlaces(p, q)
    # roots -9 < -4 < -3 < -2 < -1 alternate q,p,q,p,q
    assert interlaces(Poly([2, 1]) * Poly([4, 1]), Poly([1, 1]) * Poly([3, 1]) * Poly([9, 1]))
    # two q-roots trapped between consecutive p-roots: no alternation
    p2 = Poly([2, 1]) * Poly([4, 1])
    q2 = Poly([9, 1]) * Poly([3, 1]) * Poly([7, 2])
    assert not interlaces(p2, q2)
    # largest root on the wrong side
    assert not interlaces(Poly([1, 1]), Poly([6, 5, 1]))


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
@settings(max_examples=60)
def test_interleaved_construction(roots):
    rs = sorted(roots)
    q = linear_product(rs)
    p = linear_product([Fraction(a + b, 2) for a, b in zip(rs, rs[1:])])
    assert interlaces(p, q)


def weakly_alternates(alphas, betas):
    """beta_1 >= alpha_1 >= beta_2 >= alpha_2 >= ... on sorted root lists."""
    a = sorted(alphas, reverse=True)
    b = sorted(betas, reverse=True)
    if len(b) - len(a) not in (0, 1):
        return False
    merged = [x for pair in zip(b, a) for x in pair] + b[len(a):]
    return all(x >= y for x, y in zip(merged, merged[1:]))


half_integers = st.integers(-8, 8).map(lambda k: Fraction(k, 2))
leads = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_certificates_match_root_construction(data):
    # repeated roots come from the small range, shared ones from the pool
    alphas = data.draw(st.lists(half_integers, max_size=5), "alphas")
    size = len(alphas) + data.draw(st.integers(0, 1), "degree gap")
    pool = st.one_of(half_integers, st.sampled_from(alphas)) if alphas else half_integers
    betas = data.draw(st.lists(pool, min_size=size, max_size=size), "betas")
    p = linear_product([-a for a in alphas]) * data.draw(leads, "lc p")
    q = linear_product([-b for b in betas]) * data.draw(leads, "lc q")
    assert interlaces(p, q) == weakly_alternates(alphas, betas)
    quadratic = Poly([data.draw(st.integers(1, 5), "c"), 0, 1])  # x^2 + c
    for roots, f in ((alphas, p), (betas, q)):
        distinct = len(set(roots))
        for g, holds, extra in ((f, True, 0), (f * quadratic, False, 2)):
            rr = real_rootedness(g)
            assert (rr.holds, rr.squarefree_degree, rr.distinct_real_roots) == (
                holds, distinct + extra, distinct)


def test_real_rootedness_variation_counts():
    # The counts come from the Sturm chain of the squarefree part; on a
    # polynomial that is neither squarefree nor real-rooted they differ
    # from the counts on the chain of p itself, which would read (4, 1).
    q = Poly([0, -9, 30, -46, 50, -41, 20, -4])
    assert real_rootedness(q) == RealRootedness(False, 7, 5, 3, 3, 0)
    assert real_rootedness(Poly([-1, 4, -6, 4, -1])) == RealRootedness(True, 4, 1, 1, 1, 0)


def test_interlacing_sequence():
    assert is_interlacing_sequence([])
    assert is_interlacing_sequence([Poly([1, 1])])
    seq = [Poly([1, 1]), Poly([1, 3, 1]).derivative(), Poly([1, 3, 1])]
    # derivative of a real-rooted poly interlaces it
    assert interlaces(seq[1], seq[2])
    rows = [descent_enumerator(4, frozenset(t)) for t in [(1,), (1, 2), (1, 2, 3)]]
    assert is_interlacing_sequence(rows) == all(
        interlaces(rows[i], rows[j]) for i, j in combinations(range(3), 2)
    )


@given(st.lists(st.integers(-7, 7), min_size=2, max_size=5))
@settings(max_examples=50)
def test_derivative_interlaces(roots):
    p = linear_product(roots)
    assert interlaces(p.derivative(), p)


def test_wronskian_criterion_matches_interlacing():
    # semidefinite Wronskian = interlacing in one of the two directions
    pairs = [
        (Poly([1, 1]), Poly([1, 4, 1])),
        (Poly([2, 1]), Poly([3, 4, 1])),
        (Poly([1, 3, 1]), Poly([1, 4, 1])),
        (Poly([0, 1]), Poly([1, 2, 1])),
        (Poly([1, 2, 1]), Poly([1, 1])),
        (Poly([2, 1]) * Poly([4, 1]), Poly([9, 1]) * Poly([3, 1]) * Poly([7, 2])),
    ]
    for p, q in pairs:
        either = interlaces(p, q) or interlaces(q, p)
        assert either == wronskian_semidefinite_oracle(p, q), (p.coeffs, q.coeffs)


@given(st.lists(st.integers(0, 8), min_size=1, max_size=4),
       st.lists(st.integers(0, 8), min_size=1, max_size=4))
@example([0, 0, 0], [1, 1, 1])
@settings(max_examples=80)
def test_wronskian_equivalence_random(a, b):
    # With g = gcd(p, q), interlacing needs p/g and q/g squarefree: x^3
    # against (x+1)^3 has Wronskian 3x^2(x+1)^2 >= 0 yet no interlacing,
    # because p/q is monotone through a pole of odd order 3.
    p = linear_product(sorted(a))
    q = linear_product(sorted(b))
    if abs(p.degree - q.degree) > 1:
        return
    ca, cb = Counter(a), Counter(b)
    reduced_squarefree = all(m == 1 for m in ((ca - cb) + (cb - ca)).values())
    either = interlaces(p, q) or interlaces(q, p)
    assert either == (wronskian_semidefinite_oracle(p, q) and reduced_squarefree)


@given(st.dictionaries(half_integers, st.integers(1, 4), max_size=4),
       st.integers(0, 2), st.integers(1, 5), leads)
@settings(max_examples=200, deadline=None)
def test_wronskian_reads_multiplicity_parity(multiplicities, j, d, c):
    # w = c prod (x - r)^m (x^2 + d)^j and q = integral of -w, so that
    # the Wronskian of (1, q) is w itself
    w = Poly([d, 0, 1]) ** j * c
    for r, m in multiplicities.items():
        w = w * Poly([-r, 1]) ** m
    q = Poly([0] + [-Fraction(a) / (i + 1) for i, a in enumerate(w.coeffs)])
    assert q.derivative() == -w
    expected = all(m % 2 == 0 for m in multiplicities.values())
    assert wronskian_semidefinite_oracle(ONE, q) == expected


def _factored(multiplicities, quadratics, lead):
    """lead * prod (x - r)^m * prod (x^2 + d)."""
    p = Poly([lead])
    for r, m in multiplicities.items():
        p = p * Poly([-r, 1]) ** m
    for d in quadratics:
        p = p * Poly([d, 0, 1])
    return p


oracle_polys = st.one_of(
    st.just(ZERO),
    leads.map(lambda c: Poly([c])),
    st.builds(_factored, st.dictionaries(half_integers, st.integers(1, 3), max_size=4),
              st.lists(st.integers(1, 5), max_size=2), leads),
    st.lists(st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=5), max_size=6).map(Poly),
)


def _outcome(decide, p, q):
    try:
        return decide(p, q)
    except NotRealRootedError as exc:
        return str(exc)


@given(oracle_polys, oracle_polys)
@settings(max_examples=300, deadline=None)
def test_certificates_match_poly_route_oracle(p, q):
    # the integer-list kernel against the Poly/Fraction remainder loop
    def lists(chain):
        return [list(m.coeffs) for m in chain]

    assert _sturm(_integer_coeffs(p)) == lists(sturm_chain_oracle(p))
    assert _remainder_sequence(_integer_coeffs(p), _integer_coeffs(q)) == lists(
        remainder_sequence_oracle(p, q)
    )
    assert astuple(real_rootedness(p)) == real_rootedness_oracle(p)
    for a, b in ((p, q), (q, p), (p.derivative(), p), (p, p * Poly([1, 1]))):
        assert _outcome(interlaces, a, b) == _outcome(interlaces_oracle, a, b)


def test_descent_enumerators_real_rooted():
    for n in range(1, 8):
        assert is_real_rooted(descent_enumerator(n, frozenset(range(1, n))))



def _sturm_inputs(p):
    """The lists real_rootedness hands to _sturm on p, memo bypassed."""
    import chainpoly.realroots as realroots

    seen = []
    real = realroots._sturm

    def counted(f):
        seen.append(f)
        return real(f)

    realroots._sturm = counted
    try:
        realroots.real_rootedness.__wrapped__(p)
    finally:
        realroots._sturm = real
    return seen


def _route(p):
    """"direct" when the first chain built is that of p itself, "f" when
    the only one is that of f_from_h(p, deg p), "fallback" when p's own
    chain follows f's."""
    seen = _sturm_inputs(p)
    cs = _integer_coeffs(p)
    if seen[0] == cs:
        return "direct"
    assert seen[0] == list(f_from_h(Poly(cs), p.degree).coeffs), (p, seen)
    if len(seen) == 1:
        return "f"
    assert seen[1] == cs, (p, seen)
    return "fallback"


def test_route_takes_the_f_side_on_the_paper_polynomials():
    paper = [descent_enumerator(n, frozenset(range(1, n))) for n in range(12, 31)]
    paper += [nc_h_formula(CoxeterType(fam, k)) for fam in "ABD" for k in range(12, 31)]
    paper += [signed_word_descent_enumerator(n) for n in range(15, 31)]
    paper += [word_descent_enumerator(n, n) for n in range(15, 26)]
    for p in paper:
        assert _route(p) == "f", p
    # below degree 11 the transform costs more than it saves
    small = [descent_enumerator(n, frozenset(range(1, n))) for n in range(3, 12)]
    small += [nc_h_formula(CoxeterType(fam, k)) for fam in "ABD" for k in range(3, 12)]
    for p in small:
        assert _route(p) == "direct", p


def test_route_share_on_descent_classes():
    # every 8th T of size round(0.7 (n - 1)): degree 10 at n = 16 is below
    # the floor; at n = 17 the sets that miss have a top-end bit drop
    # max r below 3d/8 and keep the direct chain
    def routes(n):
        k = round(0.7 * (n - 1))
        sets = list(combinations(range(1, n), k))[::8]
        return Counter(_route(descent_enumerator(n, frozenset(t))) for t in sets)

    assert routes(16) == {"direct": 376}
    assert routes(17) == {"f": 514, "direct": 32}


def _bench_roots(rng, count, negative):
    """Distinct rationals u/v, v <= 3, from [-40, 40] or [-40, 0)."""
    roots = set()
    while len(roots) < count:
        v = rng.randint(1, 3)
        u = rng.randint(-40 * v, 0 if negative else 40 * v)
        if u:
            roots.add(Fraction(u, v))
    return sorted(roots)


def test_route_stays_direct_on_the_f_side_and_on_random_roots():
    types = [CoxeterType(fam, k) for fam in "ABD" for k in range(2, 31)]
    inputs = [nc_chain_polynomial(t) for t in types]
    inputs += [f_from_h(nc_h_formula(t), t.rank - 1) for t in types]
    inputs += [f_from_h(descent_enumerator(n, frozenset(range(1, n))), n - 1)
               for n in range(2, 31)]
    inputs += [chain_polynomial(boolean_lattice(n)) for n in range(5, 8)]
    rng = random.Random(3)
    for degree in (3, 4, 5, 10, 12, 14, 16):
        for negative in (False, True):
            for _ in range(10):
                roots = _bench_roots(rng, degree, negative)
                # products of (x - r) as the root and pair jobs build
                # them, some with repeated roots or x^2 + 4x + 13
                p = linear_product([-r for r in roots])
                inputs += [p, p * Poly([13, 4, 1]), p * linear_product([-r for r in roots[:2]])]
    for p in inputs:
        assert _route(p) == "direct", p


@st.composite
def spread_polys(draw):
    """Positive products of (x + u/v) with log2(u/v) in [-12, 12], some
    with repeated roots, a quadratic with no real root or one perturbed
    coefficient."""
    exps = [draw(st.integers(-12, -3), "small"), draw(st.integers(3, 12), "large")]
    exps += draw(st.lists(st.integers(-12, 12), min_size=7, max_size=12), "log2 roots")
    odd = st.sampled_from([1, 3, 5, 7])
    roots = [Fraction(draw(odd) * 2 ** max(e, 0), draw(odd) * 2 ** max(-e, 0)) for e in exps]
    roots += draw(st.lists(st.sampled_from(roots), max_size=3), "repeated")
    p = linear_product(roots) * draw(st.sampled_from([1, 6, Fraction(1, 5)]), "scale")
    if draw(st.booleans(), "quadratic"):
        b = draw(st.integers(0, 6), "b")
        p = p * Poly([b * b // 4 + draw(st.integers(1, 9), "c"), b, 1])
    if draw(st.booleans(), "perturb"):
        cs = list(p.coeffs)
        i = draw(st.integers(0, len(cs) - 1), "index")
        cs[i] *= Fraction(draw(st.sampled_from([3, 5, 7, 9, 11, 13])), 8)
        p = Poly(cs)
    return p


@given(spread_polys())
@settings(max_examples=100, deadline=None)
def test_route_keeps_every_field(p):
    rr = real_rootedness.__wrapped__(p)
    assert astuple(rr) == real_rootedness_oracle(p)
    # f's chain decides only a positive verdict; a negative one is read
    # off p's own chain
    route = _route(p)
    assert route == "direct" or (route == "f") == rr.holds
    event("route " + route)
    event("holds %s" % rr.holds)
