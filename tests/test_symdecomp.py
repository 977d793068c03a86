from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

import pytest

from chainpoly import (
    CoxeterType,
    DomainError,
    Poly,
    SymmetricDecomposition,
    ZERO,
    descent_enumerator,
    has_nonneg_realrooted_symdec,
    is_real_rooted,
    is_symmetric,
    nc_h_formula,
    symmetric_decomposition,
)
from chainpoly.polynomials import has_nonneg_coeffs


def test_decomposition_of_symmetric_poly_is_itself():
    p = Poly([1, 4, 1])
    d = symmetric_decomposition(p, 2)
    assert d.symmetric == p
    assert d.shifted == ZERO
    assert d.recombine() == p


def test_linear_example():
    d = symmetric_decomposition(Poly([1, 3]), 2)
    assert d.symmetric == Poly([1, 4, 1])
    assert d.shifted == Poly([-1, -1])
    assert d.recombine() == Poly([1, 3])
    assert not has_nonneg_realrooted_symdec(Poly([1, 3]), 2)
    # the same polynomial with respect to n=1 is already symmetric-free
    d1 = symmetric_decomposition(Poly([1, 3]), 1)
    assert d1.symmetric == Poly([1, 1])
    assert d1.shifted == Poly([2])


def test_degree_bound_enforced():
    with pytest.raises(DomainError):
        symmetric_decomposition(Poly([1, 1, 1, 1]), 2)


@given(st.lists(st.integers(-12, 12), min_size=1, max_size=7), st.integers(0, 2))
@settings(max_examples=120)
def test_decomposition_properties(coeffs, pad):
    p = Poly(coeffs)
    n = max(p.degree, 0) + pad
    d = symmetric_decomposition(p, n)
    assert d.recombine() == p
    assert is_symmetric(d.symmetric, n)
    assert is_symmetric(d.shifted, n - 1)
    assert d.shifted == ZERO or d.shifted.degree <= n - 1


@given(st.lists(st.integers(-12, 12), min_size=1, max_size=7))
@settings(max_examples=60)
def test_decomposition_unique(coeffs):
    # any (a, b) with the right symmetries and a + x b = p must be the output
    p = Poly(coeffs)
    n = max(p.degree, 0)
    d = symmetric_decomposition(p, n)
    a2 = p - Poly([0, 1]) * d.shifted
    assert a2 == d.symmetric


def test_gamma_positive_case():
    # (1+x)^3: symmetric, real-rooted, trivially accepted
    p = Poly([1, 3, 3, 1])
    assert has_nonneg_realrooted_symdec(p, 3)


def test_rejects_negative_part():
    assert not has_nonneg_realrooted_symdec(Poly([1, 3]), 2)


def test_rejects_non_real_rooted_part():
    # a = 1 + x + x^2 is symmetric but not real-rooted
    assert not has_nonneg_realrooted_symdec(Poly([1, 1, 1]), 2)


def test_accepts_genuine_decomposition():
    # p = (1+x)^2 + x(1+x) = 1 + 3x + 2x^2 with n = 2
    p = Poly([1, 3, 2])
    d = symmetric_decomposition(p, 2)
    assert d.symmetric == Poly([1, 2, 1])
    assert d.shifted == Poly([1, 1])
    assert has_nonneg_realrooted_symdec(p, 2)


def _direct(dec):
    """Both parts nonnegative and real-rooted, each by its own chain."""
    parts = (dec.symmetric, dec.shifted)
    return all(map(has_nonneg_coeffs, parts)) and all(map(is_real_rooted, parts))


def test_halving_matches_direct_chains_on_paper_polynomials():
    cases = [(nc_h_formula(CoxeterType(fam, k)), k - 1)
             for fam in "ABD" for k in range(2 if fam == "D" else 1, 41)]
    cases += [(nc_h_formula(CoxeterType("I2", m)), 1) for m in range(3, 13)]
    for name in ("H3", "H4", "F4", "E6", "E7", "E8"):
        t = CoxeterType.parse(name)
        cases.append((nc_h_formula(t), t.rank - 1))
    for n in range(2, 13):
        for t in (range(1, n), range(1, n, 2), range(2, n), range(1, n // 2 + 1)):
            p = descent_enumerator(n, frozenset(t))
            cases += [(p, n - 1), (p, p.degree + 1)]
    verdicts = set()
    for p, n in cases:
        dec = symmetric_decomposition(p, n)
        verdict = dec.nonneg_realrooted()
        assert verdict == _direct(dec), (p, n)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@st.composite
def palindromes(draw, n):
    """A palindrome about n/2 with nonnegative coefficients, or zero:
    c x^k (1+x)^j times quadratics x^2 + s x + 1, which are real-rooted
    exactly when s >= 2."""
    if draw(st.integers(0, 5)) == 0:
        return ZERO
    q = draw(st.integers(0, n // 2))
    k = draw(st.integers(0, (n - 2 * q) // 2))
    p = Poly([0] * k + [draw(st.integers(1, 3))]) * Poly([1, 1]) ** (n - 2 * q - 2 * k)
    for _ in range(q):
        p = p * Poly([1, draw(st.sampled_from([0, 1, 2, 3, 7, Fraction(5, 2)])), 1])
    return p


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_halving_matches_direct_chains_on_random_parts(data):
    n = data.draw(st.integers(0, 9), "n")
    a = data.draw(palindromes(n), "symmetric")
    b = data.draw(palindromes(n - 1), "shifted") if n else ZERO
    p = a + Poly([0, 1]) * b
    if data.draw(st.booleans(), "perturb"):
        p = p + Poly(data.draw(st.lists(st.integers(0, 3), max_size=n + 1), "extra"))
    dec = symmetric_decomposition(p, n)
    verdict = dec.nonneg_realrooted()
    assert verdict == _direct(dec)
    event("accepted %s" % verdict)


def test_halving_needs_palindromes():
    # parts built by hand rather than by symmetric_decomposition are not
    # palindromes; they get their own chains
    assert SymmetricDecomposition(2, Poly([2, 3, 1]), Poly([0, 1])).nonneg_realrooted()
    assert not SymmetricDecomposition(2, Poly([1, 2, 3]), ZERO).nonneg_realrooted()
