import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainpoly import (
    ONE,
    X,
    ZERO,
    DomainError,
    Poly,
    f_from_h,
    format_poly,
    h_from_f,
    is_log_concave,
    is_symmetric,
    is_unimodal,
    mode,
    parse_poly,
    unimodal_peaks,
    veronese,
)
from chainpoly.polynomials import (
    _exact_quotient,
    _integer_coeffs,
    _primitive,
    _remainder_sequence,
    _unpack,
)
from oracles import exact_div_oracle

small_polys = st.lists(st.integers(-20, 20), min_size=0, max_size=7).map(Poly)


def test_normalization_drops_trailing_zeros():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0, 0]) == ZERO
    assert ZERO.degree == -1
    assert ONE.degree == 0


def test_basic_arithmetic():
    p = Poly([1, 2, 1])
    q = Poly([0, 1])
    assert p + q == Poly([1, 3, 1])
    assert p - p == ZERO
    assert p * q == Poly([0, 1, 2, 1])
    assert (X + ONE) ** 2 == Poly([1, 2, 1])
    assert -p == Poly([-1, -2, -1])
    assert p.scale(3) == Poly([3, 6, 3])


@pytest.mark.parametrize("base", [
    ZERO, ONE, X, Poly([1, 1]), Poly([-2, 0, 1]),
    Poly([Fraction(2, 3)]), Poly([Fraction(1, 2), -1]),
])
def test_pow_matches_repeated_multiplication(base):
    acc = ONE
    for e in range(18):
        assert repr(base ** e) == repr(acc), e
        acc = acc * base


def test_fraction_coefficients_survive():
    p = Poly([Fraction(1, 2), 1])
    assert (p * Poly([2])).coeffs == (1, 2)
    assert p(Fraction(1, 2)) == 1


def test_evaluation():
    p = Poly([1, -3, 2])
    assert p(0) == 1
    assert p(1) == 0
    assert p(Fraction(1, 2)) == 0


def test_derivative():
    assert Poly([5, 3, 0, 2]).derivative() == Poly([3, 0, 6])
    assert ONE.derivative() == ZERO
    assert ZERO.derivative() == ZERO


def test_reverse():
    p = Poly([1, 4, 1])
    assert p.reverse(2) == p
    assert Poly([1, 3]).reverse(2) == Poly([0, 3, 1])
    with pytest.raises(DomainError):
        Poly([1, 3]).reverse(0)


def test_parse_format_roundtrip():
    assert parse_poly("1,4,1") == Poly([1, 4, 1])
    assert parse_poly(" 1, -2 , 3 ") == Poly([1, -2, 3])
    assert format_poly(Poly([1, 0, 5])) == "1,0,5"
    assert format_poly(ZERO) == "0"
    assert parse_poly(format_poly(Poly([7]))) == Poly([7])
    with pytest.raises(DomainError):
        parse_poly("1,,2")
    with pytest.raises(DomainError):
        parse_poly("")
    with pytest.raises(DomainError):
        parse_poly("1,x")


@given(small_polys)
def test_parse_format_inverse(p):
    assert parse_poly(format_poly(p)) == p


def test_veronese():
    p = Poly([1, 2, 3, 4, 5, 6])
    assert veronese(p, 2) == Poly([1, 3, 5])
    assert veronese(p, 3) == Poly([1, 4])
    assert veronese(p, 1) == p


def test_h_from_f_boolean_cube():
    # chains of the 2-element antichain: {}, {a}, {b}, {a,b} minus incomparables
    f = Poly([1, 2])
    assert h_from_f(f, 1) == Poly([1, 1])
    assert f_from_h(Poly([1, 1]), 1) == f


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6), st.integers(0, 3))
def test_h_f_transform_roundtrip(coeffs, extra):
    p = Poly(coeffs)
    n = max(p.degree, 0) + extra
    assert f_from_h(h_from_f(p, n), n) == p
    assert h_from_f(f_from_h(p, n), n) == p


def test_exact_div():
    # the integer long division behind every exact quotient in realroots
    assert _exact_quotient([0, 1, 2, 1], [0, 1]) == [1, 2, 1]
    assert _exact_quotient([-2, 1, 1], [2, 1]) == [-1, 1]
    assert _exact_quotient([], [3]) == []
    with pytest.raises(DomainError):
        _exact_quotient([1, 1], [0, 1])
    with pytest.raises(DomainError):
        _exact_quotient([1, 1], [2])


def _integer_quotient(a, b):
    return Poly(_exact_quotient(list(a.coeffs), list(b.coeffs)))


def _division(a, b, divide):
    """repr of a / b, or the exception type and message it raises."""
    try:
        return repr(divide(a, b))
    except DomainError as exc:
        return type(exc).__name__, str(exc)


mixed_coeffs = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=6)
mixed_polys = st.lists(mixed_coeffs, max_size=5).map(Poly)


@given(mixed_polys.filter(lambda p: not p.is_zero), mixed_polys, mixed_polys)
@settings(max_examples=300)
def test_exact_div_matches_fraction_oracle(b, q, r):
    # the integer long division by a primitive divisor against the Fraction
    # loop; by Gauss's lemma it is exact over Z whenever it is over Q
    b = Poly(_primitive(_integer_coeffs(b)))
    low = Poly(r.coeffs[: b.degree])
    for a in (r, b * q, b * q + low):
        a = Poly(_integer_coeffs(a))
        assert _division(a, b, _integer_quotient) == _division(a, b, exact_div_oracle)
    exact = Poly(_integer_coeffs(b * q))
    assert _integer_quotient(exact, b) * b == exact
    if not low.is_zero:
        inexact = ("DomainError", "inexact polynomial division")
        assert _division(Poly(_integer_coeffs(b * q + low)), b, _integer_quotient) == inexact


def test_poly_gcd():
    # the last member of the remainder sequence is the gcd up to sign,
    # made primitive
    p = [-1, 0, 1]  # (x-1)(x+1)
    q = [1, 2, 1]   # (x+1)^2
    assert _remainder_sequence(p, q)[-1] == [1, 1]
    assert _remainder_sequence(q, p)[-1] == [-1, -1]
    assert _remainder_sequence([2, 4], [3, 6])[-1] == [1, 2]
    assert _remainder_sequence(p, [])[-1] == p
    assert _remainder_sequence([], [])[-1] == []


def test_symmetry():
    assert is_symmetric(Poly([1, 4, 1]), 2)
    assert is_symmetric(Poly([0, 1, 1]), 3)
    assert not is_symmetric(Poly([1, 2]), 2)
    assert is_symmetric(ZERO, 5)


def test_unimodal_peaks():
    assert unimodal_peaks(Poly([1, 4, 1])) == (1,)
    assert unimodal_peaks(Poly([1, 3, 3, 1])) == (1, 2)
    assert unimodal_peaks(Poly([2, 1, 2])) == ()
    assert is_unimodal(Poly([1, 2, 2, 1]))
    assert not is_unimodal(Poly([2, 1, 2]))


def test_log_concavity():
    assert is_log_concave(Poly([1, 3, 3, 1]))
    assert not is_log_concave(Poly([1, 1, 2]))
    # internal zero breaks log-concavity when flanked by positives
    assert not is_log_concave(Poly([1, 0, 1]))


def test_mode_values():
    assert mode(Poly([1, 4, 1])) == 1
    assert mode(Poly([1, 3, 3, 1])) == Fraction(3, 2)
    assert mode(Poly([5])) == 0
    assert mode(Poly([2, 1, 2])) is None
    assert mode(Poly([1, 2, 2, 2])) is None
    with pytest.raises(DomainError):
        mode(ZERO)
    with pytest.raises(DomainError):
        mode(Poly([1, -1, 1]))


@given(small_polys, small_polys, small_polys)
@settings(max_examples=80)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_degree_of_product(p, q):
    if p == ZERO or q == ZERO:
        assert p * q == ZERO
    else:
        assert (p * q).degree == p.degree + q.degree


@given(st.integers(1, 70), st.integers(0, 300), st.integers(1, 5), st.randoms())
@settings(max_examples=200)
@example(7, 65, 1, random.Random(1))
@example(1, 300, 5, random.Random(2))
@example(64, 129, 2, random.Random(3))
def test_unpack_matches_slot_by_slot_read(width, length, extra, rng):
    # the halving past 64 slots against reading each slot off the whole
    # int; the slots above length are nonzero and must not leak in
    slots = [rng.getrandbits(width) for _ in range(length)]
    slots += [rng.getrandbits(width) | 1 for _ in range(extra)]
    v = sum(c << (width * i) for i, c in enumerate(slots))
    mask = (1 << width) - 1
    want = [(v >> (width * i)) & mask for i in range(length)]
    assert want == slots[:length]
    assert _unpack(v, width, length) == want
