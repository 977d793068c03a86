import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainpoly import (
    X,
    ZERO,
    DomainError,
    Poly,
    colored_descent_enumerator,
    colored_descent_enumerator_bruteforce,
    descent_enumerator,
    descent_mean_variance,
    determinant_descent_enumerator,
    expected_descents,
    first_letter_descent_polynomials,
    interlaces,
    is_interlacing_sequence,
    is_real_rooted,
    signed_word_descent_enumerator,
    word_ascent_enumerator,
    word_descent_enumerator,
)
from chainpoly.descents import _ONE, _X, _ZERO, _transfer
from chainpoly.polynomials import _unpack
from oracles import (
    colored_descent_enumerator_oracle,
    determinant_descent_enumerator_oracle,
    first_letter_rows_oracle,
    signed_word_columns_oracle,
    signed_word_descent_enumerator_bruteforce,
    transfer_oracle,
    word_ascent_enumerator_bruteforce,
    word_ascent_enumerator_oracle,
    word_descent_enumerator_bruteforce,
    word_descent_enumerator_oracle,
)


def all_subsets(universe):
    for k in range(len(universe) + 1):
        yield from (frozenset(c) for c in combinations(universe, k))


def shift_down(t, n):
    """(T - 1) restricted to valid descent positions of S_n."""
    return frozenset(a - 1 for a in t if a >= 2 and a - 1 <= n - 1)


def test_classical_eulerian():
    full = lambda n: frozenset(range(1, n))
    assert descent_enumerator(1, frozenset()) == Poly([1])
    assert descent_enumerator(2, full(2)) == Poly([1, 1])
    assert descent_enumerator(3, full(3)) == Poly([1, 4, 1])
    assert descent_enumerator(4, full(4)) == Poly([1, 11, 11, 1])
    assert descent_enumerator(5, full(5)) == Poly([1, 26, 66, 26, 1])


def test_restricted_examples():
    assert descent_enumerator(3, frozenset({1})) == Poly([1, 2])
    assert descent_enumerator(3, frozenset({2})) == Poly([1, 2])
    assert descent_enumerator(4, frozenset({2})) == Poly([1, 5])
    assert descent_enumerator(4, frozenset({1, 3})) == Poly([1, 6, 5])


def test_enumerator_matches_bruteforce():
    # position n never descends, so T may include it
    for n in range(1, 8):
        for t in all_subsets(range(1, n + 1)):
            brute = colored_descent_enumerator_bruteforce(n, 1, t)
            assert descent_enumerator(n, t) == brute, (n, t)


def test_reversal_symmetry():
    # complementing T through n-a leaves the enumerator unchanged
    for n in range(2, 8):
        for t in all_subsets(range(1, n)):
            mirrored = frozenset(n - a for a in t)
            assert descent_enumerator(n, t) == descent_enumerator(n, mirrored)


def test_position_conventions():
    # positions beyond n-1 are harmless by the truncation convention
    assert descent_enumerator(3, frozenset({3})) == Poly([1])
    assert descent_enumerator(3, frozenset({1, 9})) == Poly([1, 2])
    assert descent_enumerator(0, frozenset()) == Poly([1])
    with pytest.raises(DomainError):
        descent_enumerator(3, frozenset({0}))
    with pytest.raises(DomainError):
        descent_enumerator(3, frozenset({-2}))
    with pytest.raises(DomainError):
        descent_enumerator(-1, frozenset())


def test_descents_reject_bools():
    # True == 1, but it is neither a position nor a size
    for call in (
        lambda: descent_enumerator(3, {True}),
        lambda: descent_enumerator(0, {True}),
        lambda: first_letter_descent_polynomials(2, {True}),
        lambda: colored_descent_enumerator(3, 2, {True}),
        lambda: colored_descent_enumerator_bruteforce(3, 2, {True}),
        lambda: determinant_descent_enumerator(3, {True}),
        lambda: expected_descents(3, {True}),
    ):
        with pytest.raises(DomainError, match="descent positions must be positive integers"):
            call()
    for call in (
        lambda: descent_enumerator(True, set()),
        lambda: first_letter_descent_polynomials(True, set()),
        lambda: colored_descent_enumerator(True, 2, set()),
        lambda: colored_descent_enumerator(2, True, set()),
        lambda: colored_descent_enumerator_bruteforce(2, True, set()),
        lambda: word_descent_enumerator(True, 2),
        lambda: word_descent_enumerator(2, True),
        lambda: word_ascent_enumerator(True, 2),
        lambda: word_ascent_enumerator(2, True),
        lambda: determinant_descent_enumerator(True, set()),
        lambda: expected_descents(True, set()),
    ):
        with pytest.raises(DomainError):
            call()
    # (1, {1}) is valid; True in place of either 1 is not
    assert first_letter_descent_polynomials(1, {1}) == (Poly([1]), Poly([0, 1]))
    with pytest.raises(DomainError):
        first_letter_descent_polynomials(True, {1})
    with pytest.raises(DomainError):
        first_letter_descent_polynomials(1, {True})


def pack(coeffs, width):
    return sum(c << (width * i) for i, c in enumerate(coeffs))


@given(st.sampled_from([(_X, _ONE), (_ONE, _X), (_ZERO, _ONE)]), st.integers(1, 5), st.data())
@settings(max_examples=300, deadline=None)
def test_packed_transfer_matches_list_route(weights, length, data):
    entry = st.lists(st.integers(0, 2 ** 80), min_size=length, max_size=length)
    row = data.draw(st.lists(entry, min_size=1, max_size=8))
    head, tail = weights
    want = transfer_oracle(row, head, tail)
    # no output coefficient exceeds the sum of all input coefficients
    width = max(1, sum(map(sum, row)).bit_length())
    got = _transfer([pack(p, width) for p in row], head, tail, width)
    assert [_unpack(v, width, len(want[0])) for v in got] == want


def test_descent_enumerator_past_256_bits():
    # the slots hold coefficients far past any machine word
    for n in (40, 60):
        for t in (
            frozenset(range(1, n)),
            frozenset(range(1, n, 2)),
            frozenset(range(1, n)) - {3, 17, 31},
        ):
            fast = descent_enumerator(n, t)
            assert fast == determinant_descent_enumerator(n, t), (n, sorted(t))
            assert first_letter_descent_polynomials(n, t) == tuple(
                Poly(p) for p in first_letter_rows_oracle(n, t)
            ), (n, sorted(t))
    assert max(descent_enumerator(60, range(1, 60)).coeffs).bit_length() > 256


@pytest.mark.parametrize("r", [100, 1000])
def test_packed_enumerators_match_list_route(r):
    n = 60
    assert word_descent_enumerator(n, r) == word_descent_enumerator_oracle(n, r)
    assert word_ascent_enumerator(n, r) == word_ascent_enumerator_oracle(n, r)
    for t in (frozenset(range(1, n + 1)), frozenset(range(2, n, 3))):
        colored = colored_descent_enumerator(n, r, t)
        assert colored == colored_descent_enumerator_oracle(n, r, t), sorted(t)
    assert max(colored.coeffs).bit_length() > 256


def test_colored_enumerator_where_colors_dominate_the_slots():
    # r^n dwarfs (n+1)! here, so the slots must be sized by r too; the
    # word enumerators above would build r-long lists
    r = 2 ** 64 + 1
    for n in (0, 1, 20):
        for t in (frozenset(range(1, n + 1)), frozenset(range(2, n, 3))):
            colored = colored_descent_enumerator(n, r, t)
            assert colored == colored_descent_enumerator_oracle(n, r, t), (n, sorted(t))
    assert colored_descent_enumerator(1, r, {1}) == Poly([1, r - 1])
    assert max(colored.coeffs).bit_length() > 1024


def test_signed_enumerator_matches_column_oracle():
    # the top column of the refinement is x times the enumerator
    for n in list(range(2, 41)) + [60]:
        top = signed_word_columns_oracle(n, n + 1)[0]
        assert signed_word_descent_enumerator(n) == Poly(top.coeffs[1:]), n
    assert max(top.coeffs).bit_length() > 256


def test_first_letter_row_small():
    row = first_letter_descent_polynomials(2, frozenset({2}))
    assert row == (Poly([1, 1]), Poly([0, 1]), ZERO)


def test_first_letter_rows_bruteforce():
    import itertools

    for n in range(1, 6):
        for t in all_subsets(range(1, n + 1)):
            rows = [ZERO] * (n + 1)
            for w in itertools.permutations(range(1, n + 2)):
                d = {i + 1 for i in range(n) if w[i] > w[i + 1]}
                if d <= t:
                    k = w[0] - 1
                    rows[k] = rows[k] + X ** len(d)
            assert first_letter_descent_polynomials(n, t) == tuple(rows), (n, t)


def test_row_boundary_identities():
    for n in range(1, 8):
        for t in all_subsets(range(1, n + 1)):
            row = first_letter_descent_polynomials(n, t)
            a_shift = descent_enumerator(n, shift_down(t, n))
            assert row[0] == a_shift, (n, t)
            if 1 in t:
                assert row[n] == X * a_shift, (n, t)
            else:
                assert row[n] == ZERO, (n, t)
            total = ZERO
            for p in row:
                total = total + p
            assert total == descent_enumerator(n + 1, t), (n, t)


def test_row_recurrence():
    # rows satisfy the suffix/prefix sum recurrence in n
    for n in range(2, 7):
        for t in all_subsets(range(1, n + 1)):
            row = first_letter_descent_polynomials(n, t)
            prev = first_letter_descent_polynomials(n - 1, frozenset(a - 1 for a in t if a >= 2))
            for k in range(n + 1):
                expect = ZERO
                for i in range(k, n):
                    expect = expect + prev[i]
                if 1 in t:
                    low = ZERO
                    for i in range(k):
                        low = low + prev[i]
                    expect = expect + X * low
                assert row[k] == expect, (n, t, k)


def test_rows_interlace():
    for n in range(1, 6):
        for t in all_subsets(range(1, n + 1)):
            row = first_letter_descent_polynomials(n, t)
            assert is_interlacing_sequence(row), (n, t)


def test_theorem_style_interlacing_consequence():
    # A^{T-1}_n interlaces A^T_{n+1}
    for n in range(1, 7):
        for t in all_subsets(range(1, n + 1)):
            p = descent_enumerator(n, shift_down(t, n))
            q = descent_enumerator(n + 1, t)
            assert interlaces(p, q), (n, t)


def test_initial_segment_identity():
    # T = [r]: the enumerator expands over the unrestricted first-letter rows
    for n in range(2, 9):
        for r in range(1, n):
            t = frozenset(range(1, r + 1))
            lhs = descent_enumerator(n, t)
            row = first_letter_descent_polynomials(r, frozenset(range(1, r + 1)))
            rhs = ZERO
            for i in range(r + 1):
                rhs = rhs + row[i].scale(math.comb(n - r + i - 1, i))
            assert lhs == rhs, (n, r)
            assert lhs.degree == r
            assert interlaces(row[0], lhs), (n, r)


def test_colored_enumerator_r1_degenerates():
    # with a single color the enumerator is the plain restricted one
    for n in range(1, 7):
        for t in all_subsets(range(1, n)):
            assert colored_descent_enumerator(n, 1, t) == descent_enumerator(n, t)


def test_colored_enumerator_matches_bruteforce():
    for n in range(1, 5):
        for r in range(1, 5):
            for t in all_subsets(range(1, n)):
                fast = colored_descent_enumerator(n, r, t)
                brute = colored_descent_enumerator_bruteforce(n, r, t)
                assert fast == brute, (n, r, t)


def test_colored_full_set_is_colored_eulerian():
    # full T = [n] gives the signed-permutation Eulerian polynomial at r=2
    assert colored_descent_enumerator(2, 2, frozenset({1, 2})) == Poly([1, 6, 1])
    assert colored_descent_enumerator(3, 2, frozenset({1, 2, 3})) == Poly([1, 23, 23, 1])
    assert colored_descent_enumerator(2, 2, frozenset({1})) == Poly([1, 3])


def test_colored_real_rooted_and_interlaced():
    for n in range(1, 6):
        for r in range(2, 5):
            for t in all_subsets(range(1, n)):
                c = colored_descent_enumerator(n, r, t)
                assert is_real_rooted(c)
                assert interlaces(descent_enumerator(n, t), c), (n, r, t)


def test_word_enumerators_match_bruteforce():
    for n in range(1, 6):
        for r in range(1, 6):
            assert word_descent_enumerator(n, r) == word_descent_enumerator_bruteforce(n, r)
            assert word_ascent_enumerator(n, r) == word_ascent_enumerator_bruteforce(n, r)


def test_word_enumerator_values():
    assert word_descent_enumerator(2, 2) == Poly([1, 3])
    assert word_ascent_enumerator(1, 2) == Poly([1, 1])
    assert word_ascent_enumerator(0, 5) == Poly([1])
    # length-1 words have no adjacent pair, so no descents
    assert word_descent_enumerator(1, 3) == Poly([3])


def test_word_identities():
    one_minus_x = Poly([1, -1])
    for n in range(1, 9):
        for r in range(1, 9):
            e = word_descent_enumerator(n, r)
            et = word_ascent_enumerator(n, r)
            et_prev = word_ascent_enumerator(n - 1, r)
            assert e.reverse(n) == et - one_minus_x * et_prev


def test_signed_word_columns_and_enumerator():
    for n in range(2, 7):
        brute = signed_word_descent_enumerator_bruteforce(n)
        assert signed_word_descent_enumerator(n) == brute, n
    assert signed_word_descent_enumerator(2) == Poly([1, 1])
    assert signed_word_descent_enumerator(3) == Poly([1, 10, 5])


def test_signed_word_column_recurrence():
    for n in range(2, 6):
        for k in range(2, n + 1):
            cols = signed_word_columns_oracle(n, k)
            nxt = signed_word_columns_oracle(n, k + 1)
            for j in range(1, len(nxt) + 1):
                low = ZERO
                for i in range(1, j):
                    low = low + cols[i - 1]
                high = ZERO
                for i in range(j, len(cols) + 1):
                    high = high + cols[i - 1]
                assert nxt[j - 1] == low + X * high, (n, k, j)


def test_signed_word_base_columns():
    for n in range(2, 7):
        cols = signed_word_columns_oracle(n, 2)
        for j in range(1, n):
            assert cols[j - 1] == Poly([2 * j - 1, 2 * n - 2 * j - 1]), (n, j)


def test_signed_word_eulerian_relation():
    # the signed enumerator is a combination of two word enumerators
    one_minus_x = Poly([1, -1])
    for n in range(2, 8):
        h = signed_word_descent_enumerator(n)
        e_n = word_descent_enumerator(n, n - 1)
        e_prev = word_descent_enumerator(n - 1, n - 1)
        assert h == e_n.scale(2) + one_minus_x * e_prev, n


def test_determinant_enumerator():
    for n in range(1, 8):
        for t in all_subsets(range(1, n)):
            det = determinant_descent_enumerator(n, t)
            assert det == descent_enumerator(n, t), (n, t)
    # same truncation convention as the direct enumerator
    assert determinant_descent_enumerator(3, frozenset({5})) == Poly([1])
    # n = 0 gives ONE, as the direct enumerator does
    assert determinant_descent_enumerator(0, frozenset()) == Poly([1])
    assert determinant_descent_enumerator(0, frozenset({2})) == descent_enumerator(0, [2])
    with pytest.raises(DomainError):
        determinant_descent_enumerator(-1, frozenset())


def test_determinant_enumerator_at_scale():
    n = 30
    fixed = [
        frozenset(range(1, n)),
        frozenset(range(1, n)) - {5, 11, 17, 23},
        frozenset(range(2, n, 3)) | frozenset(range(1, n, 2)),
        frozenset(range(1, 22)),
        frozenset(range(9, n)),
    ]
    for t in fixed:
        assert len(t) >= 20
        det = determinant_descent_enumerator(n, t)
        assert det == descent_enumerator(n, t), sorted(t)
        assert all(type(c) is int for c in det.coeffs)


descent_classes = st.integers(0, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.frozensets(st.integers(1, max(n - 1, 1))))
)


@given(descent_classes)
@example((60, frozenset()))
@example((60, frozenset(range(1, 60))))
@settings(max_examples=60, deadline=None)
def test_determinant_enumerator_matches_poly_route(case):
    # the packed recurrence in y = x - 1 against Poly products in x
    n, t = case
    det = determinant_descent_enumerator(n, t)
    assert det == determinant_descent_enumerator_oracle(n, t), (n, sorted(t))


def test_expected_descents_hand_values():
    # mean of the full Eulerian distribution is (n-1)/2
    for n in range(1, 8):
        full = frozenset(range(1, n))
        assert expected_descents(n, full) == Fraction(n - 1, 2)
    # T = {1} in S_3: polynomial 1 + 2x has mean 2/3
    assert expected_descents(3, frozenset({1})) == Fraction(2, 3)


def test_mean_variance_match_polynomial():
    for n in range(1, 7):
        for t in all_subsets(range(1, n)):
            p = descent_enumerator(n, t)
            total = sum(p.coeffs)
            mean = Fraction(sum(k * c for k, c in enumerate(p.coeffs)), total)
            second = Fraction(sum(k * k * c for k, c in enumerate(p.coeffs)), total)
            mu, var = descent_mean_variance(n, t)
            assert mu == mean == expected_descents(n, t)
            assert var == second - mean * mean, (n, t)


def test_even_position_statistics():
    for n in range(2, 7):
        t = frozenset(range(2, 2 * n - 1, 2))
        mu, var = descent_mean_variance(2 * n, t)
        assert mu == Fraction(5 * (n - 1), 6)
        assert var == Fraction(19 * n - 13, 180)


@given(st.integers(2, 7), st.data())
@settings(max_examples=40, deadline=None)
def test_enumerator_total_count(n, data):
    t = frozenset(data.draw(st.sets(st.integers(1, n - 1))))
    p = descent_enumerator(n, t)
    # total permutations with descents inside T equals the number of linear
    # extensions counted by the multinomial recurrence: check against brute
    assert sum(p.coeffs) == sum(colored_descent_enumerator_bruteforce(n, 1, t).coeffs)
    assert p.coeffs[0] == 1
