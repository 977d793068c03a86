"""Acceptance gate: the ten headline property suites at desk scale.

Each test prints one PASS line; a failure anywhere aborts that criterion
before its line is printed.  Scales are chosen so the whole file runs in
about a minute while still exercising every formula at nontrivial size.
"""

import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

from chainpoly import (
    CoxeterType,
    Poly,
    ZERO,
    adjoin_max,
    boolean_lattice,
    build_reflection_group,
    chain_polynomial,
    colored_descent_enumerator,
    colored_subset_poset,
    descent_enumerator,
    descent_mean_variance,
    determinant_descent_enumerator,
    expected_descents,
    face_poset,
    first_letter_descent_polynomials,
    flag_vectors,
    h_from_f,
    interlaces,
    is_interlacing_sequence,
    is_log_concave,
    is_real_rooted,
    is_unimodal,
    mode,
    nc_chain_polynomial,
    nc_h_formula,
    noncrossing_lattice,
    order_h_polynomial,
    rank_selected,
    signed_word_descent_enumerator,
    simplicial_h,
    stanley_flag_beta,
    word_ascent_enumerator,
    word_descent_enumerator,
)
from chainpoly.cli import main
from oracles import signed_word_columns_oracle, signed_word_descent_enumerator_bruteforce


def subsets(universe):
    items = sorted(universe)
    for k in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, k))


EXPECTED_EXCEPTIONAL = {
    "H3": [1, 28, 21],
    "H4": [1, 275, 842, 232],
    "F4": [1, 100, 265, 66],
    "E6": [1, 826, 10778, 21308, 8141, 418],
    "E7": [1, 4152, 110958, 446776, 412764, 85800, 2431],
    "E8": [1, 25071, 1295238, 9523785, 17304775, 8733249, 1069289, 17342],
}


def test_criterion_01_exceptional_tables(capsys):
    names = list(EXPECTED_EXCEPTIONAL) + ["I2:%d" % m for m in range(3, 11)]
    for name in names:
        code = main(["nc", name, "--symdec", "--json"])
        out = capsys.readouterr().out
        assert code == 0, name
        data = json.loads(out)
        if name.startswith("I2:"):
            m = int(name.split(":")[1])
            assert data["coefficients"] == [1, m - 1], name
        else:
            assert data["coefficients"] == EXPECTED_EXCEPTIONAL[name], name
        assert data["real-rooted"] is True, name
        assert data["symdec"] is True, name
    with capsys.disabled():
        print("PASS: criterion 1 - exceptional noncrossing tables, real-rooted, symdec")


def test_criterion_02_lattice_oracle(capsys):
    cases = ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "D3", "D4"]
    for name in cases:
        t = CoxeterType.parse(name)
        g = build_reflection_group(t)
        lat = noncrossing_lattice(g)
        assert order_h_polynomial(lat.proper_part()) == nc_h_formula(t), name
        assert chain_polynomial(lat) == nc_chain_polynomial(t), name
    with capsys.disabled():
        print("PASS: criterion 2 - lattice h and chain polynomials match the formulas")


def test_criterion_03_first_letter_rows(capsys):
    for n in range(1, 7):
        for t in subsets(range(1, n + 1)):
            row = first_letter_descent_polynomials(n, t)
            assert is_interlacing_sequence(row), (n, t)
            shifted = frozenset(a - 1 for a in t if a >= 2)
            assert row[0] == descent_enumerator(n, shifted), (n, t)
            total = ZERO
            for p in row:
                total = total + p
            assert total == descent_enumerator(n + 1, t), (n, t)
    with capsys.disabled():
        print("PASS: criterion 3 - first-letter rows interlace with correct margins")


def _rank_selection_corpus():
    for n in range(1, 6):
        yield boolean_lattice(n)
    for n, r in [(1, 10), (2, 10), (2, 30), (3, 4), (3, 10), (4, 3), (5, 2)]:
        yield colored_subset_poset(n, r)
    rng = random.Random(2024)
    made = 0
    while made < 20:
        dim = rng.randint(1, 3)
        nverts = rng.randint(dim + 1, 6)
        pool = list(combinations(range(1, nverts + 1), dim + 1))
        facets = rng.sample(pool, k=min(len(pool), rng.randint(1, 5)))
        yield face_poset(facets)
        made += 1


def test_criterion_04_rank_selection_identity(capsys):
    for poset in _rank_selection_corpus():
        n = poset.rank
        h = simplicial_h(poset)
        hat = adjoin_max(poset)
        for t in subsets(range(1, n + 1)):
            sel = rank_selected(hat, t)
            f = chain_polynomial(sel.proper_part())
            lhs = h_from_f(f, len(t))
            reflected = frozenset(n + 1 - a for a in t)
            row = first_letter_descent_polynomials(n, reflected)
            rhs = ZERO
            for k, c in enumerate(h.coeffs):
                rhs = rhs + row[k].scale(c)
            assert lhs == rhs, (poset.elements[:4], sorted(t))
    with capsys.disabled():
        print("PASS: criterion 4 - rank-selected h equals the h-weighted row sums")


def test_criterion_05_flag_betas(capsys):
    for poset in _rank_selection_corpus():
        n = poset.rank
        fv = flag_vectors(adjoin_max(poset))
        for s in subsets(range(1, n + 1)):
            assert stanley_flag_beta(poset, s) == fv.beta(s), sorted(s)
    import itertools

    for n in range(1, 7):
        counts = {}
        for w in itertools.permutations(range(1, n + 1)):
            d = frozenset(i + 1 for i in range(n - 1) if w[i] > w[i + 1])
            counts[d] = counts.get(d, 0) + 1
        fv = flag_vectors(boolean_lattice(n))
        for s in subsets(range(1, n)):
            assert fv.beta(s) == counts.get(s, 0), (n, sorted(s))
    with capsys.disabled():
        print("PASS: criterion 5 - flag betas match the h-vector form and descent classes")


def test_criterion_06_mode_location(capsys):
    for n in range(1, 9):
        for t in subsets(range(1, n)):
            p = descent_enumerator(n, t)
            assert is_log_concave(p) and is_unimodal(p), (n, t)
            mu = expected_descents(n, t)
            m = mode(p)
            assert m is not None, (n, t)
            assert mu.__floor__() <= m <= mu.__ceil__(), (n, t)
    for n in range(2, 7):
        t = frozenset(range(2, 2 * n - 1, 2))
        mean, var = descent_mean_variance(2 * n, t)
        assert mean == Fraction(5 * (n - 1), 6), n
        assert var == Fraction(19 * n - 13, 180), n
    with capsys.disabled():
        print("PASS: criterion 6 - modes sit at the expected descent number")


def test_criterion_07_determinant(capsys):
    for n in range(1, 8):
        for t in subsets(range(1, n)):
            assert determinant_descent_enumerator(n, t) == descent_enumerator(n, t), (n, t)
    with capsys.disabled():
        print("PASS: criterion 7 - determinant formula agrees for n up to 7")


def test_criterion_08_word_identities(capsys):
    one_minus_x = Poly([1, -1])
    geom = lambda r: Poly([1] * r)
    for n in range(1, 9):
        for r in range(1, 9):
            e = word_descent_enumerator(n, r)
            et = word_ascent_enumerator(n, r)
            et_prev = word_ascent_enumerator(n - 1, r)
            rev = e.reverse(n)
            assert rev == et - one_minus_x * et_prev, (n, r)
            full = geom(r) ** (n + 1)
            assert et == Poly(full.coeffs[::r]), (n, r)
            withx = Poly([0, 1]) * full
            assert rev == Poly(withx.coeffs[::r]), (n, r)
            for m in range(11):
                conv = sum(
                    c * math.comb(n + m - i, n)
                    for i, c in enumerate(et.coeffs)
                    if i <= m
                )
                assert conv == math.comb(n + r * m, n), (n, r, m)
    with capsys.disabled():
        print("PASS: criterion 8 - word enumerator identities for n, r up to 8")


def _colored_sweep(n, r):
    for t in subsets(range(1, n + 1)):
        base = descent_enumerator(n, t)
        col = colored_descent_enumerator(n, r, t)
        assert is_real_rooted(col), (n, r, sorted(t))
        assert interlaces(base, col), (n, r, sorted(t))


def test_criterion_09_colored_interlacing(capsys):
    # full subset sweeps over every r with r^n <= 100000, r capped at 100
    for n in range(1, 12):
        r = 1
        while r <= 100 and r ** n <= 100000:
            _colored_sweep(n, r)
            r += 1
    # spot checks at the extreme admissible corners
    for t in [frozenset(), frozenset({1})]:
        assert interlaces(descent_enumerator(1, t), colored_descent_enumerator(1, 100000, t))
    for t in [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]:
        assert interlaces(descent_enumerator(2, t), colored_descent_enumerator(2, 316, t))
    rng = random.Random(5)
    n = 12
    spot = [frozenset(), frozenset(range(1, n + 1))]
    for _ in range(32):
        spot.append(frozenset(a for a in range(1, n + 1) if rng.random() < 0.5))
    for t in spot:
        base = descent_enumerator(n, t)
        col = colored_descent_enumerator(n, 2, t)
        assert is_real_rooted(col)
        assert interlaces(base, col)
    with capsys.disabled():
        print("PASS: criterion 9 - colored enumerators real-rooted and interlaced")


def test_criterion_10_signed_words(capsys):
    for n in range(2, 7):
        assert signed_word_descent_enumerator(n) == signed_word_descent_enumerator_bruteforce(n), n
    one_minus_x = Poly([1, -1])
    for n in range(2, 8):
        h = signed_word_descent_enumerator(n)
        assert h == word_descent_enumerator(n, n - 1).scale(2) \
            + one_minus_x * word_descent_enumerator(n - 1, n - 1), n
    for n in range(2, 7):
        for k in range(2, n + 2):
            cols = signed_word_columns_oracle(n, k)
            assert is_interlacing_sequence(tuple(reversed(cols))), (n, k)
    with capsys.disabled():
        print("PASS: criterion 10 - signed word enumerators and interlacing columns")
