import json
import math
import random
from itertools import combinations, product

import pytest

from chainpoly import (
    CoxeterType,
    DomainError,
    Poly,
    ResourceLimitError,
    adjoin_max,
    boolean_lattice,
    build_reflection_group,
    chain_polynomial,
    f_from_h,
    face_poset,
    flag_vectors,
    is_real_rooted,
    nc_chain_polynomial,
    nc_h_formula,
    nc_reversed_h_identity,
    noncrossing_lattice,
    order_h_polynomial,
    signed_word_descent_enumerator,
    symmetric_decomposition,
    veronese,
    word_descent_enumerator,
)
from chainpoly.cli import main
from chainpoly.coxeter import (
    _absolute_length,
    _below,
    _h_from_degrees,
    _root,
    _times_reflection,
    _veronese_product,
    compose,
)
from oracles import (
    absolute_lengths_bfs,
    chain_polynomial_pairwise,
    exact_div_oracle,
    flag_f_nc_d,
    inverse,
    noncrossing_lattice_pairwise,
    noncrossing_lattice_walk,
)

SMALL_GROUPS = (
    ["A%d" % k for k in range(1, 7)]
    + ["B%d" % k for k in range(1, 6)]
    + ["D%d" % k for k in range(2, 6)]
)


def test_parse_and_rank():
    assert CoxeterType.parse("A4").rank == 4
    assert CoxeterType.parse("b3") == CoxeterType("B", 3)
    assert CoxeterType.parse("D5").rank == 5
    assert CoxeterType.parse("I2:7").rank == 2
    for name, rank in (("H3", 3), ("H4", 4), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)):
        assert CoxeterType.parse(name).rank == rank
    assert str(CoxeterType.parse("I2:7")) == "I2:7"
    assert str(CoxeterType.parse("F4")) == "F4"


def test_parse_rejects_bad_input():
    for text in ["A0", "D1", "I2:2", "X3", "E9", "H5", "I2:", "A", ""]:
        with pytest.raises(DomainError):
            CoxeterType.parse(text)


def test_bool_is_not_a_rank():
    errors = {
        "A": "type A needs rank >= 1",
        "B": "type B needs rank >= 1",
        "D": "type D needs rank >= 2",
        "I2": "type I2 needs edge label m >= 3",
    }
    for family, error in errors.items():
        for flag in (True, False):
            with pytest.raises(DomainError) as exc:
                CoxeterType(family, flag)
            assert str(exc.value) == error


def test_exceptional_h_values():
    assert nc_h_formula(CoxeterType.parse("H3")) == Poly([1, 28, 21])
    assert nc_h_formula(CoxeterType.parse("H4")) == Poly([1, 275, 842, 232])
    assert nc_h_formula(CoxeterType.parse("F4")) == Poly([1, 100, 265, 66])
    assert nc_h_formula(CoxeterType.parse("E6")) == Poly([1, 826, 10778, 21308, 8141, 418])
    assert nc_h_formula(CoxeterType.parse("E7")) == Poly(
        [1, 4152, 110958, 446776, 412764, 85800, 2431]
    )
    assert nc_h_formula(CoxeterType.parse("E8")) == Poly(
        [1, 25071, 1295238, 9523785, 17304775, 8733249, 1069289, 17342]
    )
    for m in range(3, 101):
        assert nc_h_formula(CoxeterType("I2", m)) == Poly([1, m - 1]), m


def classical_degrees(t: CoxeterType) -> tuple:
    """The degrees of a type A, B or D group (Humphreys, Table 3.1)."""
    k = t.param
    if t.family == "A":
        return tuple(range(2, k + 2))
    if t.family == "B":
        return tuple(range(2, 2 * k + 1, 2))
    return tuple(range(2, 2 * k - 1, 2)) + (k,)


def test_degree_route_matches_word_route():
    for fam in "ABD":
        for k in range(2 if fam == "D" else 1, 61):
            t = CoxeterType(fam, k)
            assert _h_from_degrees(classical_degrees(t)) == nc_h_formula(t), t


def test_classical_h_formulas():
    # type A over k+1 letters, with the 1/(k+1) normalization
    for k in range(1, 6):
        e = word_descent_enumerator(k, k + 1)
        assert nc_h_formula(CoxeterType("A", k)) == exact_div_oracle(e, Poly([k + 1]))
    for n in range(1, 6):
        assert nc_h_formula(CoxeterType("B", n)) == word_descent_enumerator(n, n)
    for n in range(2, 7):
        assert nc_h_formula(CoxeterType("D", n)) == signed_word_descent_enumerator(n)


def test_b2_equals_i2_4():
    assert nc_h_formula(CoxeterType("B", 2)) == nc_h_formula(CoxeterType("I2", 4))
    assert nc_h_formula(CoxeterType("A", 2)) == nc_h_formula(CoxeterType("I2", 3))


def test_reflection_group_invariants():
    cases = {
        ("A", 3): (24, 6),
        ("A", 4): (120, 10),
        ("B", 2): (8, 4),
        ("B", 3): (48, 9),
        ("D", 3): (24, 6),
        ("D", 4): (192, 12),
    }
    for (fam, p), (order, nrefl) in cases.items():
        g = build_reflection_group(CoxeterType(fam, p))
        assert len(g.elements) == order, (fam, p)
        assert len(g.reflections) == nrefl, (fam, p)
        assert _absolute_length(g.gamma) == g.rank
        for t in g.reflections:
            assert _absolute_length(t) == 1
        # reflections are involutions closed under conjugation
        for t in g.reflections:
            assert compose(t, t) == g.identity
        for t in g.reflections:
            for s in list(g.reflections)[:4]:
                assert compose(compose(s, t), inverse(s)) in g.reflections
        # absolute length has the parity of any reflection word
        for w in g.elements:
            assert 0 <= _absolute_length(w) <= g.rank


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_closed_form_length_matches_bfs(name):
    t = CoxeterType.parse(name)
    g = build_reflection_group(t)
    bfs = absolute_lengths_bfs(t.family, g.degree)
    assert {w: _absolute_length(w) for w in g.elements} == bfs
    assert g.elements == tuple(sorted(bfs))
    assert all(_absolute_length(w) == ell for w, ell in bfs.items())
    assert g.reflections == frozenset(w for w, ell in bfs.items() if ell == 1)


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_lattice_matches_pairwise_oracle(name):
    g = build_reflection_group(CoxeterType.parse(name))
    # another Coxeter element of A3, and -1 in B3: length 3, not a
    # Coxeter element, so not every reflection lies below it
    extra = {"A3": [(2, 4, 1, 3)], "B3": [(-1, -2, -3)]}
    gammas = [None] + extra.get(name, [])
    for gamma in gammas:
        lat = noncrossing_lattice(g, gamma=gamma)
        ref = noncrossing_lattice_pairwise(g, gamma=gamma)
        assert lat.elements == ref.elements
        assert lat.covers == ref.covers
        assert [lat.rank_of(a) for a in lat.elements] == [
            ref.rank_of(a) for a in ref.elements
        ]


RULE_TYPES = (
    [("A", k) for k in range(1, 8)]
    + [("B", k) for k in range(2, 8)]
    + [("D", k) for k in range(3, 8)]
)


def _random_element(rng, fam, n):
    """A random signed permutation of the family: no signs for A, any
    signs for B, an even number of negative entries for D."""
    w = list(range(1, n + 1))
    rng.shuffle(w)
    if fam != "A":
        signs = [rng.choice((1, -1)) for _ in w]
        if fam == "D" and signs.count(-1) % 2:
            signs[0] = -signs[0]
        w = [s * v for s, v in zip(signs, w)]
    return tuple(w)


@pytest.mark.parametrize("fam,k", RULE_TYPES)
def test_mov_rule_matches_absolute_length(fam, k):
    """For every reflection t and random c, t is kept exactly when
    l(t c) = l(c) - 1; c has cycles with an odd number of negative
    entries in B and D."""
    g = build_reflection_group(CoxeterType(fam, k), max_order=10 ** 7)
    n = g.degree
    reflections = sorted(g.reflections)
    candidates = [_root(t) + (t,) for t in reflections]
    rng = random.Random(k)
    odd_cycles = 0
    for trial in range(60):
        w = _random_element(rng, fam, n)
        c = g.identity if trial == 0 else g.gamma if trial == 1 else w
        # l(c) is n minus the cycles with an even number of negatives
        odd_cycles += _absolute_length(c) > n - _cycle_count(c)
        kept = [t for *_, t in _below(c, candidates)]
        want = [
            t for t in reflections
            if _absolute_length(compose(t, c)) == _absolute_length(c) - 1
        ]
        assert kept == want, c
    assert odd_cycles > 10 or fam == "A"


@pytest.mark.parametrize("fam,k", RULE_TYPES)
def test_reflection_edit_matches_compose(fam, k):
    """a t as the two-entry edit read off t's root equals compose(a, t)
    for every reflection t, with a the identity, gamma and 50 random
    group elements."""
    g = build_reflection_group(CoxeterType(fam, k), max_order=10 ** 7)
    rng = random.Random(100 + k)
    elements = [g.identity, g.gamma]
    elements += [_random_element(rng, fam, g.degree) for _ in range(50)]
    for t in g.reflections:
        i, j, plus = _root(t)
        for a in elements:
            assert _times_reflection(a, i, j, plus) == compose(a, t), (a, t)


def _cycle_count(c):
    """The number of cycles of |c|."""
    seen, count = set(), 0
    for start in range(len(c)):
        if start not in seen:
            count += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = abs(c[i]) - 1
    return count


WALK_TYPES = (
    ["A%d" % k for k in range(1, 8)]
    + ["B%d" % k for k in range(2, 7)]
    + ["D%d" % k for k in range(3, 7)]
)


@pytest.mark.parametrize("name", WALK_TYPES)
def test_lattice_matches_walk_oracle(name):
    g = build_reflection_group(CoxeterType.parse(name))
    lat, ref = noncrossing_lattice(g), noncrossing_lattice_walk(g)
    assert lat.elements == ref.elements
    assert lat.covers == ref.covers


def test_explicit_gamma_is_checked():
    a3 = build_reflection_group(CoxeterType("A", 3))
    d3 = build_reflection_group(CoxeterType("D", 3))
    # not a permutation; and of length 3 = rank, but with an odd number
    # of negative entries, so outside W(D3)
    assert _absolute_length((-1, -2, -3)) == 3
    for g, gamma in [(a3, (5, 1, 2, 3)), (d3, (-1, -2, -3))]:
        with pytest.raises(DomainError):
            noncrossing_lattice(g, gamma=gamma)


def test_lattice_route_lists_no_group_element(monkeypatch, capsys):
    import chainpoly.coxeter as coxeter

    def refuse(*args):
        raise AssertionError("the group was listed")

    monkeypatch.setattr(coxeter, "permutations", refuse)
    t = CoxeterType("B", 6)
    lat = noncrossing_lattice(build_reflection_group(t))
    assert len(lat) == 924
    assert order_h_polynomial(lat.proper_part()) == nc_h_formula(t)
    assert chain_polynomial(lat) == nc_chain_polynomial(t)
    assert main(["nc", "A5", "--oracle"]) == 0
    assert "oracle=match" in capsys.readouterr().out.splitlines()


def test_group_order_cap():
    with pytest.raises(ResourceLimitError):
        build_reflection_group(CoxeterType("A", 9))
    # exceptional types have no concrete model here at all
    with pytest.raises(ResourceLimitError, match="no concrete group model for type H3"):
        build_reflection_group(CoxeterType("H3"))


def test_lattice_matches_formula_small():
    for name in ["A2", "A3", "A5", "B2", "B3", "D3"]:
        t = CoxeterType.parse(name)
        g = build_reflection_group(t)
        lat = noncrossing_lattice(g)
        assert order_h_polynomial(lat.proper_part()) == nc_h_formula(t), name
        assert chain_polynomial(lat) == nc_chain_polynomial(t), name
        if t.family == "A":
            # one-element chains: the Catalan number of NC(n+1) elements
            n = t.param + 1
            assert chain_polynomial(lat).coeffs[1] == math.comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_chain_polynomial_matches_pairwise_on_nc(name):
    lat = noncrossing_lattice(build_reflection_group(CoxeterType.parse(name)))
    for p in (lat, lat.proper_part()):
        assert chain_polynomial(p) == chain_polynomial_pairwise(p)


def test_chain_factors_through_proper_part():
    """chain(L) = (1+x)^2 chain(proper part) on a bounded poset with
    bottom below top: every chain of the proper part extends by either
    end or both.  The nc oracle compares the lattice count to the formula
    route's (1+x)^2 f on that identity."""
    lattices = [
        noncrossing_lattice(build_reflection_group(CoxeterType.parse(name)))
        for name in SMALL_GROUPS
    ]
    lattices += [boolean_lattice(n) for n in range(1, 6)]
    lattices += [
        adjoin_max(face_poset(facets))
        for facets in (
            [(1, 2), (1, 3), (2, 3)],
            [("a", "b", "c"), ("b", "c", "d"), ("x", "a", "d")],
            [(1, 2, 3, 4)],
            [(1, 2), (3, 4), (5, 6)],
        )
    ]
    for lat in lattices:
        proper = chain_polynomial(lat.proper_part())
        assert chain_polynomial(lat) == Poly([1, 2, 1]) * proper
    # with bottom equal to top the one element is dropped once: (1+x) * 1
    assert chain_polynomial(boolean_lattice(0)) == Poly([1, 1])
    assert len(boolean_lattice(0).proper_part()) == 0


def test_chain_real_rootedness_is_h_real_rootedness():
    """nc prints chain-real-rooted from h's verdict: the chain polynomial
    is (1+x)^2 f_from_h(h, rank - 1), a real Moebius image of h's roots
    plus -1 twice."""
    types = [CoxeterType(fam, k) for fam in "ABD" for k in range(2 if fam == "D" else 1, 31)]
    types += [CoxeterType("I2", m) for m in range(3, 13)]
    types += [CoxeterType.parse(name) for name in ("H3", "H4", "F4", "E6", "E7", "E8")]
    for t in types:
        assert is_real_rooted(nc_chain_polynomial(t)) == is_real_rooted(nc_h_formula(t)), t
    # the same map on h that are not real-rooted
    for h in (Poly([1, 1, 1]), Poly([1, 5, 2, 9]), Poly([2, 1, 1]) * Poly([1, 3])):
        chain = Poly([1, 2, 1]) * f_from_h(h, h.degree)
        assert not is_real_rooted(chain) and not is_real_rooted(h)


def test_lattice_structure():
    g = build_reflection_group(CoxeterType("A", 3))
    lat = noncrossing_lattice(g)
    # Catalan count for the symmetric group on four letters
    assert len(lat.elements) == 14
    assert lat.rank == 3
    sizes = [len(level) for level in lat.levels]
    assert sizes == sizes[::-1]  # self-dual
    assert sizes == [1, 6, 6, 1]


def test_nc_chain_polynomial_values():
    assert nc_chain_polynomial(CoxeterType("A", 2)) == Poly([1, 5, 7, 3])
    # I2(m): bottom, top, m atoms
    for m in range(3, 7):
        expect = chain_polynomial(
            noncrossing_lattice(build_reflection_group(CoxeterType("B", 2)))
        )
        if m == 4:
            assert nc_chain_polynomial(CoxeterType("I2", m)) == expect


def test_coxeter_element_choice_does_not_matter():
    g = build_reflection_group(CoxeterType("A", 3))
    other = (2, 4, 1, 3)  # the 4-cycle 1 -> 2 -> 4 -> 3 -> 1
    assert _absolute_length(other) == 3
    lat1 = noncrossing_lattice(g)
    lat2 = noncrossing_lattice(g, gamma=other)
    assert chain_polynomial(lat1) == chain_polynomial(lat2)
    assert len(lat1.elements) == len(lat2.elements)


def test_flag_vector_formula_type_a():
    # alpha(T) = (1/n) #words in [n]^(n-1) with descents inside T
    for n in range(3, 6):
        t = CoxeterType("A", n - 1)
        lat = noncrossing_lattice(build_reflection_group(t))
        fv = flag_vectors(lat)
        for k in range(n - 1):
            for sel in combinations(range(1, n - 1), k):
                count = 0
                for w in product(range(1, n + 1), repeat=n - 1):
                    des = {i + 1 for i in range(n - 2) if w[i] >= w[i + 1]}
                    if des <= set(sel):
                        count += 1
                assert count % n == 0
                assert fv.alpha(sel) == count // n, (n, sel)


def test_flag_vector_formula_type_b():
    for n in range(2, 5):
        t = CoxeterType("B", n)
        lat = noncrossing_lattice(build_reflection_group(t))
        fv = flag_vectors(lat)
        for k in range(n):
            for sel in combinations(range(1, n), k):
                count = 0
                for w in product(range(1, n + 1), repeat=n):
                    des = {i + 1 for i in range(n - 1) if w[i] >= w[i + 1]}
                    if des <= set(sel):
                        count += 1
                assert fv.alpha(sel) == count, (n, sel)


def test_flag_f_nc_d_bruteforce():
    # the composition formula against the lattice where it can be built,
    # and against the formula route's chain counts well beyond that
    for n in [3, 4]:
        lat = noncrossing_lattice(build_reflection_group(CoxeterType("D", n)))
        f = chain_polynomial(lat.proper_part())
        assert [flag_f_nc_d(n, k) for k in range(n)] == list(f.coeffs), n
    for n in range(3, 12):
        f = f_from_h(nc_h_formula(CoxeterType("D", n)), n - 1)
        assert [flag_f_nc_d(n, k) for k in range(n)] == list(f.coeffs), n


def test_flag_f_nc_d_hand_value():
    # NC(D_3): 12 proper elements, 16 two-element chains
    assert flag_f_nc_d(3, 1) == 12
    assert flag_f_nc_d(3, 2) == 16


def test_d3_equals_a3():
    assert nc_h_formula(CoxeterType("D", 3)) == nc_h_formula(CoxeterType("A", 3))


def test_reversed_h_identity():
    for name in ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "D2", "D3", "D4", "D5"]:
        assert nc_reversed_h_identity(CoxeterType.parse(name)) is True, name
    assert nc_reversed_h_identity(CoxeterType.parse("H3")) is None
    assert nc_reversed_h_identity(CoxeterType.parse("I2:5")) is None


def test_veronese_product_matches_pow_form():
    # the window sums against the products of geometric series by pow
    def geometric(r):
        return Poly([1] * r)

    x = Poly([0, 1])
    for k in range(1, 21):
        n = k + 1
        assert _veronese_product(CoxeterType("A", k)) == veronese(x * geometric(n) ** n, n)
    for n in range(1, 21):
        want = veronese(x * geometric(n) ** (n + 1), n)
        assert _veronese_product(CoxeterType("B", n)) == want
    for n in range(2, 21):
        want = veronese((x + x * x) * geometric(n - 1) ** (n + 1), n - 1)
        assert _veronese_product(CoxeterType("D", n)) == want
    assert _veronese_product(CoxeterType.parse("E8")) is None


def nc_report(capsys, name):
    """The report of `nc NAME --symdec --json`, as a dict."""
    assert main(["nc", name, "--symdec", "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_symdec_report_fields(capsys):
    rep = nc_report(capsys, "H3")
    assert rep["coefficients"] == [1, 28, 21]
    assert rep["real-rooted"] and rep["chain-real-rooted"]
    assert rep["symdec"]
    assert rep["peak-ok"]
    assert rep["expected-peak"] == 1
    assert rep["veronese-identity"] is None
    parts = Poly(rep["symmetric-part"]) + Poly([0, 1]) * Poly(rep["shifted-part"])
    assert parts == Poly([1, 28, 21])

    rep = nc_report(capsys, "A3")
    assert rep["veronese-identity"] is True
    assert rep["expected-peak"] == 1
    assert rep["peaks"] == [1]
    assert rep["symmetric-part"] == [1, 6, 1]
    assert rep["shifted-part"] == [4, 4]


def test_symdec_report_decomposes_once(monkeypatch, capsys):
    calls = []

    def counted(p, n):
        calls.append(n)
        return symmetric_decomposition(p, n)

    monkeypatch.setattr("chainpoly.cli.symmetric_decomposition", counted)
    monkeypatch.setattr("chainpoly.symdecomp.symmetric_decomposition", counted)
    for name, n in [("B3", 2), ("B5", 4)]:
        calls.clear()
        assert nc_report(capsys, name)["symdec"] is True
        assert calls == [n]


def test_report_real_rootedness_everywhere(capsys):
    names = ["A2", "A3", "A4", "B2", "B3", "D3", "I2:6", "H3", "H4", "F4", "E6", "E7", "E8"]
    for name in names:
        rep = nc_report(capsys, name)
        assert rep["real-rooted"], name
        assert rep["chain-real-rooted"], name
        assert rep["symdec"], name
        assert rep["peak-ok"], name
