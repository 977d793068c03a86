import gc
import json
import math
import random
import weakref
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainpoly import (
    CoxeterType,
    DomainError,
    FlagVectors,
    GradedBoundedPoset,
    GradedStructureError,
    Poly,
    Poset,
    PosetFileError,
    adjoin_max,
    boolean_lattice,
    build_reflection_group,
    chain_polynomial,
    colored_subset_poset,
    face_poset,
    flag_vectors,
    h_from_f,
    is_simplicial,
    load_poset,
    noncrossing_lattice,
    order_h_polynomial,
    rank_selected,
    rank_selected_h,
)
from chainpoly import posets
from chainpoly.posets import _boolean_rank, _moebius
from oracles import (
    boolean_rank_pairwise,
    chain_polynomial_pairwise,
    cover_check_pairwise,
    flag_alpha_pairwise,
    graded_ranks_pairwise,
    moebius_oracle,
    subposet_pairwise,
)
from test_simplicial import boundary_cases, random_complex, random_graded_poset


def brute_chain_polynomial(poset):
    """Count chains by checking every subset for total order."""
    els = list(poset.elements)
    coeffs = [0] * (len(els) + 1)
    for k in range(len(els) + 1):
        for sub in combinations(els, k):
            if all(poset.less(a, b) or poset.less(b, a) for a, b in combinations(sub, 2)):
                coeffs[k] += 1
    return Poly(coeffs)


def random_poset(rng, size):
    els = list(range(size))
    rel = {(a, b) for a in els for b in els if a < b and rng.random() < 0.4}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    covers = [(a, b) for a, b in rel
              if not any((a, c) in rel and (c, b) in rel for c in els)]
    return Poset(els, covers)


def test_construction_and_covers():
    p = Poset([1, 2, 3], [(1, 2), (2, 3)])
    assert p.less(1, 3)
    assert not p.less(3, 1)
    assert p.minimal_elements() == (1,)
    assert p.maximal_elements() == (3,)
    # transitively implied pairs are not covers and are rejected
    with pytest.raises(DomainError):
        Poset([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def random_cover_list(rng):
    """Up to 7 elements and a cover list with duplicate elements and
    covers, self-covers, unknown ends, cycles and implied covers each at
    random positions, around either random layers or a random order."""
    elements = rng.sample([0, 1, 2, 3, "a", "b", "c", "d"], rng.randint(0, 7))
    if rng.random() < 0.5:
        # layers 0..3, each cover one layer up: graded when it is bounded
        layer = {x: rng.randint(1, 3) for x in elements}
        if elements:
            layer[elements[0]] = 0
        covers = [
            (x, y)
            for x in elements
            for y in elements
            if layer[y] == layer[x] + 1 and rng.random() < 0.7
        ]
    else:
        covers = [
            (x, y)
            for k, x in enumerate(elements)
            for y in elements[k + 1:]
            if rng.random() < 0.3
        ]
    bad = []
    if elements and rng.random() < 0.05:
        elements.insert(rng.randrange(len(elements)), rng.choice(elements))
    if covers and rng.random() < 0.1:
        bad.append(rng.choice(covers))
    if elements and rng.random() < 0.05:
        x = rng.choice(elements)
        bad.append((x, x))
    if elements and rng.random() < 0.05:
        bad.append(rng.choice([("z", elements[0]), (elements[-1], "z")]))
    if len(elements) > 1 and rng.random() < 0.2:
        x, y = rng.sample(elements, 2)
        bad.append((x, y))
    for pair in bad:
        covers.insert(rng.randint(0, len(covers)), pair)
    return elements, covers


def test_construction_check_matches_pairwise_oracle():
    """Poset and GradedBoundedPoset build exactly when the cover-check
    oracle does, with the order the oracle finds, and otherwise raise its
    exception and message, whatever the order of faults in the input."""
    rng = random.Random(19)
    outcomes = {}
    for _ in range(3000):
        elements, covers = random_cover_list(rng)
        error, less = cover_check_pairwise(elements, covers)
        ranks = graded_ranks_pairwise(elements, covers) if error is None else None
        for cls in (Poset, GradedBoundedPoset):
            if error is not None:
                with pytest.raises(DomainError) as exc:
                    cls(elements, covers)
                assert (type(exc.value), str(exc.value)) == error
                key = next(
                    word
                    for word in ("duplicate", "unknown", "self-cover", "cycle", "implied")
                    if word in error[1]
                )
            elif cls is GradedBoundedPoset and ranks is None:
                with pytest.raises(GradedStructureError):
                    cls(elements, covers)
                key = "ungraded"
            else:
                p = cls(elements, covers)
                assert {(x, y) for x in elements for y in elements if p.less(x, y)} == less
                assert p.minimal_elements() == tuple(
                    x for x in elements if all(y != x for _, y in covers)
                )
                assert p.covers == tuple(dict.fromkeys(covers))
                if cls is GradedBoundedPoset:
                    assert {x: p.rank_of(x) for x in elements} == ranks
                key = cls.__name__
            outcomes[key] = outcomes.get(key, 0) + 1
    assert len(outcomes) == 8 and min(outcomes.values()) > 50, outcomes


def structure_posets():
    """Builders, their adjoin_max, copies of both rebuilt from shuffled
    cover lists, and rank selections of the adjoined Boolean lattice B5."""
    rng = random.Random(23)
    out = [
        noncrossing_lattice(build_reflection_group(CoxeterType(family, k)))
        for family, ks in (("A", range(1, 6)), ("B", range(2, 5)), ("D", range(3, 5)))
        for k in ks
    ]
    out += [boolean_lattice(n) for n in range(5)] + [colored_subset_poset(3, 2)]
    out += [adjoin_max(p) for p in out]
    for p in list(out):
        covers = list(p.covers)
        rng.shuffle(covers)
        out.append(GradedBoundedPoset(p.elements, covers))
    hat = adjoin_max(boolean_lattice(5))
    for t in ((), (1,), (5,), (2, 4), (1, 3, 5), (1, 2, 3, 4, 5)):
        out.append(rank_selected(hat, t))
    return out


def test_proper_part_matches_subposet_oracle():
    """proper_part restricts the covers; the pairwise subposet gives the
    same elements and the same covers in the same order."""
    for p in structure_posets():
        drop = {
            ends[0]
            for ends in (p.minimal_elements(), p.maximal_elements())
            if len(ends) == 1
        }
        want = subposet_pairwise(p, [x for x in p.elements if x not in drop])
        got = p.proper_part()
        assert (got.elements, got.covers) == (want.elements, want.covers)


def test_index_entry_checked_like_label_front():
    """Every builder and derived poset equals its rebuild from labels, its
    covers hold the element objects, and the index entry raises the label
    constructor's cycle and implied-cover errors."""
    posets = structure_posets()
    posets.append(face_poset([("a", "b", "c"), ("b", "c", "d"), ("x", "a", "d")]))
    posets += [p.proper_part() for p in posets]
    posets += [p.subposet(p.elements[::2]) for p in posets]
    for p in posets:
        q = type(p)(p.elements, p.covers)
        assert (q._up, q._topo, q._minimal, q.covers) == (p._up, p._topo, p._minimal, p.covers)
        if isinstance(p, GradedBoundedPoset):
            assert q._rank == p._rank
        assert all(p.elements[p.index(x)] is x for pair in p.covers for x in pair)
    rng = random.Random(29)
    outcomes = {}
    for _ in range(2000):
        elements, covers = random_cover_list(rng)
        error, _ = cover_check_pairwise(elements, covers)
        if error is not None and not ("cycle" in error[1] or "implied" in error[1]):
            continue
        index = {x: i for i, x in enumerate(elements)}
        pairs = list(dict.fromkeys((index[x], index[y]) for x, y in covers))
        for cls in (Poset, GradedBoundedPoset):
            try:
                want = cls(elements, covers)
            except DomainError as exc:
                with pytest.raises(type(exc)) as got:
                    cls._from_pairs(elements, pairs)
                assert str(got.value) == str(exc)
                key = str(exc).split()[-1]
            else:
                got = cls._from_pairs(elements, pairs)
                assert (got._up, got._topo, got.covers) == (want._up, want._topo, want.covers)
                key = cls.__name__
            outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes.get("cycle", 0) > 50 and outcomes.get("transitivity", 0) > 50, outcomes


def shuffled_graded_poset(rng, rank):
    """random_graded_poset relabelled by ints and strs, "^0", "^1" and
    "^1'" among them, with its elements and its covers each listed in
    random order, so that Kahn's order is not the index order."""
    p = random_graded_poset(rng, rank)
    pool = ["^0", "^1", "^1'"] + list(range(len(p))) + ["v%d" % k for k in range(len(p))]
    name = dict(zip(p.elements, rng.sample(pool, len(p))))
    elements = list(name.values())
    rng.shuffle(elements)
    covers = [(name[x], name[y]) for x, y in p.covers]
    rng.shuffle(covers)
    return GradedBoundedPoset(elements, covers)


DERIVED_FIELDS = ("_up", "_topo", "_minimal", "_succ", "covers", "_rank", "_bottom")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2 ** 32))
@example(0, 0)
def test_derived_posets_match_label_rebuild(rank, seed):
    """adjoin_max, and the rank selections of it and of its input by
    every T, equal their rebuilds from labels field by field; each
    selection's stored proper part equals the pairwise subposet in
    elements and cover order, and every chain polynomial equals the
    pairwise count.  Rank 0 is the one-element poset."""
    p = shuffled_graded_poset(random.Random(seed), rank)
    hat = adjoin_max(p)
    selections = [
        rank_selected(q, t)
        for q in (p, hat)
        for k in range(q.rank)
        for t in combinations(range(1, q.rank), k)
    ]
    for d in [hat] + selections:
        q = type(d)(d.elements, d.covers)
        for field in DERIVED_FIELDS:
            assert getattr(d, field) == getattr(q, field), field
    for d in [p, hat] + selections:
        assert chain_polynomial(d) == chain_polynomial_pairwise(d)
    for d in selections:
        inner = d.proper_part()
        want = subposet_pairwise(d, d.elements[1:-1])
        assert (inner.elements, inner.covers) == (want.elements, want.covers)
        assert chain_polynomial(inner) == chain_polynomial_pairwise(inner)


def test_derived_posets_build_no_label_index():
    b3 = boolean_lattice(3)
    hat = adjoin_max(b3)
    for p in (b3, hat, hat.proper_part(), rank_selected(hat, {1, 3}), b3.subposet(b3.elements[1:])):
        assert p.maximal_elements()
        assert "_index" not in vars(p) and "covers" not in vars(p)


def test_rank_sets_reject_bools():
    # True == 1, but it is no rank
    hat = adjoin_max(boolean_lattice(3))
    with pytest.raises(DomainError, match="selected ranks must lie in 1..3"):
        rank_selected(hat, {True})
    with pytest.raises(DomainError, match="selected ranks must lie in 1..3"):
        rank_selected_h(hat, {True, 2})
    # checked before sorting, so a set no order can sort fails the same way
    with pytest.raises(DomainError, match="selected ranks must lie in 1..3"):
        rank_selected(hat, {1, "a"})
    with pytest.raises(DomainError, match="selected ranks must lie in 1..3"):
        rank_selected_h(hat, {1, None})
    # each entry is checked, not the set it dedupes to: {1, True} == {1}
    with pytest.raises(DomainError, match="selected ranks must lie in 1..3"):
        rank_selected(hat, [1, True])
    with pytest.raises(DomainError, match="selected ranks must lie in 1..3"):
        rank_selected_h(hat, [2, 2.0])
    fv = flag_vectors(hat)
    with pytest.raises(KeyError):
        fv.alpha({True, 2})
    with pytest.raises(KeyError):
        fv.beta({1.0})
    with pytest.raises(KeyError):
        fv.alpha([1, True])
    with pytest.raises(KeyError):
        fv.beta([3, 3.0])
    assert fv.alpha({1, 2}) == 6
    assert fv.alpha([1, 1, 2]) == 6
    assert rank_selected(hat, [2, 2]).selected_ranks == (2,)


def test_cycle_rejected():
    with pytest.raises(DomainError):
        Poset([1, 2], [(1, 2), (2, 1)])


def test_duplicate_elements_rejected():
    with pytest.raises(DomainError):
        Poset([1, 1, 2], [(1, 2)])


def test_subposet_accepts_generator():
    p = Poset([1, 2, 3], [(1, 2), (2, 3)])
    assert len(p.subposet(x for x in p.elements)) == 3


def test_chain_polynomial_small():
    antichain = Poset([1, 2, 3], [])
    assert chain_polynomial(antichain) == Poly([1, 3])
    chain3 = Poset([1, 2, 3], [(1, 2), (2, 3)])
    assert chain_polynomial(chain3) == Poly([1, 3, 3, 1])
    assert chain_polynomial(Poset([], [])) == Poly([1])


def test_chain_polynomial_matches_bruteforce():
    rng = random.Random(11)
    for size in range(8):
        for _ in range(6):
            p = random_poset(rng, size)
            assert chain_polynomial(p) == brute_chain_polynomial(p)


def test_chain_polynomial_slot_width():
    # a slot holds the bits of C(n, min(H, n // 2)) for a longest chain of
    # size H; the n-element chain sits exactly on that bound, its largest
    # coefficient C(n, n // 2) filling its slot
    for n in (1, 2, 31, 63, 64, 100):
        chain = Poset(range(n), [(i, i + 1) for i in range(n - 1)])
        f = chain_polynomial(chain)
        assert f.coeffs == tuple(math.comb(n, k) for k in range(n + 1))
        assert sum(f.coeffs) == 2 ** n
    for n in (1, 5, 64):
        assert chain_polynomial(Poset(range(n), [])) == Poly([1, n])


def antichain_sum(sizes):
    """Ordinal sum of antichains: every element of a level lies below
    every element of the next."""
    levels = [[(k, i) for i in range(a)] for k, a in enumerate(sizes)]
    covers = [(x, y) for lower, upper in zip(levels, levels[1:]) for x in lower for y in upper]
    return Poset([x for level in levels for x in level], covers)


def test_chain_polynomial_matches_pairwise_oracle():
    """The packed count equals the plain-int pairwise count on random
    graded posets and on wide, short ordinal sums of antichains, whose
    chain polynomial is the product of (1 + a x) over the level sizes a,
    powers of two among the sizes and products included."""
    rng = random.Random(16)
    posets = [random_graded_poset(rng, rank) for rank in (2, 3, 4) for _ in range(20)]
    for p in posets:
        assert chain_polynomial(p) == chain_polynomial_pairwise(p)
    wide = [(1,), (200,), (2, 128), (64, 64), (128, 2, 1), (16, 32, 8, 4), (1, 200, 1)]
    wide += [[rng.randint(1, 200) for _ in range(rng.randint(1, 3))] for _ in range(8)]
    for sizes in wide:
        p = antichain_sum(sizes)
        f = chain_polynomial(p)
        assert f == math.prod((Poly([1, a]) for a in sizes), start=Poly([1])), sizes
        assert f == chain_polynomial_pairwise(p), sizes


def test_order_h_polynomial():
    antichain = Poset([1, 2], [])
    f = chain_polynomial(antichain)
    assert order_h_polynomial(antichain) == h_from_f(f, 1)
    assert order_h_polynomial(antichain) == Poly([1, 1])


def test_graded_bounded_validation():
    # diamond: graded with rank 2
    d = GradedBoundedPoset(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert d.rank == 2
    assert d.rank_of("a") == 1
    assert d.levels[0] == ("0",)
    # missing bottom
    with pytest.raises(GradedStructureError):
        GradedBoundedPoset([1, 2], [])
    # not graded: maximal chains of lengths 3 and 2
    with pytest.raises(GradedStructureError):
        GradedBoundedPoset(
            [0, "a", "b", "c", 1],
            [(0, "a"), ("a", "b"), ("b", 1), (0, "c"), ("c", 1)],
        )


def test_proper_part():
    b2 = boolean_lattice(2)
    prop = b2.proper_part()
    assert len(prop.elements) == 2
    assert chain_polynomial(prop) == Poly([1, 2])


def test_adjoin_max():
    b2 = boolean_lattice(2)
    hat = adjoin_max(b2)
    assert hat.rank == b2.rank + 1
    assert len(hat.elements) == len(b2.elements) + 1
    (top,) = hat.levels[-1]
    assert all(hat.less(e, top) for e in b2.elements)
    # works when several maximal elements exist
    v = GradedBoundedPoset([0, 1, 2], [(0, 1), (0, 2)])
    vhat = adjoin_max(v)
    assert vhat.rank == 2
    assert chain_polynomial(vhat).coeffs == (1, 4, 5, 2)


def test_rank_selection_boolean():
    b3 = boolean_lattice(3)
    sel = rank_selected(b3, {1, 2})
    f = chain_polynomial(sel.proper_part())
    assert h_from_f(f, 2) == Poly([1, 4, 1])
    assert rank_selected_h(b3, {1, 2}) == Poly([1, 4, 1])
    assert rank_selected_h(b3, set()) == Poly([1])
    assert rank_selected_h(b3, {1}) == Poly([1, 2])


def test_rank_selection_validates_range():
    b3 = boolean_lattice(3)
    with pytest.raises(DomainError):
        rank_selected(b3, {3})
    with pytest.raises(DomainError):
        rank_selected(b3, {0})
    with pytest.raises(DomainError):
        rank_selected_h(b3, {7})


def test_flag_vectors_boolean_3():
    fv = flag_vectors(boolean_lattice(3))
    assert isinstance(fv, FlagVectors)
    assert fv.alpha(()) == 1
    assert fv.alpha({1}) == 3
    assert fv.alpha({2}) == 3
    assert fv.alpha({1, 2}) == 6
    assert fv.beta(()) == 1
    assert fv.beta({1}) == 2
    assert fv.beta({2}) == 2
    assert fv.beta({1, 2}) == 1


@pytest.mark.parametrize("rank", range(6))
def test_flag_subsets_order(rank):
    # by size, then lexicographically, the empty set alone at rank 0
    fv = flag_vectors(boolean_lattice(rank))
    every = [frozenset(c) for k in range(rank) for c in combinations(range(1, rank), k)]
    assert list(fv.subsets()) == sorted(every or [frozenset()], key=lambda t: (len(t), sorted(t)))


def test_flag_beta_inclusion_exclusion():
    fv = flag_vectors(boolean_lattice(4))
    for t in fv.subsets():
        total = sum(fv.beta(s) for s in fv.subsets() if s <= t)
        assert total == fv.alpha(t)


def test_rank_selected_h_equals_beta_sum():
    b4 = boolean_lattice(4)
    fv = flag_vectors(b4)
    for t in fv.subsets():
        h = rank_selected_h(b4, t)
        expect = [0] * (len(t) + 1)
        for s in fv.subsets():
            if s <= t:
                expect[len(s)] += fv.beta(s)
        assert h == Poly(expect)
        sel = rank_selected(b4, t)
        assert h == h_from_f(chain_polynomial(sel.proper_part()), len(t))


def graded_chain(rank):
    return GradedBoundedPoset(range(rank + 1), [(i, i + 1) for i in range(rank)])


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.builds(
            lambda rank, seed: random_graded_poset(random.Random(seed), rank),
            st.integers(0, 7),
            st.integers(0, 2 ** 32),
        ),
        st.builds(graded_chain, st.integers(0, 10)),
    ),
    st.booleans(),
)
@example(graded_chain(0), False)
@example(graded_chain(1), True)
@example(graded_chain(14), False)
@example(adjoin_max(boolean_lattice(5)), False)
def test_flags_and_rank_selection_match_pairwise_oracles(poset, top):
    """flag_vectors and rank_selected_h, every T, against chains counted
    by rank set with ``less`` on every pair, beta by inclusion-exclusion
    over the subsets of each T; up to 8 proper ranks, h also against the
    pairwise chain polynomial of the proper part of the rank selection.
    Ranks 0 and 1 have no proper rank: one empty slot; the 14-rank chain
    packs 2^13 slots."""
    if top:
        poset = adjoin_max(poset)
    n = max(poset.rank - 1, 0)
    alpha = flag_alpha_pairwise(poset)
    fv = flag_vectors(poset)
    assert fv.n == poset.rank - 1
    for mask in range(1 << n):
        t = [r + 1 for r in range(n) if mask >> r & 1]
        assert fv.alpha(t) == alpha[mask], t
        beta, f = 0, [0] * (len(t) + 1)
        sub = mask
        while True:  # every subset S of T, as a submask
            size = bin(sub).count("1")
            beta += (-1) ** (len(t) - size) * alpha[sub]
            f[size] += alpha[sub]
            if not sub:
                break
            sub = (sub - 1) & mask
        assert fv.beta(t) == beta, t
        h = rank_selected_h(poset, t)
        assert h == h_from_f(Poly(f), len(t)), t
        if n <= 8:
            sel = rank_selected(poset, t).proper_part()
            assert h == h_from_f(chain_polynomial_pairwise(sel), len(t)), t


def by_chain_sum(fn, *args):
    """fn with no rank reported Boolean, so it takes the chain sum: the
    oracle of the level route."""
    with mock.patch.object(posets, "_boolean_rank", lambda poset: 0):
        return fn(*args)


def random_face_poset(seed, dim, extra):
    return face_poset(random_complex(random.Random(seed), dim + 1 + extra, dim))


BOUNDARY = boundary_cases()


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.builds(random_face_poset, st.integers(0, 2 ** 32), st.integers(0, 3),
                  st.integers(0, 3)),
        st.builds(boolean_lattice, st.integers(0, 6)),
        st.builds(colored_subset_poset, st.integers(0, 3), st.integers(1, 3)),
        st.sampled_from(sorted(BOUNDARY)).map(BOUNDARY.get),
    ),
    st.booleans(),
)
@example(BOUNDARY["double"], False)
@example(BOUNDARY["double"], True)
@example(BOUNDARY["shared"], False)
@example(BOUNDARY["shared"], True)
@example(BOUNDARY["pillow"], False)
@example(BOUNDARY["pillow"], True)
@example(boolean_lattice(6), True)
@example(face_poset([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]), True)
def test_level_route_matches_chain_sum(poset, top):
    """Chain polynomials, whole alpha and beta tables and rank_selected_h
    for every T equal the chain sum's, on simplicial posets and on the
    shared and pillow posets, Boolean below their non-Boolean top, each
    with and without a top adjoined; adjoin_max hands over the verdict
    the pairwise oracle finds.  The tetrahedron boundary's adjoined top
    is Boolean: it checks its own top."""
    if top:
        poset = adjoin_max(poset)
    assert _boolean_rank(poset) == boolean_rank_pairwise(poset)
    assert chain_polynomial(poset) == by_chain_sum(chain_polynomial, poset)
    fv = flag_vectors(poset)
    assert fv == by_chain_sum(flag_vectors, poset)
    for t in fv.subsets():
        assert rank_selected_h(poset, t) == by_chain_sum(rank_selected_h, poset, t), t


def counting(monkeypatch, name):
    """Replace posets.<name> by a wrapper counting its calls."""
    calls = []
    real = getattr(posets, name)

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(posets, name, spy)
    return calls


def test_level_route_taken_where_intervals_are_boolean(monkeypatch):
    """Simplicial posets, with or without a top, and posets Boolean below
    a unique top run no chain sum; noncrossing lattices, Boolean only up
    to rank 1, and a top adjoined to a non-simplicial poset do."""
    sums = counting(monkeypatch, "_chain_sum")
    simplicial = [boolean_lattice(4), colored_subset_poset(3, 2), BOUNDARY["double"],
                  face_poset([(1, 2, 3), (2, 3, 4), (4, 5, 6)])]
    for p in simplicial + [adjoin_max(p) for p in simplicial]:
        chain_polynomial(p)
        fv = flag_vectors(p)
        for t in fv.subsets():
            rank_selected_h(p, t)
    for p in BOUNDARY["shared"], BOUNDARY["pillow"]:
        assert not is_simplicial(p)
        chain_polynomial(p)
        flag_vectors(p)
    assert sums == []
    for family, k in ("A", 3), ("A", 4), ("A", 5), ("B", 3):
        lattice = noncrossing_lattice(build_reflection_group(CoxeterType(family, k)))
        assert _boolean_rank(lattice) == 2 < lattice.rank
        assert chain_polynomial(lattice) == chain_polynomial_pairwise(lattice)
        assert flag_vectors(lattice)._alpha == flag_alpha_pairwise(lattice)
        assert sums.count(lattice) == 2
    for p in BOUNDARY["shared"], BOUNDARY["pillow"]:
        hat = adjoin_max(p)
        assert chain_polynomial(hat) == chain_polynomial_pairwise(hat)
        assert flag_vectors(hat)._alpha == flag_alpha_pairwise(hat)
        assert sums.count(hat) == 2


@pytest.mark.parametrize("adjoin_first", [False, True])
def test_one_boolean_pass_per_poset(monkeypatch, adjoin_first):
    """A poset's chain polynomial, the flags and three rank selections of
    it with a top adjoined, and the simplicial test make one pass in all,
    whichever of the poset and its extension is built first."""
    passes = counting(monkeypatch, "_boolean_intervals")
    inputs = [boolean_lattice(5), colored_subset_poset(3, 2),
              face_poset([(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5)])]
    for p in inputs:
        hat = adjoin_max(p) if adjoin_first else None
        chain_polynomial(p)
        if hat is None:
            hat = adjoin_max(p)
        flag_vectors(hat)
        for t in [1], [1, 2], [2, 3]:
            rank_selected_h(hat, t)
        assert is_simplicial(p)
    assert passes == inputs


def test_verdict_store_frees_dropped_posets():
    """2 000 posets built, counted and dropped leave no verdict behind."""
    gc.collect()
    before = len(posets._VERDICTS)
    refs = []
    for k in range(2000):
        p = face_poset([(k, k + 1, k + 2), (k + 1, k + 2, k + 3)])
        chain_polynomial(p)
        flag_vectors(adjoin_max(p))
        refs.append(weakref.ref(p))
    del p
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(posets._VERDICTS) <= before


@given(st.integers(0, 12), st.integers(0, 2 ** 32), st.integers(1, 200))
@settings(max_examples=60, deadline=None)
@example(0, 0, 1)
@example(12, 1, 200)
def test_moebius_slices_match_the_entrywise_oracle(k, seed, bits):
    """Slices, strided and then contiguous, against one entry and one bit
    at a time, on tables of 2^0 to 2^12 signed entries."""
    rng = random.Random(seed)
    table = [rng.randint(-(1 << bits), 1 << bits) for _ in range(1 << k)]
    assert _moebius(list(table)) == moebius_oracle(list(table))


def test_load_poset_roundtrip(tmp_path):
    data = {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(data))
    p = load_poset(str(path))
    assert chain_polynomial(p) == Poly([1, 3, 2])


def test_load_poset_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"elements": ["a"], "covers": [["a", "b"]]}')
    with pytest.raises(PosetFileError):
        load_poset(str(bad))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"elements": ["a"],\n  "covers": [[}')
    with pytest.raises(PosetFileError) as exc:
        load_poset(str(malformed))
    assert exc.value.line is not None
    with pytest.raises(PosetFileError):
        load_poset(str(tmp_path / "missing.json"))
    huge_rank = tmp_path / "huge_rank.json"
    huge_rank.write_text('{"elements": ["e"], "covers": [], "ranks": {"e": 1e400}}')
    with pytest.raises(PosetFileError):
        load_poset(str(huge_rank))
    # strings are not ranks either, although int() reads "0" and "1_0"
    for ranks in ('{"e": 0, "a": 1.9}', '{"e": 0.4, "a": 1.9}', '{"e": "0", "a": 1}'):
        bad_rank = tmp_path / "bad_rank.json"
        bad_rank.write_text(
            '{"elements": ["e", "a"], "covers": [["e", "a"]], "ranks": %s}' % ranks
        )
        with pytest.raises(PosetFileError):
            load_poset(str(bad_rank))
    # JSON booleans are not ranks, although int() reads them as 0 and 1
    boolean = tmp_path / "boolean_rank.json"
    boolean.write_text(
        '{"elements": ["e", "a"], "covers": [["e", "a"]], "ranks": {"e": false, "a": true}}'
    )
    with pytest.raises(PosetFileError):
        load_poset(str(boolean))
