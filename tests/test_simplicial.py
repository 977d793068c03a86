import gc
import os
import random
import subprocess
import sys
import weakref
from itertools import combinations

import pytest

from chainpoly import (
    DomainError,
    GradedBoundedPoset,
    GradedStructureError,
    Poly,
    adjoin_max,
    boolean_lattice,
    chain_polynomial,
    colored_subset_poset,
    face_poset,
    flag_vectors,
    h_from_f,
    is_simplicial,
    rank_selected,
    simplicial_h,
    stanley_flag_beta,
)
from oracles import (
    colored_subset_poset_pairwise,
    face_poset_pairwise,
    is_simplicial_pairwise,
    rank_selected_pairwise,
    subposet_pairwise,
)


def random_complex(rng, nverts, dim):
    verts = range(1, nverts + 1)
    pool = list(combinations(verts, dim + 1))
    facets = rng.sample(pool, k=min(len(pool), rng.randint(1, 4)))
    return facets


def random_graded_poset(rng, rank):
    """Levels of 1-4 elements; each element covers a random nonempty set
    of the level below, most often as many elements as its rank, as a
    simplicial poset would, and every non-top element is covered."""
    levels = [[(0, 0)]] + [
        [(k, i) for i in range(rng.randint(1, 4))] for k in range(1, rank + 1)
    ]
    covers = set()
    for k in range(1, rank + 1):
        lower = levels[k - 1]
        for y in levels[k]:
            size = min(k, len(lower))
            if rng.random() < 0.3:
                size = rng.randint(1, len(lower))
            covers.update((x, y) for x in rng.sample(lower, size))
        for x in lower:
            if not any((x, y) in covers for y in levels[k]):
                covers.add((x, rng.choice(levels[k])))
    elements = [x for level in levels for x in level]
    return GradedBoundedPoset(elements, sorted(covers))


def test_ranks_read_off_covers():
    """Every element (k, i) of a random graded poset has rank k, and a
    cover skipping a level, implied by no other, breaks the grading."""
    rng = random.Random(11)
    skips = 0
    for _ in range(300):
        rank = rng.randint(0, 5)
        p = random_graded_poset(rng, rank)
        assert p.bottom == (0, 0) and p.rank == rank
        assert all(p.rank_of(x) == x[0] for x in p.elements)
        assert [list(level) for level in p.levels] == [
            [x for x in p.elements if x[0] == k] for k in range(rank + 1)
        ]
        pairs = [
            (x, z)
            for x in p.elements
            for z in p.elements
            if z[0] == x[0] + 2 and not p.less(x, z)
        ]
        if pairs:
            skips += 1
            with pytest.raises(GradedStructureError, match="covers disagree"):
                GradedBoundedPoset(p.elements, p.covers + (rng.choice(pairs),))
    assert skips > 10


def test_boolean_lattice_shape():
    b3 = boolean_lattice(3)
    assert b3.rank == 3
    assert len(b3.elements) == 8
    assert [len(level) for level in b3.levels] == [1, 3, 3, 1]
    assert chain_polynomial(b3).coeffs[1] == 8


def test_face_poset_triangle():
    p = face_poset([(1, 2), (1, 3), (2, 3)])
    # empty face, three vertices, three edges
    assert len(p.elements) == 7
    assert p.rank == 2
    assert [len(level) for level in p.levels] == [1, 3, 3]
    assert is_simplicial(p)


def test_face_poset_requires_pure_complex():
    with pytest.raises(DomainError):
        face_poset([(1, 2), (3,)])


def test_is_simplicial():
    assert is_simplicial(boolean_lattice(4))
    assert is_simplicial(colored_subset_poset(3, 2))
    # one atom below two tops: interval [0, t] is a 3-chain, not boolean
    from chainpoly import GradedBoundedPoset

    bad = GradedBoundedPoset([0, "a", "t1", "t2"], [(0, "a"), ("a", "t1"), ("a", "t2")])
    assert not is_simplicial(bad)
    # two parallel edges on the same vertex pair: simplicial but not a lattice
    double = GradedBoundedPoset(
        [0, "v1", "v2", "e1", "e2"],
        [(0, "v1"), (0, "v2"), ("v1", "e1"), ("v2", "e1"), ("v1", "e2"), ("v2", "e2")],
    )
    assert is_simplicial(double)


def boundary_cases():
    """The shared, double and pillow posets, by name."""
    # y passes both counts, 8 elements and 3 atoms below it, and covers 3
    # elements, but two of them share the atom set {a, b}: [0, y] is not
    # Boolean
    shared = GradedBoundedPoset(
        [0, "a", "b", "c", "ab1", "ab2", "ac", "y"],
        [(0, "a"), (0, "b"), (0, "c"), ("a", "ab1"), ("b", "ab1"), ("a", "ab2"),
         ("b", "ab2"), ("a", "ac"), ("c", "ac"), ("ab1", "y"), ("ab2", "y"), ("ac", "y")],
    )
    # two edges on the same two vertices: simplicial, though not a complex
    double = GradedBoundedPoset(
        [0, "v1", "v2", "e1", "e2"],
        [(0, "v1"), (0, "v2"), ("v1", "e1"), ("v2", "e1"), ("v1", "e2"), ("v2", "e2")],
    )
    # z's four covers carry the four 3-subsets of its atoms, each
    # triangle Boolean, but the edges ab1 and ab2 share the atom set
    # {a, b}: 17 elements lie below z, not 16
    triangles = {"abc": ("ab1", "ac", "bc"), "abd": ("ab2", "ad", "bd"),
                 "acd": ("ac", "ad", "cd"), "bcd": ("bc", "bd", "cd")}
    edges = {e: (e[0], e[1]) for e in ["ab1", "ab2", "ac", "ad", "bc", "bd", "cd"]}
    covers = [(0, v) for v in "abcd"]
    covers += [(v, e) for e, ends in edges.items() for v in ends]
    covers += [(e, t) for t, sides in triangles.items() for e in sides]
    covers += [(t, "z") for t in triangles]
    pillow = GradedBoundedPoset(
        [0, *"abcd", *edges, *triangles, "z"], covers
    )
    return {"shared": shared, "double": double, "pillow": pillow}


def test_is_simplicial_boundary_cases():
    cases = boundary_cases()
    for name, verdict in [("shared", False), ("double", True), ("pillow", False)]:
        assert is_simplicial(cases[name]) is verdict
        assert is_simplicial_pairwise(cases[name]) is verdict


def test_is_simplicial_matches_pairwise_oracle():
    rng = random.Random(3)
    posets = [random_graded_poset(rng, rng.randint(0, 4)) for _ in range(1500)]
    posets += [boolean_lattice(n) for n in range(5)]
    posets += [colored_subset_poset(n, r) for n, r in [(2, 2), (3, 2), (2, 3)]]
    posets += [face_poset(random_complex(rng, 5, rng.randint(1, 2))) for _ in range(20)]
    verdicts = [is_simplicial(p) for p in posets]
    assert verdicts == [is_simplicial_pairwise(p) for p in posets]
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_subposet_matches_pairwise_oracle():
    rng = random.Random(5)
    posets = [random_graded_poset(rng, rng.randint(0, 5)) for _ in range(600)]
    posets += [boolean_lattice(4), colored_subset_poset(3, 2)]
    for p in posets:
        for keep in (p.elements, [x for x in p.elements if rng.random() < 0.6]):
            sub, oracle = p.subposet(keep), subposet_pairwise(p, keep)
            assert (sub.elements, sub.covers) == (oracle.elements, oracle.covers)


def _shape(p):
    return p.elements, p.covers, [p.rank_of(x) for x in p.elements]


def test_face_poset_matches_pairwise_oracle():
    rng = random.Random(13)
    dims = [rng.randint(0, 3) for _ in range(150)]
    complexes = [random_complex(rng, rng.randint(d + 2, 7), d) for d in dims]
    complexes += [[("a", "b", "c"), ("b", "c", "d"), ("c", "d", "e"), ("x", "a", "d")]]
    for facets in complexes:
        p = face_poset(facets)
        assert _shape(p) == _shape(face_poset_pairwise(facets))
        # covers hold the element objects themselves, not equal copies
        assert all(p.elements[p.index(y)] is y for _, y in p.covers)


def test_subset_posets_match_pairwise_oracle():
    for n in range(5):
        for r in range(1, 5 - n // 2):
            p, oracle = colored_subset_poset(n, r), colored_subset_poset_pairwise(n, r)
            assert _shape(p) == _shape(oracle)
        # the Boolean lattice is the one-color case, with plain points
        b, oracle = boolean_lattice(n), colored_subset_poset_pairwise(n, 1)
        assert list(b.elements) == [frozenset(p for p, _ in x) for x in oracle.elements]
        assert b._pairs == oracle._pairs


def test_face_poset_covers_ignore_hash_seed():
    # string vertices hash differently under each seed; the covers follow
    # the element order all the same
    script = (
        "from chainpoly import face_poset\n"
        "facets = [('a', 'b', 'c'), ('b', 'c', 'd'), ('c', 'd', 'e'), ('x', 'a', 'd')]\n"
        "print([(sorted(x), sorted(y)) for x, y in face_poset(facets).covers])\n"
    )
    # the child finds this checkout's package whatever PYTHONPATH held
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0].startswith("[([], ['a']), ([], ['b'])") and outs[0] == outs[1]


def test_rank_selected_matches_pairwise_oracle():
    rng = random.Random(17)
    posets = [random_graded_poset(rng, rng.randint(1, 5)) for _ in range(200)]
    posets += [face_poset(random_complex(rng, 6, rng.randint(1, 3))) for _ in range(40)]
    posets += [boolean_lattice(n) for n in range(1, 6)]
    posets += [colored_subset_poset(n, r) for n, r in [(2, 2), (3, 2), (2, 3), (3, 3)]]
    for p in posets:
        for q in (p, adjoin_max(p)):
            ranks = range(1, q.rank)
            choices = [(), tuple(ranks)] + [
                [r for r in ranks if rng.random() < 0.5] for _ in range(3)
            ]
            for t in choices:
                sel, oracle = rank_selected(q, t), rank_selected_pairwise(q, t)
                assert _shape(sel) == _shape(oracle)
                assert sel.selected_ranks == oracle.selected_ranks


def test_is_simplicial_memo_frees_the_poset():
    p = colored_subset_poset(2, 2)
    assert is_simplicial(p)
    assert is_simplicial(p)
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_simplicial_h_values():
    for n in range(1, 6):
        assert simplicial_h(boolean_lattice(n)) == Poly([1])
    for n, r in [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        expect = Poly([1, r - 1]) ** n
        assert simplicial_h(colored_subset_poset(n, r)) == expect


def test_simplicial_h_rejects_non_simplicial_posets():
    # NC(A3) has five elements below each rank-2 element of type A2: its
    # level counts give no h-vector (they read 1, 3, -3)
    from chainpoly import CoxeterType, build_reflection_group, noncrossing_lattice

    nc = noncrossing_lattice(build_reflection_group(CoxeterType("A", 3)))
    cases = boundary_cases()
    for poset in nc, cases["shared"], cases["pillow"]:
        with pytest.raises(DomainError, match="poset is not simplicial"):
            simplicial_h(poset)
    assert simplicial_h(cases["double"]) == Poly([1, 0, 1])


def test_colored_subset_poset_levels():
    import math

    p = colored_subset_poset(3, 2)
    assert p.rank == 3
    assert [len(level) for level in p.levels] == [math.comb(3, k) * 2 ** k for k in range(4)]


def test_stanley_flag_beta_boolean():
    # B_n with a new maximum adjoined has the same flag data it started with,
    # shifted through the h-vector formula
    for n in range(1, 5):
        p = boolean_lattice(n)
        hat = adjoin_max(p)
        fv = flag_vectors(hat)
        for k in range(n + 1):
            for s in combinations(range(1, n + 1), k):
                assert stanley_flag_beta(p, frozenset(s)) == fv.beta(s), (n, s)


def test_stanley_flag_beta_colored():
    for n, r in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        p = colored_subset_poset(n, r)
        hat = adjoin_max(p)
        fv = flag_vectors(hat)
        for k in range(n + 1):
            for s in combinations(range(1, n + 1), k):
                assert stanley_flag_beta(p, frozenset(s)) == fv.beta(s), (n, r, s)


def test_stanley_flag_beta_random_complexes():
    rng = random.Random(7)
    for _ in range(12):
        dim = rng.randint(1, 2)
        facets = random_complex(rng, 5, dim)
        p = face_poset(facets)
        n = p.rank
        hat = adjoin_max(p)
        fv = flag_vectors(hat)
        for k in range(n + 1):
            for s in combinations(range(1, n + 1), k):
                assert stanley_flag_beta(p, frozenset(s)) == fv.beta(s), (facets, s)


def test_stanley_flag_beta_boolean_9():
    # past the reach of listing all 10! permutations
    p = boolean_lattice(9)
    fv = flag_vectors(adjoin_max(p))
    for s in [(), (1,), (5,), (2, 5), (1, 3, 8), (2, 4, 6, 8), tuple(range(1, 10))]:
        assert stanley_flag_beta(p, frozenset(s)) == fv.beta(s), s


def test_stanley_flag_beta_rejects_bools():
    # True == 1, but it is no rank
    with pytest.raises(DomainError, match="rank subset must lie in 1..3"):
        stanley_flag_beta(boolean_lattice(3), {True})
    # each entry is checked, not the set it dedupes to: {1, True} == {1}
    with pytest.raises(DomainError, match="rank subset must lie in 1..3"):
        stanley_flag_beta(boolean_lattice(3), [1, True])
    with pytest.raises(DomainError, match="rank subset must lie in 1..3"):
        stanley_flag_beta(boolean_lattice(3), [2, 2.0])
    assert stanley_flag_beta(boolean_lattice(3), [1, 1]) == 2


def test_order_complex_h_from_simplicial_h():
    # h of the full order complex mixes h_k with the first-letter rows
    from chainpoly import ZERO, first_letter_descent_polynomials

    for n, r in [(2, 2), (3, 2), (2, 3)]:
        p = colored_subset_poset(n, r)
        hat = adjoin_max(p)
        sel = rank_selected(hat, frozenset(range(1, n + 1)))
        f = chain_polynomial(sel.proper_part())
        h = simplicial_h(p)
        row = first_letter_descent_polynomials(n, frozenset(range(1, n + 1)))
        mixed = ZERO
        for k, c in enumerate(h.coeffs):
            mixed = mixed + row[k].scale(c)
        assert h_from_f(f, n) == mixed
