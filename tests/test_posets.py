import json
import random
from itertools import combinations

import pytest

from chainpoly import (
    DomainError,
    FlagVectors,
    GradedBoundedPoset,
    GradedStructureError,
    Poly,
    Poset,
    PosetFileError,
    adjoin_max,
    boolean_lattice,
    chain_polynomial,
    flag_vectors,
    h_from_f,
    load_poset,
    order_h_polynomial,
    rank_selected,
    rank_selected_h,
)


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
    for ranks in ('{"e": 0, "a": 1.9}', '{"e": 0.4, "a": 1.9}'):
        fractional = tmp_path / "fractional_rank.json"
        fractional.write_text(
            '{"elements": ["e", "a"], "covers": [["e", "a"]], "ranks": %s}' % ranks
        )
        with pytest.raises(PosetFileError):
            load_poset(str(fractional))
