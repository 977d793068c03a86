"""Short tests of the benchmark's own expected values and checks.

    python3 -m pytest -q bench/test_checks.py

They compare each closed form with a brute-force count small enough to
run in a moment, and make sure a wrong answer is reported as a problem.
None of them imports chainpoly.
"""

import os
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as K  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402


def subsets(universe):
    items = sorted(universe)
    for k in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, k))


def descents(w):
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def test_descent_class_size_is_the_multinomial():
    for n in range(1, 7):
        perms = list(permutations(range(n)))
        for t in subsets(range(1, n)):
            assert K.descent_class_size(n, t) == sum(1 for w in perms if descents(w) <= t)


def test_colored_class_size():
    for n in range(1, 5):
        for r in (1, 2, 3):
            for t in subsets(range(1, n + 1)):
                count = 0
                for w in permutations(range(1, n + 1)):
                    for colors in product(range(r), repeat=n):
                        letters = list(zip(colors, w)) + [(0, n + 1)]
                        des = {i + 1 for i in range(n) if letters[i] > letters[i + 1]}
                        count += des <= t
                assert K.colored_class_size(n, r, t) == count, (n, r, sorted(t))


def test_word_descents_by_brute_force():
    for n in range(1, 5):
        for r in range(1, 5):
            want = [0] * n
            for w in product(range(r), repeat=n):
                want[sum(w[i] >= w[i + 1] for i in range(n - 1))] += 1
            assert K.word_descents(n, r) == K.trim(want)
            assert sum(K.word_descents(n, r)) == r ** n


def test_coxeter_closed_forms():
    assert list(K.nc_h("A", 2)) == [1, 2]
    assert K.catalan("A", 3) == 14 and K.catalan("B", 3) == 20 and K.catalan("D", 4) == 50
    assert K.catalan("E8", None) == 25080
    assert K.maximal_chains("E8", None) == 37968750
    assert K.group_order("B", 3) == 48 and K.group_order("D", 4) == 192
    for fam, ks in (("A", range(1, 9)), ("B", range(2, 9)), ("D", range(3, 9))):
        for k in ks:
            assert sum(K.nc_h(fam, k)) == K.maximal_chains(fam, k)
            assert K.nc_chain(fam, k)[1] == K.catalan(fam, k)
    for k in range(1, 9):
        assert sum(K.nc_h("A", k)) == (k + 1) ** (k - 1)
        assert sum(K.nc_h("B", k)) == k ** k
    for k in range(3, 9):
        assert sum(K.nc_h("D", k)) == 2 * (k - 1) ** k


def test_transforms_are_inverse():
    f = [1, 7, 12, 6]
    assert K.f_from_h(K.h_from_f(f, 3), 3) == f


def test_chain_counts_by_subsets():
    sets = inputs.face_sets([(1, 2, 3), (2, 3, 4)])
    want = [0] * (len(sets) + 1)
    for k in range(len(sets) + 1):
        for sub in combinations(sets, k):
            if all(a < b or b < a for a, b in combinations(sub, 2)):
                want[k] += 1
    assert K.chain_counts(sets) == K.trim(want)


def test_boolean_betas_are_descent_classes():
    for n in range(1, 6):
        betas = K.simplicial_betas([1], n)
        counts = K.descent_classes(n)
        for mask in range(1 << (n - 1)):
            assert betas[mask] == counts.get(mask, 0)
        # rank selection of the Boolean lattice is the descent enumerator
        for t in subsets(range(1, n)):
            assert sum(K.selected_h(counts, K.mask_of(t))) == K.descent_class_size(n, t)


def test_interlacing_by_construction():
    assert K.interlaces_by_construction([-2], [-1, -3])
    assert K.interlaces_by_construction([-1], [-1, -3])
    assert not K.interlaces_by_construction([-4], [-1, -3])
    rng = random.Random(0)
    for i in range(60):
        variant = ("plain", "shared", "broken")[i % 3]
        _, (p, q), e = inputs._pair_job(rng, 3 + i % 3, i % 2, variant)
        assert e["interlaces"] == (variant != "broken")


def test_root_jobs_match_their_roots():
    rng = random.Random(1)
    for quadratic in (False, True):
        _, (coeffs,), e = inputs._root_job(rng, 10, True, quadratic)
        assert len(coeffs) - 1 == e["degree"]
        assert e["holds"] == (not quadratic)
    roots = inputs._rational_roots(rng, 5, negative=True)
    p = K.from_roots(roots)
    for u, v in roots:
        assert sum(c * Fraction(u, v) ** i for i, c in enumerate(p)) == 0


def test_certify_inputs_do_not_repeat():
    job_list = inputs.certify_jobs(random.Random(3))
    keys = [repr(job[:2]) for job in job_list]
    assert len(keys) == len(set(keys))


def test_checks_report_wrong_answers():
    rr = SimpleNamespace(holds=True, distinct_real_roots=3, squarefree_degree=3)
    right = SimpleNamespace(coeffs=(1, 4, 1))
    assert jobs.check_ant((3, {1, 2}), {"size": 6, "degree": 2}, (right, rr)) == []
    wrong = SimpleNamespace(coeffs=(1, 4, 2))
    assert jobs.check_ant((3, {1, 2}), {"size": 6, "degree": 2}, (wrong, rr))
    report = {"exit": 0, "coefficients": [1, 4, 1], "real-rooted": True}
    assert jobs.check_report("ant", {"exit": 0, "size": 6}, report) == []
    assert jobs.check_report("ant", {"exit": 0, "size": 7}, report)
    assert jobs.check_report("error", {"exit": 3}, {"exit": 1, "error": "x"})
