"""Simplicial posets: builders, h-vectors and the descent-class route.

A graded bounded poset is simplicial when every lower interval [0-hat, y]
is a Boolean lattice; the check realizes the isomorphism explicitly
through atom sets, read off down-set bitmasks that one pass over the
covers in topological order builds, and its verdict lives as long as
the poset does.  Face posets find each face's covers by adding
one vertex at a time.  For such posets of rank n the h-vector comes from
the level counts, and the flag beta vector factors through descent
classes of permutations of n+1 letters: beta(S) equals the sum over k of
h_k times the number of w in S_(n+1) with last letter k+1 whose ascent
set is exactly S.  Each class is the top coefficient of an entry of one
packed first-letter row of ``descents``.
"""

from __future__ import annotations

import weakref
from itertools import combinations, product
from typing import Iterable

from .descents import _packed_first_letter_row
from .errors import DomainError, GradedStructureError
from .polynomials import Poly, h_from_f
from .posets import GradedBoundedPoset, _bits


def boolean_lattice(n: int) -> GradedBoundedPoset:
    """Subsets of {1..n} ordered by inclusion, ranked by size."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("boolean lattice needs n >= 0")
    elements = []
    for size in range(n + 1):
        elements.extend(frozenset(c) for c in combinations(range(1, n + 1), size))
    position = {x: k for k, x in enumerate(elements)}
    pairs = []
    for k, x in enumerate(elements):
        pairs.extend((k, position[x | {p}]) for p in range(1, n + 1) if p not in x)
    return GradedBoundedPoset._from_pairs(elements, pairs)


def colored_subset_poset(n: int, r: int) -> GradedBoundedPoset:
    """Sets of colored points: at most one of r colors per point of {1..n}.

    Elements are frozensets of (point, color) pairs with distinct points,
    ordered by inclusion.  For r = 1 this is the Boolean lattice.
    """
    if not isinstance(n, int) or n < 0 or not isinstance(r, int) or r < 1:
        raise DomainError("colored subset poset needs n >= 0 and r >= 1")
    elements = []
    for size in range(n + 1):
        for points in combinations(range(1, n + 1), size):
            for colors in product(range(r), repeat=size):
                elements.append(frozenset(zip(points, colors)))
    position = {x: k for k, x in enumerate(elements)}
    pairs = []
    for k, x in enumerate(elements):
        used = {p for p, _ in x}
        free = (p for p in range(1, n + 1) if p not in used)
        pairs.extend((k, position[x | {(p, c)}]) for p in free for c in range(r))
    return GradedBoundedPoset._from_pairs(elements, pairs)


def face_poset(facets: Iterable) -> GradedBoundedPoset:
    """Face poset of the pure simplicial complex generated by the facets.

    Faces (the empty face included) are ranked by size.  The facet list
    must generate a pure complex, otherwise the poset is not graded and
    GradedStructureError is raised.
    """
    facet_sets = [frozenset(f) for f in facets]
    if not facet_sets or any(not f for f in facet_sets):
        raise DomainError("need a nonempty list of nonempty facets")
    maximal = [
        f
        for f in facet_sets
        if not any(f < g for g in facet_sets)
    ]
    sizes = {len(f) for f in maximal}
    if len(sizes) != 1:
        raise GradedStructureError(
            "facets of different sizes give a non-graded face poset"
        )
    faces = set()
    for f in maximal:
        members = sorted(f)
        for size in range(len(members) + 1):
            faces.update(frozenset(c) for c in combinations(members, size))
    elements = sorted(faces, key=lambda s: (len(s), sorted(map(repr, s))))
    # the faces x + {v} cover x; list them in element order
    position = {y: k for k, y in enumerate(elements)}
    vertices = frozenset().union(*maximal)
    pairs = []
    for i, x in enumerate(elements):
        ups = (position.get(x | {v}, -1) for v in vertices - x)
        pairs.extend((i, k) for k in sorted(ups) if k >= 0)
    return GradedBoundedPoset._from_pairs(elements, pairs)


# verdicts keyed weakly, so a poset is freed once its last user drops it
_SIMPLICIAL = weakref.WeakKeyDictionary()


def is_simplicial(poset: GradedBoundedPoset) -> bool:
    """Whether every lower interval is Boolean, via atom-set coordinates.

    Each y of rank r must have 2^r elements below it (itself included),
    r atoms below it, and distinct atom sets on those elements.  Then the
    atom sets below every z fill the subsets of those of z, so x <= z
    exactly when the atom set of x lies in that of z: the order needs no
    separate check.  Weak down-sets are bitmasks, one OR per cover, and
    atom sets are down-sets masked by the atoms: O(sum of |down-set|).
    The verdict is remembered as long as the poset lives.
    """
    verdict = _SIMPLICIAL.get(poset)
    if verdict is None:
        verdict = _SIMPLICIAL[poset] = _boolean_intervals(poset)
    return verdict


def _boolean_intervals(poset: GradedBoundedPoset) -> bool:
    # in topological order every element's down-set is complete before
    # it passes to the elements covering it
    down = [1 << y for y in range(len(poset))]
    succ = poset._succ
    for x in poset._topo:
        for y in succ[x]:
            down[y] |= down[x]
    levels = poset._levels
    atoms = sum(1 << a for a in levels[1]) if len(levels) > 1 else 0
    for r, level in enumerate(levels):
        for y in level:
            if (
                down[y].bit_count() != 1 << r
                or (down[y] & atoms).bit_count() != r
                or len({down[x] & atoms for x in _bits(down[y])}) != 1 << r
            ):
                return False
    return True


def simplicial_h(poset: GradedBoundedPoset) -> Poly:
    """h-polynomial of a simplicial poset of rank n from its level counts.

    The face counts f_(j-1) are the level sizes; h is their (1-x) binomial
    transform at degree n.
    """
    n = poset.rank
    f = Poly([len(level) for level in poset._levels])
    return h_from_f(f, n)


def stanley_flag_beta(poset: GradedBoundedPoset, s: Iterable) -> int:
    """beta(S) of a simplicial poset through h-weighted ascent classes.

    beta(S) sums h_k times the number of w in S_(n+1) with last letter
    k+1 and ascent set S.  Reversing w makes the last letter the first
    and an ascent at i a descent at n+1-i.  A permutation with descent
    set inside S' = {n+1-i : i in S} and |S'| descents has descent set
    exactly S', so each class is the coefficient of x^|S'|, the top
    slot, in an entry of the first-letter row at S'.  The classes are
    counts, read before the h-weighting, so a negative h_k is safe.
    """
    n = poset.rank
    s = frozenset(s)
    if any(type(r) is not int or r < 1 or r > n for r in s):
        raise DomainError("rank subset must lie in 1..%d" % n)
    if not is_simplicial(poset):
        raise DomainError("poset is not simplicial")
    h = simplicial_h(poset).coeffs
    row, width = _packed_first_letter_row(n, frozenset(n + 1 - r for r in s))
    top = width * len(s)
    return sum(hk * (p >> top) for hk, p in zip(h, row))
