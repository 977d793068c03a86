"""Simplicial posets: builders, h-vectors and the descent-class route.

A graded bounded poset is simplicial when every lower interval [0-hat, y]
is a Boolean lattice; the check is a local rule per element, two counts
and the atom sets of its covers, read off bitmasks that one pass over
the covers in topological order builds, and its verdict lives as long
as the poset does.  The builders number their elements by integer
codes, bitmasks of vertices for face posets and base r + 1 digits for
colored subsets, and find each element's covers by clearing one vertex
or digit of its code.  For such posets of rank n the h-vector comes from
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
from .posets import GradedBoundedPoset


def boolean_lattice(n: int) -> GradedBoundedPoset:
    """Subsets of {1..n} ordered by inclusion, ranked by size."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("boolean lattice needs n >= 0")
    return _subset_poset(n, 1, False)


def colored_subset_poset(n: int, r: int) -> GradedBoundedPoset:
    """Sets of colored points: at most one of r colors per point of {1..n}.

    Elements are frozensets of (point, color) pairs with distinct points,
    ordered by inclusion.  For r = 1 this is the Boolean lattice.
    """
    if not isinstance(n, int) or n < 0 or not isinstance(r, int) or r < 1:
        raise DomainError("colored subset poset needs n >= 0 and r >= 1")
    return _subset_poset(n, r, True)


def _subset_poset(n: int, r: int, colored: bool) -> GradedBoundedPoset:
    """Colored subsets by size, then points, then colors, each
    lexicographically; plain subsets of points unless colored.

    Point p with color c is the digit c + 1 at place p - 1 of a base
    r + 1 code, so the codes number the elements one to one, and x
    covers each code with one nonzero digit of x's cleared.  The
    elements covered come before x, so each element lists the elements
    covering it in element order.
    """
    weight = [(r + 1) ** p for p in range(n)]
    position = [0] * (r + 1) ** n
    elements, ups = [], []
    for size in range(n + 1):
        for points in combinations(range(1, n + 1), size):
            for colors in product(range(r), repeat=size):
                k = len(elements)
                digits = [(c + 1) * weight[p - 1] for p, c in zip(points, colors)]
                code = sum(digits)
                position[code] = k
                for d in digits:
                    ups[position[code - d]].append(k)
                ups.append([])
                elements.append(frozenset(zip(points, colors) if colored else points))
    pairs = [(i, k) for i, above in enumerate(ups) for k in above]
    return GradedBoundedPoset._from_pairs(elements, pairs)


def face_poset(facets: Iterable) -> GradedBoundedPoset:
    """Face poset of the pure simplicial complex generated by the facets.

    Faces (the empty face included) are ranked by size, and ordered by
    size, then by their sorted vertex reprs.  The facet list must
    generate a pure complex, otherwise the poset is not graded and
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
    # faces are bitmasks with the vertices numbered by descending repr,
    # so the face order is by bit count, then by descending mask
    vertices = sorted(frozenset().union(*maximal), key=repr, reverse=True)
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    masks = set()
    for f in maximal:
        top = sub = sum(bit[v] for v in f)
        while sub:  # every nonempty submask of top
            masks.add(sub)
            sub = (sub - 1) & top
    codes = [0] + sorted(masks, key=lambda m: (m.bit_count(), -m))
    # a face covers each face one vertex smaller, listed before it
    position = {m: k for k, m in enumerate(codes)}
    elements, ups = [], [[] for _ in codes]
    for k, m in enumerate(codes):
        face, rest = [], m
        while rest:
            low = rest & -rest
            face.append(vertices[low.bit_length() - 1])
            ups[position[m ^ low]].append(k)
            rest ^= low
        elements.append(frozenset(face))
    pairs = [(i, k) for i, above in enumerate(ups) for k in above]
    return GradedBoundedPoset._from_pairs(elements, pairs)


# verdicts keyed weakly, so a poset is freed once its last user drops it
_SIMPLICIAL = weakref.WeakKeyDictionary()


def is_simplicial(poset: GradedBoundedPoset) -> bool:
    """Whether every lower interval is Boolean, by a local rule per element.

    Each y of rank r must have 2^r elements below it (itself included),
    r atoms below it, and r distinct atom sets among the elements it
    covers.  By induction on rank, those are the r subsets of y's atoms
    one smaller, whose subsets fill the proper subsets of y's atoms; the
    count 2^r then makes the atom set a one-to-one map on the elements
    below y, so y covers exactly r elements, and x <= z exactly when the
    atom set of x lies in that of z: the order needs no separate check.
    Down-sets and atom sets are bitmasks, one OR per cover: O(covers).
    The verdict is remembered as long as the poset lives.
    """
    verdict = _SIMPLICIAL.get(poset)
    if verdict is None:
        verdict = _SIMPLICIAL[poset] = _boolean_intervals(poset)
    return verdict


def _boolean_intervals(poset: GradedBoundedPoset) -> bool:
    # in topological order every element's down-set and atom set are
    # complete, and checked, before they pass to the elements covering it
    down = [1 << y for y in range(len(poset))]
    shadows = [[] for _ in down]  # atom sets of the elements y covers
    rank, succ = poset._rank, poset._succ
    for x in poset._topo:
        r, below = rank[x], shadows[x]
        atoms = 1 << x if r == 1 else 0
        for s in below:
            atoms |= s
        if (
            len(set(below)) != r
            or atoms.bit_count() != r
            or down[x].bit_count() != 1 << r
        ):
            return False
        for y in succ[x]:
            down[y] |= down[x]
            shadows[y].append(atoms)
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
    s = tuple(s)  # each entry checked, before a set merges True into 1
    if any(type(r) is not int or r < 1 or r > n for r in s):
        raise DomainError("rank subset must lie in 1..%d" % n)
    s = frozenset(s)
    if not is_simplicial(poset):
        raise DomainError("poset is not simplicial")
    h = simplicial_h(poset).coeffs
    row, width = _packed_first_letter_row(n, frozenset(n + 1 - r for r in s))
    top = width * len(s)
    return sum(hk * (p >> top) for hk, p in zip(h, row))
