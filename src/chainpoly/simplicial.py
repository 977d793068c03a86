"""Simplicial posets: builders, h-vectors and the descent-class route.

A graded bounded poset is simplicial when every lower interval [0-hat, y]
is a Boolean lattice.  The check is the Boolean-interval pass of
``posets``, a local rule per element read off bitmasks built in one pass
over the covers, whose verdict the chain counts there read too and
which lives as long as the poset does.  The builders number their
elements by integer codes, bitmasks of vertices for face posets and
base r + 1 digits for colored subsets, and find each element's covers
by clearing one vertex or digit of its code.  For such posets of rank
n the h-vector comes from the level counts, and the flag beta vector
factors through descent classes of permutations of n+1 letters: beta(S)
equals the sum over k of h_k times the number of w in S_(n+1) with last
letter k+1 whose ascent set is exactly S.  Each class is the top
coefficient of an entry of one packed first-letter row of ``descents``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable

from .descents import _packed_first_letter_row
from .errors import DomainError, GradedStructureError
from .polynomials import Poly, h_from_f
from .posets import GradedBoundedPoset, _boolean_rank


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


def is_simplicial(poset: GradedBoundedPoset) -> bool:
    """Whether every lower interval is Boolean, by a local rule per element.

    Each y of rank r must have 2^r elements below it (itself included),
    r atoms below it, and r distinct atom sets among the elements it
    covers; ``posets`` proves the rule, checks it in one O(covers) pass
    over the covers, and keeps its verdict as long as the poset lives,
    so the chain counts of ``posets`` and this test share one pass.
    """
    return _boolean_rank(poset) > poset.rank


def simplicial_h(poset: GradedBoundedPoset) -> Poly:
    """h-polynomial of a simplicial poset of rank n from its level counts.

    Each element of rank j is a face with j vertices, its lower interval
    the Boolean lattice of its vertex set, so the face counts f_(j-1)
    are the level sizes and h is their (1-x) binomial transform at
    degree n.  Other posets have no such faces: DomainError.
    """
    if not is_simplicial(poset):
        raise DomainError("poset is not simplicial")
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
    h = simplicial_h(poset).coeffs  # DomainError unless simplicial
    row, width = _packed_first_letter_row(n, frozenset(n + 1 - r for r in s))
    top = width * len(s)
    return sum(hk * (p >> top) for hk, p in zip(h, row))
