"""Finite posets, chain polynomials, rank selection and flag vectors.

A ``Poset`` stores an element tuple plus its covers as index pairs.
One construction core builds and checks from those pairs a topological
order (no cycle) and strict up-closures (int bitmasks over indices, read
downstream; no cover implied by others).  Builders, ``subposet`` and the
general ``proper_part`` hand it positions; ``Poset(elements, covers)``
is the front for user input, resolving labels and rejecting duplicates,
unknown ends and self-covers.  ``adjoin_max`` and the bounding step of
``rank_selected`` extend an order the core has already checked, so they
derive its fields in O(n) instead.  The label index and cover tuple are
built when first read.
``GradedBoundedPoset`` adds a unique minimum, a rank function raising by
one along covers, and every maximal element in the top rank: the shape
rank selection and flag vectors need.  Both are read off the covers:
the ranks form a list indexed like the cover lists, filled in one walk
in topological order.

The chain polynomial, the rank-selected h-polynomials and the flag
alpha table are one chain sum over chains (totally ordered subsets,
empty chain included): in topological order each kept element shifts
the chains ending at it by its own number of slots of a packed int and
pushes them to the kept elements of its up-set, one int addition adding
whole polynomials.  One slot per element gives the chain polynomial,
whose binomial transform is the order h-polynomial; one slot per element
of the ranks in t gives the f-vector of the rank selection by t; and
2^(r-1) slots at rank r put the chains through the ranks S in the slot
of S's bitmask, alpha(S).  Beta, alpha's inclusion-exclusion transform,
is one in-place subset Moebius transform of that table, on whole slices
per bit.  Rank selection
as a poset keeps the elements whose rank lies in a chosen set and
rebounds them between a virtual bottom and top.

On the ranks where every lower interval [0-hat, y] is Boolean, as in a
simplicial poset and below the top ``adjoin_max`` gives one, the chains
are fixed by the level sizes f_r (Brenti and Welker): below an element
of rank r lie C(r, q) elements of each rank q, each again with a Boolean
interval below it.  So the chains through exactly the ranks
s_1 < ... < s_k number alpha(S) = f_(s_k) C(s_k, s_(k-1)) ... C(s_2, s_1),
and the three counts read those products instead of the chain sum.  One
pass over the covers finds the lowest rank holding an element whose
interval is not Boolean, by a local rule per element; the verdict is
kept, weakly, as long as the poset lives, and ``adjoin_max`` hands its
input's verdict to its result.  The chain sum stays the route of every
other poset.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import sub
from typing import Iterable, Sequence

from .errors import DomainError, GradedStructureError, PosetFileError
from .polynomials import Poly, _unpack, h_from_f


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Finite poset given by elements and cover relations.

    Elements may be any hashable objects; their given order fixes every
    iteration order downstream, so output is deterministic.
    """

    _proper = None  # the checked proper part, kept by rank_selected

    def __init__(self, elements: Iterable, covers: Iterable):
        elements = tuple(elements)
        index = self._index = {}
        for i, x in enumerate(elements):
            if x in index:
                raise DomainError("duplicate element %r" % (x,))
            index[x] = i
        n = len(elements)
        seen = set()
        pairs = []
        for x, y in covers:
            i, j = index.get(x, -1), index.get(y, -1)
            if i < 0 or j < 0:
                raise DomainError("cover (%r, %r) uses unknown elements" % (x, y))
            if x == y:
                raise DomainError("self-cover at %r" % (x,))
            if i * n + j not in seen:
                seen.add(i * n + j)
                pairs.append((i, j))
        self._build(elements, pairs)

    @classmethod
    def _from_pairs(cls, elements: Sequence, pairs: list) -> "Poset":
        """Poset on distinct elements from distinct index pairs (i, j),
        j covering i, in cover order: checked like the label front."""
        poset = cls.__new__(cls)
        poset._build(tuple(elements), pairs)
        return poset

    def _build(self, elements: tuple, pairs: list):
        """The one construction core: cover lists, Kahn's order (no
        cycle), up-set bitmasks and the implied-cover test."""
        self._elements = elements
        self._pairs = pairs
        n = len(elements)
        succ = [[] for _ in elements]
        indeg = [0] * n
        for i, j in pairs:
            succ[i].append(j)
            indeg[j] += 1
        self._succ = tuple(map(tuple, succ))
        # Kahn's order lists every element before its covers
        self._minimal = tuple(i for i in range(n) if not indeg[i])
        order = list(self._minimal)
        for i in order:
            for j in succ[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
        if len(order) != n:
            raise DomainError("cover relation contains a cycle")
        self._topo = tuple(order)
        # strict up-closures as bitmasks; a cover of i is implied when it
        # lies above another cover of i
        up = [0] * n
        implied = False
        for i in reversed(order):
            mask = reach = 0
            for j in succ[i]:
                mask |= 1 << j
                reach |= up[j]
            if mask & reach:
                implied = True
            up[i] = mask | reach
        self._up = tuple(up)
        if implied:
            for i, j in pairs:
                if any(up[z] >> j & 1 for z in succ[i]):
                    raise DomainError(
                        "cover (%r, %r) is implied by transitivity"
                        % (elements[i], elements[j])
                    )

    @cached_property
    def _index(self) -> dict:
        return {x: i for i, x in enumerate(self._elements)}

    @property
    def elements(self) -> tuple:
        return self._elements

    @cached_property
    def covers(self) -> tuple:
        """Cover pairs (lower, upper) in the given order, as element objects."""
        els = self._elements
        return tuple((els[i], els[j]) for i, j in self._pairs)

    def __len__(self):
        return len(self._elements)

    def __contains__(self, x):
        return x in self._index

    def index(self, x) -> int:
        return self._index[x]

    def less(self, x, y) -> bool:
        """Strict order comparison."""
        return (self._up[self._index[x]] >> self._index[y]) & 1 == 1

    def minimal_elements(self) -> tuple:
        return tuple(self._elements[i] for i in self._minimal)

    def maximal_elements(self) -> tuple:
        return tuple(x for x, above in zip(self._elements, self._succ) if not above)

    def subposet(self, keep: Iterable) -> "Poset":
        """Induced subposet on the given elements, covers recomputed."""
        keep = set(keep)
        kept = [i for i, x in enumerate(self._elements) if x in keep]
        mask = sum(1 << i for i in kept)
        position = {i: k for k, i in enumerate(kept)}
        up = self._up
        pairs = []
        for k, i in enumerate(kept):
            # covers: kept elements above i and above no other kept one above i
            above = up[i] & mask
            reach = 0
            for j in _bits(above):
                reach |= up[j]
            pairs.extend((k, position[j]) for j in _bits(above & ~reach))
        return Poset._from_pairs([self._elements[i] for i in kept], pairs)

    def proper_part(self) -> "Poset":
        """Drop the unique minimum and unique maximum where present.

        Nothing lies strictly between an extreme and another element, so
        the covers are the old ones between kept elements, sorted into
        the order ``subposet`` lists them in.  A rank selection returns
        the poset it was bounded from: its elements are the selection's
        between the two extremes, and its covers, listed level by level
        in element order, are already sorted.
        """
        if self._proper is not None:
            return self._proper
        maxima = [i for i, above in enumerate(self._succ) if not above]
        drop = {ends[0] for ends in (self._minimal, maxima) if len(ends) == 1}
        new = [-1] * len(self._elements)
        kept = [i for i in range(len(new)) if i not in drop]
        for k, i in enumerate(kept):
            new[i] = k
        pairs = sorted(
            (new[i], new[j]) for i, j in self._pairs if new[i] >= 0 and new[j] >= 0
        )
        return Poset._from_pairs([self._elements[i] for i in kept], pairs)


class GradedBoundedPoset(Poset):
    """Poset with minimum 0-hat, cover-compatible ranks, maxima in rank n.

    The bottom is the one element with no predecessor; every cover raises
    the rank by one, so the covers fix the ranks.
    """

    def _build(self, elements: tuple, pairs: list):
        super()._build(elements, pairs)
        if len(self._minimal) != 1:
            raise GradedStructureError(
                "no unique minimal element (%d found)" % len(self._minimal)
            )
        self._bottom = self._minimal[0]
        # each element lies above the minimum, so a predecessor ranks it first
        rank = [-1] * len(self._elements)
        rank[self._bottom] = 0
        for i in self._topo:
            r = rank[i] + 1
            for j in self._succ[i]:
                if rank[j] < 0:
                    rank[j] = r
                elif rank[j] != r:
                    raise GradedStructureError(
                        "inconsistent rank at %r: covers disagree"
                        % (self._elements[j],)
                    )
        self._rank = rank
        n = self.rank
        for i, above in enumerate(self._succ):
            if not above and rank[i] != n:
                raise GradedStructureError(
                    "maximal element %r has rank %d, expected %d"
                    % (self._elements[i], rank[i], n)
                )

    @property
    def bottom(self):
        return self._elements[self._bottom]

    @cached_property
    def rank(self) -> int:
        """Top rank n; the poset is graded of rank n."""
        return max(self._rank)

    def rank_of(self, x) -> int:
        return self._rank[self._index[x]]

    @cached_property
    def _levels(self) -> tuple:
        """Indices grouped by rank, each group ascending."""
        out = [[] for _ in range(self.rank + 1)]
        for i, r in enumerate(self._rank):
            out[r].append(i)
        return tuple(map(tuple, out))

    @cached_property
    def levels(self) -> tuple:
        """Elements grouped by rank, each group in element order."""
        return tuple(tuple(self._elements[i] for i in level) for level in self._levels)


# verdicts keyed weakly, so a poset is freed once its last user drops it
_VERDICTS = weakref.WeakKeyDictionary()


def _boolean_rank(poset: GradedBoundedPoset) -> int:
    """The lowest rank holding an element whose lower interval is not
    Boolean, or rank + 1 when there is none; kept as long as the poset
    lives."""
    verdict = _VERDICTS.get(poset)
    if verdict is None:
        verdict = _VERDICTS[poset] = _boolean_intervals(poset)
    return verdict


def _boolean_intervals(poset: GradedBoundedPoset) -> int:
    """_boolean_rank by a local rule per element, level by level.

    Once every element of rank below r has a Boolean interval below it,
    y of rank r has one exactly when 2^r elements (itself included) and
    r atoms lie below it, and its covers carry r distinct atom sets.  The
    rule is necessary; for sufficiency, the intervals below y's covers
    are Boolean, so by the rule's atom count their atom sets are r
    subsets of y's r atoms one smaller, and their subsets fill the proper
    subsets of y's atoms.  The count 2^r then makes the atom set a
    one-to-one map on the elements below y, so y covers exactly r
    elements, and x <= z exactly when the atom set of x lies in that of
    z: the order needs no separate check.  Down-sets and atom sets are
    bitmasks, one OR per cover: O(covers).  Levels are a topological
    order, and the pass stops at the first failure, at the lowest rank.
    """
    down = [0] * len(poset)
    shadows = [[] for _ in down]  # atom sets of the elements y covers
    succ = poset._succ
    for r, level in enumerate(poset._levels):
        for x in level:
            below = shadows[x]
            atoms = 1 << x if r == 1 else 0
            for s in below:
                atoms |= s
            mask = down[x] | 1 << x
            if (
                len(set(below)) != r
                or atoms.bit_count() != r
                or mask.bit_count() != 1 << r
            ):
                return r
            for y in succ[x]:
                down[y] |= mask
                shadows[y].append(atoms)
    return len(poset._levels)


def _level_sum(poset: GradedBoundedPoset, ranks: Sequence[int], width: int) -> int:
    """Sum of alpha(S) x^|S| over the sets S of the given ascending ranks,
    packed in slots of width bits, for ranks whose lower intervals are
    Boolean.

    The chains topped by one element of rank r, with ranks in the given
    set, sum to g_r = x (1 + sum of C(r, q) g_q over the given q < r):
    below the top, the next element is one of the C(r, q) elements of
    rank q in the Boolean lattice [0-hat, y], and its own interval is
    Boolean again.  Grouping chains by their top, the sum is 1 plus
    f_r g_r over the given r.  Every slot of a g_r is at most the total's
    slot, as f_r >= 1, so one width fits them all.
    """
    levels = poset._levels
    total, tops = 1, []
    for r in ranks:
        g = 1
        for q, below in tops:
            g += math.comb(r, q) * below
        g <<= width
        tops.append((r, g))
        total += len(levels[r]) * g
    return total


def _chain_width(n: int, h: int) -> int:
    """Bits of a slot for a count of chains of one size among n elements,
    none longer than h: C(n, k) bounds size k, growing up to k = n // 2."""
    return math.comb(n, min(h, n // 2)).bit_length()


def _chain_sum(poset: Poset, keep: int, shift: Sequence[int]) -> int:
    """Sum of 2^(shift[e1] + ... + shift[ek]) over the chains e1 < ... < ek
    of the elements in the bitmask keep, the empty chain giving 1.

    In topological order each kept e shifts the chains ending at it by
    shift[e] and pushes them to the kept elements of its strict up-set,
    one int addition adding whole packed polynomials (Kronecker
    substitution).  Pushing upward keeps the wide high slots of a
    chain's int off the elements below its top.
    """
    up = poset._up
    acc = [1] * len(poset)
    total = 1
    for i in poset._topo:
        if keep >> i & 1:
            v = acc[i] << shift[i]
            total += v
            above = up[i] & keep
            while above:  # _bits inlined: this loop is the whole cost
                low = above & -above
                acc[low.bit_length() - 1] += v
                above ^= low
    return total


def chain_polynomial(poset: Poset) -> Poly:
    """Sum of x^(number of elements) over all chains of the poset.

    The size H of a longest chain bounds the degree and the slots; the
    chain sum, one slot per element, is the polynomial packed into one
    int.  In a graded bounded poset of rank n every maximal chain runs
    from the minimum through one element of each rank to a maximal
    element, all of rank n, so H = n + 1; other posets find H by a pass
    in topological order.

    A graded bounded poset whose lower intervals are all Boolean, except
    perhaps the top's when it is unique, reads the chains off its level
    sizes (``_level_sum``).  A unique top lies above every other
    element, so the chains are those below it, with or without the top:
    (1 + x) times the level sum over the ranks below it.
    """
    n = len(poset)
    level = False
    if isinstance(poset, GradedBoundedPoset):
        h = poset.rank + 1
        top = len(poset._levels[-1]) == 1
        level = _boolean_rank(poset) >= h - top
    else:
        size = [1] * n
        for i in poset._topo:
            for j in poset._succ[i]:
                if size[j] <= size[i]:
                    size[j] = size[i] + 1
        h = max(size, default=0)
    width = _chain_width(n, h)
    if level:
        chains = _level_sum(poset, range(h - top), width)
        if top:
            chains += chains << width
    else:
        chains = _chain_sum(poset, (1 << n) - 1, [width] * n)
    return Poly(_unpack(chains, width, h + 1))


def order_h_polynomial(poset: Poset) -> Poly:
    """h-polynomial of the order complex, from the chain polynomial."""
    f = chain_polynomial(poset)
    return h_from_f(f, max(f.degree, 0))


def _fresh_labels(existing, names):
    out = []
    taken = set(existing)
    for name in names:
        label = name
        while label in taken:
            label = label + "'"
        taken.add(label)
        out.append(label)
    return out


def _derived(elements, pairs, succ, topo, up, rank) -> GradedBoundedPoset:
    """Graded bounded poset on fields derived from an order the
    construction core has already checked, set as given.  Its minimum
    is the first element of Kahn's order."""
    out = GradedBoundedPoset.__new__(GradedBoundedPoset)
    out._elements, out._pairs, out._succ = elements, pairs, succ
    out._topo, out._up, out._rank = topo, up, rank
    out._minimal = (topo[0],)
    out._bottom = topo[0]
    return out


def adjoin_max(poset: GradedBoundedPoset) -> GradedBoundedPoset:
    """Copy of the poset with a new maximum above every maximal element.

    A graded poset of rank n becomes the bounded poset of rank n+1 whose
    proper ranks 1..n are exactly the original positive ranks; this is
    the shape the flag and rank-selection machinery expects when the
    input itself is the object of interest (e.g. a simplicial poset).

    The new top n lies above everything, so its fields come from the
    checked input in O(n): each up-set gains bit n and the top's rank is
    n + 1.  Kahn's order is the input's plus n: the top is queued only
    when the last maximal element m is processed, and nothing follows m,
    since each non-maximal element lies below a maximal one after it.

    Every old element keeps its lower interval, so the result takes the
    input's Boolean-interval verdict.  The new top of rank r can have a
    Boolean interval only when 2^r elements lie below it; only then does
    the result check its top by its own pass.
    """
    top = _fresh_labels(poset.elements, ["^1"])[0]
    n = len(poset)
    maxima = [i for i, above in enumerate(poset._succ) if not above]
    succ = list(poset._succ)
    for i in maxima:
        succ[i] = (n,)
    bit = 1 << n
    out = _derived(
        poset.elements + (top,),
        poset._pairs + [(i, n) for i in maxima],
        tuple(succ) + ((),),
        poset._topo + (n,),
        tuple([u | bit for u in poset._up]) + (0,),
        poset._rank + [poset.rank + 1],
    )
    verdict = _boolean_rank(poset)
    if verdict <= poset.rank or n + 1 != 1 << out.rank:
        _VERDICTS[out] = verdict
    return out


def _selection(poset: GradedBoundedPoset, t: Iterable) -> list:
    """The ranks in t, ascending; each must be a proper rank of the poset.

    Each entry is checked before the set is built, which would merge
    True and 2.0 into the ranks 1 and 2.
    """
    n = poset.rank - 1
    t = tuple(t)
    if any(type(r) is not int or r < 1 or r > n for r in t):
        raise DomainError("selected ranks must lie in 1..%d" % max(n, 0))
    return sorted(set(t))


def rank_selected(poset: GradedBoundedPoset, t: Iterable) -> GradedBoundedPoset:
    """Subposet of the ranks in t, rebounded by a virtual bottom and top.

    Ranks are compressed to 1..len(t); the chosen original ranks are kept
    on the result as ``selected_ranks``.

    The proper part P is built through the construction core from the
    covers between consecutive selected levels, and ``proper_part()``
    of the result returns it.  Bounding P is O(n): the bottom 0 lies
    below everything, so its up-set is every other bit, and a kept
    element's up-set is its up-set in P, shifted by one position, plus
    the top.  Kahn's order is 0, then P's order shifted, then the top:
    processing 0 queues P's minimal elements in P's own order, and the
    top follows the last maximal element of P, which nothing follows.
    """
    sel = _selection(poset, t)
    bot, top = _fresh_labels(poset.elements, ["^0", "^1"])
    labels = poset.elements
    levels = [poset._levels[r] for r in sel]
    kept = [i for level in levels for i in level]
    position = [0] * len(poset)
    for k, i in enumerate(kept):
        position[i] = k
    # bits ascend in element order, as the levels do, so each element
    # lists its covers in the order of the level above
    pairs = []
    up = poset._up
    for lower, upper in zip(levels, levels[1:]):
        above = sum(1 << j for j in upper)
        for i in lower:
            k, mask = position[i], up[i] & above
            while mask:  # _bits inlined, as in _chain_sum
                low = mask & -mask
                pairs.append((k, position[low.bit_length() - 1]))
                mask ^= low
    inner = Poset._from_pairs([labels[i] for i in kept], pairs)
    # inner element k sits at k + 1 between the bottom 0 and the top
    last = len(kept) + 1
    first = tuple(k + 1 for k in inner._minimal) or (last,)
    maxima = [k + 1 for k, above in enumerate(inner._succ) if not above]
    topbit = 1 << last
    out = _derived(
        (bot, *(labels[i] for i in kept), top),
        [(0, k) for k in first]
        + [(i + 1, j + 1) for i, j in pairs]
        + [(k, last) for k in maxima],
        (first,)
        + tuple([tuple([j + 1 for j in s]) if s else (last,) for s in inner._succ])
        + ((),),
        (0, *(k + 1 for k in inner._topo), last),
        (2 * topbit - 2, *[u << 1 | topbit for u in inner._up], 0),
        [0, *(r for r, level in enumerate(levels, 1) for _ in level), len(sel) + 1],
    )
    out._proper = inner
    out.selected_ranks = tuple(sel)
    return out


def _moebius(table: list) -> list:
    """In-place subset Moebius transform of a table indexed by bitmask,
    of length a power of two.

    Afterwards table[S] is the sum over T contained in S of
    (-1)^(|S|-|T|) times the old table[T]: O(k 2^k) for k bits.  Each
    bit subtracts whole slices, the masks without it from those with it:
    ``bit`` strided slices while bit^2 < len(table), then one contiguous
    half-block per block of 2 bit, so at most sqrt(len(table)) slice
    operations per bit.
    """
    size, bit = len(table), 1
    while bit < size:
        step = 2 * bit
        if bit * bit < size:
            for low in range(bit):
                table[low + bit::step] = map(
                    sub, table[low + bit::step], table[low::step]
                )
        else:
            for start in range(0, size, step):
                table[start + bit:start + step] = map(
                    sub, table[start + bit:start + step], table[start:start + bit]
                )
        bit = step
    return table


@dataclass(frozen=True)
class FlagVectors:
    """Flag alpha and beta of a graded bounded poset of rank n.

    alpha(T) counts maximal chains through exactly the ranks in T (with
    the virtual extremes adjoined); beta is its inclusion-exclusion
    transform, so alpha(T) = sum of beta(S) over S contained in T.  Both
    are stored as lists indexed by the bitmask of T over ranks 1..n.
    """

    n: int
    _alpha: list
    _beta: list

    def _mask(self, t: Iterable) -> int:
        t = tuple(t)  # each entry checked, before a set merges True into 1
        if any(type(r) is not int or r < 1 or r > self.n for r in t):
            raise KeyError(frozenset(t))
        return sum(1 << (r - 1) for r in set(t))

    def alpha(self, t: Iterable) -> int:
        return self._alpha[self._mask(t)]

    def beta(self, t: Iterable) -> int:
        return self._beta[self._mask(t)]

    def subsets(self) -> tuple:
        """Every subset T of 1..n, by size, then lexicographically.  Rank
        0 has n = -1 and the empty set alone."""
        ranks = range(1, self.n + 1)
        return tuple(
            frozenset(t)
            for size in range(max(self.n, 0) + 1)
            for t in combinations(ranks, size)
        )


def flag_vectors(poset: GradedBoundedPoset) -> FlagVectors:
    """Both flag vectors over every subset of proper ranks 1..n.

    Rank r shifts by width * 2^(r-1), so a chain through the ranks S
    lands in the slot of S's bitmask and that slot is alpha(S); ranks
    rise along a chain, so no other chain shares it.

    When every proper rank has Boolean lower intervals, alpha is read off
    the level sizes instead.  A chain through s_1 < ... < s_k picks its
    top among the f_(s_k) elements of rank s_k, then each element below
    the last among the C(s_(j+1), s_j) elements of rank s_j in the
    Boolean interval below it: alpha(S) = f_(s_k) times the product of
    those binomials.  The sets with top rank r are the sets L of lower
    ranks plus r, and their product is the product of L times C(r, max L),
    with C(r, 0) = 1 for the empty L.
    """
    levels = poset._levels[1:-1]
    if _boolean_rank(poset) > len(levels):
        prod = [1]
        for r in range(1, len(levels) + 1):
            row = [math.comb(r, q) for q in range(r)]
            prod += [row[low.bit_length()] * p for low, p in enumerate(prod)]
        sizes = [len(level) for level in poset._levels]
        alpha = [sizes[s.bit_length()] * p for s, p in enumerate(prod)]
    else:
        keep = sum(1 << i for level in levels for i in level)
        width = _chain_width(keep.bit_count(), len(levels))
        # the extreme ranks are not kept, so their shifts are never read
        shift = [width << r >> 1 for r in poset._rank]
        alpha = _unpack(_chain_sum(poset, keep, shift), width, 1 << len(levels))
    return FlagVectors(poset.rank - 1, alpha, _moebius(list(alpha)))


def rank_selected_h(poset: GradedBoundedPoset, t: Iterable) -> Poly:
    """h-polynomial of the order complex of the rank selection by t.

    Its f-vector counts the chains of the elements with ranks in t by
    size, and h is the f->h transform of degree |t|.  The tests
    cross-check it against the chain polynomial of the proper part of
    rank_selected(poset, t) and against chains counted by rank set with
    ``less`` on every pair.

    Each chain has exactly one rank set S within t, so the f-vector is
    the sum of alpha(S) x^|S| over the subsets S of t.  When every rank
    in t has Boolean lower intervals, that is the level sum over t;
    otherwise the chain sum over the elements of those ranks.
    """
    sel = _selection(poset, t)
    width = _chain_width(sum(len(poset._levels[r]) for r in sel), len(sel))
    if _boolean_rank(poset) > max(sel, default=0):
        f = _level_sum(poset, sel, width)
    else:
        keep = sum(1 << i for r in sel for i in poset._levels[r])
        f = _chain_sum(poset, keep, [width] * len(poset))
    return h_from_f(Poly(_unpack(f, width, len(sel) + 1)), len(sel))


def load_poset(path: str):
    """Read the JSON poset format.

    The object carries "elements" (list of strings or ints), "covers"
    (list of [lower, upper] pairs) and optionally "bottom" and "ranks"
    (mapping element -> rank), which force the graded reading and must
    agree with what the covers give.  Returns a GradedBoundedPoset when
    the covers are graded and bounded below, otherwise a plain Poset.
    Malformed files raise PosetFileError with a line number when the JSON
    parser provides one.
    """
    return _parse_poset(_read_poset(path))


def _read_poset(path: str) -> bytes:
    """The bytes of a poset file; a failed read raises PosetFileError."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise PosetFileError(str(exc)) from None


def _parse_poset(raw: bytes):
    """load_poset on the bytes of a file already read."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise PosetFileError("file is not valid UTF-8") from None
    # the newlines text mode reads, so that JSON error lines count as before
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError carries a line; an integer past Python's digit
        # limit raises a plain ValueError, which does not
        raise PosetFileError(
            getattr(exc, "msg", str(exc)), line=getattr(exc, "lineno", None)
        ) from None
    except RecursionError:
        raise PosetFileError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise PosetFileError("top-level value must be an object")
    if "elements" not in data or "covers" not in data:
        raise PosetFileError('keys "elements" and "covers" are required')
    elements = data["elements"]
    covers = data["covers"]
    if not isinstance(elements, list):
        raise PosetFileError('"elements" must be a list')
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 for c in covers
    ):
        raise PosetFileError('"covers" must be a list of [lower, upper] pairs')
    cover_pairs = [(a, b) for a, b in covers]
    bottom = data.get("bottom")
    names = elements + [x for pair in covers for x in pair]
    if bottom is not None:
        names.append(bottom)
    # true and 1.0 would pass for the element 1
    if not set(map(type, names)) <= {str, int}:
        raise PosetFileError("element names must be strings or integers")
    ranks = data.get("ranks")
    if ranks is not None:
        if not isinstance(ranks, dict):
            raise PosetFileError('"ranks" must be an object')
        # int() would read "1_0" as 10, true/false as 1/0 and 1.9 as 1
        if not all(
            type(v) is int or type(v) is float and v.is_integer()
            for v in ranks.values()
        ):
            raise PosetFileError('"ranks" values must be integers')
        index = {}
        for x in elements:
            y = index.setdefault(str(x), x)
            if y != x:
                raise PosetFileError('"ranks" cannot tell %r from %r' % (y, x))
        try:
            ranks = {index[k]: int(v) for k, v in ranks.items()}
        except KeyError as exc:
            raise PosetFileError("rank given for unknown element %s" % exc) from None
    try:
        try:
            poset = GradedBoundedPoset(elements, cover_pairs)
        except GradedStructureError:
            if bottom is not None or ranks is not None:
                raise
            return Poset(elements, cover_pairs)
    except DomainError as exc:
        raise PosetFileError(str(exc)) from None
    if bottom is not None and bottom != poset.bottom:
        raise PosetFileError(
            "declared bottom %r is not the minimum %r" % (bottom, poset.bottom)
        )
    if ranks is not None:
        for x in elements:
            if ranks.get(x) != poset.rank_of(x):
                raise PosetFileError(
                    "rank of %r is %d by its covers, declared %s"
                    % (x, poset.rank_of(x), ranks.get(x, "none"))
                )
    return poset
