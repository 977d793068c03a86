"""Finite posets, chain polynomials, rank selection and flag vectors.

A ``Poset`` stores an element tuple plus an irredundant list of cover
relations and lazily derives index maps, strict up-closures (as int
bitmasks) and a topological order.  ``GradedBoundedPoset`` adds a unique
minimum, a rank function raising by one along covers, and the guarantee
that every maximal element sits in the top rank; that is the shape the
rank-selection and flag machinery needs.

The chain polynomial sums x^(size) over all chains (totally ordered
subsets, empty chain included).  The order h-polynomial is the standard
binomial transform of its coefficients.  Rank selection keeps the
elements whose rank lies in a chosen set and rebounds them between a
virtual bottom and top; flag vectors count maximal chains of those
selections (alpha) and their inclusion-exclusion transform (beta).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import DomainError, GradedStructureError, PosetFileError
from .polynomials import Poly, h_from_f


def _add_into(target: list, addend: list) -> list:
    if len(target) < len(addend):
        target.extend([0] * (len(addend) - len(target)))
    for i, c in enumerate(addend):
        target[i] += c
    return target


class Poset:
    """Finite poset given by elements and cover relations.

    Elements may be any hashable objects; their given order fixes every
    iteration order downstream, so output is deterministic.
    """

    def __init__(self, elements: Iterable, covers: Iterable, validate: bool = True):
        self._elements = tuple(elements)
        self._index = {}
        for i, x in enumerate(self._elements):
            if x in self._index:
                raise DomainError("duplicate element %r" % (x,))
            self._index[x] = i
        seen = set()
        cover_list = []
        for x, y in covers:
            if x not in self._index or y not in self._index:
                raise DomainError("cover (%r, %r) uses unknown elements" % (x, y))
            if x == y:
                raise DomainError("self-cover at %r" % (x,))
            key = (self._index[x], self._index[y])
            if key not in seen:
                seen.add(key)
                cover_list.append((x, y))
        self._covers = tuple(cover_list)
        if validate:
            self._topo  # acyclicity
            self._check_irredundant()

    @property
    def elements(self) -> tuple:
        return self._elements

    @property
    def covers(self) -> tuple:
        return self._covers

    def __len__(self):
        return len(self._elements)

    def __contains__(self, x):
        return x in self._index

    def index(self, x) -> int:
        return self._index[x]

    @cached_property
    def _succ(self) -> tuple:
        out = [[] for _ in self._elements]
        for x, y in self._covers:
            out[self._index[x]].append(self._index[y])
        return tuple(tuple(s) for s in out)

    @cached_property
    def _pred(self) -> tuple:
        out = [[] for _ in self._elements]
        for x, y in self._covers:
            out[self._index[y]].append(self._index[x])
        return tuple(tuple(s) for s in out)

    @cached_property
    def _topo(self) -> tuple:
        """Indices in an order listing every element before its covers."""
        n = len(self._elements)
        indeg = [len(p) for p in self._pred]
        queue = [i for i in range(n) if indeg[i] == 0]
        order = []
        head = 0
        while head < len(queue):
            i = queue[head]
            head += 1
            order.append(i)
            for j in self._succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(order) != n:
            raise DomainError("cover relation contains a cycle")
        return tuple(order)

    @cached_property
    def _up(self) -> tuple:
        """Strict up-closure of each element as a bitmask over indices."""
        masks = [0] * len(self._elements)
        for i in reversed(self._topo):
            m = 0
            for j in self._succ[i]:
                m |= (1 << j) | masks[j]
            masks[i] = m
        return tuple(masks)

    def _check_irredundant(self):
        for x, y in self._covers:
            i, j = self._index[x], self._index[y]
            for z in self._succ[i]:
                if z != j and (self._up[z] >> j) & 1:
                    raise DomainError(
                        "cover (%r, %r) is implied by transitivity" % (x, y)
                    )

    def less(self, x, y) -> bool:
        """Strict order comparison."""
        return (self._up[self._index[x]] >> self._index[y]) & 1 == 1

    def minimal_elements(self) -> tuple:
        return tuple(x for x in self._elements if not self._pred[self._index[x]])

    def maximal_elements(self) -> tuple:
        return tuple(x for x in self._elements if not self._succ[self._index[x]])

    def subposet(self, keep: Iterable) -> "Poset":
        """Induced subposet on the given elements, covers recomputed."""
        keep = set(keep)
        keep_list = [x for x in self._elements if x in keep]
        idx = [self._index[x] for x in keep_list]
        rel = {i: self._up[i] for i in idx}
        covers = []
        for a in idx:
            ups = [b for b in idx if (rel[a] >> b) & 1]
            for b in ups:
                if not any((rel[c] >> b) & 1 for c in ups):
                    covers.append((self._elements[a], self._elements[b]))
        return Poset(keep_list, covers, validate=False)

    def proper_part(self) -> "Poset":
        """Drop the unique minimum and unique maximum where present."""
        drop = set()
        mins = self.minimal_elements()
        maxs = self.maximal_elements()
        if len(mins) == 1:
            drop.add(mins[0])
        if len(maxs) == 1:
            drop.add(maxs[0])
        return self.subposet([x for x in self._elements if x not in drop])


class GradedBoundedPoset(Poset):
    """Poset with minimum 0-hat, cover-compatible ranks, maxima in rank n."""

    def __init__(
        self,
        elements: Iterable,
        covers: Iterable,
        bottom=None,
        ranks: Optional[Dict] = None,
        validate: bool = True,
    ):
        super().__init__(elements, covers, validate=validate)
        mins = self.minimal_elements()
        if bottom is None:
            if len(mins) != 1:
                raise GradedStructureError(
                    "no unique minimal element (%d found)" % len(mins)
                )
            bottom = mins[0]
        elif mins != (bottom,):
            raise GradedStructureError("declared bottom is not the unique minimum")
        self._bottom = bottom
        if ranks is None:
            ranks = self._infer_ranks()
        self._ranks = dict(ranks)
        self._validate_ranks()

    def _infer_ranks(self) -> dict:
        ranks = {self._bottom: 0}
        for i in self._topo:
            x = self._elements[i]
            for j in self._succ[i]:
                y = self._elements[j]
                if x not in ranks:
                    raise GradedStructureError("element %r unreachable from bottom" % (x,))
                r = ranks[x] + 1
                if ranks.setdefault(y, r) != r:
                    raise GradedStructureError(
                        "inconsistent rank at %r: covers disagree" % (y,)
                    )
        return ranks

    def _validate_ranks(self):
        if set(self._ranks) != set(self._elements):
            raise GradedStructureError("rank function does not cover all elements")
        if self._ranks[self._bottom] != 0:
            raise GradedStructureError("bottom must have rank 0")
        for x, y in self._covers:
            if self._ranks[y] != self._ranks[x] + 1:
                raise GradedStructureError(
                    "cover (%r, %r) does not raise rank by one" % (x, y)
                )
        n = self.rank
        for x in self.maximal_elements():
            if self._ranks[x] != n:
                raise GradedStructureError(
                    "maximal element %r has rank %d, expected %d"
                    % (x, self._ranks[x], n)
                )

    @property
    def bottom(self):
        return self._bottom

    @property
    def rank(self) -> int:
        """Top rank n; the poset is graded of rank n."""
        return max(self._ranks.values()) if self._ranks else 0

    def rank_of(self, x) -> int:
        return self._ranks[x]

    @cached_property
    def levels(self) -> tuple:
        """Elements grouped by rank, each group in element order."""
        out = [[] for _ in range(self.rank + 1)]
        for x in self._elements:
            out[self._ranks[x]].append(x)
        return tuple(tuple(level) for level in out)


def chain_polynomial(poset: Poset) -> Poly:
    """Sum of x^(number of elements) over all chains of the poset.

    Computed by one pass in reverse topological order: the generating
    polynomial of chains with fixed minimum e is x * (1 + sum over the
    strict up-set of e).
    """
    n = len(poset)
    up = poset._up
    c = [None] * n
    total = [1]
    for i in reversed(poset._topo):
        acc = [1]
        m = up[i]
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            _add_into(acc, c[j])
        ci = [0] + acc
        c[i] = ci
        _add_into(total, ci)
    return Poly(total)


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


def adjoin_max(poset: GradedBoundedPoset) -> GradedBoundedPoset:
    """Copy of the poset with a new maximum above every maximal element.

    A graded poset of rank n becomes the bounded poset of rank n+1 whose
    proper ranks 1..n are exactly the original positive ranks; this is
    the shape the flag and rank-selection machinery expects when the
    input itself is the object of interest (e.g. a simplicial poset).
    """
    top = _fresh_labels(poset.elements, ["^1"])[0]
    elements = list(poset.elements) + [top]
    covers = list(poset.covers) + [(x, top) for x in poset.maximal_elements()]
    ranks = {x: poset.rank_of(x) for x in poset.elements}
    ranks[top] = poset.rank + 1
    return GradedBoundedPoset(
        elements, covers, bottom=poset.bottom, ranks=ranks, validate=False
    )


def rank_selected(poset: GradedBoundedPoset, t: Iterable) -> GradedBoundedPoset:
    """Subposet of the ranks in t, rebounded by a virtual bottom and top.

    Ranks are compressed to 1..len(t); the chosen original ranks are kept
    on the result as ``selected_ranks``.
    """
    n = poset.rank - 1
    sel = sorted(set(t))
    if any(not isinstance(r, int) or r < 1 or r > n for r in sel):
        raise DomainError("selected ranks must lie in 1..%d" % max(n, 0))
    bot, top = _fresh_labels(poset.elements, ["^0", "^1"])
    levels = [poset.levels[r] for r in sel]
    elements = [bot]
    for level in levels:
        elements.extend(level)
    elements.append(top)
    covers = []
    ranks = {bot: 0, top: len(sel) + 1}
    if not sel:
        covers.append((bot, top))
    else:
        for x in levels[0]:
            covers.append((bot, x))
        for k in range(len(sel) - 1):
            for x in levels[k]:
                for y in levels[k + 1]:
                    if poset.less(x, y):
                        covers.append((x, y))
        for x in levels[-1]:
            covers.append((x, top))
        for k, level in enumerate(levels):
            for x in level:
                ranks[x] = k + 1
    out = GradedBoundedPoset(elements, covers, bottom=bot, ranks=ranks, validate=False)
    out.selected_ranks = tuple(sel)
    return out


def _alpha_table(poset: GradedBoundedPoset, ranks: Sequence[int]) -> dict:
    """alpha(S) for every S contained in the given rank list.

    alpha(S) counts maximal chains of the rank selection by S: one
    element from each rank in S, linearly ordered.
    """
    ranks = sorted(set(ranks))
    levels = {r: [poset.index(x) for x in poset.levels[r]] for r in ranks}
    up = poset._up
    table = {frozenset(): 1}
    # DFS over subsets ordered by largest member; vec counts chains ending
    # at each element of the last chosen rank.
    succ_cache = {}

    def links(a: int, b: int) -> list:
        key = (a, b)
        got = succ_cache.get(key)
        if got is None:
            got = [
                [y for y in levels[b] if (up[x] >> y) & 1] for x in levels[a]
            ]
            succ_cache[key] = got
        return got

    def walk(chosen: tuple, vec: list):
        table[frozenset(chosen)] = sum(vec)
        last = chosen[-1]
        for nxt in ranks:
            if nxt <= last:
                continue
            step = links(last, nxt)
            pos = {y: k for k, y in enumerate(levels[nxt])}
            new = [0] * len(levels[nxt])
            for xi, x in enumerate(levels[last]):
                vx = vec[xi]
                if vx:
                    for y in step[xi]:
                        new[pos[y]] += vx
            walk(chosen + (nxt,), new)

    for start in ranks:
        walk((start,), [1] * len(levels[start]))
    return table


@dataclass(frozen=True)
class FlagVectors:
    """Flag alpha and beta of a graded bounded poset of rank n.

    alpha(T) counts maximal chains through exactly the ranks in T (with
    the virtual extremes adjoined); beta is its inclusion-exclusion
    transform, so alpha(T) = sum of beta(S) over S contained in T.
    """

    n: int
    _alpha: dict
    _beta: dict

    def alpha(self, t: Iterable) -> int:
        return self._alpha[frozenset(t)]

    def beta(self, t: Iterable) -> int:
        return self._beta[frozenset(t)]

    def subsets(self) -> tuple:
        return tuple(sorted(self._alpha, key=lambda s: (len(s), sorted(s))))


def flag_vectors(poset: GradedBoundedPoset) -> FlagVectors:
    """Both flag vectors over every subset of proper ranks 1..n."""
    n = poset.rank - 1
    ranks = list(range(1, n + 1))
    alpha = _alpha_table(poset, ranks)
    beta = {}
    for t in alpha:
        total = 0
        members = sorted(t)
        for mask in range(1 << len(members)):
            s = frozenset(members[i] for i in range(len(members)) if (mask >> i) & 1)
            total += (-1) ** (len(t) - len(s)) * alpha[s]
        beta[t] = total
    return FlagVectors(n, alpha, beta)


def rank_selected_h(poset: GradedBoundedPoset, t: Iterable) -> Poly:
    """h-polynomial of the order complex of the rank selection by t.

    Equals the beta generating sum over subsets of t, which the tests
    cross-check against chain enumeration on rank_selected(poset, t).
    """
    n = poset.rank - 1
    sel = sorted(set(t))
    if any(not isinstance(r, int) or r < 1 or r > n for r in sel):
        raise DomainError("selected ranks must lie in 1..%d" % max(n, 0))
    alpha = _alpha_table(poset, sel)
    coeffs = [0] * (len(sel) + 1)
    for s in alpha:
        total = 0
        members = sorted(s)
        for mask in range(1 << len(members)):
            sub = frozenset(members[i] for i in range(len(members)) if (mask >> i) & 1)
            total += (-1) ** (len(s) - len(sub)) * alpha[sub]
        coeffs[len(s)] += total
    return Poly(coeffs)


def load_poset(path: str):
    """Read the JSON poset format.

    The object carries "elements" (list of strings or ints), "covers"
    (list of [lower, upper] pairs) and optionally "bottom" and "ranks"
    (mapping element -> rank).  Returns a GradedBoundedPoset when the
    graded structure is present or inferable, otherwise a plain Poset.
    Malformed files raise PosetFileError with a line number when the JSON
    parser provides one.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise PosetFileError(str(exc)) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PosetFileError(exc.msg, line=exc.lineno) from None
    if not isinstance(data, dict):
        raise PosetFileError("top-level value must be an object")
    if "elements" not in data or "covers" not in data:
        raise PosetFileError('keys "elements" and "covers" are required')
    elements = data["elements"]
    covers = data["covers"]
    if not isinstance(elements, list):
        raise PosetFileError('"elements" must be a list')
    # JSON arrays and objects are unhashable, so they cannot name elements.
    if any(isinstance(x, (list, dict)) for x in elements):
        raise PosetFileError('"elements" must hold strings or integers')
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2
        and not any(isinstance(x, (list, dict)) for x in c)
        for c in covers
    ):
        raise PosetFileError('"covers" must be a list of [lower, upper] pairs')
    cover_pairs = [(a, b) for a, b in covers]
    bottom = data.get("bottom")
    ranks = data.get("ranks")
    if ranks is not None:
        if not isinstance(ranks, dict):
            raise PosetFileError('"ranks" must be an object')
        # int() would truncate a fractional rank such as 1.9 to 1
        if any(isinstance(v, float) and not v.is_integer() for v in ranks.values()):
            raise PosetFileError('"ranks" values must be integers')
        index = {}
        for x in elements:
            index[str(x)] = x
        try:
            ranks = {index[k]: int(v) for k, v in ranks.items()}
        except KeyError as exc:
            raise PosetFileError("rank given for unknown element %s" % exc) from None
        except (TypeError, ValueError, OverflowError):
            raise PosetFileError('"ranks" values must be integers') from None
    try:
        try:
            return GradedBoundedPoset(elements, cover_pairs, bottom=bottom, ranks=ranks)
        except GradedStructureError:
            if bottom is not None or ranks is not None:
                raise
            return Poset(elements, cover_pairs)
    except PosetFileError:
        raise
    except DomainError as exc:
        raise PosetFileError(str(exc)) from None
