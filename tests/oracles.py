"""Brute-force oracles that only the tests use.

The word enumerators list every word and count its descents or ascents
directly, independent of the transfer recurrences in ``chainpoly.descents``.
The recurrences themselves have a list route here: the transfer step on
plain coefficient lists, one pass over a list per entry, where the
package packs each entry into one int and shifts and adds whole
polynomials.
The reflection-group oracles find absolute lengths by breadth-first
search over the reflection Cayley graph, and noncrossing lattices by
filtering the whole group by those lengths and testing every pair of
consecutive ranks, independent of Carter's formula and of the upward
walk in ``chainpoly.coxeter``.  The walk oracle is that upward walk with
an absolute length computed for every candidate reflection, where the
package decides each candidate from the cycles of one element.  The
simplicial oracle compares the order with atom-set containment on every
pair below each element, where the package checks the covers of each
element, and the subposet oracle finds covers by testing every pair of
kept elements.  The rank-selection oracle compares every pair of
consecutive selected levels, and the face-poset and colored-subset
oracles test every pair of sets; the package reads the first from
bitmasks and the others from integer codes of the sets instead.  The
cover-check oracle finds each up-set by depth-first search over the
cover list and tests every cover against the up-sets of its siblings,
where the package folds that test into its one up-set pass.

The chain-count oracles count chains by size, and by rank set for the
flag alpha table, with plain ints and the order comparison ``less`` on
every pair, where the package packs whole polynomials, or the whole
table, into one int and walks up-set bitmasks.  The Moebius oracle
transforms the flag table one entry at a time, where the package
subtracts whole slices.

The determinant oracle runs Gessel's Hessenberg recurrence as products
of ``Poly`` objects in the basis x, where the package packs each minor
into one int in the basis y = x - 1.

The type-D chain counts come from a composition formula, independent of
both the lattice and the h-polynomial formula route.

The remainder-sequence oracles are the certify layer's earlier route over
``Poly`` with ``Fraction`` contents: a pseudo-remainder that rescales by
the lead at every nonzero step, a ``Poly`` and a primitive part for every
chain member, and exact division by long division over Q.  The package
runs the same mathematics on integer coefficient lists.  The interlacing
oracle divides p and q by their gcd g and reads Ind((p/g)/(q/g)) off a
second remainder sequence, where the package reads Ind(q/p) off the
sequence of p and q and turns it into Ind(p/q) by Cauchy index
reciprocity.

The Wronskian oracle decides interlacing in one direction or the other
without ``interlaces``.  The Wronskian w = p'q - pq' changes sign exactly
at its real roots of odd multiplicity.  With w_0 = w and
w_(k+1) = gcd(w_k, w_k'), the last member of the Sturm chain of w_k, a
real root of multiplicity m is a distinct real root of w_0, ..., w_(m-1)
and of no later w_k, so it adds 1 - 1 + 1 - ... (m terms), that is
m mod 2, to the alternating sum of the distinct real root counts of the
w_k.  That sum is zero exactly when w is semidefinite.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from chainpoly.coxeter import (
    _absolute_length,
    _identity,
    _signed_transposition,
    _transposition,
    compose,
)
from chainpoly.errors import DomainError, NotRealRootedError, ResourceLimitError
from chainpoly.polynomials import ONE, ZERO, Poly
from chainpoly.posets import GradedBoundedPoset, Poset, _fresh_labels


def word_descent_enumerator_bruteforce(n: int, r: int, max_enum: int = 10 ** 6) -> Poly:
    if r ** n > max_enum:
        raise ResourceLimitError("r^n exceeds the enumeration cap")
    coeffs = [0] * (n + 1)
    for w in product(range(1, r + 1), repeat=n):
        des = sum(1 for i in range(n - 1) if w[i] >= w[i + 1])
        coeffs[des] += 1
    return Poly(coeffs)


def word_ascent_enumerator_bruteforce(n: int, r: int, max_enum: int = 10 ** 6) -> Poly:
    if r ** n > max_enum:
        raise ResourceLimitError("r^n exceeds the enumeration cap")
    coeffs = [0] * (n + 1)
    for w in product(range(1, r + 1), repeat=n):
        word = (1,) + w
        asc = sum(1 for i in range(n) if word[i] < word[i + 1])
        coeffs[asc] += 1
    return Poly(coeffs)


def signed_word_descent_enumerator_bruteforce(n: int, max_enum: int = 10 ** 6) -> Poly:
    if not isinstance(n, int) or n < 2:
        raise DomainError("signed words need n >= 2")
    if 2 * (n - 1) ** n > max_enum:
        raise ResourceLimitError("2(n-1)^n exceeds the enumeration cap")
    letters = range(1, n)
    coeffs = [0] * (n + 1)
    for first in list(range(-(n - 1), 0)) + list(letters):
        for rest in product(letters, repeat=n - 1):
            w = (first,) + rest
            des = 0
            if abs(w[0]) > w[1] or w[0] == w[1]:
                des += 1
            for i in range(1, n - 1):
                if w[i] >= w[i + 1]:
                    des += 1
            coeffs[des] += 1
    return Poly(coeffs)


def transfer_oracle(row: list, head, tail) -> list:
    """The descent recurrences' transfer step on coefficient lists.

    Returns out[k] = A * sum(row[:k]) + B * sum(row[k:]) for k = 0..len(row),
    with A = x^head, B = x^tail and None standing for the weight 0.  The
    entries of ``row`` are integer coefficient lists of one common length,
    and so are those of the result.
    """
    width = len(row[0]) + (1 in (head, tail))

    def pads(e):
        return [0] * e, [0] * (width - len(row[0]) - e)

    tl, tr = pads(tail)
    cur = tl + [sum(col) for col in zip(*row)] + tr
    out = [cur]
    if head is None:
        # (0, 1): the suffix sums, at the row's own width
        for p in row:
            cur = [c - v for c, v in zip(cur, p)]
            out.append(cur)
    else:
        hl, hr = pads(head)
        for p in row:
            cur = [c + u - v for c, u, v in zip(cur, hl + p + hr, tl + p + tr)]
            out.append(cur)
    return out


def first_letter_rows_oracle(n: int, allowed) -> tuple:
    allowed = frozenset(a for a in allowed if a <= n)
    row = [[1]]
    for m in range(1, n + 1):
        head = 1 if 1 + n - m in allowed else None
        row = transfer_oracle(row, head, 0)
    return tuple(map(tuple, row))


def colored_descent_enumerator_oracle(n: int, r: int, allowed) -> Poly:
    reflected = frozenset(n + 1 - a for a in allowed if a <= n)
    row = first_letter_rows_oracle(n, reflected)
    weights = [math.comb(n, k) * (r - 1) ** k for k in range(n + 1)]
    return Poly([sum(w * c for w, c in zip(weights, col)) for col in zip(*row)])


def word_descent_enumerator_oracle(n: int, r: int) -> Poly:
    if n == 0:
        return ONE
    state = [[1]] * r
    for _ in range(n - 1):
        state = transfer_oracle(state, 0, 1)[:r]
    return Poly([sum(col) for col in zip(*state)])


def word_ascent_enumerator_oracle(n: int, r: int) -> Poly:
    state = [[1]] + [[0]] * (r - 1)
    for _ in range(n):
        state = transfer_oracle(state, 1, 0)[:r]
    return Poly([sum(col) for col in zip(*state)])


def signed_word_columns_oracle(n: int, k: int) -> tuple:
    """The refinement columns (h_(n,k,1), ..., h_(n,k,n-1)) of the
    signed-word descent enumerator, for 2 <= k <= n+1.

    Base case k = 2: h_(n,2,j) = (2j-1) + (2n-2j-1) x.  Each step k -> k+1
    takes head sums plus x times tail sums; at k = n+1 only j = 1 remains
    meaningful and equals x times the full enumerator.
    """
    cols = [[2 * j - 1, 2 * n - 2 * j - 1] for j in range(1, n)]
    for _ in range(k - 2):
        cols = transfer_oracle(cols, 0, 1)[: n - 1]
    return tuple(Poly(c) for c in cols)


def determinant_descent_enumerator_oracle(n: int, allowed) -> Poly:
    """Gessel's determinant by its Hessenberg recurrence over ``Poly``:
    E_0 = 1, E_(k+1) = sum over i <= k of C(a_(k+1), a_i) (x-1)^(k-i) E_i,
    and the enumerator is E_(r+1) reversed at degree r."""
    t = sorted(a for a in allowed if a <= n - 1)
    a = [0] + t + [n]
    r = len(t)
    powers = [ONE]
    for _ in range(r):
        powers.append(powers[-1] * Poly([-1, 1]))
    minors = [ONE]
    for k in range(r + 1):
        acc = ZERO
        for i in range(k + 1):
            acc = acc + (powers[k - i] * minors[i]).scale(math.comb(a[k + 1], a[i]))
        minors.append(acc)
    return minors[-1].reverse(r)


def inverse(u: tuple) -> tuple:
    """The inverse of a signed permutation."""
    out = [0] * len(u)
    for i, j in enumerate(u, start=1):
        if j > 0:
            out[j - 1] = i
        else:
            out[-j - 1] = -i
    return tuple(out)


def _reflections(family: str, n: int) -> list:
    """Every reflection of the type A, B or D group acting on n letters."""
    out = []
    if family == "B":
        for i in range(1, n + 1):
            w = list(range(1, n + 1))
            w[i - 1] = -i
            out.append(tuple(w))
    for i, j in combinations(range(1, n + 1), 2):
        out.append(_transposition(n, i, j))
        if family != "A":
            out.append(_signed_transposition(n, i, j))
    return out


def absolute_lengths_bfs(family: str, n: int) -> dict:
    """Absolute length of every group element, by breadth-first search
    from the identity over the reflection Cayley graph."""
    reflections = _reflections(family, n)
    identity = _identity(n)
    lengths = {identity: 0}
    frontier = [identity]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for r in reflections:
                v = compose(u, r)
                if v not in lengths:
                    lengths[v] = depth
                    nxt.append(v)
        frontier = nxt
    return lengths


def noncrossing_lattice_pairwise(g, gamma=None) -> GradedBoundedPoset:
    """The interval [e, gamma] in absolute order: every group element
    with l(a) + l(a^-1 gamma) = rank, and a cover for every pair at
    consecutive ranks that differs by a reflection."""
    if gamma is None:
        gamma = g.gamma
    lengths = absolute_lengths_bfs(g.coxeter_type.family, g.degree)
    nc = [
        a
        for a in g.elements
        if lengths[a] + lengths[compose(inverse(a), gamma)] == g.rank
    ]
    by_rank = {}
    for a in nc:
        by_rank.setdefault(lengths[a], []).append(a)
    covers = []
    for ell in range(g.rank):
        uppers = by_rank.get(ell + 1, [])
        for a in by_rank.get(ell, []):
            ai = inverse(a)
            for b in uppers:
                if compose(ai, b) in g.reflections:
                    covers.append((a, b))
    out = GradedBoundedPoset(nc, covers)
    # absolute length, from the search, must be the rank the covers give
    assert all(out.rank_of(a) == lengths[a] for a in nc)
    return out


def noncrossing_lattice_walk(g) -> GradedBoundedPoset:
    """The upward walk of ``noncrossing_lattice`` with an absolute length
    for every candidate: at a with c = a^-1 gamma, keep the reflection t
    when l(t c) = l(c) - 1, computed by Carter's formula on the product,
    where the package decides t <= c from the cycles of c alone."""
    level = {g.identity: (g.gamma, g.reflections)}
    elements = [g.identity]
    covers = []
    for length in reversed(range(g.rank)):  # of t c, one level up
        uppers = {}
        for a in sorted(level):
            c, candidates = level[a]
            kept = {t: compose(t, c) for t in candidates}
            kept = {t: tc for t, tc in kept.items() if _absolute_length(tc) == length}
            above = {compose(a, t): (tc, kept) for t, tc in kept.items()}
            covers.extend((a, b) for b in sorted(above))
            uppers.update(above)
        level = uppers
        elements.extend(level)
    elements.sort()
    position = {w: k for k, w in enumerate(elements)}
    pairs = [(position[a], position[b]) for a, b in covers]
    return GradedBoundedPoset._from_pairs(elements, pairs)


def is_simplicial_pairwise(poset: GradedBoundedPoset) -> bool:
    """Whether every lower interval is Boolean: the counts and distinct
    atom sets below each y, and order agreeing with atom-set containment
    on every pair below y."""
    n_elem = len(poset)
    up = poset._up
    atoms = [poset.index(a) for a in poset.levels[1]] if poset.rank >= 1 else []
    coord = [0] * n_elem
    for i in range(n_elem):
        for k, a in enumerate(atoms):
            if a == i or (up[a] >> i) & 1:
                coord[i] |= 1 << k
    for y in range(n_elem):
        r = poset.rank_of(poset.elements[y])
        below = [x for x in range(n_elem) if (up[x] >> y) & 1] + [y]
        if len(below) != 1 << r or bin(coord[y]).count("1") != r:
            return False
        if len({coord[x] for x in below}) != len(below):
            return False
        for x in below:
            for z in below:
                contained = coord[x] & ~coord[z] == 0
                related = x == z or (up[x] >> z) & 1 == 1
                if contained != related:
                    return False
    return True


def cover_check_pairwise(elements, covers):
    """The error a Poset on these covers raises, and its strict order.

    Returns ((type, message) or None, set of pairs x < y).  The checks
    run in the package's order: a duplicate element, then per cover in
    input order unknown ends and self-covers, then a cycle, then the
    first cover in input order that lies above another cover of its
    lower end.  Up-sets come from depth-first search over the covers.
    """
    seen = []
    for x in elements:
        if x in seen:
            return (DomainError, "duplicate element %r" % (x,)), set()
        seen.append(x)
    pairs = []
    for x, y in covers:
        if x not in seen or y not in seen:
            return (DomainError, "cover (%r, %r) uses unknown elements" % (x, y)), set()
        if x == y:
            return (DomainError, "self-cover at %r" % (x,)), set()
        if (x, y) not in pairs:
            pairs.append((x, y))

    def up_set(x):
        out, stack = set(), [x]
        while stack:
            a = stack.pop()
            for b in (b for c, b in pairs if c == a and b not in out):
                out.add(b)
                stack.append(b)
        return out

    up = {x: up_set(x) for x in elements}
    less = {(x, y) for x in elements for y in up[x]}
    if any(x in up[x] for x in elements):
        return (DomainError, "cover relation contains a cycle"), less
    for x, y in pairs:
        if any(y in up[z] for c, z in pairs if c == x):
            return (DomainError, "cover (%r, %r) is implied by transitivity" % (x, y)), less
    return None, less


def graded_ranks_pairwise(elements, covers):
    """Rank of each element of a checked cover list when it is graded and
    bounded below, else None: one minimal element, every path from it to
    an element of one length, and every maximal element in the top rank.
    Path lengths come from listing every path."""
    minimal = [x for x in elements if all(y != x for _, y in covers)]
    if len(minimal) != 1:
        return None
    lengths = {x: set() for x in elements}
    stack = [(minimal[0], 0)]
    while stack:
        x, length = stack.pop()
        lengths[x].add(length)
        stack.extend((y, length + 1) for c, y in covers if c == x)
    if any(len(found) != 1 for found in lengths.values()):
        return None
    ranks = {x: found.pop() for x, found in lengths.items()}
    maximal = [x for x in elements if all(c != x for c, _ in covers)]
    if any(ranks[x] != max(ranks.values()) for x in maximal):
        return None
    return ranks


def subposet_pairwise(poset: Poset, keep) -> Poset:
    """Induced subposet: b covers a when a < b and no kept c above a is
    below b, tested for every pair of kept elements."""
    keep = set(keep)
    keep_list = [x for x in poset.elements if x in keep]
    covers = []
    for a in keep_list:
        ups = [b for b in keep_list if poset.less(a, b)]
        for b in ups:
            if not any(poset.less(c, b) for c in ups):
                covers.append((a, b))
    return Poset(keep_list, covers)


def rank_selected_pairwise(poset: GradedBoundedPoset, t) -> GradedBoundedPoset:
    """Rank selection with a cover for every pair x < y of consecutive
    selected levels, found by one order comparison per pair."""
    sel = sorted(set(t))
    bot, top = _fresh_labels(poset.elements, ["^0", "^1"])
    levels = [poset.levels[r] for r in sel]
    elements = [bot] + [x for level in levels for x in level] + [top]
    ranks = {bot: 0, top: len(sel) + 1}
    if not sel:
        covers = [(bot, top)]
    else:
        covers = [(bot, x) for x in levels[0]]
        for k in range(len(sel) - 1):
            for x in levels[k]:
                for y in levels[k + 1]:
                    if poset.less(x, y):
                        covers.append((x, y))
        covers += [(x, top) for x in levels[-1]]
        for k, level in enumerate(levels):
            ranks.update(dict.fromkeys(level, k + 1))
    out = GradedBoundedPoset(elements, covers)
    # the compressed level must be the rank the covers give
    assert all(out.rank_of(x) == r for x, r in ranks.items())
    out.selected_ranks = tuple(sel)
    return out


def face_poset_pairwise(facets) -> GradedBoundedPoset:
    """Face poset of a pure complex with a cover for every pair of faces
    x < y of consecutive sizes, scanned in element order."""
    facet_sets = [frozenset(f) for f in facets]
    maximal = [f for f in facet_sets if not any(f < g for g in facet_sets)]
    faces = set()
    for f in maximal:
        for size in range(len(f) + 1):
            faces.update(frozenset(c) for c in combinations(sorted(f), size))
    elements = sorted(faces, key=lambda s: (len(s), sorted(map(repr, s))))
    covers = [
        (x, y)
        for x in elements
        for y in elements
        if len(y) == len(x) + 1 and x < y
    ]
    out = GradedBoundedPoset(elements, covers)
    # face size must be the rank the covers give
    assert all(out.rank_of(x) == len(x) for x in elements)
    return out


def colored_subset_poset_pairwise(n: int, r: int) -> GradedBoundedPoset:
    """Colored subsets listed by size, points and colors, with a cover
    for every pair x < y of sets one colored point apart, scanned in
    element order."""
    elements = [
        frozenset(zip(points, colors))
        for size in range(n + 1)
        for points in combinations(range(1, n + 1), size)
        for colors in product(range(r), repeat=size)
    ]
    covers = [
        (x, y)
        for x in elements
        for y in elements
        if len(y) == len(x) + 1 and x < y
    ]
    out = GradedBoundedPoset(elements, covers)
    # set size must be the rank the covers give
    assert all(out.rank_of(x) == len(x) for x in elements)
    return out


def chain_polynomial_pairwise(poset: Poset) -> Poly:
    """Chains by size: N_k(e) = sum of N_(k-1)(f) over f > e, with N_1 = 1.

    An element has fewer elements above it than any element below it, so
    ordering by that count puts each f > e before e.
    """
    els = poset.elements
    above = {e: [f for f in els if poset.less(e, f)] for e in els}
    counts = {}
    total = [1]
    for e in sorted(els, key=lambda e: len(above[e])):
        row = [0, 1]
        for f in above[e]:
            row += [0] * (len(counts[f]) + 1 - len(row))
            for k, count in enumerate(counts[f]):
                row[k + 1] += count
        counts[e] = row
        total += [0] * (len(row) - len(total))
        for k, count in enumerate(row):
            total[k] += count
    return Poly(total)


def flag_alpha_pairwise(poset: GradedBoundedPoset) -> list:
    """alpha(S) for every set S of proper ranks, indexed by the bitmask of
    S (bit r - 1 for rank r): the chains with one element at each rank of
    S, each found by extending the chains that end below its top element,
    tested with ``less`` on every pair of proper elements."""
    n = max(poset.rank - 1, 0)
    proper = [y for level in poset.levels[1 : n + 1] for y in level]
    alpha = [1] + [0] * ((1 << n) - 1)
    ending = {}
    for y in proper:
        bit = 1 << (poset.rank_of(y) - 1)
        counts = ending[y] = {bit: 1}
        for x in proper:
            if poset.less(x, y):
                for mask, count in ending[x].items():
                    counts[mask | bit] = counts.get(mask | bit, 0) + count
        for mask, count in counts.items():
            alpha[mask] += count
    return alpha


def moebius_oracle(table: list) -> list:
    """In-place subset Moebius transform, one mask and one bit at a time:
    table[S] -= table[S - {b}] for every bit b of every mask S, where the
    package subtracts whole slices."""
    bit = 1
    while bit < len(table):
        for mask in range(len(table)):
            if mask & bit:
                table[mask] -= table[mask ^ bit]
        bit <<= 1
    return table


def _compositions(total: int, parts: int):
    """Compositions of ``total`` into ``parts`` positive parts."""
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def flag_f_nc_d(n: int, k: int) -> int:
    """Number of chains with k elements in the proper part of the type-D
    noncrossing lattice of rank n, by the composition formula.

    Two sums over compositions into k+1 positive parts, of n and of n-1,
    with all parts scored by binomials over n-1.
    """
    total = 0
    for weight, size in ((2, n), (1, n - 1)):
        for comp in _compositions(size, k + 1):
            total += weight * math.prod(math.comb(n - 1, a) for a in comp)
    return total


def primitive_part(p: Poly) -> Poly:
    """p with denominators cleared and divided by the gcd of its integer
    coefficients; the sign of p is kept."""
    if p.is_zero:
        return ZERO
    denom = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * denom) for c in p.coeffs]
    g = math.gcd(*ints)
    return Poly([c // g for c in ints])


def poly_rem_oracle(a: Poly, b: Poly) -> Poly:
    """Remainder of integer a by nonzero integer b, times a positive integer
    so that it stays integral and keeps the signs Sturm chains read."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    bc = b.coeffs if b.coeffs[-1] > 0 else (-b).coeffs
    lead = bc[-1]
    db = len(bc) - 1
    rem = list(a.coeffs)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        for k in range(i):
            rem[k] *= lead
        rem[i] = 0
        for j in range(db):
            rem[i - db + j] -= c * bc[j]
    return Poly(rem)


def exact_div_oracle(a: Poly, b: Poly) -> Poly:
    """Quotient a / b, raising DomainError unless the division is exact."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return ZERO
    rem = list(a.coeffs)
    bc = b.coeffs
    db = len(bc) - 1
    da = len(rem) - 1
    if da < db:
        raise DomainError("inexact polynomial division")
    inv_lead = Fraction(1, 1) / Fraction(bc[-1])
    quot = [0] * (da - db + 1)
    for i in range(da, db - 1, -1):
        if rem[i] == 0:
            continue
        factor = rem[i] * inv_lead
        quot[i - db] = factor
        rem[i] = 0
        for j in range(db):
            rem[i - db + j] -= factor * bc[j]
    if any(c != 0 for c in rem):
        raise DomainError("inexact polynomial division")
    return Poly(quot)


def remainder_sequence_oracle(f0: Poly, f1: Poly) -> tuple:
    """f0, f1, -rem(f0, f1), ... down to gcd(f0, f1), every member primitive
    (positive rescaling only, so all signs are preserved)."""
    chain = [primitive_part(f0)]
    if not f1.is_zero:
        chain.append(primitive_part(f1))
        while True:
            rem = poly_rem_oracle(chain[-2], chain[-1])
            if rem.is_zero:
                break
            chain.append(primitive_part(-rem))
    return tuple(chain)


def poly_gcd_oracle(a: Poly, b: Poly) -> Poly:
    g = remainder_sequence_oracle(a, b)[-1]
    if g.is_zero:
        return ZERO
    if g.leading_coefficient < 0:
        g = -g
    if g.degree == 0:
        return ONE
    return g


def sturm_chain_oracle(p: Poly) -> tuple:
    return remainder_sequence_oracle(p, p.derivative())


def _variations_oracle(chain: tuple) -> tuple:
    ends = [(m.leading_coefficient > 0, m.degree % 2 == 1)
            for m in chain if not m.is_zero]
    pairs = list(zip(ends, ends[1:]))
    vneg = sum((a != da) != (b != db) for (a, da), (b, db) in pairs)
    vpos = sum(a != b for (a, _), (b, _) in pairs)
    return vneg, vpos


def real_rootedness_oracle(p: Poly) -> tuple:
    """The fields of RealRootedness in order: holds, degree,
    squarefree_degree, distinct_real_roots and the two variation counts."""
    chain = sturm_chain_oracle(p)
    gcd = chain[-1]
    sf_degree = p.degree - gcd.degree
    vneg, vpos = _variations_oracle(chain)
    roots = vneg - vpos
    if roots != sf_degree and gcd.degree > 0:
        vneg, vpos = _variations_oracle(sturm_chain_oracle(exact_div_oracle(chain[0], gcd)))
    return (roots == sf_degree, p.degree, sf_degree, roots, vneg, vpos)


def interlaces_oracle(p: Poly, q: Poly) -> bool:
    if not real_rootedness_oracle(p)[0]:
        raise NotRealRootedError("first argument is not real-rooted")
    if not real_rootedness_oracle(q)[0]:
        raise NotRealRootedError("second argument is not real-rooted")
    if p.is_zero or q.is_zero:
        return True
    s, t = p.degree, q.degree
    if not s <= t <= s + 1:
        return False
    if s == 0:
        return True
    g = poly_gcd_oracle(p, q)
    pg = exact_div_oracle(primitive_part(p), g)
    qg = exact_div_oracle(primitive_part(q), g)
    if qg.degree == 0:
        return True
    sign = 1 if (p.leading_coefficient > 0) == (q.leading_coefficient > 0) else -1
    if pg.degree == qg.degree:
        pg = poly_rem_oracle(pg, qg)
    vneg, vpos = _variations_oracle(remainder_sequence_oracle(qg, pg))
    return vneg - vpos == qg.degree * sign


def wronskian_semidefinite_oracle(p: Poly, q: Poly) -> bool:
    w = p.derivative() * q - p * q.derivative()
    odd_roots, sign = 0, 1
    while w.degree > 0:
        chain = sturm_chain_oracle(w)
        vneg, vpos = _variations_oracle(chain)
        odd_roots += sign * (vneg - vpos)
        sign = -sign
        w = chain[-1]
    return odd_roots == 0
