"""Independent expected values for every benchmark job.

Nothing here imports chainpoly.  Each expected value comes from a closed
form, from how the input was built, from a property the paper proves,
or from a small brute-force count, so a wrong answer from the package
cannot also be the expected one.  Polynomials are plain coefficient
lists, constant term first, with no trailing zeros.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return trim(out)


def power(a, k):
    out = [1]
    for _ in range(k):
        out = mul(out, a)
    return out


def from_roots(roots, quadratic=None):
    """Product of (v x - u) over rational roots u/v, times an optional
    quadratic factor given as coefficients (c, b, 1)."""
    out = [1]
    for u, v in roots:
        out = mul(out, [-u, v])
    if quadratic is not None:
        out = mul(out, list(quadratic))
    return out


def h_from_f(f, n):
    """sum f_i x^i (1-x)^(n-i)."""
    out = []
    for i, c in enumerate(f):
        if c:
            out = add(out, mul([0] * i + [c], power([1, -1], n - i)))
    return out


def f_from_h(h, n):
    """sum h_i x^i (1+x)^(n-i)."""
    out = []
    for i, c in enumerate(h):
        if c:
            out = add(out, mul([0] * i + [c], power([1, 1], n - i)))
    return out


def gaps(n, t):
    """Gaps between consecutive members of {0} | (t & [1, n-1]) | {n}."""
    a = [0] + sorted(x for x in t if 1 <= x < n) + [n]
    return [a[i + 1] - a[i] for i in range(len(a) - 1)]


def multinomial(parts):
    out = math.factorial(sum(parts))
    for c in parts:
        out //= math.factorial(c)
    return out


def descent_class_size(n, t):
    """Permutations of [n] with every descent in t: each run between
    allowed positions is increasing, so a set partition into runs fixes
    the permutation."""
    return multinomial(gaps(n, t))


def colored_class_size(n, r, t):
    """r-colored permutations of [n] with every descent in t (positions
    1..n, the sentinel (n+1, color 0) after the last letter).  Runs are
    increasing in (color, letter) order, so colors are free and the run
    split is a multinomial, except that without position n in t the last
    run must stay below the sentinel, i.e. carry color 0 throughout."""
    g = gaps(n, t)
    free = n if n in t else n - g[-1]
    return multinomial(g) * r ** free


# ---- Coxeter data -------------------------------------------------------

EXCEPTIONAL_DEGREES = {
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}


def degrees(family, k):
    if family == "A":
        return tuple(range(2, k + 2))
    if family == "B":
        return tuple(range(2, 2 * k + 1, 2))
    if family == "D":
        return tuple(sorted(list(range(2, 2 * k - 1, 2)) + [k]))
    if family == "I2":
        return (2, k)
    return EXCEPTIONAL_DEGREES[family]


def group_order(family, k):
    return math.prod(degrees(family, k))


def catalan(family, k):
    """Number of noncrossing partitions: prod (h + d_i) / d_i."""
    ds = degrees(family, k)
    h = max(ds)
    num = math.prod(h + d for d in ds)
    return num // math.prod(ds)


def maximal_chains(family, k):
    """Maximal chains of NC(W), which is h(1): n! h^n / |W|."""
    ds = degrees(family, k)
    n = len(ds)
    return math.factorial(n) * max(ds) ** n // math.prod(ds)


def word_descents(n, r):
    """sum x^des over words in [r]^n, weak descents, by a last-letter
    dynamic program on coefficient lists."""
    if n == 0:
        return [1]
    state = [[1] for _ in range(r)]
    for _ in range(n - 1):
        new = []
        for m in range(r):
            acc = []
            for prev in range(r):
                acc = add(acc, [0] + state[prev] if prev >= m else state[prev])
            new.append(acc)
        state = new
    out = []
    for p in state:
        out = add(out, p)
    return out


@lru_cache(maxsize=None)
def nc_h(family, k):
    """Order h-polynomial of the proper part of NC(W) for A, B, D: the
    word-enumerator forms of the paper (type D through the identity
    h_D = 2 E(n, n-1) + (1 - x) E(n-1, n-1))."""
    if family == "A":
        return tuple(c // (k + 1) for c in word_descents(k, k + 1))
    if family == "B":
        return tuple(word_descents(k, k))
    e1 = [2 * c for c in word_descents(k, k - 1)]
    e2 = mul([1, -1], word_descents(k - 1, k - 1))
    return tuple(add(e1, e2))


def nc_chain(family, k):
    """Chain polynomial of the bounded lattice: (1+x)^2 f(proper part)."""
    return mul([1, 2, 1], f_from_h(list(nc_h(family, k)), k - 1))


def is_symmetric(p, n):
    cs = list(p) + [0] * (n + 1 - len(p))
    return len(p) <= n + 1 and all(cs[i] == cs[n - i] for i in range(n + 1))


# ---- posets built by the benchmark --------------------------------------


def chain_counts(elements):
    """Chain polynomial (empty chain included) of a family of sets
    ordered by inclusion, by brute force over pairs."""
    els = sorted(elements, key=len)
    ends = []
    total = [1]
    for i, x in enumerate(els):
        acc = [1]
        for j in range(i):
            if els[j] < x:
                acc = add(acc, ends[j])
        ends.append([0] + acc)
        total = add(total, ends[-1])
    return total


def level_counts(elements):
    out = [0] * (max(len(x) for x in elements) + 1)
    for x in elements:
        out[len(x)] += 1
    return out


@lru_cache(maxsize=None)
def ascent_classes(n):
    """Count w in S_(n+1) by (last letter - 1, ascent-set bitmask)."""
    counts = {}
    for w in permutations(range(1, n + 2)):
        mask = 0
        for i in range(n):
            if w[i] < w[i + 1]:
                mask |= 1 << i
        key = (w[-1] - 1, mask)
        counts[key] = counts.get(key, 0) + 1
    return counts


@lru_cache(maxsize=None)
def descent_classes(n):
    """Count w in S_n by descent-set bitmask."""
    counts = {}
    for w in permutations(range(n)):
        mask = 0
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                mask |= 1 << i
        counts[mask] = counts.get(mask, 0) + 1
    return counts


def mask_of(s):
    m = 0
    for x in s:
        m |= 1 << (x - 1)
    return m


def submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def simplicial_betas(h, n):
    """Flag beta of a simplicial poset of rank n by Stanley's h-weighted
    ascent classes, keyed by bitmask over ranks 1..n."""
    counts = ascent_classes(n)
    out = {}
    for mask in range(1 << n):
        out[mask] = sum(
            hk * counts.get((k, mask), 0) for k, hk in enumerate(h) if hk
        )
    return out


def alphas_from_betas(betas):
    return {m: sum(betas[s] for s in submasks(m)) for m in betas}


def selected_h(betas, mask):
    """Rank-selected h: sum of beta(S) x^|S| over S inside the mask."""
    out = [0] * (bin(mask).count("1") + 1)
    for s in submasks(mask):
        out[bin(s).count("1")] += betas[s]
    return trim(out)


def interlaces_by_construction(alphas, betas):
    """Weak alternation beta_1 >= alpha_1 >= beta_2 >= ... for root
    lists given as numbers, which the benchmark chose."""
    a = sorted(alphas, reverse=True)
    b = sorted(betas, reverse=True)
    if not len(a) <= len(b) <= len(a) + 1:
        return False
    for i, x in enumerate(a):
        if not b[i] >= x:
            return False
        if i + 1 < len(b) and not x >= b[i + 1]:
            return False
    return True
