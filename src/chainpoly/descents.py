"""Descent enumerators for permutations, colored permutations and words.

The central object is the restricted descent polynomial: the sum of
x^des(w) over permutations w of n letters whose descent set lies inside
a prescribed set of positions.  It is available twice over: a brute
force enumerator over the symmetric group, and a fast recurrence through
the first-letter refinement p_(n,k) (permutations of n+1 letters with
first letter k+1).  The same pattern repeats for colored permutations,
for words over a bounded alphabet and for the signed-word family used by
the type-D noncrossing lattice, so every fast path has an independent
enumeration to test against.  All four fast recurrences are one transfer
step, ``_transfer``, on plain integer coefficient lists; ``Poly`` objects
appear only in what the public functions return.  A determinant formula
(an O(r^2) Hessenberg recurrence in integers), exact mean and variance
of the descent statistic, and the mode bound around them round out the
module.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Tuple

from .errors import DomainError, ResourceLimitError
from .polynomials import ONE, Poly

DEFAULT_PERMUTATION_CAP = 9
DEFAULT_COLORED_CAP = 10 ** 7


def _position_set(allowed: Iterable, n: int) -> frozenset:
    """Normalize a position set to its meaningful part inside 1..n."""
    out = set()
    for a in allowed:
        if not isinstance(a, int) or a < 1:
            raise DomainError("descent positions must be positive integers")
        if a <= n:
            out.add(a)
    return frozenset(out)


def descent_set(w: Tuple[int, ...]) -> frozenset:
    """Positions i with w(i) > w(i+1), one-indexed."""
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


@lru_cache(maxsize=None)
def _descent_distribution(n: int) -> dict:
    """Map descent-set bitmask -> count over all of S_n."""
    counts = {}
    for w in permutations(range(1, n + 1)):
        mask = 0
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                mask |= 1 << i
        counts[mask] = counts.get(mask, 0) + 1
    return counts


def descent_enumerator_bruteforce(
    n: int, allowed: Iterable, max_letters: int = DEFAULT_PERMUTATION_CAP
) -> Poly:
    """Sum of x^des(w) over w in S_n with descents inside ``allowed``.

    Enumerates the full symmetric group, so n is capped (default 9).
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError("n must be a nonnegative integer")
    if n > max_letters:
        raise ResourceLimitError(
            "n=%d exceeds the enumeration cap %d" % (n, max_letters)
        )
    t = _position_set(allowed, n - 1)
    tmask = 0
    for a in t:
        tmask |= 1 << (a - 1)
    coeffs = [0] * max(len(t) + 1, 1)
    for mask, count in _descent_distribution(n).items():
        if mask & ~tmask == 0:
            coeffs[bin(mask).count("1")] += count
    return Poly(coeffs)


# Weights of the transfer step, as the power of x they stand for; None is 0.
_ZERO, _ONE, _X = None, 0, 1


def _transfer(row: list, head, tail) -> list:
    """One step of every descent recurrence in this module.

    Returns out[k] = A * sum(row[:k]) + B * sum(row[k:]) for k = 0..len(row),
    with A = x^head, B = x^tail and None standing for the weight 0; the
    pairs (A, B) used are (x, 1), (1, x) and (0, 1).  The entries of
    ``row`` are integer coefficient lists of one common length, and so are
    those of the result.  Since out[k+1] - out[k] = (A - B) * row[k], each
    entry costs one pass over a coefficient list.
    """
    width = len(row[0]) + (_X in (head, tail))

    def pads(e):
        return [0] * e, [0] * (width - len(row[0]) - e)

    tl, tr = pads(tail)
    cur = tl + [sum(col) for col in zip(*row)] + tr
    out = [cur]
    if head is _ZERO:
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


@lru_cache(maxsize=None)
def _first_letter_rows(n: int, allowed: frozenset) -> tuple:
    """The first-letter row as integer coefficient tuples of one length."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("n must be a nonnegative integer")
    allowed = _position_set(allowed, n)
    row = [[1]]
    for m in range(1, n + 1):
        # positions relevant at length m are the original ones shifted
        # down by n - m
        head = _X if 1 + n - m in allowed else _ZERO
        row = _transfer(row, head, _ONE)
    return tuple(map(tuple, row))


def first_letter_descent_polynomials(n: int, allowed: frozenset) -> tuple:
    """The row (p_0, ..., p_n): p_k sums x^des over w in S_(n+1) with
    w(1) = k+1 and descent set inside ``allowed``.

    Built by the first-letter recurrence.  With T the allowed set and
    T-1 its shift down by one: when 1 is not allowed, p_(n,k) collects
    the tail sums of the previous row; when 1 is allowed, the head sums
    enter multiplied by x.
    """
    return tuple(Poly(p) for p in _first_letter_rows(n, frozenset(allowed)))


def first_letter_descent_polynomial(n: int, allowed: Iterable, k: int) -> Poly:
    if not isinstance(k, int) or not 0 <= k <= n:
        raise DomainError("first letter index k must lie in 0..n")
    return first_letter_descent_polynomials(n, frozenset(allowed))[k]


def descent_enumerator(n: int, allowed: Iterable) -> Poly:
    """Fast restricted descent polynomial via the first-letter rows.

    Agrees with descent_enumerator_bruteforce wherever the latter can
    run, but has no factorial blowup.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError("n must be a nonnegative integer")
    if n == 0:
        return ONE
    row = _first_letter_rows(n - 1, frozenset(allowed))
    return Poly([sum(col) for col in zip(*row)])


def colored_descent_positions(w: Tuple[int, ...], colors: Tuple[int, ...]) -> frozenset:
    """Descents of a colored permutation, sentinel fixed point appended.

    Position i in 1..n descends when the color drops, or the colors tie
    and the letters drop; the sentinel has letter n+1 and color 0.
    """
    n = len(w)
    out = set()
    for i in range(n):
        cw, cc = w[i], colors[i]
        nw, nc = (w[i + 1], colors[i + 1]) if i + 1 < n else (n + 1, 0)
        if cc > nc or (cc == nc and cw > nw):
            out.add(i + 1)
    return frozenset(out)


@lru_cache(maxsize=None)
def _colored_descent_distribution(n: int, r: int) -> dict:
    counts = {}
    for w in permutations(range(1, n + 1)):
        wd = list(w) + [n + 1]
        for colors in product(range(r), repeat=n):
            cd = list(colors) + [0]
            mask = 0
            for i in range(n):
                if cd[i] > cd[i + 1] or (cd[i] == cd[i + 1] and wd[i] > wd[i + 1]):
                    mask |= 1 << i
            counts[mask] = counts.get(mask, 0) + 1
    return counts


def colored_descent_enumerator(n: int, r: int, allowed: Iterable) -> Poly:
    """Sum of x^des over r-colored permutations of n letters with descent
    set inside ``allowed`` (positions 1..n; position n descends exactly
    when the last letter is colored).

    Computed without enumeration: the colored subset poset has
    h-polynomial (1+(r-1)x)^n, so the enumerator is the h-weighted sum
    of the first-letter row at the reflected position set
    {n+1-i : i in allowed}.  The brute-force companion checks this.
    """
    if not isinstance(n, int) or n < 0 or not isinstance(r, int) or r < 1:
        raise DomainError("need n >= 0 and r >= 1")
    t = _position_set(allowed, n)
    reflected = frozenset(n + 1 - a for a in t)
    row = _first_letter_rows(n, reflected)
    weights = [math.comb(n, k) * (r - 1) ** k for k in range(n + 1)]
    return Poly([sum(w * c for w, c in zip(weights, col)) for col in zip(*row)])


def colored_descent_enumerator_bruteforce(
    n: int, r: int, allowed: Iterable, max_enum: int = DEFAULT_COLORED_CAP
) -> Poly:
    """The same enumerator by listing all n! * r^n colored permutations."""
    if not isinstance(n, int) or n < 0 or not isinstance(r, int) or r < 1:
        raise DomainError("need n >= 0 and r >= 1")
    if math.factorial(n) * r ** n > max_enum:
        raise ResourceLimitError(
            "n! * r^n = %d exceeds the enumeration cap %d"
            % (math.factorial(n) * r ** n, max_enum)
        )
    t = _position_set(allowed, n)
    tmask = 0
    for a in t:
        tmask |= 1 << (a - 1)
    coeffs = [0] * (n + 1)
    for mask, count in _colored_descent_distribution(n, r).items():
        if mask & ~tmask == 0:
            coeffs[bin(mask).count("1")] += count
    return Poly(coeffs)


def word_descent_enumerator(n: int, r: int) -> Poly:
    """Sum of x^des over all words in [r]^n, descents weak (>=).

    Dynamic program on the last letter; no enumeration cap needed.
    """
    if not isinstance(n, int) or n < 0 or not isinstance(r, int) or r < 1:
        raise DomainError("need n >= 0 and r >= 1")
    if n == 0:
        return ONE
    state = [[1]] * r
    for _ in range(n - 1):
        state = _transfer(state, _ONE, _X)[:r]
    return Poly([sum(col) for col in zip(*state)])


def word_descent_enumerator_bruteforce(n: int, r: int, max_enum: int = 10 ** 6) -> Poly:
    if r ** n > max_enum:
        raise ResourceLimitError("r^n exceeds the enumeration cap")
    coeffs = [0] * (n + 1)
    for w in product(range(1, r + 1), repeat=n):
        des = sum(1 for i in range(n - 1) if w[i] >= w[i + 1])
        coeffs[des] += 1
    return Poly(coeffs)


def word_ascent_enumerator(n: int, r: int) -> Poly:
    """Sum of x^asc over words w(0) w(1) ... w(n) in [r] with w(0) = 1,
    ascents strict (<), counted at positions 1..n."""
    if not isinstance(n, int) or n < 0 or not isinstance(r, int) or r < 1:
        raise DomainError("need n >= 0 and r >= 1")
    state = [[1]] + [[0]] * (r - 1)
    for _ in range(n):
        state = _transfer(state, _X, _ONE)[:r]
    return Poly([sum(col) for col in zip(*state)])


def word_ascent_enumerator_bruteforce(n: int, r: int, max_enum: int = 10 ** 6) -> Poly:
    if r ** n > max_enum:
        raise ResourceLimitError("r^n exceeds the enumeration cap")
    coeffs = [0] * (n + 1)
    for w in product(range(1, r + 1), repeat=n):
        word = (1,) + w
        asc = sum(1 for i in range(n) if word[i] < word[i + 1])
        coeffs[asc] += 1
    return Poly(coeffs)


def _signed_columns(n: int, k: int) -> list:
    """signed_word_columns as integer coefficient lists of one length."""
    if not isinstance(n, int) or n < 2:
        raise DomainError("signed words need n >= 2")
    if not isinstance(k, int) or not 2 <= k <= n + 1:
        raise DomainError("column index k must lie in 2..n+1")
    cols = [[2 * j - 1, 2 * n - 2 * j - 1] for j in range(1, n)]
    for _ in range(k - 2):
        cols = _transfer(cols, _ONE, _X)[: n - 1]
    return cols


def signed_word_columns(n: int, k: int) -> tuple:
    """The refinement columns (h_(n,k,1), ..., h_(n,k,n-1)) of the
    signed-word descent enumerator, for 2 <= k <= n+1.

    Base case k = 2: h_(n,2,j) = (2j-1) + (2n-2j-1) x.  Each step k -> k+1
    takes head sums plus x times tail sums; at k = n+1 only j = 1 remains
    meaningful and equals x times the full enumerator.
    """
    return tuple(Poly(c) for c in _signed_columns(n, k))


def signed_word_descent_enumerator(n: int) -> Poly:
    """Descent enumerator of signed words: first letter in +-[n-1], the
    rest in [n-1]; position 1 descends when |w(1)| > w(2) or the letters
    are equal and positive, later positions descend weakly."""
    if not isinstance(n, int) or n < 2:
        raise DomainError("signed words need n >= 2")
    # the top column is x times the enumerator: drop its zero constant
    return Poly(_signed_columns(n, n + 1)[0][1:])


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


def _binom(a: int, b: int) -> int:
    if b < 0 or b > a or a < 0:
        return 0
    return math.comb(a, b)


def determinant_descent_enumerator(n: int, allowed: Iterable) -> Poly:
    """The restricted descent polynomial through the determinant formula.

    With 0 = a_0 < a_1 < ... < a_r the allowed positions and a_(r+1) = n,
    the matrix has (1-x)^(j-i) / (a_(j+1) - a_i)! above the diagonal, ones
    on the subdiagonal and zeros below; n! times its determinant is the
    reversal of the enumerator.  The matrix is upper Hessenberg, so its
    leading minors D_k obey a recurrence, and E_k = a_k! D_k stays
    integral: E_0 = 1 and
    E_(k+1) = sum over i <= k of C(a_(k+1), a_i) (x-1)^(k-i) E_i,
    with E_(r+1) = n! det.  That is O(r^2) products of integer
    polynomials.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    t = sorted(_position_set(allowed, n - 1))
    a = [0] + t + [n]
    r = len(t)
    powers = [ONE]
    for _ in range(r):
        powers.append(powers[-1] * Poly([-1, 1]))
    minors = [ONE]
    for k in range(r + 1):
        acc = Poly()
        for i in range(k + 1):
            acc = acc + (powers[k - i] * minors[i]).scale(_binom(a[k + 1], a[i]))
        minors.append(acc)
    return minors[-1].reverse(r)


def expected_descents(n: int, allowed: Iterable) -> Fraction:
    """Mean number of descents over the restricted descent class.

    With gaps c_i between consecutive allowed positions (0 and n padded),
    the mean is r minus the sum of reciprocal binomials
    C(c_i + c_(i+1), c_i).
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    t = sorted(_position_set(allowed, n - 1))
    a = [0] + t + [n]
    c = [a[i + 1] - a[i] for i in range(len(a) - 1)]
    r = len(t)
    return Fraction(r) - sum(
        Fraction(1, _binom(c[i] + c[i + 1], c[i])) for i in range(r)
    )


def descent_mean_variance(n: int, allowed: Iterable) -> tuple:
    """Exact mean and variance of des over the restricted class."""
    p = descent_enumerator(n, allowed)
    total = sum(p.coeffs)
    mean = Fraction(sum(i * c for i, c in enumerate(p.coeffs)), total)
    second = Fraction(sum(i * i * c for i, c in enumerate(p.coeffs)), total)
    return mean, second - mean * mean


def ratio_monotone(p: Poly) -> bool:
    """Whether c_i / c_(r-i) is weakly increasing in i (cross-multiplied,
    so zero coefficients need no special casing)."""
    cs = p.coeffs
    if any(c < 0 for c in cs):
        raise DomainError("ratio monotonicity needs nonnegative coefficients")
    r = len(cs) - 1
    return all(
        cs[i] * cs[r - i - 1] <= cs[i + 1] * cs[r - i] for i in range(r)
    )
