"""Descent enumerators for permutations, colored permutations and words.

The central object is the restricted descent polynomial: the sum of
x^des(w) over permutations w of n letters whose descent set lies inside
a prescribed set of positions.  It is available twice over: a fast
recurrence through the first-letter refinement p_(n,k) (permutations of
n+1 letters with first letter k+1), and one brute-force count over
r-colored permutations, which serves the colored enumerator and, at
r = 1, the plain one.  Words over a bounded alphabet and the signed-word
family used by the type-D noncrossing lattice have fast recurrences too;
their enumerations are used only by the tests and live in
``tests/oracles.py``, so every fast path has an independent count to
test against.  All four fast recurrences are one transfer step,
``_transfer``, on polynomials packed into ints (Kronecker substitution):
each coefficient sits in a slot of fixed width, so multiplying by x is
a shift and adding two polynomials is one int addition.  Each recurrence
sizes its slots from a proved bound on every coefficient it forms:
(n+1)! for the first-letter rows, r^n for words and 2(n-1)^n for signed
words, taken from bit lengths without forming the bound itself.  Rows
are unpacked into coefficients, and ``Poly`` objects built, only where
a result leaves the recurrence.  A determinant formula
(an O(r^2) Hessenberg recurrence in integers) and the exact mean and
variance of the descent statistic round out the module.  All arithmetic
is exact.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations, product
from operator import mul, sub
from typing import Iterable

from .errors import DomainError, ResourceLimitError
from .polynomials import ONE, Poly

DEFAULT_COLORED_CAP = 10 ** 7


def _position_set(allowed: Iterable, n: int) -> frozenset:
    """Normalize a position set to its meaningful part inside 1..n."""
    out = set()
    for a in allowed:
        # True == 1, but it is no position
        if type(a) is not int or a < 1:
            raise DomainError("descent positions must be positive integers")
        if a <= n:
            out.add(a)
    return frozenset(out)


# Weights of the transfer step, as the power of x they stand for; None is 0.
_ZERO, _ONE, _X = None, 0, 1


def _slot_width(n: int, r: int) -> int:
    """Bits of a slot that holds every integer from 0 to 2 r^n.

    With b the bit length of r, r < 2^b and so 2 r^n < 2^(nb + 1).  Only
    bit lengths are formed, never r^n: on a huge r the caller's list of
    r entries must be what fails, and at once.
    """
    return n * r.bit_length() + 1


def _transfer(row: list, head, tail, width: int) -> list:
    """One step of every descent recurrence in this module.

    Returns out[k] = A * sum(row[:k]) + B * sum(row[k:]) for k = 0..len(row),
    with A = x^head, B = x^tail and None standing for the weight 0; the
    pairs (A, B) used are (x, 1), (1, x) and (0, 1).  Each entry of
    ``row`` and of the result is a polynomial packed into one int, its
    coefficients in slots of ``width`` bits, so multiplying by x is a
    shift by ``width``.  Since out[k+1] - out[k] = (A - B) * row[k], each
    entry costs one shift and two int additions or subtractions, whatever
    its degree.

    Packing is evaluation at 2^width, a ring homomorphism, so each int
    computed equals the packed form of the polynomial it stands for.  The
    caller proves that every coefficient of every entry lies in
    [0, 2^width); then ``_unpack`` reads each coefficient back exactly.
    """
    cur = sum(row) << (width * tail)
    if head is _ZERO:
        # (0, 1): the suffix sums
        return list(accumulate(row, sub, initial=cur))
    a, b = width * head, width * tail
    return list(accumulate(((p << a) - (p << b) for p in row), initial=cur))


def _unpack(v: int, width: int, length: int) -> list:
    """The lowest ``length`` slots of a packed polynomial, lowest first."""
    mask = (1 << width) - 1
    return [(v >> (width * i)) & mask for i in range(length)]


def _packed_first_letter_row(n: int, allowed: frozenset) -> tuple:
    """The first-letter row packed, and the slot width.

    An entry counts permutations of at most n+1 letters, and so does the
    sum of the row, so no coefficient exceeds (n+1)! <= (n+1)^n: that
    bounds the slots.
    """
    width = _slot_width(n, n + 1)
    row = [1]
    for m in range(1, n + 1):
        # positions relevant at length m are the original ones shifted
        # down by n - m
        head = _X if 1 + n - m in allowed else _ZERO
        row = _transfer(row, head, _ONE, width)
    return row, width


@lru_cache(maxsize=None)
def _first_letter_rows(n: int, allowed: frozenset) -> tuple:
    """The first-letter row as integer coefficient tuples of one length.

    ``allowed`` must lie inside 1..n already: the callers check it, before
    the memo, which would take True for 1.
    """
    row, width = _packed_first_letter_row(n, allowed)
    # one slot more for each step that multiplies by x
    return tuple(tuple(_unpack(p, width, 1 + len(allowed))) for p in row)


def first_letter_descent_polynomials(n: int, allowed: frozenset) -> tuple:
    """The row (p_0, ..., p_n): p_k sums x^des over w in S_(n+1) with
    w(1) = k+1 and descent set inside ``allowed``.

    Built by the first-letter recurrence.  With T the allowed set and
    T-1 its shift down by one: when 1 is not allowed, p_(n,k) collects
    the tail sums of the previous row; when 1 is allowed, the head sums
    enter multiplied by x.
    """
    if type(n) is not int or n < 0:
        raise DomainError("n must be a nonnegative integer")
    return tuple(Poly(p) for p in _first_letter_rows(n, _position_set(allowed, n)))


def descent_enumerator(n: int, allowed: Iterable) -> Poly:
    """Fast restricted descent polynomial via the first-letter rows.

    Agrees with colored_descent_enumerator_bruteforce at one color
    wherever the latter can run, but has no factorial blowup.
    """
    if type(n) is not int or n < 0:
        raise DomainError("n must be a nonnegative integer")
    t = _position_set(allowed, n)
    if n == 0:
        return ONE
    # the row sums to n! permutations, within its slots
    row, width = _packed_first_letter_row(n - 1, t)
    return Poly(_unpack(sum(row), width, n))


def colored_descent_enumerator(n: int, r: int, allowed: Iterable) -> Poly:
    """Sum of x^des over r-colored permutations of n letters with descent
    set inside ``allowed`` (positions 1..n; position n descends exactly
    when the last letter is colored).

    Computed without enumeration: the colored subset poset has
    h-polynomial (1+(r-1)x)^n, so the enumerator is the h-weighted sum
    of the first-letter row at the reflected position set
    {n+1-i : i in allowed}.  The brute-force companion checks this.
    """
    if type(n) is not int or n < 0 or type(r) is not int or r < 1:
        raise DomainError("need n >= 0 and r >= 1")
    t = _position_set(allowed, n)
    reflected = frozenset(n + 1 - a for a in t)
    row = _first_letter_rows(n, reflected)
    weights = [math.comb(n, k) * (r - 1) ** k for k in range(n + 1)]
    return Poly([sum(w * c for w, c in zip(weights, col)) for col in zip(*row)])


def _letter_descent_masks(n: int):
    """The descent mask of every permutation of n letters, in turn."""
    for w in permutations(range(n)):
        mask = 0
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                mask |= 1 << i
        yield mask


@lru_cache(maxsize=None)
def _colored_descent_distribution(n: int, r: int) -> Counter:
    """Map descent-set bitmask (position i+1 as bit i) -> count over all
    r-colored permutations of n letters.

    Position i descends when the color drops, or the colors tie and the
    letters drop; a sentinel of letter n+1 and color 0 follows the last
    letter, and the letters never drop onto it.  So a permutation enters
    only through its letter-descent mask w, a coloring only through its
    masks (drop, tie), and the pair descends at drop | (tie & w).
    """
    letters = Counter(_letter_descent_masks(n))
    colorings = Counter()
    for c in product(range(r), repeat=n):
        c += (0,)
        drop = tie = 0
        for i in range(n):
            if c[i] > c[i + 1]:
                drop |= 1 << i
            elif c[i] == c[i + 1]:
                tie |= 1 << i
        colorings[drop, tie] += 1
    counts = Counter()
    for (drop, tie), a in colorings.items():
        for w, b in letters.items():
            counts[drop | (tie & w)] += a * b
    return counts


def colored_descent_enumerator_bruteforce(
    n: int, r: int, allowed: Iterable, max_enum: int = DEFAULT_COLORED_CAP
) -> Poly:
    """The same enumerator by counting all n! * r^n colored permutations,
    capped by ``max_enum``.  At r = 1 it is the plain restricted descent
    enumerator: the last position never descends."""
    if type(n) is not int or n < 0 or type(r) is not int or r < 1:
        raise DomainError("need n >= 0 and r >= 1")
    # n! * r^n factor by factor, stopping once past the cap
    sizes = accumulate((i * r for i in range(1, n + 1)), mul, initial=1)
    if any(size > max_enum for size in sizes):
        raise ResourceLimitError("n! * r^n exceeds the enumeration cap %d" % max_enum)
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

    Dynamic program on the last letter; no enumeration cap needed.  The
    r^n words bound every coefficient.
    """
    if type(n) is not int or n < 0 or type(r) is not int or r < 1:
        raise DomainError("need n >= 0 and r >= 1")
    if n == 0:
        return ONE
    width = _slot_width(n, r)
    state = [1] * r
    for _ in range(n - 1):
        state = _transfer(state, _ONE, _X, width)[:r]
    return Poly(_unpack(sum(state), width, n))


def word_ascent_enumerator(n: int, r: int) -> Poly:
    """Sum of x^asc over words w(0) w(1) ... w(n) in [r] with w(0) = 1,
    ascents strict (<), counted at positions 1..n.  The r^n words bound
    every coefficient."""
    if type(n) is not int or n < 0 or type(r) is not int or r < 1:
        raise DomainError("need n >= 0 and r >= 1")
    width = _slot_width(n, r)
    state = [1] + [0] * (r - 1)
    for _ in range(n):
        state = _transfer(state, _X, _ONE, width)[:r]
    return Poly(_unpack(sum(state), width, n + 1))


def _signed_columns(n: int, k: int) -> tuple:
    """signed_word_columns packed, and the slot width.

    At x = 1 the n-1 columns at k add up to 2(n-1)^k, and each column at
    k+1 takes that whole total, so no coefficient up to k = n+1 exceeds
    2(n-1)^n: that bounds the slots.
    """
    if type(n) is not int or n < 2:
        raise DomainError("signed words need n >= 2")
    if type(k) is not int or not 2 <= k <= n + 1:
        raise DomainError("column index k must lie in 2..n+1")
    width = _slot_width(n, n - 1)
    cols = [2 * j - 1 + ((2 * n - 2 * j - 1) << width) for j in range(1, n)]
    for _ in range(k - 2):
        cols = _transfer(cols, _ONE, _X, width)[: n - 1]
    return cols, width


def signed_word_columns(n: int, k: int) -> tuple:
    """The refinement columns (h_(n,k,1), ..., h_(n,k,n-1)) of the
    signed-word descent enumerator, for 2 <= k <= n+1.

    Base case k = 2: h_(n,2,j) = (2j-1) + (2n-2j-1) x.  Each step k -> k+1
    takes head sums plus x times tail sums; at k = n+1 only j = 1 remains
    meaningful and equals x times the full enumerator.
    """
    cols, width = _signed_columns(n, k)
    return tuple(Poly(_unpack(c, width, k)) for c in cols)


def signed_word_descent_enumerator(n: int) -> Poly:
    """Descent enumerator of signed words: first letter in +-[n-1], the
    rest in [n-1]; position 1 descends when |w(1)| > w(2) or the letters
    are equal and positive, later positions descend weakly."""
    if type(n) is not int or n < 2:
        raise DomainError("signed words need n >= 2")
    # the top column is x times the enumerator: drop its zero constant
    cols, width = _signed_columns(n, n + 1)
    return Poly(_unpack(cols[0] >> width, width, n))


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
    polynomials.  At n = 0 the recurrence gives 1, as the direct
    enumerator does.
    """
    if type(n) is not int or n < 0:
        raise DomainError("n must be a nonnegative integer")
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
    if type(n) is not int or n < 1:
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
