"""Descent enumerators for permutations, colored permutations and words.

The central object is the restricted descent polynomial: the sum of
x^des(w) over permutations w of n letters whose descent set lies inside
a prescribed set of positions.  It is available twice over: a fast
recurrence through the first-letter refinement p_(n,k) (permutations of
n+1 letters with first letter k+1), and one brute-force count over
r-colored permutations, which serves the colored enumerator and, at
r = 1, the plain one.  Words over a bounded alphabet, with descents or
with ascents, have fast recurrences too, and the signed-word family used
by the type-D noncrossing lattice is two consecutive word enumerators
combined; their enumerations are used only by the tests and live in
``tests/oracles.py``, so every fast path has an independent count to
test against.  All three fast recurrences are one transfer step,
``_transfer``, on polynomials packed into ints (Kronecker substitution):
each coefficient sits in a slot of fixed width, so multiplying by x is a
shift and adding two polynomials is one int addition.  Each recurrence
sizes its slots from a proved bound on every coefficient it forms:
(n+1)! for the first-letter rows, r^n (n+1)^n when the colored
enumerator sums them with weights, and r^n for words, taken from bit
lengths without forming the bound itself.  Rows are unpacked into
coefficients, and ``Poly`` objects built, only where a result leaves the
recurrence; the flag beta of ``simplicial`` reads its descent classes
straight off the packed row, as top coefficients.  Gessel's determinant
formula, the independent cross-check, runs on packed ints too, in the
basis y = x - 1.  The exact mean and variance of the descent statistic
round out the module.  All arithmetic is exact.
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
from .polynomials import _MEMO_SIZE, ONE, Poly, _binomial_transform, _slot_width, _unpack

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


def _packed_first_letter_row(n: int, allowed: frozenset, r: int = 1) -> tuple:
    """The first-letter row packed, and the slot width.

    An entry counts permutations of at most n+1 letters, and so does the
    sum of the row, so no coefficient exceeds (n+1)! <= (n+1)^n.  The
    slots hold (r(n+1))^n, so a sum of entries with nonnegative integer
    weights that counts at most that many objects unpacks exactly too;
    r = 1 gives the plain bound.
    """
    width = _slot_width(n, r * (n + 1))
    row = [1]
    for m in range(1, n + 1):
        # positions relevant at length m are the original ones shifted
        # down by n - m
        head = _X if 1 + n - m in allowed else _ZERO
        row = _transfer(row, head, _ONE, width)
    return row, width


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
    t = _position_set(allowed, n)
    row, width = _packed_first_letter_row(n, t)
    # one slot more for each step that multiplies by x
    return tuple(Poly(_unpack(p, width, 1 + len(t))) for p in row)


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

    The weighted sum is formed on the packed row and unpacked once.  The
    weights are nonnegative, so every partial sum counts at most the
    r^n n! colored permutations, and r^n n! <= (r(n+1))^n: each partial
    sum fits the slots of the row built for r colors.
    """
    if type(n) is not int or n < 0 or type(r) is not int or r < 1:
        raise DomainError("need n >= 0 and r >= 1")
    t = _position_set(allowed, n)
    row, width = _packed_first_letter_row(n, frozenset(n + 1 - a for a in t), r)
    total = sum(math.comb(n, k) * (r - 1) ** k * p for k, p in enumerate(row))
    return Poly(_unpack(total, width, 1 + len(t)))


def _letter_descent_masks(n: int):
    """The descent mask of every permutation of n letters, in turn."""
    for w in permutations(range(n)):
        mask = 0
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                mask |= 1 << i
        yield mask


@lru_cache(maxsize=_MEMO_SIZE)
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


def signed_word_descent_enumerator(n: int) -> Poly:
    """Descent enumerator of signed words: first letter in +-[n-1], the
    rest in [n-1]; position 1 descends when |w(1)| > w(2) or the letters
    are equal and positive, later positions descend weakly.

    It is 2 e_n + (1-x) e_(n-1), e_k the descent enumerator of [n-1]^k.
    With a positive first letter the words are those of [n-1]^n.  A
    negative first letter -a loses the descent at position 1 exactly
    when a = w(2), and merging that pair leaves a word of [n-1]^(n-1)
    with the same later descents.  The result counts 2(n-1)^n words,
    within the word slots, so it unpacks exactly although (1-x) e_(n-1)
    has negative coefficients.
    """
    if type(n) is not int or n < 2:
        raise DomainError("signed words need n >= 2")
    r = n - 1
    width = _slot_width(n, r)
    state = [1] * r
    for _ in range(n - 2):
        state = _transfer(state, _ONE, _X, width)[:r]
    shorter, longer = sum(state), sum(_transfer(state, _ONE, _X, width)[:r])
    return Poly(_unpack(2 * longer + shorter - (shorter << width), width, n))


def determinant_descent_enumerator(n: int, allowed: Iterable) -> Poly:
    """The restricted descent polynomial through the determinant formula.

    With 0 = a_0 < a_1 < ... < a_r the allowed positions and a_(r+1) = n,
    the matrix has (1-x)^(j-i) / (a_(j+1) - a_i)! above the diagonal, ones
    on the subdiagonal and zeros below; n! times its determinant is the
    reversal of the enumerator.  The matrix is upper Hessenberg, so its
    leading minors D_k obey a recurrence, and E_k = a_k! D_k stays
    integral: E_0 = 1 and
    E_(k+1) = sum over i <= k of C(a_(k+1), a_i) y^(k-i) E_i in the
    basis y = x - 1, with E_(r+1) = n! det.  There every E_k and partial
    sum has nonnegative coefficients, at most E_k(y = 1), which is
    2^(k-1) A(1/2) <= 2^n n! <= (2n)^n for the enumerator A that E_k
    reverses.  So E runs packed in slots for (2n)^n, y being a shift, and
    the enumerator x^r E(1/x - 1) is one binomial transform.  At n = 0
    the recurrence gives 1, as the direct enumerator does.
    """
    if type(n) is not int or n < 0:
        raise DomainError("n must be a nonnegative integer")
    t = sorted(_position_set(allowed, n - 1))
    a = [0] + t + [n]
    r = len(t)
    width = _slot_width(n, 2 * n)
    minors = [1]
    for k in range(r + 1):
        minors.append(sum(
            math.comb(a[k + 1], a[i]) * (minors[i] << width * (k - i))
            for i in range(k + 1)
        ))
    e = _unpack(minors[-1], width, r + 1)
    return Poly(_binomial_transform(e[::-1], r, -1))


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
    binomials = [math.comb(c[i] + c[i + 1], c[i]) for i in range(r)]
    lcm = math.lcm(*binomials)
    return Fraction(r * lcm - sum(lcm // b for b in binomials), lcm)


def descent_mean_variance(n: int, allowed: Iterable) -> tuple:
    """Exact mean and variance of des over the restricted class."""
    p = descent_enumerator(n, allowed)
    total = sum(p.coeffs)
    mean = Fraction(sum(i * c for i, c in enumerate(p.coeffs)), total)
    second = Fraction(sum(i * i * c for i, c in enumerate(p.coeffs)), total)
    return mean, second - mean * mean
