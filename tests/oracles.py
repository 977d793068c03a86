"""Brute-force word enumerators that only the tests use.

Each lists every word and counts its descents or ascents directly, so it
is an enumeration independent of the transfer recurrences in
``chainpoly.descents`` that it is compared against.
"""

from itertools import product

from chainpoly.errors import DomainError, ResourceLimitError
from chainpoly.polynomials import Poly


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
