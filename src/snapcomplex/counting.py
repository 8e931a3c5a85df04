"""Counting top simplices: recursions and the bivariate generating function.

``f_dim1`` counts the edges of the two-process complexes (the Delannoy
numbers); ``f_top`` counts top simplices for any number of processes via
the first-concurrency-class recursion.  Both are cross-checked elsewhere
against brute-force execution enumeration.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from .errors import InvalidArgument
from .rounds import is_natural


def f_dim1(m: int, n: int) -> int:
    """Edge count of the two-process complex, the Delannoy number D(m, n).

    It solves f(m,n) = f(m,n-1)+f(m-1,n)+f(m-1,n-1) with f = 1 on the axes.
    The closed form sum_k C(m,k) C(n,k) 2^k needs no recursion or memo; each
    term is the previous one times 2(m-k)(n-k)/(k+1)^2, an exact division.
    """
    if not (is_natural(m) and is_natural(n)):
        raise InvalidArgument("round counts must be nonnegative integers")
    term = total = 1
    for k in range(min(m, n)):
        term = term * 2 * (m - k) * (n - k) // ((k + 1) * (k + 1))
        total += term
    return total


def f_top(values: Iterable[int]) -> int:
    """Top-simplex count: sum over the nonempty first concurrency class.

    Zero entries never participate and are dropped; the count is symmetric
    in its arguments, so memoization keys on the sorted positive multiset.
    """
    values = tuple(values)
    if not all(map(is_natural, values)):
        raise InvalidArgument("round counts must be nonnegative integers")
    key = tuple(sorted(v for v in values if v > 0))
    return _f_top_sorted(key)


@cache
def _f_top_sorted(key: tuple) -> int:
    if not key:
        return 1
    n = len(key)
    total = 0
    for mask in range(1, 1 << n):
        dec = tuple(key[i] - 1 if mask >> i & 1 else key[i] for i in range(n))
        total += _f_top_sorted(tuple(sorted(v for v in dec if v > 0)))
    return total


def _poly_mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for (ma, na), ca in a.items():
        for (mb, nb), cb in b.items():
            m, n = ma + mb, na + nb
            if m <= order and n <= order:
                out[(m, n)] = out.get((m, n), 0) + ca * cb
    return out


def series_coefficients(order: int) -> dict:
    """Exact coefficients of 1/(1-x-y-xy) on the grid m,n <= order.

    Expanded as the geometric series of x+y+xy by iterated polynomial
    multiplication with integer coefficients; no recursion involved.
    """
    base = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    out = {(0, 0): 1}
    power = {(0, 0): 1}
    for _ in range(2 * order):
        power = _poly_mul(power, base, order)
        if not power:
            break
        for key, c in power.items():
            out[key] = out.get(key, 0) + c
    return out


def series_check(order: int) -> bool:
    """Every grid coefficient of the generating function equals the recursion."""
    coeffs = series_coefficients(order)
    for m in range(order + 1):
        for n in range(order + 1):
            if coeffs.get((m, n), 0) != f_dim1(m, n):
                return False
    return True
