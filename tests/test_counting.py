import random
from itertools import permutations

import pytest

from snapcomplex import RoundCounter, enumerate_top, f_dim1, f_top, series_check
from snapcomplex.counting import series_coefficients
from snapcomplex.errors import InvalidArgument
from tests.helpers import counters_with


def test_boundary_row_and_pinned_values():
    for m in range(8):
        assert f_dim1(m, 0) == 1
        assert f_dim1(0, m) == 1
    assert f_dim1(1, 1) == 3
    assert f_dim1(2, 2) == 13
    assert f_dim1(3, 3) == 63


def test_f_dim1_matches_execution_enumeration():
    for m in range(6):
        for n in range(6):
            assert f_dim1(m, n) == len(enumerate_top(RoundCounter.of(m, n)))


def test_f_top_pinned_values():
    assert f_top([1, 1, 1]) == 13
    assert f_top([1, 1, 2]) == 31
    assert f_top([2, 2, 2]) == 409
    assert f_top([1, 1, 1, 1]) == 75


def test_f_top_rejects_negative_counts_from_a_generator():
    with pytest.raises(ValueError):
        f_top(v for v in [-1, 2])
    assert f_top(v for v in [1, 1, 1]) == 13


def test_f_dim1_closed_form_equals_recurrence():
    rec = {}
    for m in range(13):
        for n in range(13):
            if m == 0 or n == 0:
                rec[m, n] = 1
            else:
                rec[m, n] = rec[m, n - 1] + rec[m - 1, n] + rec[m - 1, n - 1]
            assert f_dim1(m, n) == rec[m, n]
    with pytest.raises(ValueError):
        f_dim1(-1, 3)


def test_f_dim1_large_arguments_return():
    big = f_dim1(2000, 2000)
    assert big == f_dim1(2000, 1999) + f_dim1(1999, 2000) + f_dim1(1999, 1999)


def test_f_top_symmetry_and_zero_dropping():
    rng = random.Random(7)
    for _ in range(50):
        values = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        base = f_top(values)
        for perm in list(permutations(values))[:6]:
            assert f_top(perm) == base
        assert f_top(values + [0]) == base
    assert f_top([]) == 1
    assert f_top([0, 0, 0]) == 1


def test_f_top_matches_enumeration_on_corpus():
    for r in counters_with(3, 5):
        assert f_top([v for _, v in r]) == len(enumerate_top(r))


def test_f_dim1_equals_f_top_on_pairs():
    for m in range(7):
        for n in range(7):
            assert f_dim1(m, n) == f_top([m, n])


def test_series_examples():
    coeffs = series_coefficients(4)
    assert all(coeffs[(0, k)] == 1 for k in range(5))
    assert coeffs[(2, 2)] == 13
    assert series_check(4)
    assert sum(1 for (m, n) in coeffs if m <= 4 and n <= 4) == 25


@pytest.mark.parametrize(
    "call",
    [
        lambda: f_top([1.5]),
        lambda: f_top([True, 1]),
        lambda: f_top(["a"]),
        lambda: f_top([-1, 2]),
        lambda: f_dim1(True, 2),
        lambda: f_dim1(1.5, 2),
        lambda: f_dim1(2, -1),
    ],
    ids=["float", "bool", "str", "negative", "dim1-bool", "dim1-float", "dim1-negative"],
)
def test_round_counts_obey_the_one_natural_rule(call):
    with pytest.raises(InvalidArgument, match="^round counts must be nonnegative integers$"):
        call()
