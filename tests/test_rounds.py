import json
from itertools import combinations, product

import pytest

from snapcomplex import RoundCounter, chi_pair
from snapcomplex.errors import InvalidArgument, PreconditionViolation
from snapcomplex.rounds import subsets as rounds_subsets
from tests.helpers import sorted_subsets


def small_counters(universe=(0, 1, 2), max_value=2):
    out = []
    for n in range(len(universe) + 1):
        for supp in combinations(universe, n):
            for values in product(range(max_value + 1), repeat=n):
                out.append(RoundCounter(dict(zip(supp, values))))
    return out


def subsets(pool):
    pool = tuple(sorted(pool))
    for n in range(len(pool) + 1):
        yield from (frozenset(c) for c in combinations(pool, n))


def test_analyze_examples():
    supp, act, passive, card = RoundCounter.of(2, 0, 1).analyze()
    assert (supp, act, passive, card) == ({0, 1, 2}, {0, 2}, {1}, 3)
    assert RoundCounter({0: 0, 2: 3}).analyze() == ({0, 2}, {2}, {0}, 3)
    assert RoundCounter().analyze() == (frozenset(), frozenset(), frozenset(), 0)


def test_counter_rejects_boolean_ids_and_counts():
    for bad in ({True: 1}, {0: False}, {-1: 1}, {0: -1}):
        with pytest.raises(InvalidArgument):
            RoundCounter(bad)


def test_chi_examples():
    assert RoundCounter.of(2, 0, 1).chi() == RoundCounter.of(1, 0, 1)
    assert chi_pair({0, 2}, {1}) == RoundCounter.of(1, 0, 1)
    with pytest.raises(InvalidArgument):
        chi_pair({0, 1}, {1})
    for r in small_counters():
        assert r.chi() == chi_pair(r.active, r.passive)
        assert r.chi().chi() == r.chi()
        assert r.chi().support == r.support


def test_delete_execute_reduce_examples():
    r = RoundCounter.of(2, 0, 1)
    assert r.execute({0, 2}) == RoundCounter.of(1, 0, 0)
    assert r.delete({1}) == RoundCounter({0: 2, 2: 1})
    assert r.reduce({0}, {1}) == RoundCounter({0: 1, 2: 1})
    with pytest.raises(PreconditionViolation, match="1"):
        r.execute({0, 1})
    with pytest.raises(PreconditionViolation):
        r.reduce(set(), {7})


@pytest.mark.parametrize(
    "op",
    [
        lambda r: r.delete([True]),
        lambda r: r.delete([1.0]),
        lambda r: r.delete([-1]),
        lambda r: r.execute([True]),
        lambda r: r.execute([1.0]),
        lambda r: r.reduce([True], ()),
        lambda r: r.reduce((), [True]),
    ],
    ids=[
        "delete True",
        "delete 1.0",
        "delete -1",
        "execute True",
        "execute 1.0",
        "reduce step True",
        "reduce ids True",
    ],
)
def test_ids_obey_the_one_natural_rule(op):
    # True == 1 and 1.0 == 1, so a bare set would drop or run process 1, and
    # an id no counter can hold would be a silent no-op
    with pytest.raises(InvalidArgument):
        op(RoundCounter.of(1, 1, 1))


def test_canonicalize_and_relabel():
    assert RoundCounter({0: 0, 2: 3}).canonical() == RoundCounter.of(0, 3)
    assert RoundCounter.of(1, 1).relabel({0: 1, 1: 0}) == RoundCounter.of(1, 1)
    r = RoundCounter.of(2, 0, 1)
    assert r.canonical() == r
    assert RoundCounter({3: 5, 9: 0}).relabel({0: 3, 3: 0}) == RoundCounter({0: 5, 9: 0})
    with pytest.raises(InvalidArgument):
        r.relabel({0: 5})


def test_chi_identities_exhaustive():
    pool = (0, 1, 2)
    for c in subsets(pool):
        for d in subsets(pool):
            if c & d:
                continue
            chi = chi_pair(c, d)
            for a in subsets(c | d):
                assert chi.delete(a) == chi_pair(c - a, d - a)
            for s in subsets(c):
                assert chi.execute(s) == chi_pair(c - s, d | s)


def test_reduce_identities_exhaustive():
    for r in small_counters():
        for s in subsets(r.active):
            for a in subsets(r.support):
                got = r.reduce(s, a)
                assert got == r.execute(s).delete(a)
                assert got == r.delete(a).execute(s - a)
                if not (a & s):
                    assert got == r.delete(a).execute(s)


def test_canonical_preserves_profile():
    for r in small_counters():
        c = r.canonical()
        assert c.support == frozenset(range(len(r.support)))
        assert c.cardinality == r.cardinality
        assert len(c.active) == len(r.active)
        assert len(c.passive) == len(r.passive)


def test_text_and_json_forms():
    r = RoundCounter({0: 2, 2: 1})
    assert r.text() == "2,x,1"
    assert RoundCounter.parse("2,x,1") == r
    assert r.to_json_obj() == {"counter": {"0": 2, "2": 1}}
    assert RoundCounter.from_json_obj(json.loads(json.dumps(r.to_json_obj()))) == r
    with pytest.raises(InvalidArgument, match="position 1"):
        RoundCounter.parse("2,y,1")
    with pytest.raises(InvalidArgument):
        RoundCounter.from_json_obj({"nope": {}})


def test_parse_reads_ascii_digits_only():
    # str.isdigit() accepts superscripts and Arabic-Indic digits; int() reads
    # no more than a few thousand digits
    for text in ("²,1", "١,1", "1,٣", "9" * 5000):
        with pytest.raises(InvalidArgument, match="position"):
            RoundCounter.parse(text)
    assert RoundCounter.parse(" 2 , x ,01") == RoundCounter({0: 2, 2: 1})


def test_from_json_obj_takes_counts_as_they_are_and_canonical_ids_only():
    bad = ({"0": 1.5}, {"0": True}, {"0": "2"}, {" 1": 2}, {"01": 2}, {"+1": 2}, {"١": 2}, {0: 2}, {"-1": 0})
    for inner in bad:
        with pytest.raises(InvalidArgument):
            RoundCounter.from_json_obj({"counter": inner})
    with pytest.raises(InvalidArgument):
        RoundCounter.from_json_obj({"counter": {"9" * 5000: 1}})
    assert RoundCounter.from_json_obj({"counter": {"10": 0, "2": 3}}) == RoundCounter({2: 3, 10: 0})


def test_subsets_by_size_then_lexicographically():
    for ids in [(), (3,), (2, 0, 1), (5, 1, 4, 2), (7, 0, 3, 9, 4)]:
        assert rounds_subsets(ids) == sorted_subsets(ids), ids
    assert rounds_subsets(p for p in (1, 0)) == [(), (0,), (1,), (0, 1)]


def test_counters_are_immutable_values():
    r = RoundCounter.of(1, 1)
    assert hash(r) == hash(RoundCounter.of(1, 1))
    assert {r: "a"}[RoundCounter.of(1, 1)] == "a"
    with pytest.raises(InvalidArgument):
        RoundCounter({-1: 0})
    with pytest.raises(InvalidArgument):
        RoundCounter({0: -2})
