"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.
"""

import random
from itertools import combinations, product

from snapcomplex import (
    RoundCounter,
    WitnessTable,
    build,
    canonical_form,
    chromatic_check,
    collapse_to_point,
    cone_check,
    enumerate_top,
    f_dim1,
    f_top,
    from_trace,
    ghost,
    ghost_one,
    homology_gf2,
    path_profile,
    series_check,
    stabilize,
    strata_partition,
    structural_checks,
    to_trace,
    validate_collapse,
    verify_diagrams,
    verify_incidence,
    verify_stratum_iso,
)
from snapcomplex.decomposition import all_stratum_ids
from tests.helpers import (
    all_prestructures,
    all_witness_structures,
    counters_with,
    random_witness,
    stabilize_via_table,
)

CORPUS_STRUCT = counters_with(3, 5) + [RoundCounter.of(1, 1, 1, 1)]
CORPUS_STRATA = counters_with(3, 4) + [RoundCounter.of(1, 1, 1, 1), RoundCounter.of(2, 1, 1, 1)]
CORPUS_COLLAPSE = CORPUS_STRATA


def _ok(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


def subsets(pool):
    pool = tuple(sorted(pool))
    for n in range(len(pool) + 1):
        yield from (frozenset(c) for c in combinations(pool, n))


def test_criterion_01_dim1_counting():
    for m in range(6):
        for n in range(6):
            assert f_dim1(m, n) == len(enumerate_top(RoundCounter.of(m, n)))
            if m >= 1 and n >= 1:
                assert f_dim1(m, n) == f_dim1(m, n - 1) + f_dim1(m - 1, n) + f_dim1(m - 1, n - 1)
    assert f_dim1(2, 2) == 13
    assert f_dim1(3, 3) == 63
    _ok(1, "two-process counting recursion vs execution enumeration, m,n <= 5")


def test_criterion_02_top_counts():
    for size in range(1, 5):
        for values in product(range(7), repeat=size):
            if sum(values) <= 6:
                r = RoundCounter.of(*values)
                assert f_top(values) == len(enumerate_top(r)), values
    assert f_top([1, 1, 1]) == 13
    assert f_top([1, 1, 2]) == 31
    assert f_top([2, 2, 2]) == 409
    assert f_top([1, 1, 1, 1]) == 75
    _ok(2, "top-simplex recursion vs enumeration, support <= 4, cardinality <= 6")


def test_criterion_03_generating_function():
    assert series_check(6)
    _ok(3, "generating function coefficients match the recursion to order 6")


def test_criterion_04_chromatic_subdivision():
    k = build(RoundCounter.of(1, 1, 1))
    assert k.f_vector == (1, 12, 24, 13)
    assert k.euler == 1
    assert chromatic_check(RoundCounter.of(1, 1, 1))
    for size in range(1, 5):
        for values in product((0, 1), repeat=size):
            assert chromatic_check(RoundCounter.of(*values)), values
    _ok(4, "chromatic subdivision: f-vector, Euler, direct description for 0/1 counters")


def test_criterion_05_structural_suite():
    for r in CORPUS_STRUCT:
        rep = structural_checks(build(r))
        assert rep.pure, r
        assert rep.pseudomanifold, r
        assert rep.boundary_matches, r
        assert rep.strongly_connected, r
        assert rep.reconstruction_injective, r
    _ok(5, f"purity/pseudomanifold/boundary/connectivity/reconstruction on {len(CORPUS_STRUCT)} counters")


def _calculus_laws(sigma: WitnessTable, s: frozenset, t: frozenset) -> None:
    """The law bundle for one structure and one disjoint active split."""
    assert from_trace(to_trace(sigma)) == sigma
    stab = stabilize(sigma, s)
    assert stab == stabilize_via_table(sigma, s)
    assert stabilize(stab, t) == stabilize(sigma, s | t)
    assert canonical_form(stab) == canonical_form(stabilize(canonical_form(sigma), s))
    c = canonical_form(stab)
    assert canonical_form(c) == c
    if sigma.is_witness:
        assert ghost(ghost(sigma, s), t) == ghost(sigma, s | t)


def _m_rule(sigma: WitnessTable, p: int) -> None:
    out = ghost_one(sigma, p)
    shrinking = sigma.t >= 1 and sigma.w(sigma.t) == {p}
    for q in sorted(sigma.supp):
        before, after = sigma.m_count(q), out.m_count(q)
        if not shrinking:
            assert after == before
        elif q == p:
            assert after < before
        elif q in sigma.active_set:
            assert after == before
        else:
            assert after <= before


def test_criterion_06_calculus_laws_exhaustive_and_random():
    count = 0
    for sigma in all_witness_structures((0, 1, 2), 3):
        act = sigma.active_set
        for s in subsets(act):
            for t in subsets(act - s):
                _calculus_laws(sigma, s, t)
                count += 1
        for p in sorted(act):
            _m_rule(sigma, p)
    # stable prestructures exercise the canonical-form laws non-trivially
    for sigma in all_prestructures((0, 1), 3):
        if not sigma.is_stable:
            continue
        for s in subsets(sigma.active_set):
            assert canonical_form(stabilize(sigma, s)) == canonical_form(
                stabilize(canonical_form(sigma), s)
            )
    rng = random.Random(0xC0FFEE)
    for _ in range(10_000):
        sigma = random_witness(rng)
        act = sorted(sigma.active_set)
        s = frozenset(p for p in act if rng.random() < 0.4)
        t = frozenset(p for p in act if p not in s and rng.random() < 0.4)
        _calculus_laws(sigma, s, t)
        if act:
            _m_rule(sigma, rng.choice(act))
    _ok(6, f"calculus laws: {count} exhaustive splits + 10000 randomized cases, zero failures")


def test_criterion_07_figure_goldens():
    canon_in = WitnessTable([({1, 2, 3, 4}, {5}), ((), {4}), ({2}, ()), ((), {2}), ({1}, {3})])
    canon_out = WitnessTable([({1, 2, 3, 4}, {5}), ({2}, {4}), ({1}, {2, 3})])
    assert canonical_form(canon_in) == canon_out

    stab_in = WitnessTable(
        [
            ({1, 2, 3, 4, 5}, ()),
            ({1}, ()),
            ({3, 4, 5}, ()),
            ({2, 3}, ()),
            ({1}, {3}),
            ({1}, {2}),
            ((), {1}),
        ]
    )
    stab_out = WitnessTable([({1, 3, 4, 5}, {2}), ((), {1}), ({4, 5}, {3})])
    assert stabilize(stab_in, ()) == stab_out

    ghost_in = WitnessTable([({1, 2, 3, 4}, ()), ({1, 2}, ()), ({3}, {4}), ({3}, {1})])
    ghost_out = WitnessTable([({1, 2}, {3, 4}), ({2}, {1})])
    assert ghost(ghost_in, {3}) == ghost_out
    _ok(7, "three worked tables reproduced bit-exactly")


def test_criterion_08_stratification():
    for r in CORPUS_STRATA:
        for sid in all_stratum_ids(r):
            assert verify_stratum_iso(r, sid), (r, sid)
        inc = verify_incidence(r)
        assert inc.ok, (r, inc.first_failure)
        dia = verify_diagrams(r)
        assert dia.ok, (r, dia.first_failure)
        part = strata_partition(build(r))
        assert part.ok, (r, part.first_failure)
    _ok(8, f"stratum isomorphisms, incidence, diagrams, partition on {len(CORPUS_STRATA)} counters")


def test_criterion_09_collapsibility():
    for r in CORPUS_COLLAPSE:
        k = build(r)
        seq = collapse_to_point(r)
        assert validate_collapse(k, seq), r
        assert len(seq.steps) == (len(k.simplices) - 2) // 2, r
        assert sorted(s.dim for s in seq.residual) == [-1, 0], r
    assert len(collapse_to_point(RoundCounter.of(1, 1)).steps) == 3
    _ok(9, f"validator-approved collapse to a point on {len(CORPUS_COLLAPSE)} counters")


def test_criterion_10_homology():
    for r in CORPUS_STRUCT:
        k = build(r)
        prof = homology_gf2(k)
        assert prof.betti == (1,) + (0,) * k.dim, r
        assert prof.euler == 1, r
    _ok(10, f"mod-2 homology of a point and Euler 1 on {len(CORPUS_STRUCT)} counters")


def test_criterion_11_one_dimensional_structure():
    for m in range(5):
        for n in range(5):
            r = RoundCounter.of(m, n)
            rep = path_profile(build(r))
            assert rep.ok, (m, n)
            assert rep.edges == f_dim1(m, n)
    checked = 0
    for r in CORPUS_STRUCT:
        for p in sorted(r.passive):
            assert cone_check(r, p), (r, p)
            checked += 1
    assert checked > 0
    _ok(11, f"subdivided-interval profiles for m,n <= 4 and {checked} cone replays")
