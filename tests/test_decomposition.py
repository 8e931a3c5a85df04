import hashlib
from itertools import combinations

import pytest

from snapcomplex import (
    RoundCounter,
    StratumId,
    WitnessTable,
    all_stratum_ids,
    boundary_subcomplex,
    build,
    containment_anomalies,
    delta_v,
    gamma,
    membership,
    rho,
    rho_sa,
    strata_partition,
    stratum,
    verify_diagrams,
    verify_incidence,
    verify_stratum_iso,
)
from snapcomplex import decomposition
from snapcomplex.complexes import Complex, undelta_v
from snapcomplex.decomposition import IN_Y, IN_Z, OUT, _class_index, _class_masks
from snapcomplex.errors import InvalidArgument, PreconditionViolation
from snapcomplex.witness import _classify_normalized
from tests.test_acceptance import CORPUS_STRATA
from tests.helpers import (
    all_prestructures,
    counters_with,
    delta_v_oracle,
    gamma_oracle,
    levels_with,
    membership_brute,
    rho_oracle,
    slices_oracle,
    undelta_v_oracle,
    y_slice_brute,
    z_slice_brute,
)


def keys(simplices):
    return {s.key for s in simplices}


R11 = RoundCounter.of(1, 1)
EMPTY = WitnessTable([((), {0, 1})])
V0 = WitnessTable([({0}, {1}), ({0}, ())])
V1 = WitnessTable([({1}, {0}), ({1}, ())])
U0 = WitnessTable([({0, 1}, ()), ({0}, {1})])
W = WitnessTable([({0, 1}, ()), ({1}, {0})])
A_EDGE = WitnessTable([({0, 1}, ()), ({0}, ()), ({1}, ())])
B_EDGE = WitnessTable([({0, 1}, ()), ({1}, ()), ({0}, ())])
C_EDGE = WitnessTable([({0, 1}, ()), ({0, 1}, ())])


def test_membership_examples():
    assert membership(C_EDGE, StratumId({0, 1})) == IN_Y
    assert membership(W, StratumId({0}, {0})) == IN_Z
    for s in ({0}, {1}, {0, 1}):
        assert membership(EMPTY, StratumId(s, s)) == IN_Z
        assert membership(EMPTY, StratumId(s)) == IN_Z
    assert membership(V0, StratumId({1})) == OUT
    # the round-0 gate
    assert membership(V0, StratumId({0}, (), {1})) == IN_Y
    assert membership(A_EDGE, StratumId({0}, (), {1})) == OUT


def test_membership_matches_oracle_on_every_prestructure():
    # every valid (S, A, V) over ids {0, 1, 2}, round-0 sets included, on
    # every table of the corpus, OUT included
    universe = frozenset({0, 1, 2})
    sids = [StratumId(s, a, v) for s in _subsets(universe) for a in _subsets(s) for v in _subsets(universe - s)]
    assert len(sids) == 64
    for sigma in all_prestructures((0, 1, 2), 3):
        for sid in sids:
            assert membership(sigma, sid) == membership_brute(sigma, sid), (sigma, sid)


def test_stratum_id_checks_what_needs_no_counter_when_made():
    with pytest.raises(InvalidArgument, match=r"^need ghosts <= first, got StratumId\(S=\[0\], A=\[0, 1\], V=\[\]\)$"):
        StratumId({0}, {0, 1})  # A not inside S
    with pytest.raises(
        InvalidArgument,
        match=r"^round-0 set must avoid the first class, got StratumId\(S=\[0, 1\], A=\[\], V=\[1, 2\]\)$",
    ):
        StratumId({0, 1}, (), {1, 2})  # V meets S
    sid = StratumId({1}, (), {2})
    sid.validate(RoundCounter.of(0, 1, 0))
    with pytest.raises(InvalidArgument):
        sid.validate(RoundCounter.of(0, 0, 0))  # S not active
    with pytest.raises(InvalidArgument):
        sid.validate(RoundCounter.of(0, 1))  # V outside the support


def test_stratum_id_is_an_immutable_tuple_with_its_fields_and_repr():
    sid = StratumId([2, 0], {0}, (3,))
    assert isinstance(sid, tuple) and StratumId._fields == ("first", "ghosts", "round0")
    assert (sid.first, sid.ghosts, sid.round0) == (frozenset({0, 2}), frozenset({0}), frozenset({3}))
    assert repr(sid) == "StratumId(S=[0, 2], A=[0], V=[3])"
    assert sid == StratumId({0, 2}, [0], {3}) and hash(sid) == hash(StratumId({0, 2}, [0], {3}))
    assert sid != StratumId({0, 2}, [0])
    for field in ("first", "ghosts", "round0", "other"):
        with pytest.raises(AttributeError):
            setattr(sid, field, frozenset())
    assert sid._replace(round0=[1]) == StratumId({0, 2}, {0}, {1})
    with pytest.raises(InvalidArgument):
        sid._replace(ghosts=[1])


def test_stratum_examples():
    k = build(R11)
    x0 = stratum(k, StratumId({0}))
    assert keys(x0) == keys({A_EDGE, V0, W, EMPTY})
    assert all(f in x0 for s in x0 for f in k.facets[s])
    z01 = stratum(k, StratumId({0, 1}, {0, 1}))
    assert keys(z01) == {EMPTY.key}
    # every top starting with the whole active set lies in that stratum
    for values in [(1, 1), (1, 1, 1), (2, 1)]:
        r = RoundCounter.of(*values)
        kk = build(r)
        act = stratum(kk, StratumId(r.active))
        for top in kk.tops:
            if top.r_set(1) == r.active:
                assert top in act


def test_gamma_rho_examples():
    assert gamma(C_EDGE, StratumId({0, 1})) == WitnessTable([({0, 1}, ())])
    assert gamma(U0, StratumId({0, 1})) == WitnessTable([({0}, {1})])
    assert rho(WitnessTable([({0}, {1})]), {0, 1}) == U0
    with pytest.raises(PreconditionViolation):
        gamma(V0, StratumId({1}))


def test_gamma_rho_single_layer_extension():
    # ghost-only simplices: gamma strips the forced ghosts, rho re-adds them
    r = RoundCounter.of(1, 0)
    sid = StratumId({0}, {0})
    k = build(r)
    z = stratum(k, sid)
    assert keys(z) == keys({WitnessTable([({1}, {0})]), WitnessTable([((), {0, 1})])})
    assert gamma(WitnessTable([({1}, {0})]), sid) == WitnessTable([({1}, ())])
    assert rho_sa(WitnessTable([({1}, ())]), {0}, {0}) == WitnessTable([({1}, {0})])
    assert verify_stratum_iso(r, sid)


def test_transport_maps_reject_invalid_input():
    t = WitnessTable([((0, 1), (2,)), ((1,), ())])
    with pytest.raises(InvalidArgument):
        undelta_v(t, [0])  # 0 is witnessed at round 0 (P3)
    with pytest.raises(InvalidArgument):
        undelta_v(t, [-1])
    with pytest.raises(InvalidArgument):
        undelta_v(WitnessTable([((2, 3), ())]), [True])  # equal to 1 but no process id
    with pytest.raises(PreconditionViolation):
        delta_v(t, [0])  # not a round-0 ghost
    with pytest.raises(PreconditionViolation):
        rho(t, [5])  # outside the support
    assert membership(t, StratumId({0})) == OUT
    with pytest.raises(PreconditionViolation):
        gamma(t, StratumId({0}))


@pytest.mark.parametrize(
    "call",
    [
        lambda: delta_v(V0, [True]),  # equal to 1, a round-0 ghost of V0, but no process id
        lambda: delta_v(V0, [1.0]),
        lambda: undelta_v(V0, [True]),
        lambda: boundary_subcomplex(build(R11), [True]),
        lambda: boundary_subcomplex(build(R11), [-1]),
        lambda: StratumId({True}),
        lambda: StratumId({0}, (), {1.0}),
        lambda: StratumId({0}, {-1}),
        lambda: StratumId(["a"]),
        lambda: rho(V0, [True]),  # 1 is V0's round-0 ghost, so True would be re-attached
        lambda: rho(V0, [1.0]),
        lambda: rho_sa(V0, [True]),
    ],
    ids=[
        "delta-bool",
        "delta-float",
        "undelta-bool",
        "boundary-bool",
        "boundary-negative",
        "first-bool",
        "round0-float",
        "ghosts-negative",
        "first-str",
        "rho-bool",
        "rho-float",
        "rho_sa-first-bool",
    ],
)
def test_stratum_map_ids_obey_the_one_natural_rule(call):
    with pytest.raises(InvalidArgument, match="^process ids must be nonnegative integers: "):
        call()


def test_rejected_stratum_map_stores_no_table_or_layer():
    # the intern tables key on equal values, so a stored (0, True) layer would
    # stand for (0, 1) in every later table of the process
    from snapcomplex.witness import _LAYERS, _TABLES

    before = len(_TABLES), len(_LAYERS)
    for call in (
        lambda: rho(V0, [True]),
        lambda: rho(V0, [1.0]),
        lambda: rho_sa(V0, [True]),
        lambda: rho_sa(V0, [0], [True]),
    ):
        with pytest.raises(InvalidArgument):
            call()
        assert (len(_TABLES), len(_LAYERS)) == before


def _subsets(elems):
    elems = sorted(elems)
    return [frozenset(c) for n in range(len(elems) + 1) for c in combinations(elems, n)]


ORACLE_COUNTERS = [(1, 1), (2, 1), (1, 1, 0), (1, 1, 1), (2, 1, 1)]


def test_stratum_matches_per_simplex_oracle():
    # every (S, A, V), round-0 sets V included, against a scan of every simplex
    for values in ORACLE_COUNTERS:
        r = RoundCounter.of(*values)
        k = build(r)
        for s in _subsets(r.active):
            for a in _subsets(s):
                for v in _subsets(r.support - s):
                    sid = StratumId(s, a, v)
                    want = {sigma for sigma in k.simplices if membership_brute(sigma, sid) != OUT}
                    assert stratum(k, sid) == want, (values, sid)


def _decode(k, mask):
    """The simplices of the classes of k whose bits are set in mask."""
    classes, _ = _class_index(k)
    return frozenset(s for i, cls in enumerate(classes) if mask >> i & 1 for s in cls)


def test_slices_match_oracle_slices():
    # the class masks of the incidence laws, decoded, against simplex scans
    for values in ORACLE_COUNTERS:
        r = RoundCounter.of(*values)
        k = build(r)
        subsets, x, y, z = _class_masks(k)
        assert subsets == _subsets(r.active)
        assert set(x) == set(y) == {(s, a) for s in subsets for a in _subsets(s)}
        for s in subsets:
            assert _decode(k, z[s]) == z_slice_brute(k, s), (values, s)
            for a in _subsets(s):
                assert _decode(k, y[(s, a)]) == y_slice_brute(k, s, a), (values, s, a)
                assert _decode(k, x[(s, a)]) == y_slice_brute(k, s, a) | z_slice_brute(k, s), (values, s, a)


def test_class_index_matches_membership():
    # the index is keyed by the valid (S, A) pairs, and V filters classes by
    # G_0: for every valid (S, A, V), round-0 sets included, the classes
    # under (S, A) whose G_0 contains V are, once and in ascending order,
    # exactly those that membership puts in the stratum
    for r in CORPUS_STRATA:
        k = build(r)
        classes, index = _class_index(k)
        pairs = [(s, a) for s in _subsets(r.active) for a in _subsets(s)]
        assert set(index) <= set(pairs), r
        for s, a in pairs:
            for v in _subsets(r.support - s):
                sid = StratumId(s, a, v)
                got = [i for i in index.get((s, a), []) if v <= classes[i][0].g(0)]
                want = [i for i, cls in enumerate(classes) if membership(cls[0], sid) != OUT]
                assert got == want, (r, sid)


def test_class_index_size_on_four_processes():
    # one key per (S, A) with A <= S <= {0,1,2,3}, 3^4 of them
    _, index = _class_index(build(RoundCounter.of(1, 1, 1, 1)))
    assert (len(index), sum(map(len, index.values()))) == (81, 1121)


def test_class_masks_match_frozenset_oracle():
    # the mask algebra decoded to simplices against the frozenset tables,
    # and containment_anomalies against containment of those frozensets
    for r in CORPUS_STRATA:
        k = build(r)
        subsets, x, y, z = _class_masks(k)
        want_subsets, want_x, want_y, want_z = slices_oracle(k)
        assert subsets == want_subsets, r
        assert {sa: _decode(k, m) for sa, m in x.items()} == want_x, r
        assert {sa: _decode(k, m) for sa, m in y.items()} == want_y, r
        assert {s: _decode(k, m) for s, m in z.items()} == want_z, r
        want = sorted(
            (tuple(sorted(s)), tuple(sorted(a)), tuple(sorted(t)), tuple(sorted(b)))
            for (s, a), xs in want_x.items()
            for (t, b), xt in want_x.items()
            if not ((s == t and b <= a) or t <= a) and xs <= xt
        )
        assert containment_anomalies(r) == want, r


def _agree(new, old, *args):
    """new builds the table of the validating oracle: the same normalized
    pairs, and the class the validation rule gives them, decided afresh:
    tables are interned, so the oracle's table is the same object."""
    got, want = new(*args), old(*args)
    assert (got.pairs, got.classification) == (want.pairs, _classify_normalized(want.pairs).kind), args
    return got


def _rho_sa_oracle(tau, first, ghosts):
    return rho_oracle(undelta_v_oracle(tau, ghosts) if ghosts else tau, first)


def test_transport_maps_match_validating_oracles_on_prestructures():
    # every admissible argument; test_transport_maps_reject_invalid_input
    # covers the rejected ones
    universe = (0, 1, 2)
    subsets = {x: _subsets(x) for x in _subsets(universe)}
    for sigma in all_prestructures(universe, 3):
        for s in subsets[frozenset(universe)]:
            for a in subsets[s]:
                if membership_brute(sigma, StratumId(s, a)) == OUT:
                    continue
                # the round-0 gate admits exactly the V inside G_0
                for v in subsets[sigma.g(0) - s]:
                    _agree(gamma, gamma_oracle, sigma, StratumId(s, a, v))
        for ids in subsets[frozenset(universe)]:
            if ids <= sigma.supp:
                _agree(rho, rho_oracle, sigma, ids)
            if ids <= sigma.g(0):
                _agree(delta_v, delta_v_oracle, sigma, ids)
            if not ids & sigma.w(0):
                _agree(undelta_v, undelta_v_oracle, sigma, ids)


def test_transport_maps_match_validating_oracles_on_strata():
    for values in ORACLE_COUNTERS + [(2, 2)]:
        r = RoundCounter.of(*values)
        k = build(r)
        for s in _subsets(r.active):
            for a in _subsets(s):
                for v in _subsets(r.support - s):
                    sid = StratumId(s, a, v)
                    for sigma in stratum(k, sid):
                        tau = _agree(gamma, gamma_oracle, sigma, sid)
                        _agree(delta_v, delta_v_oracle, sigma, v)
                        _agree(undelta_v, undelta_v_oracle, tau, a)
                        _agree(rho_sa, _rho_sa_oracle, tau, s, a)


def test_verify_stratum_iso_examples():
    assert verify_stratum_iso(R11, StratumId({0, 1}))
    # image of the full first-class stratum is the whole reduced complex
    k = build(RoundCounter.of(0, 0))
    x = stratum(build(R11), StratumId({0, 1}))
    assert {gamma(s, StratumId({0, 1})) for s in x} == set(k.simplices)


def test_verify_stratum_iso_all_small():
    for values in [(1, 1), (2, 1), (1, 1, 1), (1, 0), (0, 2)]:
        r = RoundCounter.of(*values)
        for sid in all_stratum_ids(r):
            assert verify_stratum_iso(r, sid), (values, sid)


def test_verify_stratum_iso_with_round0_ghosts():
    # strata cut down to a round-0 boundary piece map onto that piece
    assert verify_stratum_iso(R11, StratumId({0}, (), {1}))
    r = RoundCounter.of(1, 1, 1)
    for sid in (StratumId({0}, (), {2}), StratumId({0, 1}, {1}, {2}), StratumId({2}, {2}, {0})):
        assert verify_stratum_iso(r, sid)


def test_verify_stratum_iso_catches_rigged_maps(monkeypatch):
    r, sid = RoundCounter.of(1, 1, 1), StratumId({0, 1}, {1})
    target_r = r.reduce(sid.first, sid.ghosts)
    # u has the largest dimension in the stratum, so no member has u as a face
    v, u = sorted(stratum(build(r), sid), key=lambda s: (s.dim, s.key))[-2:]
    real_gamma, real_build = decomposition.gamma, decomposition.build
    assert verify_stratum_iso(r, sid)
    with monkeypatch.context() as m:
        # two members sent to one image
        m.setattr(decomposition, "gamma", lambda sigma, s: real_gamma(u if sigma == v else sigma, s))
        assert not verify_stratum_iso(r, sid)
    with monkeypatch.context() as m:
        # u sent outside the target, to a table rho_sa still takes back to u:
        # the target simplex it should reach is missed
        m.setattr(
            decomposition,
            "gamma",
            lambda sigma, s: undelta_v(real_gamma(sigma, s), s.ghosts) if sigma == u else real_gamma(sigma, s),
        )
        assert not verify_stratum_iso(r, sid)
    with monkeypatch.context() as m:
        # a target simplex that no member reaches, with every face map intact
        base = real_build(target_r)
        extra = WitnessTable([((0, 2), ())])  # one layer: no simplex of the target
        padded = Complex(target_r, levels_with(base, extra), {**base.facets, extra: ()})
        m.setattr(decomposition, "build", lambda c: padded if c == target_r else real_build(c))
        assert not verify_stratum_iso(r, sid)


def test_partition_term_counts_three_processes():
    # the 13 triangles split across the seven possible first classes with the
    # same counts as the top-count recursion terms
    r = RoundCounter.of(1, 1, 1)
    k = build(r)
    from collections import Counter

    by_first = Counter(frozenset(top.r_set(1)) for top in k.tops)
    assert sorted(by_first.values()) == [1, 1, 1, 1, 3, 3, 3]
    from snapcomplex import f_top

    for s, count in by_first.items():
        reduced = r.execute(s)
        assert count == f_top([v for _, v in reduced]), s


def test_incidence_examples():
    k = build(R11)
    x0 = stratum(k, StratumId({0}))
    x1 = stratum(k, StratumId({1}))
    x01 = stratum(k, StratumId({0, 1}))
    x01_0 = stratum(k, StratumId({0, 1}, {0}))
    x01_1 = stratum(k, StratumId({0, 1}, {1}))
    assert x0 & x1 == frozenset({EMPTY})
    assert x01 & x0 == frozenset({EMPTY, W})
    assert x01_0 == frozenset({EMPTY, W})
    assert x01_0 & x01_1 == frozenset({EMPTY})
    assert verify_incidence(R11).ok


def test_incidence_on_corpus():
    for values in [(1, 1), (2, 1), (1, 1, 1), (1, 1, 0), (0, 0, 2)]:
        rep = verify_incidence(RoundCounter.of(*values))
        assert rep.ok, (values, rep.first_failure)


def test_containment_criterion_converse_fails_on_small_counters():
    # containment beyond the two-condition test: with only one active process
    # outside S, the layer-1 witness set of any Z_S member is forced, so Z_S
    # sits inside the full-class strata
    got = containment_anomalies(R11)
    assert got == [
        ((0,), (0,), (0, 1), ()),
        ((0,), (0,), (0, 1), (0,)),
        ((1,), (1,), (0, 1), ()),
        ((1,), (1,), (0, 1), (1,)),
    ]
    for s, a, t, b in got:
        k = build(R11)
        assert stratum(k, StratumId(s, a)) <= stratum(k, StratumId(t, b))
    assert containment_anomalies(RoundCounter.of(0, 0)) == []


def test_diagram_examples_and_corpus():
    rep = verify_diagrams(R11)
    assert rep.ok
    params = {(rec.check, rec.params) for rec in rep.records}
    assert ("diagram-strata", "{1} {0}") in params
    assert ("diagram-ghost-forcing", "{0,1} {0} {}") in params
    rep3 = verify_diagrams(RoundCounter.of(1, 1, 0))
    assert rep3.ok
    assert ("diagram-boundary", "{0} {} {2}") in {(rec.check, rec.params) for rec in rep3.records}


def test_strata_partition_small():
    k = build(R11)
    rep = strata_partition(k)
    assert rep.ok
    # layer-data triples of the three edges
    assert (A_EDGE.r_set(1), A_EDGE.g(1), A_EDGE.g(0)) == ({0}, frozenset(), frozenset())
    assert (C_EDGE.r_set(1), C_EDGE.g(1), C_EDGE.g(0)) == ({0, 1}, frozenset(), frozenset())
    assert (W.r_set(1), W.g(1), W.g(0)) == ({0, 1}, {0}, frozenset())
    assert (V0.r_set(1), V0.g(1), V0.g(0)) == ({0}, frozenset(), {1})
    assert strata_partition(build(RoundCounter.of(0, 0))).ok
    assert strata_partition(build(RoundCounter.of(1, 1, 1))).ok


def test_all_strata_boundary_closed():
    for values in [(1, 1), (2, 1), (1, 1, 1)]:
        r = RoundCounter.of(*values)
        k = build(r)
        for sid in all_stratum_ids(r):
            x = stratum(k, sid)
            assert all(f in x for s in x for f in k.facets[s])


def test_boundary_piece_is_the_stratum_with_empty_first_class():
    # B_V's rule V <= G_0 is membership's round-0 gate, with S = A = {}
    for r in counters_with(3, 4) + [RoundCounter.of(1, 1, 1, 1)]:
        k = build(r)
        for v in _subsets(r.support):
            assert boundary_subcomplex(k, v) == stratum(k, StratumId((), (), v)), (r, v)


def test_union_of_strata_covers_complex():
    for values in [(1, 1), (1, 1, 1), (2, 1)]:
        r = RoundCounter.of(*values)
        k = build(r)
        union = set()
        for sid in all_stratum_ids(r):
            if sid.first:
                union |= stratum(k, sid)
        assert union == set(k.simplices)


def _failures(rep):
    return [(rec.check, rec.params, rec.counterexample) for rec in rep.records if not rec.ok]


def _digest(failures):
    return hashlib.sha256(repr(failures).encode()).hexdigest()


def test_verify_diagrams_reports_broken_ghost_forcing(monkeypatch):
    # forcing fewer ghosts must re-add the difference at round 0
    monkeypatch.setattr(decomposition, "undelta_v", lambda tau, ids: tau)
    rep = verify_diagrams(RoundCounter.of(1, 1, 1))
    bad = _failures(rep)
    assert (len(rep.records), len(bad)) == (138, 37)
    assert bad[0] == ("diagram-ghost-forcing", "{0} {0} {}", "[[[],[0,1,2]]]")
    assert _digest(bad) == "e1ddb5611cc8244fa09472d499d66eebf964bb4f8e324617423cd8a17a00ac7b"


def test_verify_diagrams_reports_broken_boundary_square(monkeypatch):
    # a delta_v that strips nothing leaves the round-0 ghosts V in place
    monkeypatch.setattr(decomposition, "delta_v", lambda sigma, ids: sigma)
    rep = verify_diagrams(RoundCounter.of(1, 1, 0))
    bad = _failures(rep)
    assert (len(rep.records), len(bad)) == (44, 16)
    assert bad[0][:2] == ("diagram-boundary", "{0} {} {1}")
    assert _digest(bad) == "2f1f6f980041ec4506a3f1dc71d7113dced544b0184cc508e9e6eb4cbb31574d"


def test_verify_diagrams_boundary_law_needs_its_first_and_last_terms(monkeypatch):
    r = RoundCounter.of(1, 1, 0)
    k = build(r)
    real_gamma, real_delta_v = decomposition.gamma, decomposition.delta_v

    # delta_v strips V from simplices of the complex but leaves images under
    # gamma alone, so only delta_v(phi, v) == gamma(psi, ...) sees it
    monkeypatch.setattr(decomposition, "delta_v", lambda sigma, ids: real_delta_v(sigma, ids) if sigma in k else sigma)
    rep = verify_diagrams(r)
    bad = _failures(rep)
    assert (len(rep.records), len(bad)) == (44, 16)
    assert bad[0] == ("diagram-boundary", "{0} {} {1}", "[[[0],[1,2]],[[0],[]]]")
    assert _digest(bad) == "ed41d087768d00400e96c67c507762bcd938fb3ba3581aa28b4b0ad25b111dae"
    monkeypatch.setattr(decomposition, "delta_v", real_delta_v)

    # gamma also drops every round-0 ghost outside S; the square still
    # commutes, so only v <= phi.g(0) sees it (without it delta_v raises)
    def rigged_gamma(sigma, sid):
        image = real_gamma(sigma, sid)
        return real_delta_v(image, image.g(0) - sid.first)

    monkeypatch.setattr(decomposition, "gamma", rigged_gamma)
    rep = verify_diagrams(r)
    bad = [f for f in _failures(rep) if f[0] == "diagram-boundary"]
    assert (sum(rec.check == "diagram-boundary" for rec in rep.records), len(bad)) == (24, 16)
    assert bad[0] == ("diagram-boundary", "{0} {} {1}", "[[[],[0,1,2]]]")
    assert _digest(bad) == "2f1f6f980041ec4506a3f1dc71d7113dced544b0184cc508e9e6eb4cbb31574d"


def test_verify_stratum_iso_catches_swapped_vertex_images(monkeypatch):
    # two same-coloured vertices trade images under gamma, and rho_sa trades
    # them back: the images still form a bijection, but faces no longer match
    r = RoundCounter.of(1, 1, 1)
    sid = StratumId({0})
    assert verify_stratum_iso(r, sid)
    u, v = sorted((s for s in stratum(build(r), sid) if s.dim == 0 and s.color == 1), key=lambda s: s.pairs)
    real_gamma, real_rho_sa = decomposition.gamma, decomposition.rho_sa
    gu, gv = real_gamma(u, sid), real_gamma(v, sid)
    swap, back = {u: gv, v: gu}, {gv: u, gu: v}

    def rigged_gamma(sigma, s):
        return swap[sigma] if sigma in swap else real_gamma(sigma, s)

    def rigged_rho_sa(tau, first, ghosts=()):
        return back[tau] if tau in back else real_rho_sa(tau, first, ghosts)

    monkeypatch.setattr(decomposition, "gamma", rigged_gamma)
    monkeypatch.setattr(decomposition, "rho_sa", rigged_rho_sa)
    assert not verify_stratum_iso(r, sid)


# sha256 of repr(report.records): every params string, verdict and
# counterexample of the three verifiers, which `verify` shows only up to the
# first failure
RECORDS_SHA256 = {
    ("1,1,1,1", "incidence"): (20850, "7c8b6d20992fb890ed3fcb7c923c3f70a0740f878aacd605e27a329ec47a9e71"),
    ("1,1,1,1", "diagrams"): (560, "3f447dd61aac1c408802be14ffcd6f44e210ea4718912c546032bc045791bcee"),
    ("1,1,1,1", "partition"): (416, "011fde7f1d02d149b8782273feb33b7f8cd0193823a59527c33b388d95c8d63a"),
    ("2,2,1", "incidence"): (2315, "d4b81377cdbc85dba0ece806aa641c5a5213aca4b7b37a6da2f172bd6d19be46"),
    ("2,2,1", "diagrams"): (138, "3aa4683a1e83831d04bae6f52c20dd5b2d46f0cdf7da3e5bdef159e36a3d47b8"),
    ("2,2,1", "partition"): (328, "98c5cab7e4537cc1f7a2a8e6b9b803d614ab9b74e97d24d8a96e80847daa00e3"),
}


def test_verifier_records_pinned():
    verifiers = {
        "incidence": verify_incidence,
        "diagrams": verify_diagrams,
        "partition": lambda r: strata_partition(build(r)),
    }
    for (counter, name), want in RECORDS_SHA256.items():
        records = verifiers[name](RoundCounter.parse(counter)).records
        assert (len(records), hashlib.sha256(repr(records).encode()).hexdigest()) == want, (counter, name)


def test_strata_partition_reads_interiors_within_stratum_membership(monkeypatch):
    # a gamma that adds a round-0 ghost no member has: the round-0 set read
    # off the image lies in no member's G_0, so no stratum holding a member
    # has that member in its interior
    real_gamma = decomposition.gamma
    monkeypatch.setattr(decomposition, "gamma", lambda sigma, sid: undelta_v(real_gamma(sigma, sid), {9}))
    k = build(RoundCounter.of(1, 1, 1))
    bad = _failures(strata_partition(k))
    assert [key for _, key, _ in bad] == [s.key for s in k.simplices if s.t >= 1]
    assert {ce for _, _, ce in bad} == {"interiors=[]"}


def test_strata_partition_peels_each_member_of_x_sa_once(monkeypatch):
    # V only filters X_{S,A}, so each member is peeled once per (S, A) and
    # its round-0 set is read off the image: 1 072 peels where walking every
    # (S, A, V) made 1 664, and no delta_v
    real_gamma, real_delta_v = decomposition.gamma, decomposition.delta_v
    calls = []
    monkeypatch.setattr(decomposition, "gamma", lambda sigma, sid: calls.append("gamma") or real_gamma(sigma, sid))
    monkeypatch.setattr(decomposition, "delta_v", lambda sigma, v: calls.append("delta_v") or real_delta_v(sigma, v))
    assert strata_partition(build(RoundCounter.of(1, 1, 1, 1))).ok
    assert (calls.count("gamma"), calls.count("delta_v")) == (1072, 0)


def test_verify_diagrams_peels_each_member_once(monkeypatch):
    # one gamma image per (table, stratum) pair within a call: 2 495 peels
    # where the three squares ask for 12 046
    real_gamma = decomposition.gamma
    calls = []
    monkeypatch.setattr(decomposition, "gamma", lambda sigma, sid: calls.append((sigma, sid)) or real_gamma(sigma, sid))
    assert verify_diagrams(RoundCounter.of(1, 1, 1, 1)).ok
    assert len(calls) == len(set(calls)) == 2495


def test_verify_diagrams_fetches_each_stratum_once_per_square(monkeypatch):
    # (3^4 - 2^4) strata-within-strata + (3^4 - 1) ghost-forcing + 15 * 16
    # boundary fetches: the ghost-forcing square reads X_{S,A} once for all B
    real = decomposition.stratum
    calls = []
    monkeypatch.setattr(decomposition, "stratum", lambda k, sid: calls.append(sid) or real(k, sid))
    assert verify_diagrams(RoundCounter.of(1, 1, 1, 1)).ok
    assert len(calls) == 385


def test_verify_diagrams_decides_membership_only_in_gamma(monkeypatch):
    # gamma's guard is the laws' one membership test: a non-member it
    # rejects counts as a broken law, so no law restates the guard
    real_gamma, real_membership = decomposition.gamma, decomposition.membership
    calls = []
    monkeypatch.setattr(decomposition, "gamma", lambda sigma, sid: calls.append("gamma") or real_gamma(sigma, sid))
    monkeypatch.setattr(
        decomposition, "membership", lambda sigma, sid: calls.append("membership") or real_membership(sigma, sid)
    )
    assert verify_diagrams(RoundCounter.of(1, 1, 1, 1)).ok
    assert calls.count("membership") == calls.count("gamma") > 0


def test_stratum_rejects_members_whose_faces_lie_outside(monkeypatch):
    # a class index listing, under one (S, A), a class whose faces lie in other
    # classes; stratum keeps no cache, so no rigged result outlives the test
    k = build(RoundCounter.of(1, 1, 1))
    classes, _ = _class_index(k)
    i = next(i for i, cls in enumerate(classes) if any(f not in cls for s in cls for f in k.facets[s]))
    sid = StratumId({0})
    monkeypatch.setattr(decomposition, "_class_index", lambda kk: (classes, {(sid.first, sid.ghosts): [i]}))
    with pytest.raises(AssertionError, match=r"StratumId\(S=\[0\], A=\[\], V=\[\]\) is not boundary-closed"):
        decomposition.stratum(k, sid)
