import hashlib
import json
from collections import Counter
from itertools import combinations

import pytest

from snapcomplex import (
    RoundCounter,
    WitnessTable,
    boundary_subcomplex,
    build,
    chromatic_check,
    classify,
    complex_to_dot,
    complex_to_json,
    complexes,
    cone_check,
    delta_v,
    enumerate_top,
    f_top,
    ghost,
    indexes_simplex,
    path_profile,
    structural_checks,
    witness,
)
from snapcomplex.complexes import Complex, PathReport, expected_endpoint
from snapcomplex.errors import PreconditionViolation
from snapcomplex.topology import collapse_to_point
from tests.helpers import (
    build_oracle,
    complex_json_oracle,
    counters_with,
    enumerate_top_brute,
    has_face,
    levels_with,
    m_count_brute,
    vertex_set,
    vertices,
    without_second_coface,
)

# the structural corpus of the acceptance suite
CORPUS_STRUCT = counters_with(3, 5) + [RoundCounter.of(1, 1, 1, 1)]


def keys(simplices):
    return {s.key for s in simplices}


def test_is_simplex_examples():
    r = RoundCounter.of(1, 1)
    top = WitnessTable([({0, 1}, ()), ({0, 1}, ())])
    assert indexes_simplex(top, r)
    assert not indexes_simplex(WitnessTable([({0, 1}, ())]), r)
    assert indexes_simplex(WitnessTable([((), {0, 1})]), r)
    # wrong support
    assert not indexes_simplex(WitnessTable([({0}, ())]), r)


def test_membership_counts_match_brute_force():
    r = RoundCounter.of(1, 1)
    for sigma in build(r).simplices:
        for p in sorted(sigma.supp):
            want = r[p] + 1
            if p in sigma.active_set:
                assert m_count_brute(sigma, p) == want
            else:
                assert m_count_brute(sigma, p) <= want


def test_enumerate_top_examples():
    got = keys(enumerate_top(RoundCounter.of(1, 1)))
    assert got == {
        WitnessTable([({0, 1}, ()), ({0}, ()), ({1}, ())]).key,
        WitnessTable([({0, 1}, ()), ({1}, ()), ({0}, ())]).key,
        WitnessTable([({0, 1}, ()), ({0, 1}, ())]).key,
    }
    assert keys(enumerate_top(RoundCounter.of(0, 0))) == {WitnessTable([({0, 1}, ())]).key}
    assert len(enumerate_top(RoundCounter.of(1, 1, 1))) == 13


def test_enumerate_top_against_unpruned_filter():
    for values in [(1, 1), (2, 0), (1, 1, 1), (2, 1), (0, 0, 1)]:
        r = RoundCounter.of(*values)
        assert set(enumerate_top(r)) == enumerate_top_brute(r)


def test_build_f_vectors():
    assert build(RoundCounter.of(1, 1)).f_vector == (1, 4, 3)
    k = build(RoundCounter.of(1, 1, 1))
    assert k.f_vector == (1, 12, 24, 13)
    assert k.euler == 1
    assert build(RoundCounter.of(0, 0, 0)).f_vector == (1, 3, 3, 1)
    assert build(RoundCounter.of(1)).f_vector == (1, 1)


def test_build_members_satisfy_membership_and_closure():
    for values in [(1, 1), (2, 1), (1, 1, 1), (0, 2)]:
        r = RoundCounter.of(*values)
        k = build(r)
        assert sum(1 for s in k.simplices if s.dim == -1) == 1
        for sigma in k.simplices:
            assert indexes_simplex(sigma, r)
            act = sorted(sigma.active_set)
            for n in range(len(act) + 1):
                for sub in combinations(act, n):
                    face = ghost(sigma, sub)
                    assert face in k
                    assert has_face(sigma, face)
        assert len(k.tops) == f_top([v for _, v in r])


def test_build_keeps_one_object_per_simplex():
    for values in [(1, 1, 1), (2, 1, 1)]:
        k = build(RoundCounter.of(*values))
        canonical = {s: s for s in k.simplices}
        for table in (k.facets, k.cofacets):
            assert len(table) == len(k.simplices)
            for sigma, near in table.items():
                assert sigma is canonical[sigma]
                assert all(tau is canonical[tau] for tau in near), (values, sigma)


def test_build_cofacets_are_the_sorted_inverse_of_facets():
    # c is a cofacet of s exactly when s is a facet of c, entry for entry; a
    # face loop that reset a known face's cofacet list would break it
    for r in CORPUS_STRUCT + [RoundCounter.of(2, 2, 2, 1)]:
        k = build(r)
        inverse = {s: [] for s in k.simplices}
        for sigma, faces in k.facets.items():
            for tau in faces:
                inverse[tau].append(sigma)
        assert k.cofacets == {s: tuple(sorted(c, key=lambda x: x.pairs)) for s, c in inverse.items()}, r
        assert sum(map(len, k.cofacets.values())) == sum(map(len, k.facets.values())), r


def test_build_stores_facets_only_and_derives_cofacets_on_first_read():
    for r in CORPUS_STRUCT:
        k = complexes.build.__wrapped__(r)  # not kept in the build cache
        assert "cofacets" not in vars(k), r
        assert k.cofacets == build_oracle(r)[1], r
        assert "cofacets" in vars(k) and k.cofacets is k.cofacets, r


def _assert_build_equals_oracle(r):
    k, (want, want_cofacets) = complexes.build.__wrapped__(r), build_oracle(r)  # not kept in the build cache
    assert k.simplices == want.simplices, r
    assert k.tops == want.tops, r
    assert k.by_dim == want.by_dim, r
    canonical = {s: s for s in k.simplices}
    assert all(s is canonical[s] for s in k.tops), r
    for table, oracle in ((k.facets, want.facets), (k.cofacets, want_cofacets)):
        assert len(table) == len(k.simplices), r
        for sigma in k.simplices:
            near = table[sigma]
            assert near == oracle[sigma], (r, sigma)
            assert all(tau is canonical[tau] for tau in near), (r, sigma)


def test_build_equals_the_depth_first_oracle():
    for r in counters_with(3, 5) + [RoundCounter.parse(t) for t in ("1,1,1,1", "2,x,1,0", "1,1,1,1,1")]:
        _assert_build_equals_oracle(r)


@pytest.mark.slow
def test_build_equals_the_depth_first_oracle_on_large_counters():
    for values in ((2, 2, 2, 1), (3, 3, 3)):
        _assert_build_equals_oracle(RoundCounter.of(*values))


def test_build_never_runs_the_general_operator(monkeypatch):
    # `ghost` is the face kernel; the two-step route through `stabilize` and
    # `canonical_form` would make an intermediate table per face, and so would
    # any second trusted construction inside the kernel
    def refuse(*args):
        raise AssertionError("build ran the two-step ghosting route")

    for name in ("stabilize", "canonical_form"):
        monkeypatch.setattr(witness, name, refuse)
    calls = Counter()
    trusted, ghost_one = WitnessTable._trusted.__func__, witness.ghost_one

    def counted_trusted(cls, pairs, kind):
        calls["_trusted"] += 1
        return trusted(cls, pairs, kind)

    def counted_ghost_one(sigma, p):
        calls["ghost_one"] += 1
        return ghost_one(sigma, p)

    monkeypatch.setattr(WitnessTable, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(witness, "ghost_one", counted_ghost_one)
    for r in counters_with(3, 5):
        calls.clear()
        k = complexes.build.__wrapped__(r)
        assert len(k) > 0, r
        assert calls["_trusted"] == len(k.tops) + calls["ghost_one"], r


def test_vertices_examples():
    top = WitnessTable([({0, 1}, ()), ({0, 1}, ())])
    assert keys(vertices(top)) == {
        WitnessTable([({0, 1}, ()), ({0}, {1})]).key,
        WitnessTable([({0, 1}, ()), ({1}, {0})]).key,
    }
    v = WitnessTable([({0, 1}, ()), ({0}, {1})])
    assert vertices(v) == frozenset({v})
    edge = WitnessTable([({0, 1}, ()), ({0}, ()), ({1}, ())])
    assert keys(vertices(edge)) == {
        WitnessTable([({0}, {1}), ({0}, ())]).key,
        WitnessTable([({0, 1}, ()), ({1}, {0})]).key,
    }


def test_boundary_subcomplex_examples():
    r = RoundCounter.of(1, 1)
    k = build(r)
    b0 = boundary_subcomplex(k, {0})
    assert keys(b0) == {
        WitnessTable([((), {0, 1})]).key,
        WitnessTable([({1}, {0}), ({1}, ())]).key,
    }
    images = {delta_v(s, {0}) for s in b0}
    assert images == set(build(r.delete({0})).simplices)
    assert boundary_subcomplex(k, ()) == frozenset(k.simplices)
    assert keys(boundary_subcomplex(k, {0, 1})) == {WitnessTable([((), {0, 1})]).key}
    with pytest.raises(PreconditionViolation):
        boundary_subcomplex(k, {5})
    with pytest.raises(PreconditionViolation):
        delta_v(WitnessTable([({0, 1}, ())]), {0})


def test_boundary_slice_is_isomorphic_image():
    for values in [(1, 1), (1, 1, 1), (2, 1)]:
        r = RoundCounter.of(*values)
        k = build(r)
        for p in sorted(r.support):
            b = boundary_subcomplex(k, {p})
            assert all(f in b for s in b for f in k.facets[s])
            target = build(r.delete({p}))
            mapped = {delta_v(s, {p}): s for s in b}
            assert set(mapped) == set(target.simplices)
            for tau, sigma in mapped.items():
                for q in sorted(sigma.active_set):
                    assert delta_v(ghost(sigma, (q,)), {p}) == ghost(tau, (q,))


def test_structural_checks_small():
    for values in [(1, 1), (0, 0, 0), (1, 1, 1), (2, 1)]:
        rep = structural_checks(build(RoundCounter.of(*values)))
        assert rep.ok, (values, rep)


def test_boundary_edge_split_of_three_process_one_round():
    k = build(RoundCounter.of(1, 1, 1))
    edges = k.by_dim[1]
    boundary = [e for e in edges if len(k.cofacets[e]) == 1]
    interior = [e for e in edges if len(k.cofacets[e]) == 2]
    assert (len(boundary), len(interior)) == (9, 15)
    assert all(e.g(0) for e in boundary)
    assert not any(e.g(0) for e in interior)


def test_path_profiles():
    rep = path_profile(build(RoundCounter.of(1, 1)))
    assert rep.ok and rep.edges == 3
    assert path_profile(build(RoundCounter.of(2, 1))).edges == 5
    rep10 = path_profile(build(RoundCounter.of(1, 0)))
    assert rep10.ok and rep10.edges == 1
    assert expected_endpoint(RoundCounter.of(1, 1), 0) == WitnessTable([({0}, {1}), ({0}, ())])
    with pytest.raises(PreconditionViolation):
        path_profile(build(RoundCounter.of(1, 1, 1)))


def test_path_profile_failures():
    k = build(RoundCounter.of(1, 1))
    # a vertex with no coface is neither an endpoint nor an interior vertex
    lone = WitnessTable([((0,), (1,))])
    rigged = Complex(k.counter, levels_with(k, lone), {**k.facets, lone: ()})
    assert path_profile(rigged) == PathReport(False, 3, (), f"valency 0: {lone.key}")
    # an interior vertex that lost a coface is a third leaf
    rigged, ridge = without_second_coface(k)
    rep = path_profile(rigged)
    assert (rep.ok, rep.counterexample) == (False, "wrong endpoints")
    assert ridge.key in rep.endpoints and len(rep.endpoints) == 3


def test_cone_examples():
    assert cone_check(RoundCounter.of(1, 0), 1)
    assert cone_check(RoundCounter.of(0, 0), 1)
    assert cone_check(RoundCounter.of(1, 1, 0), 2)
    with pytest.raises(PreconditionViolation):
        cone_check(RoundCounter.of(1, 1), 1)


def _fields(rep):
    return (rep.pure, rep.pseudomanifold, rep.boundary_matches, rep.strongly_connected, rep.reconstruction_injective)


def test_structural_checks_catch_a_ridge_with_three_cofaces():
    k = build(RoundCounter.of(1, 1, 1))
    ridge = next(e for e in k.by_dim[1] if len(k.cofacets[e]) == 2)
    third = next(t for t in k.tops if t not in k.cofacets[ridge])
    # the third top's vertex mask gains a vertex outside it, so no two
    # simplices share a vertex set
    facets = {**k.facets, third: k.facets[third] + (ridge,)}
    rep = structural_checks(Complex(k.counter, tuple(k.by_dim.values()), facets))
    assert _fields(rep) == (True, False, True, True, True)
    assert rep.counterexample == f"pseudomanifold: {ridge.key} has 3 cofaces"
    assert not rep.ok


def test_structural_checks_catch_a_simplex_below_the_top_with_no_coface():
    # a foreign vertex with no round-0 ghost, whose only face is the empty
    # simplex: it lies on no top, and not on the boundary
    k = build(RoundCounter.of(1, 1, 1))
    lone = WitnessTable([((0,), ()), ((0,), ())])
    rep = structural_checks(Complex(k.counter, levels_with(k, lone), {**k.facets, lone: k.by_dim[-1]}))
    assert _fields(rep) == (False, True, True, True, True)
    assert rep.counterexample == f"pure: {lone.key}"


def test_structural_checks_catch_an_interior_ridge_with_one_coface():
    rigged, ridge = without_second_coface(build(RoundCounter.of(1, 1, 1)))
    rep = structural_checks(rigged)
    assert _fields(rep)[:3] == (True, True, False)
    assert rep.failures[0] == ("boundary_matches", f"boundary: {ridge.key}")


def test_structural_checks_catch_an_interior_face_below_a_boundary_ridge():
    # every ridge keeps its cofaces and its round-0 ghosts, so a check on
    # the ridges alone passes; the closure of the boundary ridges gains an
    # interior vertex
    k = build(RoundCounter.of(1, 1, 1))
    ridge = next(e for e in k.by_dim[1] if len(k.cofacets[e]) == 1)
    inner = next(v for v in k.by_dim[0] if not v.pairs[0][1])
    facets = {**k.facets, ridge: (k.facets[ridge][0], inner)}
    rep = structural_checks(Complex(k.counter, tuple(k.by_dim.values()), facets))
    assert _fields(rep)[:4] == (True, True, False, True)
    assert rep.failures[0] == ("boundary_matches", f"boundary: {inner.key}")


def test_structural_checks_catch_two_simplices_with_one_vertex_set():
    # a face listed twice, as a build without face dedup would list it
    k = build(RoundCounter.of(1, 1, 1))
    twin = k.by_dim[1][0]
    rep = structural_checks(Complex(k.counter, levels_with(k, twin), k.facets))
    assert _fields(rep) == (True, True, True, True, False)
    assert rep.counterexample == f"reconstruction: {twin.key} vs {twin.key}"


def test_cone_check_catches_swapped_same_colour_images(monkeypatch):
    r = RoundCounter.of(1, 1, 0)
    k = build(r)
    u, v = [s for s in k.by_dim[0] if s.color == 0 and 2 in s.g(0)]
    real = complexes.delta_v

    def swapped(sigma, ids):
        return real({u: v, v: u}.get(sigma, sigma), ids)

    assert cone_check(r, 2)
    monkeypatch.setattr(complexes, "delta_v", swapped)
    # the images still cover the base once each, but the edges at u and v
    # no longer map onto their faces
    assert not cone_check(r, 2)


def test_cone_check_catches_a_base_simplex_no_image_reaches(monkeypatch):
    r = RoundCounter.of(1, 1, 0)
    base_r = r.delete((2,))
    real = complexes.build
    base = real(base_r)
    extra = WitnessTable([((0, 1), ())])  # one layer: no simplex of base_r
    padded = Complex(base_r, levels_with(base, extra), {**base.facets, extra: ()})

    assert cone_check(r, 2)
    monkeypatch.setattr(complexes, "build", lambda c: padded if c == base_r else real(c))
    # every simplex still maps onto its faces, but the images miss a base simplex
    assert not cone_check(r, 2)


def test_cone_check_catches_a_simplex_in_neither_part(monkeypatch):
    r = RoundCounter.of(1, 1, 0)
    real = complexes.build
    k = real(r)
    stray = real(r.delete((2,))).tops[0]  # the apex in neither W_0 nor G_0
    rigged = Complex(r, levels_with(k, stray), k.facets)
    assert cone_check(r, 2)
    monkeypatch.setattr(complexes, "build", lambda c: rigged if c == r else real(c))
    # the two parts still map onto the base face by face, but miss a simplex
    assert not cone_check(r, 2)


def _rig_facets(monkeypatch, r, facets):
    """Let build(r) return the lattice of r with some facet lists replaced."""
    real = complexes.build
    k = real(r)
    rigged = Complex(r, tuple(k.by_dim.values()), {**k.facets, **facets})
    monkeypatch.setattr(complexes, "build", lambda c: rigged if c == r else real(c))


def test_cone_check_catches_a_join_simplex_without_its_apex_face(monkeypatch):
    r = RoundCounter.of(1, 1, 0)
    k = build(r)
    s = next(s for s in k.by_dim[1] if 2 in s.w(0))
    faces = tuple(f for f in k.facets[s] if 2 not in f.g(0))  # drop the apex face
    assert cone_check(r, 2)
    _rig_facets(monkeypatch, r, {s: faces})
    # the faces left inside the join part still map onto the base faces
    assert not cone_check(r, 2)


def test_cone_check_catches_a_cone_simplex_with_a_join_face(monkeypatch):
    r = RoundCounter.of(1, 1, 0)
    k = build(r)
    s = next(s for s in k.by_dim[1] if 2 in s.g(0))
    j = next(v for v in k.by_dim[0] if 2 in v.w(0))
    f = k.facets[s][0]
    twin = WitnessTable(((f.w(0) | {2}, f.g(0) - {2}),) + f.pairs[1:])  # the join copy of f
    assert cone_check(r, 2)
    with monkeypatch.context() as m:
        _rig_facets(m, r, {s: k.facets[s] + (j,)})
        # the faces inside the cone part still map onto the base faces
        assert not cone_check(r, 2)
    with monkeypatch.context() as m:
        # f and its twin have one base image, so the face images still match
        _rig_facets(m, r, {s: tuple(twin if x == f else x for x in k.facets[s])})
        assert not cone_check(r, 2)


def test_checks_after_build_never_ghost(monkeypatch):
    def no_ghost(sigma, ghosted):
        raise AssertionError(f"ghosting {sigma!r} after build")

    for r in CORPUS_STRUCT:
        k = build(r)
        for p in r.passive:
            build(r.delete((p,)))
        with monkeypatch.context() as m:
            m.setattr(witness, "ghost", no_ghost)
            assert structural_checks(k).ok, r
            for p in sorted(r.passive):
                assert cone_check(r, p), (r, p)


def test_build_and_structural_checks_read_no_dim(monkeypatch):
    # build hands its levels to Complex, so no one reads a simplex's
    # dimension off its table; build's cache is bypassed so that it runs
    real = WitnessTable.dim
    reads = []
    monkeypatch.setattr(WitnessTable, "dim", property(lambda s: reads.append(s) or real.fget(s)))
    for r in CORPUS_STRUCT:
        assert structural_checks(complexes.build.__wrapped__(r)).ok, r
    assert len(reads) == 0


def test_cone_check_join_images_equal_validated_tables(monkeypatch):
    # cone_check builds its join images unvalidated; each must be the table
    # the validating constructor makes of the simplex without its apex
    real = complexes.maps_faces
    images = []

    def recording(k, image, target, onto):
        images.append(image)
        return real(k, image, target, onto)

    monkeypatch.setattr(complexes, "maps_faces", recording)
    checked = 0
    for r in CORPUS_STRUCT:
        for p in sorted(r.passive):
            images.clear()
            assert cone_check(r, p), (r, p)
            join = images[0]  # the join part is mapped first
            assert join and all(p in s.w(0) for s in join), (r, p)
            for s, image in join.items():
                want = WitnessTable(((s.w(0) - {p}, s.g(0)),) + s.pairs[1:])
                # interned: want is image, so the class is decided afresh
                assert (image.pairs, image.classification) == (want.pairs, classify(want.pairs).kind), (r, p, s)
            checked += len(join)
    assert checked > 0


def test_lattice_vertex_sets_equal_ghosted_vertices():
    for r in CORPUS_STRUCT:
        k = build(r)
        verts = complexes._vertex_sets(k)
        assert len(verts) == len(k.simplices)
        for s in k.simplices:
            assert vertex_set(k, verts[s]) == vertices(s), (r, s)


def test_chromatic_examples():
    assert chromatic_check(RoundCounter.of(1, 1, 1))
    assert chromatic_check(RoundCounter.of(1))
    assert chromatic_check(RoundCounter.of(1, 1, 0))
    with pytest.raises(PreconditionViolation):
        chromatic_check(RoundCounter.of(2, 1))


def test_relabel_equivariance_and_canonical_invariance():
    r = RoundCounter({0: 1, 2: 1})
    k = build(r)
    pi = {0: 2, 2: 0}

    def relabel_table(sigma, mapping):
        return WitnessTable(
            [
                (tuple(sorted(mapping.get(p, p) for p in w)), tuple(sorted(mapping.get(p, p) for p in g)))
                for w, g in sigma.pairs
            ]
        )

    image = {relabel_table(s, {2: 0, 0: 2}) for s in k.simplices}
    assert image == set(build(r.relabel(pi)).simplices)
    # canonical form: order-preserving bijection supp -> 0..n
    order = {p: i for i, p in enumerate(sorted(r.support))}
    canon_image = {relabel_table(s, order) for s in k.simplices}
    assert canon_image == set(build(r.canonical()).simplices)


def test_exports():
    k = build(RoundCounter.of(1, 1))
    obj = json.loads(complex_to_json(k))
    assert obj["f_vector"] == [1, 4, 3]
    assert len(obj["tops"]) == 3
    assert {entry["key"] for entry in obj["simplices"]} == keys(k.simplices)
    empty_key = WitnessTable([((), {0, 1})]).key
    by_key = {entry["key"]: entry for entry in obj["simplices"]}
    assert by_key[empty_key]["dim"] == -1
    dot = complex_to_dot(k)
    assert dot.startswith("graph dual {")
    assert dot.count(" -- ") == 2
    assert dot.count("boundary=true") == 2


# counters whose ids or shapes stress the JSON writer: a lone process, gaps
# before and between ids, two-digit ids, passive processes
EDGE_COUNTERS = (
    "0", "x,0", "0,0", "1", "1,x,x,x,x,x,x,x,x,x,1", "x,x,1,x,x,x,x,x,x,x,1", "x,x,x,x,x,x,x,x,x,x,2,1", "2,x,1,0",
    "1,1,x,0",
)


def _json_corpus():
    # one counter at a time: the corpus is larger than the build cache
    for r in CORPUS_STRUCT + [RoundCounter.parse(text) for text in EDGE_COUNTERS]:
        yield r, build(r)


def test_complex_to_json_equals_the_object_tree():
    for r, k in _json_corpus():
        assert complex_to_json(k) == complex_json_oracle(k), r


def test_json_keys_are_made_one_level_at_a_time(monkeypatch):
    # each level's keys are asked for once, so the writer holds two levels
    # of keys, never the whole lattice's
    calls = []
    real = witness.keys

    def keys(tables):
        calls.append(tuple(tables))
        return real(tables)

    monkeypatch.setattr(witness, "keys", keys)
    for text in ("1,1,1", "2,x,1,0", "0"):
        k = build(RoundCounter.parse(text))
        calls.clear()
        assert complex_to_json(k) == complex_json_oracle(k), text
        assert calls == list(k.by_dim.values()), text


def test_batch_keys_equal_each_key():
    for r, k in _json_corpus():
        key = witness.keys(k.simplices)
        assert len(key) == len(k.simplices), r
        assert all(key[s] == s.key for s in k.simplices), r


# sha256 of `complex_to_json` on counters with a two-digit id.  The counter
# object lists ids in string order and keys list them in numeric order; the
# two orders differ on the second counter ("10" before "2")
SPARSE_JSON_SHA256 = {
    "1,x,x,x,x,x,x,x,x,x,1": "0fc0c2e32486fa71e6a9307aef3db7929c18c83f8ff46aab09cdde64b52f72c3",
    "x,x,1,x,x,x,x,x,x,x,1": "911fea6e50b946834f521469c67a46fa232bcc289aba28a0290b7b35758180ce",
}


def test_sparse_counter_json_pinned():
    for counter, want in SPARSE_JSON_SHA256.items():
        text = complex_to_json(build(RoundCounter.parse(counter)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, counter


# sha256 of the exported bytes; a witness kernel that reorders a layer or a
# ghost set changes them even when the complex stays the same
EXPORT_SHA256 = {
    ("1,1,1", "json"): "ff943fe339673fcdb1f6ba923365f3917c1b3a11a4b5c1d6ec1dffbd787b903e",
    ("1,1,1", "dot"): "a24af93d4861adf29bce3cefcb1fd54cab0c3392bd8756f731ad3dd869583b29",
    ("1,1,1", "collapse"): "0a795bd60e409d5e2427928c3d7660a1626662e44b7e7eaa6b88f0521fc8fe7b",
    ("2,1", "json"): "4cff795d157f464ccceea46d9a63b6124885d5eb4ef2859cddc30b7bce0a8cef",
    ("2,1", "dot"): "fe72e32a2284e35776588c3908aae64b22376236712f18d3e282f25b1d738ed8",
    ("2,1", "collapse"): "9f28cd9cf65b207b73862b3e2040ac88de13d0bcd6b7bf6f23b1f2c39ced2409",
}

# sha256 of `complex_to_json` on two-round counters: the face loop in `build`
# and the single-ghosting kernel decide every facet list and its order
BUILD_JSON_SHA256 = {
    "2,2,1": "b6e3044347d6e060812e31011d81c4783f41efe3e9687214aa82d49a3b80ae4d",
    "2,2,2": "530a8797a45f3d253a30f61a4e659ed26af43bbc087741e2304ce76a2122f759",
    "2,1,1,1": "283bb39cbb19ec896efb2c7e4df02b797277e2cc528794500a588a9b2bafde0f",
}


def test_export_bytes_pinned():
    for counter in ("1,1,1", "2,1"):
        r = RoundCounter.parse(counter)
        k = build(r)
        texts = {
            "json": complex_to_json(k),
            "dot": complex_to_dot(k),
            "collapse": collapse_to_point(r).to_json(),
        }
        for name, text in texts.items():
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == EXPORT_SHA256[counter, name], (counter, name)


def test_two_round_build_json_pinned():
    for counter, want in BUILD_JSON_SHA256.items():
        text = complex_to_json(build(RoundCounter.parse(counter)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, counter


# sha256 of `verify --format json` stdout; a stratum rewrite that moves one
# simplex between strata or reorders the records changes them
VERIFY_SHA256 = {
    "1,1,1": "6542d1e07041c141b1ea2eb21717e61b7d0f550863a1713ba5147f99c20c19ab",
    "2,1,1": "f5dd79fe84da918c04f651b36265e9a62cfc1de36b1975a55b03948875ba3934",
    "1,1,0": "6a4bef8b08c80ae8acb53d1fa8ea6ae584c9db09d06be56de306c6345c414d6f",
    "2,2": "7a4390edb7e6d834d134daea5c76ef98a04443031a4391f48a57bc3e1f0b8a82",
    "1,1,0,0": "1935804398219acec784d44d3653d0a3be4f086bfe150717613562827d359f79",
}


def test_verify_bytes_pinned(capsys):
    from snapcomplex.cli import main

    for counter, want in VERIFY_SHA256.items():
        assert main(["verify", "--counter", counter, "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == want, counter


# sha256 of `collapse --format json` stdout; these counters move steps through
# rho_sa with forced ghosts A and through two-round Y members
COLLAPSE_SHA256 = {
    "2,1,1": "ad00cbf2088a6191fcc2ef6104939133f824bfe51d0fc8daf9bf4d0d640e2a0e",
    "1,1,1,1": "5c55a9432eac673f50a3a6d1fa50cce4ebd0d21957e30e90959a80cbdd1e3b56",
    "2,2,2": "e8352aefdc22e205eee86979ac2390b51aae674bf1ef790a4874a62048aeea61",
    "1,1,1,1,1": "91a6292c4ee40ea4f240d7898b1ce933476997ee1a38286b854f5799e1252732",
}


def test_collapse_bytes_pinned(capsys):
    from snapcomplex.cli import main

    for counter, want in COLLAPSE_SHA256.items():
        assert main(["collapse", "--counter", counter, "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == want, counter


# sha256 of stdout on relabelled counters like those the benchmark seeds
# make: gaps and unsorted values move every id in every layer
RELABELLED_SHA256 = {
    ("build", "x,2,1,x,2,2"): "1d23d3237f9f0ea9e65de56a51d5212fcd4180c5a8e2420e2364d222eaeafd01",
    ("collapse", "1,x,1,1,1,1"): "7ff779825d032fdfe29862955492b0a1088d8f6ced416e2624eef17999166b94",
}


def test_relabelled_counter_bytes_pinned(capsys):
    from snapcomplex.cli import main

    for (command, counter), want in RELABELLED_SHA256.items():
        assert main([command, "--counter", counter, "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == want, (command, counter)


def test_build_is_cached_and_bounded():
    r = RoundCounter.of(1, 1)
    assert build(r) is build(r)
    assert build.cache_info().maxsize is not None


def test_memo_inventory():
    # every module-level memo and every per-instance cached property in the
    # package; a new one is added here and in the README on purpose
    import functools
    import importlib
    import pkgutil

    import snapcomplex

    memos, cached = set(), set()
    for info in pkgutil.iter_modules(snapcomplex.__path__):
        module = importlib.import_module(f"snapcomplex.{info.name}")
        for obj in vars(module).values():
            if callable(obj) and hasattr(obj, "cache_info"):
                memos.add(f"{obj.__module__.removeprefix('snapcomplex.')}.{obj.__qualname__}")
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for name, attr in vars(obj).items():
                    if isinstance(attr, functools.cached_property):
                        cached.add(f"{info.name}.{obj.__qualname__}.{name}")
    assert memos == {"complexes.build", "decomposition._class_index", "counting._f_top_sorted"}
    assert cached == {"complexes.Complex.cofacets"}


def test_readme_names_resolve():
    # every backticked private name in the README is an attribute of a
    # package module or of WitnessTable, and every backticked `module.name`
    # of a package module is an attribute of it, so a rename cannot leave the
    # README behind
    import importlib
    import pkgutil
    import re
    from pathlib import Path

    import snapcomplex

    modules = {"snapcomplex": snapcomplex}
    for info in pkgutil.iter_modules(snapcomplex.__path__):
        modules[info.name] = importlib.import_module(f"snapcomplex.{info.name}")
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    private = set(re.findall(r"`(_\w+)", readme))
    qualified = {(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)", readme) if m in modules}
    assert "_stabilized" in private and ("witness", "keys") in qualified
    owners = [*modules.values(), WitnessTable]
    for name in sorted(private):
        assert any(hasattr(owner, name) for owner in owners), name
    for module, name in sorted(qualified):
        assert hasattr(modules[module], name), f"{module}.{name}"
