import hashlib
import json
from itertools import combinations

import pytest

from snapcomplex import (
    RoundCounter,
    WitnessTable,
    boundary_subcomplex,
    build,
    chromatic_check,
    complex_to_dot,
    complex_to_json,
    complexes,
    cone_check,
    delta_v,
    enumerate_top,
    f_top,
    ghost,
    is_simplex,
    path_profile,
    structural_checks,
    vertices,
    witness,
)
from snapcomplex.complexes import Complex, expected_endpoint, has_face
from snapcomplex.errors import PreconditionViolation
from snapcomplex.topology import collapse_to_point
from tests.helpers import counters_with, enumerate_top_brute, m_count_brute

# the structural corpus of the acceptance suite
CORPUS_STRUCT = counters_with(3, 5) + [RoundCounter.of(1, 1, 1, 1)]


def keys(simplices):
    return {s.key for s in simplices}


def test_is_simplex_examples():
    r = RoundCounter.of(1, 1)
    top = WitnessTable([({0, 1}, ()), ({0, 1}, ())])
    assert is_simplex(top, r)
    assert not is_simplex(WitnessTable([({0, 1}, ())]), r)
    assert is_simplex(WitnessTable([((), {0, 1})]), r)
    # wrong support
    assert not is_simplex(WitnessTable([({0}, ())]), r)


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
            assert is_simplex(sigma, r)
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
    assert keys(b0.members) == {
        WitnessTable([((), {0, 1})]).key,
        WitnessTable([({1}, {0}), ({1}, ())]).key,
    }
    images = {delta_v(s, {0}) for s in b0.members}
    assert images == set(build(r.delete({0})).simplices)
    assert boundary_subcomplex(k, ()).members == frozenset(k.simplices)
    assert keys(boundary_subcomplex(k, {0, 1}).members) == {WitnessTable([((), {0, 1})]).key}
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
            assert b.is_closed()
            target = build(r.delete({p}))
            mapped = {delta_v(s, {p}): s for s in b.members}
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
    cofacets = dict(k.cofacets)
    cofacets[ridge] += (third,)
    rep = structural_checks(Complex(k.counter, k.simplices, k.tops, k.facets, cofacets))
    assert _fields(rep) == (True, False, True, True, True)
    assert rep.counterexample == f"pseudomanifold: {ridge.key} has 3 cofaces"
    assert not rep.ok


def test_structural_checks_catch_two_simplices_with_one_vertex_set():
    # a face listed twice, as a build without face dedup would list it
    k = build(RoundCounter.of(1, 1, 1))
    twin = k.by_dim[1][0]
    rep = structural_checks(Complex(k.counter, k.simplices + (twin,), k.tops, k.facets, k.cofacets))
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


def test_lattice_vertex_sets_equal_ghosted_vertices():
    for r in CORPUS_STRUCT:
        k = build(r)
        verts = complexes._vertex_sets(k)
        assert len(verts) == len(k.simplices)
        for s in k.simplices:
            assert verts[s] == vertices(s), (r, s)


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


# sha256 of the exported bytes; a witness kernel that reorders a layer or a
# ghost set changes them even when the complex stays the same
EXPORT_SHA256 = {
    ("1,1,1", "json"): "ff943fe339673fcdb1f6ba923365f3917c1b3a11a4b5c1d6ec1dffbd787b903e",
    ("1,1,1", "dot"): "a24af93d4861adf29bce3cefcb1fd54cab0c3392bd8756f731ad3dd869583b29",
    ("1,1,1", "collapse"): "0e4557122c8d387f1debae52dea4a4aa4584e7853df55794eea38ee21ea09f06",
    ("2,1", "json"): "4cff795d157f464ccceea46d9a63b6124885d5eb4ef2859cddc30b7bce0a8cef",
    ("2,1", "dot"): "fe72e32a2284e35776588c3908aae64b22376236712f18d3e282f25b1d738ed8",
    ("2,1", "collapse"): "9f28cd9cf65b207b73862b3e2040ac88de13d0bcd6b7bf6f23b1f2c39ced2409",
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
    "2,1,1": "1d335e03698c8d9f74fa2b212c931e9cff954f356fc14b710ae297677656c8bf",
    "1,1,1,1": "ec3f839df8e8d8b49f34b1fb2c968ccea5fee7f51e3132bad498bb6b18560011",
    "2,2,2": "95cbd4d34c5ebd03a48d76339696ed2311fa78ae6924b1df770c5633503c978d",
    "1,1,1,1,1": "a2f737eedeff82333580d140d2db6a244f616588d1c0d4c05085216fc9c5280a",
}


def test_collapse_bytes_pinned(capsys):
    from snapcomplex.cli import main

    for counter, want in COLLAPSE_SHA256.items():
        assert main(["collapse", "--counter", counter, "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == want, counter


def test_build_is_cached_and_bounded():
    r = RoundCounter.of(1, 1)
    assert build(r) is build(r)
    assert build.cache_info().maxsize is not None
