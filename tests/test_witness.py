import ast
import copy
import hashlib
import pickle
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import snapcomplex
from snapcomplex import (
    RoundCounter,
    WitnessTable,
    canonical_form,
    classify,
    classify_trace,
    complete,
    from_trace,
    ghost,
    ghost_one,
    indexes_simplex,
    stabilize,
    to_trace,
    trace_form,
)
from snapcomplex import build, cli, witness
from snapcomplex.errors import InvalidArgument, PreconditionViolation
from snapcomplex.witness import _classify_normalized, _normalize_pairs
from tests.helpers import (
    all_prestructures,
    all_witness_structures,
    canonical_oracle,
    canonical_via_kept_layers,
    counters_with,
    derived_oracle,
    ghost_oracle,
    stabilize_via_table,
    stabilize_via_trace,
)

# the three worked tables reproduced from the figures
CANON_IN = [({1, 2, 3, 4}, {5}), ((), {4}), ({2}, ()), ((), {2}), ({1}, {3})]
CANON_OUT = [({1, 2, 3, 4}, {5}), ({2}, {4}), ({1}, {2, 3})]
STAB_IN = [
    ({1, 2, 3, 4, 5}, ()),
    ({1}, ()),
    ({3, 4, 5}, ()),
    ({2, 3}, ()),
    ({1}, {3}),
    ({1}, {2}),
    ((), {1}),
]
STAB_OUT = [({1, 3, 4, 5}, {2}), ((), {1}), ({4, 5}, {3})]
GHOST_IN = [({1, 2, 3, 4}, ()), ({1, 2}, ()), ({3}, {4}), ({3}, {1})]
GHOST_OUT = [({1, 2}, {3, 4}), ({2}, {1})]


def subsets(pool):
    pool = tuple(sorted(pool))
    for n in range(len(pool) + 1):
        yield from (frozenset(c) for c in combinations(pool, n))


SMALL = list(all_prestructures(universe=(0, 1), max_t=3))
SMALL_STABLE = [s for s in SMALL if s.is_stable]
SMALL_WITNESS = [s for s in SMALL if s.is_witness]


def test_classify_examples():
    assert classify(CANON_IN).kind == "stable"
    assert classify([({0}, ()), ({0}, ())]).kind == "witness"
    bad = classify([({1}, ()), ({1}, {1})])
    assert (bad.kind, bad.violated) == ("invalid", "P3")
    assert not bad
    # single-layer tables are always witness structures
    assert classify([({0}, {1})]).kind == "witness"


def test_classify_condition_labels():
    assert classify([]).violated == "shape"
    assert classify([({0}, ()), ({1}, ())]).violated == "P1"
    assert classify([({0, 1}, ()), ((), {0}), ({1}, {0})]).violated == "P2"
    assert classify([({0, 1}, ()), ({0}, {1}), ({1}, ())]).violated == "P3"
    assert classify([({0, 1}, ()), ((), {0})]).kind == "prestructure"
    assert classify([({0, 1}, ()), ((), {0}), ({1}, ())]).kind == "stable"


def test_to_trace_example():
    tf = to_trace(WitnessTable(GHOST_IN))
    assert tf.active == {2, 3}
    assert tf.ghosts == {1, 4}
    assert tf.trace(1) == {0, 1, 3}
    assert tf.trace(2) == {0, 1}
    assert tf.trace(3) == {0, 2, 3}
    assert tf.trace(4) == {0, 2}


def test_trace_singleton_and_roundtrip():
    tf = to_trace(WitnessTable([((), {7})]))
    assert (tf.active, tf.ghosts) == (frozenset(), {7})
    assert tf.trace(7) == {0}
    sigma = WitnessTable(GHOST_IN)
    assert from_trace(to_trace(sigma)) == sigma


def test_trace_form_validation():
    with pytest.raises(InvalidArgument, match="overlap"):
        trace_form({1}, {1}, {1: {0}})
    with pytest.raises(InvalidArgument, match="domain"):
        trace_form({1}, set(), {1: {0}, 2: {0}})
    with pytest.raises(InvalidArgument, match="T violated"):
        trace_form({1}, set(), {1: {1}})
    # ids and indices obey the one is_natural rule
    for active, traces in (({-1}, {-1: {0}}), ({0}, {0: {0, 1.5}}), ({0}, {0: {0, True}}), ({True}, {True: {0}})):
        with pytest.raises(InvalidArgument):
            trace_form(active, (), traces)
    # a shape that is not collections of ids and a mapping of traces
    for active, ghosts, traces in (
        ([0], [], {0: 5}),  # a trace that is not a collection
        (5, [], {}),  # an active set that is not a collection
        ([], 5, {}),  # a ghost set that is not a collection
        ([0], [], [0]),  # traces in a list, not a mapping
        ([1], [], [1]),  # the same, where indexing the list would run off its end
        ([0], [], {0}),  # traces in a set
    ):
        with pytest.raises(InvalidArgument):
            trace_form(active, ghosts, traces)


MALFORMED = [
    (WitnessTable, [[1, 2]]),  # a layer of ids, not of id sets
    (WitnessTable, [((0,), None)]),  # a G part that is not a collection
    (WitnessTable, [(1,)]),  # a layer that is not a pair
    (WitnessTable, [(({0},), ())]),  # an unhashable id
    (WitnessTable.from_key, "nope"),  # a key that is not JSON
    # nested too deep for the JSON decoder, which raises RecursionError
    pytest.param(WitnessTable.from_key, "[" * 100_000, id="key-nested-too-deep"),
]


@pytest.mark.parametrize("make, arg", MALFORMED)
def test_malformed_shapes_are_invalid_arguments(make, arg):
    # one shape error, the one that classify reads as "shape"
    with pytest.raises(InvalidArgument):
        make(arg)
    if make is WitnessTable:
        assert classify(arg).violated == "shape"


def test_roundtrip_exhaustive_small():
    # trailing layers with empty witness and ghost parts are invisible to the
    # trace form, so restrict to tables whose last layer is populated
    for sigma in SMALL:
        if sigma.t >= 1 and not sigma.r_set(sigma.t):
            continue
        tf = to_trace(sigma)
        assert from_trace(tf) == sigma
        assert to_trace(from_trace(tf)) == tf
        assert classify_trace(tf).kind == sigma.classification


def test_derived_examples():
    d = WitnessTable(GHOST_IN)
    assert (d.supp, d.active_set, d.ghost_set, d.dim) == ({1, 2, 3, 4}, {2, 3}, {1, 4}, 1)
    assert WitnessTable([((), {0, 1})]).dim == -1
    v = WitnessTable([({0, 1}, ()), ({0}, {1})])
    assert (v.dim, v.color) == (0, 0)


def test_color_is_none_off_dimension_zero():
    assert WitnessTable([({0, 1}, ())]).color is None  # an edge
    assert WitnessTable([((), {0, 1})]).color is None  # the empty simplex


def test_trace_of_an_id_outside_the_form_is_a_key_error():
    tf = trace_form({0}, {1}, {0: {0, 1}, 1: {0}})
    assert (tf.trace(0), tf.trace(1)) == ({0, 1}, {0})
    with pytest.raises(KeyError):
        tf.trace(2)


def test_table_holds_only_pairs_and_class():
    sigma = WitnessTable(GHOST_IN)
    assert WitnessTable.__slots__ == ("pairs", "classification")
    assert not hasattr(sigma, "__dict__")
    with pytest.raises(AttributeError):
        sigma.cache = sigma.key


def test_equal_pairs_are_one_table():
    sigma = WitnessTable(GHOST_IN)
    assert WitnessTable(GHOST_IN) is sigma
    assert WitnessTable([(set(w), set(g)) for w, g in GHOST_IN]) is sigma  # another spelling of the pairs
    assert WitnessTable.from_key(sigma.key) is sigma
    assert WitnessTable(sigma.pairs) is sigma and witness._TABLES[sigma.pairs] is sigma
    # equality and hashing are identity, both inherited from object
    assert "__eq__" not in vars(WitnessTable) and "__hash__" not in vars(WitnessTable)
    assert WitnessTable.__eq__ is object.__eq__ and WitnessTable.__hash__ is object.__hash__


def test_copy_and_pickle_keep_the_one_table():
    sigma = WitnessTable(GHOST_IN)
    assert copy.copy(sigma) is sigma
    assert copy.deepcopy(sigma) is sigma
    assert copy.deepcopy([sigma, {sigma: sigma}])[1] == {sigma: sigma}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(sigma, protocol)) is sigma, protocol


def test_interning_keeps_validation():
    # a bool or float id never reaches the intern table, though it hashes
    # and compares equal to an int id of an interned table
    one = WitnessTable([((1, 0), ())])
    assert one.pairs == (((0, 1), ()),)
    for bad in ([((True, 0), ())], [((1.0, 0), ())], [((0, 1), ()), ((True,), ())]):
        with pytest.raises(InvalidArgument):
            WitnessTable(bad)
    with pytest.raises(InvalidArgument):
        WitnessTable.from_key("[[[true,0],[]]]")
    assert WitnessTable.from_key("[[[1,0],[]]]") is one
    # an invalid table is rejected whatever is interned
    with pytest.raises(InvalidArgument):
        WitnessTable([((0,), ()), ((1,), ())])


def test_ghost_one_returns_the_lattice_faces():
    # a face reached again after build is the lattice's own object
    for values in [(1, 1, 1), (2, 1, 1), (2, 2)]:
        k = build(RoundCounter.of(*values))
        for sigma in k.simplices:
            faces = k.facets[sigma]
            for p in sigma.active_set:
                face = ghost_one(sigma, p)
                assert any(face is f for f in faces), (values, sigma, p)


@pytest.fixture(scope="module")
def verified_corpus():
    """Run ``verify`` over a corpus, which takes every trusted path."""
    for r in counters_with(3, 5) + [RoundCounter.of(1, 1, 1, 1)]:
        assert cli.main(["verify", "--counter", r.text()]) == 0, r


def test_interned_tables_keep_their_class(verified_corpus):
    # a trusted path that stored a wrong class would hand it to every later
    # lookup of the same pairs
    assert len(witness._TABLES) > 1000
    for pairs, sigma in witness._TABLES.items():
        assert type(sigma) is WitnessTable and sigma.pairs is pairs
        assert sigma.classification == _classify_normalized(pairs).kind, pairs


def test_every_layer_is_the_one_object_of_its_value(verified_corpus):
    assert len(witness._LAYERS) > 50
    for pair, layer in witness._LAYERS.items():
        assert layer is pair and _normalize_pairs((pair,)) == (pair,), pair
        assert all(type(part) is tuple for part in pair), pair
    for sigma in witness._TABLES.values():
        assert all(witness._LAYERS[pair] is pair for pair in sigma.pairs), sigma


def _interned(sigma):
    return all(witness._LAYERS.get(pair) is pair for pair in sigma.pairs)


def test_every_route_to_a_table_interns_its_layers(monkeypatch):
    # fresh ids, so each table is made here, not found
    a = WitnessTable([({901, 902}, ()), ({901}, {902})])
    b = WitnessTable.from_key("[[[901,902],[]],[[902],[901]]]")
    assert _interned(a) and _interned(b)
    assert a.pairs[0] is b.pairs[0]  # one layer value, one object
    # copy and pickle rebuild through the constructor; in a process that has
    # not met the table, they make it with interned layers
    for route in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        monkeypatch.setattr(witness, "_TABLES", {})
        monkeypatch.setattr(witness, "_LAYERS", {})
        sigma = route(a)
        assert sigma is not a and sigma.pairs == a.pairs and _interned(sigma)


def test_a_lattice_holds_one_object_per_layer_value():
    # README's figure: 20 238 simplices share 66 layer objects
    k = build(RoundCounter.of(2, 2, 2, 1))
    layers = [pair for s in k.simplices for pair in s.pairs]
    assert len(k.simplices) == 20238
    assert len(set(layers)) == len({id(pair) for pair in layers}) == 66


def test_derived_data_matches_set_oracles_exhaustive():
    count = 0
    for sigma in all_prestructures((0, 1, 2), 3):
        want = derived_oracle(sigma)
        assert {name: getattr(sigma, name) for name in want} == want, sigma.pairs
        count += 1
    assert count == 5794


def test_boolean_process_ids_are_rejected():
    # True == 1 and hash(True) == hash(1), so a bool id would make a table equal
    # to its int twin while printing another key
    with pytest.raises(InvalidArgument):
        WitnessTable([((True, 0), ())])
    with pytest.raises(InvalidArgument):
        WitnessTable([((0, 1), (False,))])
    with pytest.raises(InvalidArgument):
        WitnessTable.from_key("[[[0,true],[]]]")
    assert classify([((True,), ())]).violated == "shape"
    assert WitnessTable.from_key("[[[0,1],[]]]").key == "[[[0,1],[]]]"


def test_canonical_form_golden():
    assert canonical_form(WitnessTable(CANON_IN)) == WitnessTable(CANON_OUT)


def test_canonical_form_fixed_points_and_errors():
    for sigma in SMALL_WITNESS:
        assert canonical_form(sigma) == sigma
    assert canonical_form(WitnessTable([((), {7})])) == WitnessTable([((), {7})])
    unstable = WitnessTable([({0}, ()), ((), {0})])
    with pytest.raises(PreconditionViolation):
        canonical_form(unstable)


def test_canonical_form_properties_exhaustive():
    for sigma in SMALL_STABLE:
        c = canonical_form(sigma)
        assert c.is_witness
        assert (c.supp, c.active_set, c.ghost_set, c.dim) == (
            sigma.supp,
            sigma.active_set,
            sigma.ghost_set,
            sigma.dim,
        )
        assert canonical_form(c) == c
        assert (c == sigma) == sigma.is_witness
        assert c == canonical_oracle(sigma)


def test_stabilize_golden():
    assert stabilize(WitnessTable(STAB_IN), ()) == WitnessTable(STAB_OUT)


def test_stabilize_trivial_cases():
    for sigma in SMALL_WITNESS:
        assert stabilize(sigma, ()) == sigma
        empty = WitnessTable([((), tuple(sorted(sigma.supp)))])
        assert stabilize(sigma, sigma.active_set) == empty
    with pytest.raises(PreconditionViolation):
        stabilize(WitnessTable([({0}, {1})]), {1})


def test_stabilize_matches_table_route():
    for sigma in SMALL:
        for s in subsets(sigma.active_set):
            got = stabilize(sigma, s)
            assert got.is_stable
            assert got == stabilize_via_table(sigma, s)
            assert got.supp == sigma.supp
            assert got.ghost_set == sigma.ghost_set | s
            assert got.active_set == sigma.active_set - s


def test_stabilize_composition_exhaustive():
    for sigma in SMALL:
        act = sigma.active_set
        for s in subsets(act):
            first = stabilize(sigma, s)
            for t in subsets(act - s):
                assert stabilize(first, t) == stabilize(sigma, s | t)


def test_canonical_stabilize_law():
    for sigma in SMALL_STABLE:
        for s in subsets(sigma.active_set):
            lhs = canonical_form(stabilize(canonical_form(sigma), s))
            assert lhs == canonical_form(stabilize(sigma, s))


def test_layer_kernel_matches_trace_route_exhaustive():
    """The operators work on the layers and skip validation; every result must
    equal the validated trace and table routes, pairs and class both."""

    def check(got, *routes):
        assert got.classification == classify(got.pairs).kind
        assert got.pairs == _normalize_pairs(got.pairs)
        for want in routes:
            assert got.pairs == want.pairs
            assert got.classification == _classify_normalized(want.pairs).kind

    for sigma in all_prestructures(universe=(0, 1, 2), max_t=3):
        if sigma.is_stable:
            check(canonical_form(sigma), canonical_via_kept_layers(sigma), canonical_oracle(sigma))
        for s in subsets(sigma.active_set):
            by_trace, by_table = stabilize_via_trace(sigma, s), stabilize_via_table(sigma, s)
            check(stabilize(sigma, s), by_trace, by_table)
            if sigma.is_witness:
                check(ghost(sigma, s), canonical_via_kept_layers(by_trace), canonical_oracle(by_table))


def test_ghost_golden_and_trivial():
    assert ghost(WitnessTable(GHOST_IN), {3}) == WitnessTable(GHOST_OUT)
    for sigma in SMALL_WITNESS[:200]:
        assert ghost(sigma, ()) == sigma
    with pytest.raises(PreconditionViolation):
        ghost(WitnessTable([({0, 1}, ()), ((), {0}), ({1}, ())]), ())


def test_ghost_derived_example():
    sigma = WitnessTable([({1, 2}, ()), ({1}, ()), ({2}, ())])
    expected = ghost_oracle(sigma, {1})
    assert expected == WitnessTable([({1, 2}, ()), ({2}, {1})])
    assert ghost(sigma, {1}) == expected


def test_ghost_composition_exhaustive():
    for sigma in SMALL_WITNESS:
        act = sigma.active_set
        for s in subsets(act):
            once = ghost(sigma, s)
            assert once == ghost_oracle(sigma, s)
            assert once.dim == sigma.dim - len(s)
            for t in subsets(act - s):
                assert ghost(once, t) == ghost(sigma, s | t)


def test_trace_counts_under_single_ghosting():
    # ghosting p preserves every trace count unless the last layer witnesses
    # exactly p: then M(p) strictly drops, active counts stay, ghost counts
    # may drop
    hits = 0
    for sigma in SMALL_WITNESS:
        for p in sorted(sigma.active_set):
            out = ghost_one(sigma, p)
            shrinking = sigma.t >= 1 and sigma.w(sigma.t) == {p}
            for q in sorted(sigma.supp):
                before, after = sigma.m_count(q), out.m_count(q)
                if not shrinking:
                    assert after == before
                elif q == p:
                    assert after < before
                    hits += 1
                elif q in sigma.active_set:
                    assert after == before
                else:
                    assert after <= before
    assert hits > 0


def test_trace_count_drop_can_hit_other_ghosts():
    # the exceptional case is not confined to the ghosted process itself
    sigma = WitnessTable([({0, 1, 2}, ()), ({1}, ()), ({2}, ()), ({0}, {2})])
    out = ghost_one(sigma, 0)
    assert sigma.m_count(2) == 3
    assert out.m_count(2) == 1


def _kernel_branch(sigma, p) -> str:
    """Which branch of ``ghost_one`` the face of sigma opposite p takes, read
    off sigma: a splice when p is not alone in the last W part, else a cut
    at the last layer witnessing something besides p and the ghosts."""
    layers = sigma.pairs
    t = len(layers) - 1
    if layers[t][0] != (p,):
        w = next(w for w, _ in reversed(layers) if p in w)
        return "splice" if len(w) > 1 else "splice, merge into l+1"
    swallowed = sigma.ghost_set | {p}
    cut = max((i for i, (w, _) in enumerate(layers) if not swallowed.issuperset(w)), default=-1)
    if cut < 0:
        return "cut to the empty structure"
    return "cut at t-1" if cut == t - 1 else "cut below t-1"


def _kernel_against_oracle(sigmas) -> Counter:
    """Check ``ghost_one`` against the validated table route on each sigma
    and each of its active processes, and count the branches taken."""
    branches = Counter()
    for sigma in sigmas:
        for p in sigma.active_set:
            got, want = ghost_one(sigma, p), ghost_oracle(sigma, {p})
            assert (got.pairs, got.classification) == (want.pairs, _classify_normalized(want.pairs).kind), (sigma, p)
            branches[_kernel_branch(sigma, p)] += 1
    return branches


def test_ghost_one_equals_ghost_exhaustive():
    # the face kernel against the validated table route, through each
    # branch, on every witness structure over four processes with up to four
    # layers; `general` counts the faces that truncate (the last W part is
    # exactly {p})
    branches = _kernel_against_oracle(all_witness_structures(universe=(0, 1, 2, 3), max_t=3))
    general = sum(n for branch, n in branches.items() if branch.startswith("cut"))
    assert general == 28620
    assert branches == {
        "splice": 70384,
        "splice, merge into l+1": 6116,
        "cut at t-1": 13668,
        "cut below t-1": 6376,
        "cut to the empty structure": 8576,
    }
    # and on every face build takes on two lattices whose tables reach t = 6
    lattices = build(RoundCounter.of(3, 3)).simplices + build(RoundCounter.of(2, 2, 1)).simplices
    assert max(sigma.t for sigma in lattices) == 6
    assert _kernel_against_oracle(lattices) == {
        "splice": 232,
        "splice, merge into l+1": 260,
        "cut at t-1": 197,
        "cut below t-1": 66,
        "cut to the empty structure": 127,
    }


def test_set_operators_equal_oracles_on_deep_tables():
    # the set operators on every simplex of two lattices whose tables reach
    # t = 6, for every S inside the active set with |S| >= 2 (the one-process
    # faces are the kernel test's)
    lattices = build(RoundCounter.of(3, 3)).simplices + build(RoundCounter.of(2, 2, 1)).simplices
    cases = 0
    for sigma in lattices:
        for s in subsets(sigma.active_set):
            if len(s) >= 2:
                assert ghost(sigma, s) == ghost_oracle(sigma, s), (sigma, s)
                assert stabilize(sigma, s) == stabilize_via_table(sigma, s), (sigma, s)
                cases += 1
    assert cases == 630


def test_set_operators_keep_ids_as_stored():
    # an S id equal to a stored id (True or 1.0 for 1) selects that process,
    # and the result holds the stored id
    calls = Counter()
    for sigma in SMALL:
        if 1 in sigma.active_set:
            for op in (stabilize, ghost) if sigma.is_witness else (stabilize,):
                want = op(sigma, [1])
                for alias in (True, 1.0):
                    got = op(sigma, [alias])
                    assert got is want, (op, sigma, alias)
                    assert "True" not in got.key and "." not in got.key
                calls[op.__name__, got.t < sigma.t] += 1
    # both operators, on results with fewer layers than sigma and with as many
    assert len(calls) == 4


def _precondition_message(op, *args):
    try:
        op(*args)
    except PreconditionViolation as exc:
        return str(exc)
    return None


def test_ghost_one_rejects_exactly_non_witnesses_and_inactive_processes():
    # an independent rule: sigma is a witness structure when every W part
    # after layer 0 is nonempty, and only an active process can be ghosted
    cases = rejected = 0
    for sigma in all_prestructures(universe=(0, 1, 2), max_t=3):
        for p in range(4):
            if not all(w for w, _ in sigma.pairs[1:]):
                want = "ghosting is only defined for witness structures"
            elif p not in sigma.active_set:
                want = f"cannot stabilize by [{p}]: not a subset of the active set"
            else:
                want = None
            assert _precondition_message(ghost_one, sigma, p) == want, (sigma, p)
            cases += 1
            rejected += want is not None
    assert (cases, rejected) == (23176, 19198)


# sha256 of every result (pairs and class) or error (type and message) of the
# three operators on every prestructure over three processes with up to four
# layers, for every S inside {0, 1, 2, 3} with |S| <= 3, passed as a tuple and
# as a one-shot iterator; an operator that reads S twice changes its errors
OPERATORS_SHA256 = "65896ceff548ae64d7fe225ed7a2a46174f76af8502af03a2588ac24df37f8b1"


def _outcome(op, *args) -> str:
    try:
        out = op(*args)
    except (InvalidArgument, PreconditionViolation) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((out.pairs, out.classification))


def test_operator_results_and_errors_pinned():
    ss = [s for n in range(4) for s in combinations(range(4), n)]
    lines = []
    for sigma in all_prestructures(universe=(0, 1, 2), max_t=3):
        lines.append(_outcome(canonical_form, sigma))
        for s in ss:
            for op in (stabilize, ghost):
                lines += (_outcome(op, sigma, s), _outcome(op, sigma, iter(s)))
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == OPERATORS_SHA256


def test_complete_examples():
    r = RoundCounter.of(1, 1)
    sigma = WitnessTable([({0, 1}, ()), ({0}, {1})])
    assert complete(sigma, r) == WitnessTable([({0, 1}, ()), ({0, 1}, ())])
    assert complete(WitnessTable([({1}, {0})]), RoundCounter.of(1, 0)) == WitnessTable(
        [({0, 1}, ()), ({0}, ())]
    )
    top = WitnessTable([({0, 1}, ()), ({0, 1}, ())])
    assert complete(top, r) == top
    with pytest.raises(PreconditionViolation):
        complete(WitnessTable([({0, 1}, ())]), r)


def test_complete_ghost_back():
    from snapcomplex import build

    for values in [(1, 1), (2, 1), (1, 1, 1), (0, 2)]:
        r = RoundCounter.of(*values)
        for sigma in build(r).simplices:
            full = complete(sigma, r)
            assert indexes_simplex(full, r)
            assert not full.ghost_set
            assert ghost(full, sigma.ghost_set) == sigma


def test_key_roundtrip_and_ordering():
    sigma = WitnessTable(GHOST_IN)
    assert WitnessTable.from_key(sigma.key) == sigma
    assert sigma.key == "[[[1,2,3,4],[]],[[1,2],[]],[[3],[4]],[[3],[1]]]"


# the functions whose results are valid by construction, and the validating
# constructor, which interns through ``_trusted`` once it has validated; a
# new trusted call site has to be added here on purpose
TRUSTED_CALLERS = {
    "__new__",
    "canonical_form",
    "stabilize",
    "ghost",
    "ghost_one",
    "enumerate_top",
    "gamma",
    "rho",
    "delta_v",
    "undelta_v",
}


def _trusted_sites(tree):
    """(file-level function, line) of every mention of ``_trusted`` below tree."""
    sites = []

    def visit(node, owner):
        if (
            (isinstance(node, ast.Attribute) and node.attr == "_trusted")
            or (isinstance(node, ast.Name) and node.id == "_trusted")
            or (isinstance(node, ast.Constant) and node.value == "_trusted")
        ):
            sites.append((owner, node.lineno))
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return sites


def test_trusted_constructor_only_in_allowlisted_functions():
    owners = set()
    for path in sorted(Path(snapcomplex.__file__).parent.glob("*.py")):
        for owner, line in _trusted_sites(ast.parse(path.read_text(encoding="utf-8"))):
            assert owner in TRUSTED_CALLERS, f"{path.name}:{line} uses WitnessTable._trusted"
            owners.add(owner)
    assert owners == TRUSTED_CALLERS


def test_no_private_name_crosses_a_module_boundary():
    # a module's _names are its own; WitnessTable._trusted has its allowlist above
    for path in sorted(Path(snapcomplex.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name}:{node.lineno} imports {private} from {node.module}"


def _names(node) -> Counter:
    """How often each name appears below node, as a name, an attribute or an imported alias."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def test_no_dead_function_or_class():
    # every top-level function or class is exported or named outside its own
    # body, and every public method or property of a package class is named
    # outside its own body in the package or its tests
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in Path(snapcomplex.__file__).parent.glob("*.py")}
    named = sum(map(_names, trees.values()), Counter())
    tests = (ast.parse(p.read_text(encoding="utf-8")) for p in Path(__file__).parent.glob("*.py"))
    named_or_tested = named + sum(map(_names, tests), Counter())
    for file, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in snapcomplex.__all__:
                assert named[node.name] > _names(node)[node.name], f"{file}:{node.lineno} {node.name} is named nowhere else"
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        where = f"{file}:{m.lineno} {node.name}.{m.name}"
                        assert named_or_tested[m.name] > _names(m)[m.name], f"{where} is named nowhere else"


def test_every_error_class_is_raised_somewhere():
    # a class that an `except` clause still names passes the dead-code test
    # above, so each exception class of errors.py must also be instantiated
    # in a package module other than errors.py
    package = Path(snapcomplex.__file__).parent
    made = set()
    for path in package.glob("*.py"):
        if path.name != "errors.py":
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(n, ast.Call):
                    made.add(n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None))
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    assert classes
    assert [name for name in classes if name not in made] == []
