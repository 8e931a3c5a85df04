"""Snapshot complexes: build the full face lattice and run structural checks.

The complex of a round counter has one simplex per witness structure on the
full support whose trace counts match the counter (exactly r(p)+1 occurrences
for active processes, at most that for ghosts).  Top simplices are exactly
the executions: sequences of nonempty concurrency classes.  The face lattice
is generated downward from the tops by single-element ghosting, which yields
precisely the codimension-1 faces, one dimension at a time.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, NamedTuple

from .errors import InvalidArgument, PreconditionViolation
from .rounds import RoundCounter, id_set, subsets
from . import witness
from .witness import WitnessTable


def enumerate_top(r: RoundCounter) -> list:
    """All executions of the counter, as ghost-free witness structures."""
    supp = tuple(sorted(r.support))
    tops = []
    layers = []

    def rec(counts):
        live = tuple(p for p in supp if counts.get(p, 0) > 0)
        if not live:
            # sorted nonempty layers: a witness structure by construction
            tops.append(WitnessTable._trusted(((supp, ()),) + tuple((s, ()) for s in layers), witness.WITNESS))
            return
        for step in subsets(live)[1:]:
            for p in step:
                counts[p] -= 1
            layers.append(step)
            rec(counts)
            layers.pop()
            for p in step:
                counts[p] += 1

    rec({p: v for p, v in r if v > 0})
    return tops


class Complex:
    """The face lattice of a snapshot complex, keyed by canonical encoding.

    ``levels`` holds one tuple per dimension, from -1 up to ``dim``, each
    sorted by pairs, as ``build`` walks them; ``by_dim``, ``simplices`` (in
    (dim, pairs) order) and ``tops`` are read off them."""

    def __init__(self, counter, levels, facets, cofacets):
        self.counter = counter
        self.by_dim = dict(enumerate(levels, -1))
        self.simplices = tuple(s for level in levels for s in level)
        self.tops = levels[-1]
        self.facets = facets  # simplex -> sorted tuple of codim-1 faces
        self.cofacets = cofacets  # simplex -> sorted tuple of codim-1 cofaces

    @property
    def dim(self) -> int:
        return len(self.counter.support) - 1

    def __contains__(self, sigma) -> bool:
        return sigma in self.facets

    def __len__(self) -> int:
        return len(self.simplices)

    @property
    def f_vector(self) -> tuple:
        return tuple(map(len, self.by_dim.values()))

    @property
    def euler(self) -> int:
        return sum((-1) ** d * n for d, n in zip(range(-1, self.dim + 1), self.f_vector) if d >= 0)


@lru_cache(maxsize=128)
def build(r: RoundCounter) -> Complex:
    """Downward closure of the executions under single-element ghosting,
    walked one dimension at a time.

    The tops, sorted by pairs, are level n.  Each face of a level-d simplex
    lies in level d-1, so a level's new faces, sorted by pairs, are the next
    level, and the levels joined from dimension -1 up are the simplices in
    (dim, pairs) order.  Tables are interned, so each face is the one object
    of its pairs, and a face is new exactly when it has no cofacet list yet;
    the simplex it came from is appended to that list in the same pass: a
    level is walked in pairs order, so every cofacet list comes out sorted.
    """
    ghost_one = witness.ghost_one  # the module attribute, which the tracer wraps
    by_pairs = attrgetter("pairs")
    level = tuple(sorted(enumerate_top(r), key=by_pairs))
    levels = []
    facets = {}
    cofacets = {s: [] for s in level}
    while level:
        levels.append(level)
        new = []  # the faces of this level met for the first time
        for sigma in level:
            faces = sorted([ghost_one(sigma, p) for p in sigma.active_set], key=by_pairs)
            for tau in faces:
                cof = cofacets.get(tau)
                if cof is None:
                    cofacets[tau] = [sigma]
                    new.append(tau)
                else:
                    cof.append(sigma)
            facets[sigma] = tuple(faces)
        level = tuple(sorted(new, key=by_pairs))
    for s, cof in cofacets.items():
        cofacets[s] = tuple(cof)
    return Complex(r, levels[::-1], facets, cofacets)


# ---------------------------------------------------------------------------
# The boundary pieces B_V
# ---------------------------------------------------------------------------


def boundary_subcomplex(k: Complex, ids: Iterable[int]) -> frozenset:
    """B_V: the simplices of k whose round-0 ghost set contains the given ids."""
    v = id_set(ids)
    if not v <= k.counter.support:
        raise PreconditionViolation(f"{sorted(v)} is not within the support")
    return frozenset(s for s in k.simplices if v <= s.g(0))


def delta_v(sigma: WitnessTable, ids: Iterable[int]) -> WitnessTable:
    """Strip ids from the round-0 ghost set; inverse of re-adding them."""
    v = id_set(ids)
    if not v <= sigma.g(0):
        raise PreconditionViolation(f"{sorted(v)} is not within the round-0 ghost set")
    # round-0 ghosts occur in no other layer, so removing them keeps P1-P3
    # and the W parts, hence the class
    w0, g0 = sigma.pairs[0]
    pairs = ((w0, tuple(p for p in g0 if p not in v)),) + sigma.pairs[1:]
    return WitnessTable._trusted(pairs, sigma.classification)


def undelta_v(tau: WitnessTable, ids: Iterable[int]) -> WitnessTable:
    """Add ids to the round-0 ghost set; they must be new nonnegative ids
    or ghosts already, never witnessed at round 0 (P3)."""
    v = id_set(ids)
    w0, g0 = tau.pairs[0]
    if v.intersection(w0):
        raise InvalidArgument(f"{sorted(v.intersection(w0))} is witnessed at round 0")
    # every later layer lies inside W_0, so ids outside it touch no other layer
    pairs = ((w0, tuple(sorted(v.union(g0)))),) + tau.pairs[1:]
    return WitnessTable._trusted(pairs, tau.classification)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


class StructureReport(NamedTuple):
    pure: bool
    pseudomanifold: bool
    boundary_matches: bool
    strongly_connected: bool
    reconstruction_injective: bool
    failures: tuple = ()  # (field, its first counterexample) per failed field, in the order found

    @property
    def counterexample(self) -> str | None:
        return self.failures[0][1] if self.failures else None

    @property
    def ok(self) -> bool:
        return not self.failures


def _vertex_sets(k: Complex) -> dict:
    """Each simplex's vertex set as an int mask, read bottom-up off the
    lattice: vertex i of ``k.by_dim[0]`` is bit i, and any other simplex
    spans the union of its facets' masks."""
    verts = {}
    for d, level in k.by_dim.items():  # dimension -1 up, so facets come first
        if d == 0:
            verts.update((s, 1 << i) for i, s in enumerate(level))
            continue
        for s in level:
            mask = 0
            for f in k.facets[s]:
                mask |= verts[f]
            verts[s] = mask
    return verts


def structural_checks(k: Complex) -> StructureReport:
    n = k.dim
    failures = {}  # field -> its first counterexample

    for s in k.simplices[: len(k.simplices) - len(k.tops)]:  # below the top level
        if not k.cofacets[s]:
            failures.setdefault("pure", f"pure: {s.key}")

    # the boundary, the closure of the one-coface ridges walked down facets,
    # must be exactly the simplices with a round-0 ghost, level by level
    closure = set()
    for s in k.by_dim.get(n - 1, ()):
        ncof = len(k.cofacets[s])
        if ncof not in (1, 2):
            failures.setdefault("pseudomanifold", f"pseudomanifold: {s.key} has {ncof} cofaces")
        if ncof == 1:
            closure.add(s)
        if (ncof == 1) != bool(s.pairs[0][1]):
            failures.setdefault("boundary_matches", f"boundary: {s.key}")
    for d in range(n - 2, -2, -1):
        closure = {f for s in closure for f in k.facets[s]}
        for s in k.by_dim.get(d, ()):
            if (s in closure) != bool(s.pairs[0][1]):
                failures.setdefault("boundary_matches", f"boundary: {s.key}")

    if not _dual_graph_connected(k):
        failures.setdefault("strongly_connected", "dual graph disconnected")

    verts = _vertex_sets(k)
    seen = {}
    for s in k.simplices:
        vs = verts[s]
        if vs in seen:
            failures.setdefault("reconstruction_injective", f"reconstruction: {seen[vs].key} vs {s.key}")
        seen[vs] = s

    checks = StructureReport._fields[:-1]  # every field but failures
    return StructureReport(*(name not in failures for name in checks), tuple(failures.items()))


def _dual_graph_adjacency(k: Complex) -> dict:
    adj = {s: set() for s in k.tops}
    for f in k.by_dim.get(k.dim - 1, ()):
        cof = k.cofacets[f]
        for a in cof:
            for b in cof:
                if a != b:
                    adj[a].add(b)
    return {s: tuple(sorted(nb, key=lambda x: x.pairs)) for s, nb in adj.items()}


def _dual_graph_connected(k: Complex) -> bool:
    tops = k.tops
    if len(tops) <= 1:
        return True
    adj = _dual_graph_adjacency(k)
    seen = {tops[0]}
    frontier = [tops[0]]
    while frontier:
        cur = frontier.pop()
        for nb in adj[cur]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(tops)


class PathReport(NamedTuple):
    ok: bool
    edges: int
    endpoints: tuple
    counterexample: str | None = None


def expected_endpoint(r: RoundCounter, p: int) -> WitnessTable:
    """The solo vertex of color p: p alone runs all its rounds."""
    other = sorted(r.support - {p})
    return WitnessTable([((p,), tuple(other))] + [((p,), ())] * r[p])


def path_profile(k: Complex) -> PathReport:
    """For a 1-dimensional complex: a subdivided interval with pinned endpoints."""
    if k.dim != 1:
        raise PreconditionViolation("path profile needs a 1-dimensional complex")
    r = k.counter
    a, b = sorted(r.support)
    expected = {expected_endpoint(r, a), expected_endpoint(r, b)}
    leaves = set()
    for v in k.by_dim.get(0, ()):
        valency = len(k.cofacets[v])
        if valency == 1:
            leaves.add(v)
        elif valency != 2:
            return PathReport(False, len(k.tops), (), f"valency {valency}: {v.key}")
    if leaves != expected:
        return PathReport(False, len(k.tops), tuple(sorted(s.key for s in leaves)), "wrong endpoints")
    return PathReport(True, len(k.tops), tuple(sorted(s.key for s in leaves)))


# ---------------------------------------------------------------------------
# Cone and chromatic-subdivision checks
# ---------------------------------------------------------------------------


def maps_faces(k: Complex, image: dict, target: Complex, onto) -> bool:
    """``image`` maps a part of k one-to-one onto the simplices ``onto`` of
    target, and the faces of each simplex that lie in the part onto the
    faces of its image.  Which faces may leave the part is the caller's rule."""
    images = set(image.values())
    if len(images) != len(image) or images != set(onto):
        return False
    return all({image[f] for f in k.facets[s] if f in image} == set(target.facets[t]) for s, t in image.items())


def cone_check(r: RoundCounter, apex: int) -> bool:
    """Replay the cone bijection for a passive process, face by face.

    The complex is the cone over the complex without ``apex``: simplices with
    apex in W_0 drop it to give the join part, simplices with apex in G_0
    drop it to give the cone part, and ``maps_faces`` must hold for both
    maps onto the base.  No face leaves the cone part, and the only face
    leaving a join simplex is its apex face, the cone copy of the simplex.
    Faces come from the built lattices; dropping the apex keeps every other
    process active, so equal face sets pair faces process by process.
    """
    if r.get(apex, None) != 0:
        raise PreconditionViolation(f"process {apex} is not passive")
    k = build(r)
    base = build(r.delete((apex,)))

    def strip(s):
        # a passive apex occurs only in W_0, so dropping it keeps P1-P3,
        # every later W part and the class
        w0, g0 = s.pairs[0]
        return WitnessTable._trusted(((tuple(q for q in w0 if q != apex), g0),) + s.pairs[1:], s.classification)

    join = {s: strip(s) for s in k.simplices if apex in s.pairs[0][0]}
    cone = {s: delta_v(s, (apex,)) for s in k.simplices if apex in s.g(0)}
    if len(join) + len(cone) != len(k.simplices):
        return False
    if any({f for f in k.facets[s] if f not in join} != {undelta_v(t, (apex,))} for s, t in join.items()):
        return False
    if any(f not in cone for s in cone for f in k.facets[s]):
        return False
    return maps_faces(k, join, base, base.simplices) and maps_faces(k, cone, base, base.simplices)


def is_zero_one(r: RoundCounter) -> bool:
    """The chromatic check's precondition: every round count is 0 or 1."""
    return all(v in (0, 1) for _, v in r)


def chromatic_check(r: RoundCounter) -> bool:
    """Compare the built complex with the direct chromatic-subdivision description.

    For a 0/1 counter the simplices are exactly the witness structures whose
    round-0 layer covers the support, whose active round-0 part equals the
    union of all later layers, and whose later layers are pairwise disjoint.
    """
    if not is_zero_one(r):
        raise PreconditionViolation("chromatic check needs a 0/1-valued counter")
    act = tuple(sorted(r.active))
    supp = tuple(sorted(r.support))
    expected = set()

    # enumerate: choose W_0 (ghost complement), then layered disjoint pairs
    # (W_i, G_i) with nonempty W_i covering W_0 & active exactly
    for w0 in subsets(supp):
        g0 = tuple(p for p in supp if p not in w0)
        todo0 = tuple(sorted(set(w0) & set(act)))

        def grow(todo, layers):
            if not todo:
                expected.add(WitnessTable([(w0, g0)] + layers))
                return
            for w in subsets(todo)[1:]:
                rest = tuple(p for p in todo if p not in w)
                for g in subsets(rest):
                    grow(tuple(p for p in rest if p not in g), layers + [(w, g)])

        if todo0:
            grow(todo0, [])
        else:
            expected.add(WitnessTable([(w0, g0)]))

    return set(build(r).simplices) == expected


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def complex_json_pieces(k: Complex):
    """The JSON of k in pieces, one per simplex, which the CLI writes as
    they come: the bytes of ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` on {"counter", "f_vector", "simplices":
    [{"dim", "facets", "key"}, ...], "tops"}.  Keys from ``witness.keys``
    hold only digits, brackets and commas, so they need no escaping.  They
    are made one level at a time: the facets of a level-d simplex lie in
    level d-1 and the tops are the last level, so only the keys of two
    adjacent levels are held at once."""
    head = json.dumps({**k.counter.to_json_obj(), "f_vector": list(k.f_vector)}, sort_keys=True, separators=(",", ":"))
    yield head[:-1] + ',"simplices":['
    sep = ""
    below = {}
    for d, level in k.by_dim.items():  # the order of k.simplices
        key = witness.keys(level)
        for s in level:
            yield f'{sep}{{"dim":{d},"facets":{_key_list(below, k.facets[s])},"key":"{key[s]}"}}'
            sep = ","
        below = key
    yield f'],"tops":{_key_list(below, k.tops)}}}'


def complex_to_json(k: Complex) -> str:
    """The JSON of k as one string: its ``complex_json_pieces`` joined."""
    return "".join(complex_json_pieces(k))


def _key_list(key: dict, simplices) -> str:
    return '["' + '","'.join([key[s] for s in simplices]) + '"]' if simplices else "[]"


def complex_to_dot(k: Complex) -> str:
    """Dual graph in DOT form; tops touching the boundary are flagged.  The
    node ids are ``witness.keys``, which need no escaping, as in JSON."""
    adj = _dual_graph_adjacency(k)
    key = witness.keys(k.tops)
    lines = ["graph dual {"]
    for s in k.tops:
        on_boundary = any(f.g(0) for f in k.facets[s])
        attr = " [boundary=true]" if on_boundary else ""
        lines.append(f'  "{key[s]}"{attr};')
    seen = set()
    for s in k.tops:
        for nb in adj[s]:
            pair = tuple(sorted((key[s], key[nb])))
            if pair not in seen:
                seen.add(pair)
                lines.append(f'  "{pair[0]}" -- "{pair[1]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
