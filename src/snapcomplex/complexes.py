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
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from typing import Iterable

from .errors import InvalidArgument, PreconditionViolation
from .rounds import RoundCounter, is_natural, subsets
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
    (dim, pairs) order.  Each face is deduped within its level, and the
    simplex it came from is appended to its cofacet list in the same pass:
    a level is walked in pairs order, so every cofacet list comes out sorted.
    """
    ghost_one = witness.ghost_one  # the module attribute, which the tracer wraps
    by_pairs = attrgetter("pairs")
    level = tuple(sorted(enumerate_top(r), key=by_pairs))
    levels = []
    facets = {}
    cofacets = {s: [] for s in level}
    while level:
        levels.append(level)
        seen = {}  # each face of this level -> its one canonical object
        for sigma in level:
            faces = sorted([ghost_one(sigma, p) for p in sigma.active_set], key=by_pairs)
            for i, tau in enumerate(faces):
                face = seen.setdefault(tau, tau)
                if face is tau:
                    cofacets[tau] = [sigma]
                else:
                    cofacets[face].append(sigma)
                    faces[i] = face
            facets[sigma] = tuple(faces)
        level = tuple(sorted(seen, key=by_pairs))
    for s, cof in cofacets.items():
        cofacets[s] = tuple(cof)
    return Complex(r, levels[::-1], facets, cofacets)


# ---------------------------------------------------------------------------
# The boundary pieces B_V
# ---------------------------------------------------------------------------


def boundary_subcomplex(k: Complex, ids: Iterable[int]) -> frozenset:
    """B_V: the simplices of k whose round-0 ghost set contains the given ids."""
    v = frozenset(ids)
    if not v <= k.counter.support:
        raise PreconditionViolation(f"{sorted(v)} is not within the support")
    return frozenset(s for s in k.simplices if v <= s.g(0))


def delta_v(sigma: WitnessTable, ids: Iterable[int]) -> WitnessTable:
    """Strip ids from the round-0 ghost set; inverse of re-adding them."""
    v = frozenset(ids)
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
    v = frozenset(ids)
    w0, g0 = tau.pairs[0]
    if not all(map(is_natural, v)):
        raise InvalidArgument(f"process ids must be nonnegative integers: {sorted(v, key=repr)}")
    if v.intersection(w0):
        raise InvalidArgument(f"{sorted(v.intersection(w0))} is witnessed at round 0")
    # every later layer lies inside W_0, so ids outside it touch no other layer
    pairs = ((w0, tuple(sorted(v.union(g0)))),) + tau.pairs[1:]
    return WitnessTable._trusted(pairs, tau.classification)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
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
    """Each simplex's vertex set, read bottom-up off the lattice: a vertex
    spans itself, any other simplex the union of its facets' vertex sets."""
    verts = {}
    for d, level in k.by_dim.items():  # dimension -1 up, so facets come first
        for s in level:
            verts[s] = frozenset((s,)) if d == 0 else frozenset().union(*(verts[f] for f in k.facets[s]))
    return verts


def structural_checks(k: Complex) -> StructureReport:
    n = k.dim
    failures = {}  # field -> its first counterexample

    for s in k.simplices[: len(k.simplices) - len(k.tops)]:  # below the top level
        if not k.cofacets[s]:
            failures.setdefault("pure", f"pure: {s.key}")

    for s in k.by_dim.get(n - 1, ()):
        ncof = len(k.cofacets[s])
        if ncof not in (1, 2):
            failures.setdefault("pseudomanifold", f"pseudomanifold: {s.key} has {ncof} cofaces")
        if (ncof == 1) != bool(s.g(0)):
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

    checks = fields(StructureReport)[:-1]  # every field but failures
    return StructureReport(*(f.name not in failures for f in checks), tuple(failures.items()))


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


@dataclass(frozen=True)
class PathReport:
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

    built = set(build(r).simplices)
    return {s.pairs for s in built} == {s.pairs for s in expected}


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def complex_to_json(k: Complex) -> str:
    """The bytes of ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
    on {"counter", "f_vector", "simplices": [{"dim", "facets", "key"}, ...],
    "tops"}, written as text.  Keys from ``witness.keys`` hold only digits,
    brackets and commas, so they need no escaping."""
    key = witness.keys(k.simplices)
    head = json.dumps({**k.counter.to_json_obj(), "f_vector": list(k.f_vector)}, sort_keys=True, separators=(",", ":"))
    parts = [head[:-1], ',"simplices":[']
    sep = ""
    for d, level in k.by_dim.items():  # the order of k.simplices
        for s in level:
            parts.append(f'{sep}{{"dim":{d},"facets":{_key_list(key, k.facets[s])},"key":"{key[s]}"}}')
            sep = ","
    parts.append(f'],"tops":{_key_list(key, k.tops)}}}')
    return "".join(parts)


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
