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
from functools import cached_property, lru_cache
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
    steps = {}  # live ids -> their nonempty subsets, listed once per call

    def rec(counts):
        live = tuple(p for p in supp if counts.get(p, 0) > 0)
        if not live:
            # sorted nonempty layers: a witness structure by construction
            tops.append(WitnessTable._trusted(((supp, ()),) + tuple((s, ()) for s in layers), witness.WITNESS))
            return
        if live not in steps:
            steps[live] = subsets(live)[1:]
        for step in steps[live]:
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
    (dim, pairs) order) and ``tops`` are read off them.  ``facets`` is the
    one stored adjacency; ``cofacets`` is derived from it on first read."""

    def __init__(self, counter, levels, facets):
        self.counter = counter
        self.by_dim = dict(enumerate(levels, -1))
        self.simplices = tuple(s for level in levels for s in level)
        self.tops = levels[-1]
        self.facets = facets  # simplex -> sorted tuple of codim-1 faces

    @cached_property
    def cofacets(self) -> dict:
        """simplex -> sorted tuple of codim-1 cofaces: ``facets`` inverted
        one level at a time, from the tops down, so only one level's lists
        are live at once.  A level is walked in pairs order, so every tuple
        comes out sorted."""
        cof = {s: () for s in self.tops}
        for d in range(self.dim, -1, -1):
            below = {f: [] for f in self.by_dim[d - 1]}
            for s in self.by_dim[d]:
                for f in self.facets[s]:
                    below[f].append(s)
            cof.update((f, tuple(c)) for f, c in below.items())
        return cof

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
    lies in level d-1, so a level's faces, gathered in a set and sorted by
    pairs, are the next level, and the levels joined from dimension -1 up
    are the simplices in (dim, pairs) order.  Tables are interned, so each
    face is the one object of its pairs.
    """
    ghost_one = witness.ghost_one  # the module attribute, which the tracer wraps
    by_pairs = attrgetter("pairs")
    level = tuple(sorted(enumerate_top(r), key=by_pairs))
    levels = []
    facets = {}
    while level:
        levels.append(level)
        below = set()
        for sigma in level:
            faces = tuple(sorted([ghost_one(sigma, p) for p in sigma.active_set], key=by_pairs))
            below.update(faces)
            facets[sigma] = faces
        level = tuple(sorted(below, key=by_pairs))
    return Complex(r, levels[::-1], facets)


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


def _dual_graph_connected(k: Complex) -> bool:
    """Search the dual graph from the first top, walking the lattice: from
    a top through its facets, the ridges, to their cofacets."""
    seen = {k.tops[0]}
    frontier = [k.tops[0]]
    while frontier:
        for ridge in k.facets[frontier.pop()]:
            for nb in k.cofacets[ridge]:
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
    return len(seen) == len(k.tops)


class PathReport(NamedTuple):
    ok: bool
    edges: int
    endpoints: tuple
    counterexample: str | None = None


def expected_endpoint(r: RoundCounter, p: int) -> WitnessTable:
    """The solo vertex of color p: p alone runs all its rounds."""
    if p not in r.support:
        raise PreconditionViolation(f"process {p} is not in the support")
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
    """Replay the cone K_r = apex * K_{r-apex} for a passive process, face
    by face, on the built lattices.

    The cone part, the simplices with apex in G_0, is B_{apex}: ``delta_v``
    must send it through ``maps_faces`` onto the base, the complex without
    ``apex``.  Every other simplex is in the join part: apex lies in its
    W_0, and exactly one of its facets, its apex face, lies in the cone
    part.  The apex faces must map the join part through ``maps_faces``
    onto the cone part, so each join simplex is the cone over its apex
    face, and the facets of a cone simplex, the apex faces of the join
    facets, lie in the cone part: no face leaves it.
    """
    if r.get(apex, None) != 0:
        raise PreconditionViolation(f"process {apex} is not passive")
    k = build(r)
    base = build(r.delete((apex,)))
    cone = {s: delta_v(s, (apex,)) for s in k.simplices if apex in s.pairs[0][1]}
    apex_face = {}  # join simplex -> its one facet in the cone part
    for s in k.simplices:
        if s not in cone:
            faces = [f for f in k.facets[s] if f in cone] if apex in s.pairs[0][0] else ()
            if len(faces) != 1:
                return False
            apex_face[s] = faces[0]
    return maps_faces(k, cone, base, base.simplices) and maps_faces(k, apex_face, k, cone)


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

        grow(todo0, [])

    return set(build(r).simplices) == expected


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def complex_json_pieces(k: Complex):
    """The JSON of k in pieces, one per simplex, which the CLI writes as
    they come: the bytes of ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` on {"counter", "f_vector", "simplices":
    [{"dim", "facets", "key"}, ...], "tops"}.  This is the package's one
    JSON written by hand as text: ``build`` and ``export`` write it for
    lattices of tens of thousands of simplices, where ``json.dumps`` would
    first hold the whole object tree.  Keys from ``witness.keys`` hold only
    digits, brackets and commas, so they need no escaping.  They are made
    one level at a time: the facets of a level-d simplex lie in level d-1
    and the tops are the last level, so only the keys of two adjacent
    levels are held at once."""
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
    key = witness.keys(k.tops)
    lines = ["graph dual {"]
    for s in k.tops:
        on_boundary = any(f.g(0) for f in k.facets[s])
        attr = " [boundary=true]" if on_boundary else ""
        lines.append(f'  "{key[s]}"{attr};')
    seen = set()
    for s in k.tops:
        # the neighbours through the ridges, as ``_dual_graph_connected`` walks them
        for nb in sorted({c for f in k.facets[s] for c in k.cofacets[f] if c is not s}, key=attrgetter("pairs")):
            pair = tuple(sorted((key[s], key[nb])))
            if pair not in seen:
                seen.add(pair)
                lines.append(f'  "{pair[0]}" -- "{pair[1]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
