"""The canonical stratification of a snapshot complex.

A stratum is named by a triple (S, A, V): S is the candidate first
concurrency class, A a set of its members forced to be ghosts already in
round 1, and V a set of processes ghosted at round 0.  The stratum
X_{S,A,V} collects the simplices whose layer-1 data is compatible with
(S, A) -- either the first layer covers exactly S with A among its ghosts
(the Y part), or all of S is ghosted at layer 1 (the Z part) -- and whose
round-0 ghosts contain V.  Each stratum is simplicially isomorphic to the
complex of the reduced counter, via the maps ``gamma`` (peel off the first
layer) and ``rho`` (re-attach it), both named by the same ``StratumId``.

Simplices with a single layer carry no layer-1 data; they are placed in the
Z part exactly when S is ghosted at round 0, which is the unique reading
that keeps every stratum closed under faces and the gamma/rho pair
mutually inverse.

Membership reads nothing but layers 0 and 1 of a table, so every stratum
is a union of classes, a class being the simplices that share layers 0
and 1 (layer 0 alone for a single-layer simplex), and the classes are far
fewer than the simplices.  Each built complex has one class index: every
class lists the (S, A) it belongs to, read off its own layers.  V is no
third dimension: a class has a single layer 0, so V only filters classes,
and X_{S,A,V} is the frozenset of the members of the classes listed under
(S, A) whose G_0 contains V.  The incidence laws run on class masks, ints
with one bit per class, which is exact since the classes are nonempty and
partition the simplices.  ``membership`` stays the one statement of the
rule: ``gamma`` is its one caller, and the tests hold the index to it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, lru_cache, reduce
from itertools import combinations
from operator import and_, or_
from typing import Iterable

from .errors import InvalidArgument, PreconditionViolation
from .rounds import RoundCounter, id_set, id_set_text, subsets
from .reports import CheckRecord, Report
from . import witness
from .complexes import Complex, boundary_subcomplex, build, delta_v, maps_faces, undelta_v
from .witness import WitnessTable

IN_Y = "in_Y"
IN_Z = "in_Z"
OUT = "out"


class StratumId(namedtuple("StratumId", "first ghosts round0")):
    """(S, A, V): S the first concurrency class, A the members of S forced
    into the layer-1 ghost set, V the processes ghosted at round 0."""

    __slots__ = ()

    def __new__(cls, first: Iterable[int], ghosts: Iterable[int] = (), round0: Iterable[int] = ()):
        self = super().__new__(cls, id_set(first), id_set(ghosts), id_set(round0))
        if not self.ghosts <= self.first:
            raise InvalidArgument(f"need ghosts <= first, got {self}")
        if self.round0 & self.first:
            raise InvalidArgument(f"round-0 set must avoid the first class, got {self}")
        return self

    @classmethod
    def _make(cls, iterable):
        """``_replace`` builds through here, so a replaced id is checked too."""
        return cls(*iterable)

    def validate(self, r: RoundCounter) -> None:
        """The conditions that need the counter: S active, V in the support."""
        if not self.first <= r.active or not self.round0 <= r.support:
            raise InvalidArgument(f"need first <= active set and round0 <= support, got {self}")

    def __repr__(self) -> str:
        return f"StratumId(S={sorted(self.first)}, A={sorted(self.ghosts)}, V={sorted(self.round0)})"


def membership(sigma: WitnessTable, sid: StratumId) -> str:
    """Y/Z membership of a simplex, gated by the round-0 condition.

    Reads the stored layer tuples and builds no set.  R_1 == S is decided
    by size and containment: W_1 and G_1 are disjoint (P3) and hold no
    repeated id, so |R_1| = |W_1| + |G_1|.
    """
    pairs = sigma.pairs
    g0 = pairs[0][1]
    if not sid.round0.issubset(g0):
        return OUT
    first = sid.first
    if len(pairs) == 1:
        return IN_Z if first.issubset(g0) else OUT
    w1, g1 = pairs[1]
    if first.issubset(g1):
        return IN_Z
    if len(w1) + len(g1) == len(first) and first.issuperset(w1) and first.issuperset(g1):
        return IN_Y if sid.ghosts.issubset(g1) else OUT
    return OUT


def _subsets(elems) -> list:
    """Every subset of elems as a frozenset, in ``subsets`` order."""
    return [frozenset(c) for c in subsets(elems)]


@lru_cache(maxsize=8)
def _class_index(k: Complex) -> tuple:
    """(classes, index): the simplices of k grouped by layers 0 and 1, the
    layer objects ``membership`` reads, and every (S, A) with A <= S mapped
    to the indexes, ascending, of the classes in X_{S,A}; V filters these.

    Each class lists its pairs from its own layers, as ``membership``
    decides them.  A single-layer class is in the Z part for every S inside
    G_0 and the active set, and A inside S.  Any other class is in the Y
    part only for S = R_1 with A inside G_1, and in the Z part for every S
    inside G_1 and A inside S.  W_1 is nonempty, so no pair is listed twice.
    The index keys are plain tuples of frozensets, one per distinct set.
    """
    groups = {}
    for s in k.simplices:
        groups.setdefault(s.pairs[:2], []).append(s)
    classes = tuple(groups.values())
    subs = lru_cache(maxsize=None)(_subsets)
    active = frozenset(k.counter.active)
    index = {}
    for i, cls in enumerate(classes):
        sigma = cls[0]
        if sigma.t == 0:
            firsts = subs(sigma.g(0) & active)
        else:
            firsts, r1 = subs(sigma.g(1)), sigma.r_set(1)
            for a in firsts:
                index.setdefault((r1, a), []).append(i)
        for s in firsts:
            for a in subs(s):
                index.setdefault((s, a), []).append(i)
    return classes, index


def stratum(k: Complex, sid: StratumId) -> frozenset:
    """X_{S,A,V}: the members of the classes listed under (S, A) whose G_0 contains V."""
    sid.validate(k.counter)
    classes, index = _class_index(k)
    members = frozenset(
        s
        for i in index.get((sid.first, sid.ghosts), ())
        if sid.round0.issubset(classes[i][0].pairs[0][1])
        for s in classes[i]
    )
    if not all(f in members for s in members for f in k.facets[s]):
        raise AssertionError(f"stratum {sid} is not boundary-closed")
    return members


def _class_masks(k: Complex):
    """Subsets of the active set, and the X_{S,A}, Y_{S,A} and Z_S class masks (V = 0).

    A mask has bit i set when class i of ``_class_index(k)`` lies in the
    stratum.  ``membership`` decides Z before Y, and Z does not depend on A,
    so Y_{S,A} is X_{S,A} less Z_S.  Z_S is X_{S,S}: with A = S a Y member
    would need S inside G_1, which Z has already taken.
    """
    _, index = _class_index(k)
    subsets = _subsets(k.counter.active)
    # the indexes under a key are distinct, so their bits add up to the mask
    x = {(s, a): sum(1 << i for i in index.get((s, a), ())) for s in subsets for a in _subsets(s)}
    z = {s: x[(s, s)] for s in subsets}
    y = {(s, a): xs & ~z[s] for (s, a), xs in x.items()}
    return subsets, x, y, z


# ---------------------------------------------------------------------------
# The gamma / rho isomorphism pair
# ---------------------------------------------------------------------------


def gamma(sigma: WitnessTable, sid: StratumId) -> WitnessTable:
    """Peel the first concurrency class off a stratum member.

    Y members lose their whole layer 1 into the round-0 ghosts, Z members
    only the ghosted copy of S; the forced ghosts A leave the support.

    The result is a prestructure by construction: layer 1 and the later
    layers lie inside W_0 and avoid G_0, and a Z member has S inside G_1,
    so S is witnessed nowhere.  Only a Y member changes the W parts after
    layer 0, so only its class is read again.
    """
    kind = membership(sigma, sid)
    if kind == OUT:
        raise PreconditionViolation(f"{sigma!r} is not in stratum {sid}")
    s, a = sid.first, sid.ghosts
    pairs = sigma.pairs
    w0, g0 = pairs[0]
    if sigma.t == 0:
        out = ((w0, tuple(p for p in g0 if p not in a)),)
        return WitnessTable._trusted(out, sigma.classification)
    w1, g1 = pairs[1]
    if kind == IN_Y:
        out = ((tuple(p for p in w0 if p not in g1), tuple(sorted(set(g0).union(g1) - a))),) + pairs[2:]
        return WitnessTable._trusted(out, witness.kind_of(out))
    out = (
        (tuple(p for p in w0 if p not in s), tuple(sorted(s.union(g0) - a))),
        (w1, tuple(p for p in g1 if p not in s)),
    ) + pairs[2:]
    return WitnessTable._trusted(out, sigma.classification)


def rho(tau: WitnessTable, sid: StratumId) -> WitnessTable:
    """Re-attach the first concurrency class: the inverse of gamma on sid.

    The forced ghosts A rejoin the round-0 ghosts in the same edit as
    layer 0; V only filters the stratum, so rho ignores it.  When tau
    witnesses part of S at round 0, that part becomes the new layer 1;
    otherwise S is already ghosted at round 0 and just moves one layer in.

    Every later layer keeps its W part, so the result keeps the class of
    tau (a single layer is a witness structure, and so is its extension by
    a nonempty layer 1).  The ids were checked when sid was made.
    """
    s, a = sid.first, sid.ghosts
    pairs = tau.pairs
    v0, g0 = pairs[0]
    if a.intersection(v0):
        raise InvalidArgument(f"{sorted(a.intersection(v0))} is witnessed at round 0")
    h0 = tuple(sorted(a.union(g0)))
    if not s.issubset(v0 + h0):
        raise PreconditionViolation(f"{sorted(s)} is not within the support")
    if s.intersection(v0):
        out = (
            (tuple(sorted(s.intersection(h0).union(v0))), tuple(p for p in h0 if p not in s)),
            (tuple(p for p in v0 if p in s), tuple(p for p in h0 if p in s)),
        ) + pairs[1:]
        return WitnessTable._trusted(out, tau.classification)
    if tau.t == 0:
        return WitnessTable._trusted(((v0, h0),), tau.classification)
    w1, g1 = pairs[1]
    out = (
        (tuple(sorted(s.union(v0))), tuple(p for p in h0 if p not in s)),
        (w1, tuple(sorted(s.union(g1)))),
    ) + pairs[2:]
    return WitnessTable._trusted(out, tau.classification)


# ---------------------------------------------------------------------------
# Verification: the stratum isomorphisms
# ---------------------------------------------------------------------------


def verify_stratum_iso(r: RoundCounter, sid: StratumId) -> bool:
    """gamma is a face-respecting bijection (``maps_faces``) from the stratum
    onto its target, inverted by ``rho``.

    The target is ``boundary_subcomplex(build(r.reduce(S, A)), V)``; it and
    the stratum are closed, so no face leaves either.  Since every member
    must keep its active set, equal face sets pair each face of sigma with
    the face of tau that lacks the same process.  A member that gamma or
    rho rejects breaks the isomorphism.
    """
    sid.validate(r)
    k = build(r)
    target = build(r.reduce(sid.first, sid.ghosts))
    try:
        image = {sigma: gamma(sigma, sid) for sigma in stratum(k, sid)}
        return maps_faces(k, image, target, boundary_subcomplex(target, sid.round0)) and all(
            rho(tau, sid) == sigma and tau.active_set == sigma.active_set
            for sigma, tau in image.items()
        )
    except (InvalidArgument, PreconditionViolation):
        return False


def all_stratum_ids(r: RoundCounter) -> list:
    """Every (S, A) pair with A <= S <= active set, S nonempty (V = 0).
    X_{0,0} is the whole complex, on which gamma is the identity."""
    return [StratumId(s, a) for s in _subsets(r.active)[1:] for a in _subsets(s)]


# ---------------------------------------------------------------------------
# Verification: incidence laws
# ---------------------------------------------------------------------------


def _implies_containment(s, a, tt, b) -> bool:
    """Sufficient test for X_{S,A} <= X_{T,B}.

    Same first class with fewer forced ghosts, or first class inside the
    forced ghosts.  The converse fails on small counters, see
    containment_anomalies().
    """
    return (s == tt and b <= a) or tt <= a


def verify_incidence(r: RoundCounter) -> Report:
    """Containment, pairwise and multiple intersections, and the Y/Z laws,
    on class masks: X <= X' is ``not X & ~X'``, and each law compares ints."""
    act = frozenset(r.active)
    none = frozenset()
    subsets, x, y, z = _class_masks(build(r))
    name = {s: id_set_text(s) for s in subsets}  # the params text of each subset
    records = []

    def add(check, params, ok):
        records.append(CheckRecord(check, params, ok, None if ok else params))

    pairs = sorted(x, key=lambda sa: (sorted(sa[0]), sorted(sa[1])))
    for s, a in pairs:
        xsa, ysa, zs, head = x[(s, a)], y[(s, a)], z[s], f"{name[s]} {name[a]}"
        for tt, b in pairs:
            params = f"{head} {name[tt]} {name[b]}"
            xtb = x[(tt, b)]
            add("containment", params, not _implies_containment(s, a, tt, b) or not xsa & ~xtb)
            if s == tt:
                want = x[(s, a | b)]
            elif s < tt:
                want = x[(tt, s | b)]
            elif tt < s:
                want = x[(s, tt | a)]
            else:
                want = z[s | tt]
            add("intersection", params, xsa & xtb == want)
            add(
                "yz-lemma",
                params,
                (zs & z[tt] == z[s | tt])
                and (ysa & z[tt] == y.get((s, a | tt), 0))
                and (ysa & y[(tt, b)] == (y[(s, a | b)] if s == tt else 0)),
            )

    # multiple intersections of X_{S_1}..X_{S_t}, t = 2, 3
    for count in (2, 3):
        for s1 in subsets:
            for rest in combinations(subsets, count - 1):
                if any(s1 <= si for si in rest):
                    continue
                inter = reduce(and_, (x[(si, none)] for si in rest), x[(s1, none)])
                union_rest = frozenset().union(*rest)
                if all(si < s1 for si in rest):
                    want = x[(s1, union_rest)]
                else:
                    want = z[s1 | union_rest]
                add("multi-intersection", " ".join(map(name.get, (s1, *rest))), inter == want)

    # X_{A,A} as the union of the strictly larger strata with the same ghosts
    for a in subsets:
        if a == act:
            continue
        covered = reduce(or_, (x[(s, a)] for s in subsets if a < s), 0)
        add("union-xaa", name[a], x[(a, a)] == covered)

    return Report(tuple(records))


def containment_anomalies(r: RoundCounter) -> list:
    """Stratum pairs that are contained although the two-condition test says no.

    The sufficient test ``_implies_containment`` misses containments that
    hold because the layer-1 witness set is forced: already with two active
    processes, Z_{act - q} sits inside X_{act, B}.  Returns (S, A, T, B)
    tuples, sorted.
    """
    _, x, _, _ = _class_masks(build(r))
    out = []
    for s, a in x:
        for tt, b in x:
            if not _implies_containment(s, a, tt, b) and not x[(s, a)] & ~x[(tt, b)]:
                out.append((tuple(sorted(s)), tuple(sorted(a)), tuple(sorted(tt)), tuple(sorted(b))))
    return sorted(out)


# ---------------------------------------------------------------------------
# Verification: commuting diagrams, replayed simplex by simplex
# ---------------------------------------------------------------------------


def verify_diagrams(r: RoundCounter) -> Report:
    """Replay the three commuting squares on every admissible parameter tuple.

    gamma is a pure function of the table and of S and A, so the squares
    read it through ``peel``: within one call each (table, sid) pair is
    peeled once, and the image of a member under StratumId(S, A) serves
    every B of the ghost-forcing square and every V of the boundary square.
    No square asks for a stratum twice: the ghost-forcing square fetches
    X_{S,A} once for all its B.  A member that a map rejects breaks the law.
    """
    k = build(r)
    subsets = _subsets(r.active)
    records = []
    peel = cache(lambda sigma, sid: gamma(sigma, sid))  # looks gamma up on each miss, as a direct call would

    def replay(check, params, members, law):
        """Record the least of members, in lattice order, that breaks law, if any."""

        def broken(sigma):
            try:
                return not law(sigma)
            except (InvalidArgument, PreconditionViolation):
                return True

        bad = min(filter(broken, members), key=lambda s: (s.dim, s.pairs), default=None)
        text = " ".join(map(id_set_text, params))
        records.append(CheckRecord(check, text, bad is None, None if bad is None else bad.key))

    # strata-within-strata: peeling A then S agrees with peeling S|A at once
    for a in subsets:
        rest = build(r.delete(a))
        peel_a = StratumId(a, a)
        for s in subsets:
            if not s or s & a:
                continue
            peel_s, peel_sa = StratumId(s), StratumId(s | a, a)

            def law(sigma):
                step = peel(sigma, peel_a)
                return step in rest and peel(step, peel_s) == peel(sigma, peel_sa)

            replay("diagram-strata", (s, a), stratum(k, peel_sa), law)

    # forcing fewer ghosts differs from forcing more only by round-0 ghosts
    for more in all_stratum_ids(r):
        s, a = more.first, more.ghosts
        members = stratum(k, more)
        for b in _subsets(a):
            fewer = StratumId(s, b)
            replay(
                "diagram-ghost-forcing",
                (s, a, b),
                members,
                lambda sigma: peel(sigma, fewer) == undelta_v(peel(sigma, more), a - b),
            )

    # peeling the first class commutes with stripping round-0 ghosts
    for sid in all_stratum_ids(r):
        s, a = sid.first, sid.ghosts
        for v in _subsets(r.support - s):
            dropped = build(r.delete(v))

            def law(sigma):
                phi, psi = peel(sigma, sid), delta_v(sigma, v)
                return v <= phi.g(0) and psi in dropped and delta_v(phi, v) == peel(psi, sid)

            replay("diagram-boundary", (s, a, v), stratum(k, StratumId(s, a, v)), law)

    return Report(tuple(records))


# ---------------------------------------------------------------------------
# Verification: the strata partition of the whole complex
# ---------------------------------------------------------------------------


def strata_partition(k: Complex) -> Report:
    """Every simplex interior lands in exactly one stratum interior.

    Single-layer simplices are the faces of the passive-set simplex; every
    other simplex is interior to the stratum named by its own layer data
    (R_1, G_1, G_0), and to no other.  Interior-ness is decided through the
    transport maps, independently of that formula.  V only filters X_{S,A},
    so each member sigma of X_{S,A} is peeled once: it is interior to
    X_{S,A,V} exactly for V = G_0(gamma(sigma)), when that set avoids S and
    lies in G_0(sigma).  A member that gamma rejects fails, naming the first
    stratum that holds it, X_{S,A} with V empty.
    """
    r = k.counter
    passive = frozenset(r.passive)
    interiors_of = {sigma: [] for sigma in k.simplices}  # filled in (S, A) order
    rejected = {}  # member -> the first stratum whose maps reject it
    for sid in all_stratum_ids(r):
        s, a = sid.first, sid.ghosts
        if a == s:  # the forced ghosts are a proper subset of S
            continue
        for sigma in stratum(k, sid):
            try:
                v = gamma(sigma, sid).g(0)
            except (InvalidArgument, PreconditionViolation):
                rejected.setdefault(sigma, sid)
                continue
            if not v & s and v <= sigma.g(0):
                interiors_of[sigma].append((s, a, v))
    records = []
    for sigma, interiors in interiors_of.items():
        if sigma in rejected:
            records.append(CheckRecord("partition", sigma.key, False, f"rejected by {rejected[sigma]!r}"))
            continue
        if sigma.t == 0:
            ok = not interiors and sigma.w(0) <= passive
        else:
            ok = interiors == [(sigma.r_set(1), sigma.g(1), sigma.g(0))]
        records.append(
            CheckRecord("partition", sigma.key, ok, None if ok else f"interiors={interiors!r}")
        )
    return Report(tuple(records))
