"""The canonical stratification of a snapshot complex.

A stratum is named by a triple (S, A, V): S is the candidate first
concurrency class, A a set of its members forced to be ghosts already in
round 1, and V a set of processes ghosted at round 0.  The stratum
X_{S,A,V} collects the simplices whose layer-1 data is compatible with
(S, A) -- either the first layer covers exactly S with A among its ghosts
(the Y part), or all of S is ghosted at layer 1 (the Z part) -- and whose
round-0 ghosts contain V.  Each stratum is simplicially isomorphic to the
complex of the reduced counter, via the maps ``gamma`` (peel off the first
layer) and ``rho`` (re-attach it).

Simplices with a single layer carry no layer-1 data; they are placed in the
Z part exactly when S is ghosted at round 0, which is the unique reading
that keeps every stratum closed under faces and the gamma/rho pair
mutually inverse.

Membership reads nothing but the layer-1 data (R_1, G_1, G_0), or G_0 alone
for a single-layer simplex, so every stratum and its Y and Z parts are unions
of the classes of simplices sharing that data; ``membership`` is the one
statement of the rule, asked once per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .errors import InvalidArgument, PreconditionViolation
from .rounds import RoundCounter
from .reports import CheckRecord, Report
from . import witness
from .complexes import Complex, Slice, build, delta_v, undelta_v
from .witness import WitnessTable

IN_Y = "in_Y"
IN_Z = "in_Z"
OUT = "out"


@dataclass(frozen=True)
class StratumId:
    first: frozenset  # S: the first concurrency class
    ghosts: frozenset  # A: members of S forced into the layer-1 ghost set
    round0: frozenset  # V: processes ghosted at round 0

    def __init__(self, first: Iterable[int], ghosts: Iterable[int] = (), round0: Iterable[int] = ()):
        object.__setattr__(self, "first", frozenset(first))
        object.__setattr__(self, "ghosts", frozenset(ghosts))
        object.__setattr__(self, "round0", frozenset(round0))

    def validate(self, r: RoundCounter) -> None:
        if not self.ghosts <= self.first <= r.active:
            raise InvalidArgument(f"need ghosts <= first <= active set, got {self}")
        if not self.round0 <= r.support or self.round0 & self.first:
            raise InvalidArgument(f"round-0 set must avoid the first class, got {self}")

    def __repr__(self) -> str:
        return f"StratumId(S={sorted(self.first)}, A={sorted(self.ghosts)}, V={sorted(self.round0)})"


def membership(sigma: WitnessTable, sid: StratumId) -> str:
    """Y/Z membership of a simplex, gated by the round-0 condition."""
    if not sid.ghosts <= sid.first:
        raise InvalidArgument(f"need ghosts <= first in {sid}")
    if not sid.round0 <= sigma.g(0):
        return OUT
    if sigma.t == 0:
        return IN_Z if sid.first <= sigma.g(0) else OUT
    if sid.first <= sigma.g(1):
        return IN_Z
    if sigma.r_set(1) == sid.first and sid.ghosts <= sigma.g(1):
        return IN_Y
    return OUT


@lru_cache(maxsize=8)
def _classes(k: Complex) -> tuple:
    """The simplices of k grouped by the layer-1 data that membership reads."""
    groups = {}
    for s in k.simplices:
        groups.setdefault((s.r_set(1), s.g(1), s.g(0)) if s.t >= 1 else s.g(0), []).append(s)
    return tuple(groups.values())


def _part(k: Complex, sid: StratumId, kinds) -> frozenset:
    """The union of the classes whose membership in sid is one of kinds."""
    return frozenset(s for cls in _classes(k) if membership(cls[0], sid) in kinds for s in cls)


@lru_cache(maxsize=1024)
def stratum(k: Complex, sid: StratumId) -> Slice:
    sid.validate(k.counter)
    out = Slice(k, _part(k, sid, (IN_Y, IN_Z)))
    if not out.is_closed():
        raise AssertionError(f"stratum {sid} is not boundary-closed")
    return out


def _subsets(elems) -> list:
    """Every subset of elems as a frozenset, by size and then lexicographically."""
    elems = sorted(elems)
    return [frozenset(c) for n in range(len(elems) + 1) for c in combinations(elems, n)]


def _slices(k: Complex):
    """Subsets of the active set, and the X_{S,A}, Y_{S,A} and Z_S tables (V = 0)."""
    subsets = _subsets(k.counter.active)
    x, y, z = {}, {}, {}
    for s in subsets:
        z[s] = _part(k, StratumId(s), (IN_Z,))
        for a in _subsets(s):
            y[(s, a)] = _part(k, StratumId(s, a), (IN_Y,))
            x[(s, a)] = y[(s, a)] | z[s]
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


def rho(tau: WitnessTable, first: Iterable[int]) -> WitnessTable:
    """Re-attach the first concurrency class: inverse of gamma for A = 0.

    When tau witnesses part of S at round 0, that part becomes the new layer
    1; otherwise S is already ghosted at round 0 and just moves one layer in.

    Every later layer keeps its W part, so the result keeps the class of
    tau (a single layer is a witness structure, and so is its extension by
    a nonempty layer 1).
    """
    s = frozenset(first)
    pairs = tau.pairs
    v0, h0 = pairs[0]
    if not s.issubset(v0 + h0):
        raise PreconditionViolation(f"{sorted(s)} is not within the support")
    if s.intersection(v0):
        out = (
            (tuple(sorted(s.intersection(h0).union(v0))), tuple(p for p in h0 if p not in s)),
            (tuple(p for p in v0 if p in s), tuple(p for p in h0 if p in s)),
        ) + pairs[1:]
        return WitnessTable._trusted(out, tau.classification)
    if tau.t == 0:
        return tau
    w1, g1 = pairs[1]
    out = (
        (tuple(sorted(s.union(v0))), tuple(p for p in h0 if p not in s)),
        (w1, tuple(sorted(s.union(g1)))),
    ) + pairs[2:]
    return WitnessTable._trusted(out, tau.classification)


def rho_sa(tau: WitnessTable, first: Iterable[int], ghosts: Iterable[int] = ()) -> WitnessTable:
    """Inverse of gamma for arbitrary forced ghosts: re-add A, then rho."""
    a = frozenset(ghosts)
    if a:
        tau = undelta_v(tau, a)
    return rho(tau, first)


# ---------------------------------------------------------------------------
# Verification: the stratum isomorphisms
# ---------------------------------------------------------------------------


def verify_stratum_iso(r: RoundCounter, sid: StratumId) -> bool:
    """gamma is a face-respecting bijection from the stratum onto its target.

    The target is the complex of the reduced counter, cut down to the
    round-0 boundary piece when the stratum has one.  Faces on both sides
    are read from the built lattices; since every member must keep its
    active set, equal face sets pair each face of sigma with the face of
    tau that lacks the same process.
    """
    sid.validate(r)
    k = build(r)
    target = build(r.reduce(sid.first, sid.ghosts))
    image = {sigma: gamma(sigma, sid) for sigma in stratum(k, sid).members}
    images = set(image.values())
    if len(images) != len(image) or images != {t for t in target.simplices if sid.round0 <= t.g(0)}:
        return False
    for sigma, tau in image.items():
        if rho_sa(tau, sid.first, sid.ghosts) != sigma or tau.active_set != sigma.active_set:
            return False
        if {image[f] for f in k.facets[sigma]} != set(target.facets[tau]):
            return False
    return True


def all_stratum_ids(r: RoundCounter) -> list:
    """Every (S, A) pair with A <= S <= active set (V = 0)."""
    return [StratumId(s, a) for s in _subsets(r.active) for a in _subsets(s)]


# ---------------------------------------------------------------------------
# Verification: incidence laws
# ---------------------------------------------------------------------------


def _fmt(*sets) -> str:
    return " ".join("{" + ",".join(map(str, sorted(x))) + "}" for x in sets)


def _implies_containment(s, a, tt, b) -> bool:
    """Sufficient test for X_{S,A} <= X_{T,B}.

    Same first class with fewer forced ghosts, or first class inside the
    forced ghosts.  The converse fails on small counters, see
    containment_anomalies().
    """
    return (s == tt and b <= a) or tt <= a


def verify_incidence(r: RoundCounter) -> Report:
    """Containment, pairwise and multiple intersections, and the Y/Z laws."""
    act = frozenset(r.active)
    subsets, x, y, z = _slices(build(r))
    records = []

    def add(check, params, ok, ce=None):
        records.append(CheckRecord(check, params, ok, None if ok else ce or params))

    pairs = sorted(x, key=lambda sa: (sorted(sa[0]), sorted(sa[1])))
    for s, a in pairs:
        for tt, b in pairs:
            params = _fmt(s, a, tt, b)
            contained = not _implies_containment(s, a, tt, b) or x[(s, a)] <= x[(tt, b)]
            add("containment", params, contained)
            if s == tt:
                want = x[(s, a | b)]
            elif s < tt:
                want = x[(tt, s | b)]
            elif tt < s:
                want = x[(s, tt | a)]
            else:
                want = z[s | tt]
            add("intersection", params, x[(s, a)] & x[(tt, b)] == want)
            add(
                "yz-lemma",
                params,
                (z[s] & z[tt] == z[s | tt])
                and (y[(s, a)] & z[tt] == y.get((s, a | tt), frozenset()))
                and (y[(s, a)] & y[(tt, b)] == (y[(s, a | b)] if s == tt else frozenset())),
            )

    # multiple intersections of X_{S_1}..X_{S_t}, t = 2, 3
    for count in (2, 3):
        for s1 in subsets:
            for rest in combinations(subsets, count - 1):
                if any(s1 <= si for si in rest):
                    continue
                inter = x[(s1, frozenset())].intersection(*(x[(si, frozenset())] for si in rest))
                union_rest = frozenset().union(*rest)
                if all(si < s1 for si in rest):
                    want = x[(s1, union_rest)]
                else:
                    want = z[s1 | union_rest]
                add("multi-intersection", _fmt(s1, *rest), inter == want)

    # X_{A,A} as the union of the strictly larger strata with the same ghosts
    for a in subsets:
        if a == act:
            continue
        covered = frozenset().union(*(x[(s, a)] for s in subsets if a < s))
        add("union-xaa", _fmt(a), x[(a, a)] == covered)

    return Report(tuple(records))


def containment_anomalies(r: RoundCounter) -> list:
    """Stratum pairs that are contained although the two-condition test says no.

    The sufficient test ``_implies_containment`` misses containments that
    hold because the layer-1 witness set is forced: already with two active
    processes, Z_{act - q} sits inside X_{act, B}.  Returns (S, A, T, B)
    tuples, sorted.
    """
    _, x, _, _ = _slices(build(r))
    out = []
    for s, a in x:
        for tt, b in x:
            if not _implies_containment(s, a, tt, b) and x[(s, a)] <= x[(tt, b)]:
                out.append((tuple(sorted(s)), tuple(sorted(a)), tuple(sorted(tt)), tuple(sorted(b))))
    return sorted(out)


# ---------------------------------------------------------------------------
# Verification: commuting diagrams, replayed simplex by simplex
# ---------------------------------------------------------------------------


def verify_diagrams(r: RoundCounter) -> Report:
    """Replay the three commuting squares on every admissible parameter tuple."""
    k = build(r)
    subsets = _subsets(r.active)
    records = []

    def replay(check, params, sid, law):
        """Record the first member of the stratum sid that breaks law, if any."""
        bad = next((sigma for sigma in stratum(k, sid).sorted_members if not law(sigma)), None)
        records.append(CheckRecord(check, _fmt(*params), bad is None, None if bad is None else bad.key))

    # strata-within-strata: peeling A then S agrees with peeling S|A at once
    for a in subsets:
        rest = build(r.delete(a))
        for s in subsets:
            if not s or s & a:
                continue

            def law(sigma):
                step = gamma(sigma, StratumId(a, a))
                return (
                    membership(step, StratumId(s)) != OUT
                    and step in rest
                    and gamma(step, StratumId(s)) == gamma(sigma, StratumId(s | a, a))
                )

            replay("diagram-strata", (s, a), StratumId(s | a, a), law)

    # forcing fewer ghosts differs from forcing more only by round-0 ghosts
    for s in subsets[1:]:  # S nonempty
        for a in _subsets(s):
            for b in _subsets(a):
                replay(
                    "diagram-ghost-forcing",
                    (s, a, b),
                    StratumId(s, a),
                    lambda sigma: gamma(sigma, StratumId(s, b)) == undelta_v(gamma(sigma, StratumId(s, a)), a - b),
                )

    # peeling the first class commutes with stripping round-0 ghosts
    for s in subsets[1:]:  # S nonempty
        for a in _subsets(s):
            for v in _subsets(r.support - s):
                dropped = build(r.delete(v))

                def law(sigma):
                    phi, psi = gamma(sigma, StratumId(s, a)), delta_v(sigma, v)
                    return (
                        v <= phi.g(0)
                        and membership(psi, StratumId(s, a)) != OUT
                        and psi in dropped
                        and delta_v(phi, v) == gamma(psi, StratumId(s, a))
                    )

                replay("diagram-boundary", (s, a, v), StratumId(s, a, v), law)

    return Report(tuple(records))


# ---------------------------------------------------------------------------
# Verification: the strata partition of the whole complex
# ---------------------------------------------------------------------------


def strata_partition(k: Complex) -> Report:
    """Every simplex interior lands in exactly one stratum interior.

    Single-layer simplices are the faces of the passive-set simplex; every
    other simplex is interior to the stratum named by its own layer data
    (R_1, G_1, G_0), and to no other.  Interior-ness is decided through the
    transport maps, independently of that formula.
    """
    r = k.counter
    passive = frozenset(r.passive)
    # nonempty first classes, each with its proper subsets as forced ghosts
    sids = [
        StratumId(s, a, v)
        for s in _subsets(r.active)[1:]
        for a in _subsets(s)[:-1]
        for v in _subsets(r.support - s)
    ]
    candidates = {}
    for cls in _classes(k):
        candidates.update(dict.fromkeys(cls, [sid for sid in sids if membership(cls[0], sid) != OUT]))
    records = []
    for sigma in k.simplices:
        interiors = [
            (sid.first, sid.ghosts, sid.round0)
            for sid in candidates[sigma]
            if not delta_v(gamma(sigma, sid), sid.round0).g(0)
        ]
        if sigma.t == 0:
            ok = not interiors and sigma.w(0) <= passive
        else:
            ok = interiors == [(sigma.r_set(1), sigma.g(1), sigma.g(0))]
        records.append(
            CheckRecord("partition", sigma.key, ok, None if ok else f"interiors={interiors!r}")
        )
    return Report(tuple(records))
