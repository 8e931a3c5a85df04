"""Shared corpus generators and independent oracles for the test suite.

The oracles deliberately re-derive results along different routes than the
library: stabilization via the per-layer move-set table and via trace
truncation, canonical form via a single forward-merging pass and via the
kept-layer index list, executions via unpruned sequence filtering.  The
stratum transport maps keep their validating bodies here.  Every table
oracle builds its result with the validating ``WitnessTable`` constructor.
The collapse schedule keeps its unmemoized plan and its greedy tail that
re-sorts the survivors at every step.  The vertex sets and the face relation
are read off ghosting, and the JSON exports of a complex and of a collapse
sequence are object trees passed through ``json.dumps``.  The face lattice
is built depth first with the general ghosting operator, one global sort and
a separate cofacet pass.
"""

from __future__ import annotations

import json
from itertools import combinations, product

from snapcomplex import RoundCounter, WitnessTable, from_trace, ghost, trace_form
from snapcomplex.complexes import Complex, enumerate_top
from snapcomplex.decomposition import IN_Y, IN_Z, OUT, StratumId, membership, rho_sa
from snapcomplex.errors import InvalidArgument, PreconditionViolation
from snapcomplex.topology import CollapseBatch, CollapseStep

# ---------------------------------------------------------------------------
# Counter corpora
# ---------------------------------------------------------------------------


def counters_with(max_support: int, max_cardinality: int) -> list:
    """Canonical-form counters with 1..max_support processes, bounded total."""
    out = []
    for size in range(1, max_support + 1):
        for values in product(range(max_cardinality + 1), repeat=size):
            if sum(values) <= max_cardinality:
                out.append(RoundCounter.of(*values))
    return out


# ---------------------------------------------------------------------------
# Witness-table corpora
# ---------------------------------------------------------------------------


def all_prestructures(universe=(0, 1, 2), max_t=3):
    """Every witness prestructure with support in the universe and <= max_t+1 layers."""
    universe = tuple(sorted(universe))
    for n in range(len(universe) + 1):
        for supp in combinations(universe, n):
            for wmask in range(1 << len(supp)):
                w0 = tuple(supp[i] for i in range(len(supp)) if wmask >> i & 1)
                g0 = tuple(p for p in supp if p not in w0)
                head = ((w0, g0),)
                yield WitnessTable(head)
                yield from _extend(head, w0, max_t)


def _extend(pairs, avail, max_t):
    if len(pairs) > max_t:
        return
    avail = tuple(sorted(avail))
    for wmask in range(1 << len(avail)):
        w = tuple(avail[i] for i in range(len(avail)) if wmask >> i & 1)
        rest = tuple(p for p in avail if p not in w)
        for gmask in range(1 << len(rest)):
            g = tuple(rest[i] for i in range(len(rest)) if gmask >> i & 1)
            nxt = pairs + ((w, g),)
            yield WitnessTable(nxt)
            yield from _extend(nxt, tuple(p for p in avail if p not in g), max_t)


def all_witness_structures(universe=(0, 1, 2), max_t=3) -> list:
    return [s for s in all_prestructures(universe, max_t) if s.is_witness]


def random_witness(rng, universe=(0, 1, 2, 3, 4), max_t=4) -> WitnessTable:
    """A random witness structure: nonempty later witness layers by construction."""
    supp = rng.sample(universe, rng.randint(1, len(universe)))
    w0 = [p for p in supp if rng.random() < 0.8]
    g0 = [p for p in supp if p not in w0]
    pairs = [(tuple(sorted(w0)), tuple(sorted(g0)))]
    avail = sorted(w0)
    for _ in range(rng.randint(0, max_t)):
        if not avail:
            break
        w = rng.sample(avail, rng.randint(1, len(avail)))
        rest = [p for p in avail if p not in w]
        g = [p for p in rest if rng.random() < 0.3]
        pairs.append((tuple(sorted(w)), tuple(sorted(g))))
        avail = [p for p in avail if p not in g]
    return WitnessTable(pairs)


def random_counter(rng, max_support=4, max_value=3) -> RoundCounter:
    size = rng.randint(1, max_support)
    ids = rng.sample(range(max_support + 2), size)
    return RoundCounter({p: rng.randint(0, max_value) for p in ids})


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def stabilize_via_table(sigma: WitnessTable, ghosted) -> WitnessTable:
    """Move-set route: per layer, demote the processes whose last surviving
    occurrence this is, i.e. J_i = (W_i minus union of later layers) meet
    (ghosted set union existing ghosts)."""
    s = frozenset(ghosted)
    assert s <= sigma.active_set
    swallowed = s | sigma.ghost_set
    cut = None
    for i in range(sigma.t, -1, -1):
        if not sigma.r_set(i) <= swallowed:
            cut = i
            break
    if cut is None:
        return WitnessTable((((), tuple(sorted(sigma.supp))),))
    pairs = []
    for i in range(cut + 1):
        later = set()
        for j in range(i + 1, cut + 1):
            later |= sigma.r_set(j)
        move = (sigma.w(i) - later) & swallowed
        pairs.append((sigma.w(i) - move, sigma.g(i) | move))
    return WitnessTable(pairs)


def canonical_oracle(sigma: WitnessTable) -> WitnessTable:
    """Forward-merge route: sweep once, carrying ghost sets of dropped layers."""
    assert sigma.is_stable
    if sigma.t == 0:
        return sigma
    out = [sigma.pairs[0]]
    carried = set()
    for i in range(1, sigma.t + 1):
        carried |= sigma.g(i)
        if sigma.w(i):
            out.append((sigma.w(i), carried))
            carried = set()
    assert not carried
    return WitnessTable(out)


def ghost_oracle(sigma: WitnessTable, ghosted) -> WitnessTable:
    return canonical_oracle(stabilize_via_table(sigma, ghosted))


def stabilize_via_trace(sigma: WitnessTable, ghosted) -> WitnessTable:
    """Trace route: truncate every trace at the cut, then rebuild the table."""
    s = frozenset(ghosted)
    assert s <= sigma.active_set
    swallowed = s | sigma.ghost_set
    cut = -1
    for i in range(sigma.t, -1, -1):
        if not sigma.r_set(i) <= swallowed:
            cut = i
            break
    if cut < 0:
        return WitnessTable((((), tuple(sorted(sigma.supp))),))
    traces = {p: {i for i in ix if i <= cut} for p, ix in sigma.traces.items()}
    return from_trace(trace_form(sigma.active_set - s, swallowed, traces))


def canonical_via_kept_layers(sigma: WitnessTable) -> WitnessTable:
    """Kept-index route: list the nonempty W layers, merge the ghosts between them."""
    assert sigma.is_stable
    if sigma.t == 0:
        return sigma
    kept = [i for i in range(1, sigma.t + 1) if sigma.pairs[i][0]]
    pairs = [sigma.pairs[0]]
    prev = 0
    for i in kept:
        merged = set()
        for j in range(prev + 1, i + 1):
            merged.update(sigma.pairs[j][1])
        pairs.append((sigma.pairs[i][0], merged))
        prev = i
    return WitnessTable(pairs)


def derived_oracle(sigma: WitnessTable) -> dict:
    """Support, ghost and active sets, dimension, traces and key of a table,
    by set algebra over the layers and ``json.dumps`` of the pairs."""
    layers = [(set(w), set(g)) for w, g in sigma.pairs]
    supp = layers[0][0] | layers[0][1]
    ghosts = set().union(*(g for _, g in layers))
    active = supp - ghosts
    return {
        "supp": frozenset(supp),
        "ghost_set": frozenset(ghosts),
        "active_set": frozenset(active),
        "dim": len(active) - 1,
        "traces": {p: frozenset(i for i, (w, g) in enumerate(layers) if p in w | g) for p in supp},
        "key": json.dumps([[sorted(w), sorted(g)] for w, g in layers], separators=(",", ":")),
    }


def m_count_brute(sigma: WitnessTable, p: int) -> int:
    return sum(1 for i in range(sigma.t + 1) if p in sigma.w(i) or p in sigma.g(i))


def vertices(sigma: WitnessTable) -> frozenset:
    """The 0-faces: ghost everything but one active process."""
    act = sigma.active_set
    return frozenset(ghost(sigma, act - {a}) for a in act)


def has_face(sigma: WitnessTable, tau: WitnessTable) -> bool:
    """Face criterion: tau <= sigma iff tau is the ghosting of sigma by A(sigma)-A(tau)."""
    if not tau.active_set <= sigma.active_set:
        return False
    return ghost(sigma, sigma.active_set - tau.active_set) == tau


def build_oracle(r: RoundCounter) -> Complex:
    """Depth-first closure of the executions under ``ghost(sigma, (p,))``,
    each face deduped through one dict, sorted once by (dim, pairs), and
    the cofacets inverted from the facets afterwards."""
    tops = sorted(enumerate_top(r), key=lambda s: s.pairs)
    facets = {}
    queue = list(tops)
    seen = {s: s for s in tops}  # each simplex -> its one canonical object
    while queue:
        sigma = queue.pop()
        faces = []
        for tau in sorted((ghost(sigma, (p,)) for p in sigma.active_set), key=lambda s: s.pairs):
            face = seen.setdefault(tau, tau)
            if face is tau:
                queue.append(tau)
            faces.append(face)
        facets[sigma] = tuple(faces)
    simplices = sorted(seen, key=lambda s: (s.dim, s.pairs))
    cofacets = {s: [] for s in simplices}
    for sigma in simplices:
        for tau in facets[sigma]:
            cofacets[tau].append(sigma)
    cofacets = {s: tuple(sorted(cof, key=lambda x: x.pairs)) for s, cof in cofacets.items()}
    levels = tuple(tuple(s for s in simplices if s.dim == d) for d in range(-1, len(r.support)))
    return Complex(r, levels, facets, cofacets)


def levels_with(k, extra) -> tuple:
    """The levels of k, dimension -1 up, with ``extra`` put at the end of its level."""
    return tuple(level + (extra,) if d == extra.dim else level for d, level in k.by_dim.items())


def complex_json_oracle(k) -> str:
    """The JSON export as an object tree passed through ``json.dumps``, with
    each key printed whole by ``WitnessTable.key``."""
    key = {s: s.key for s in k.simplices}
    return json.dumps(
        {
            "counter": {str(p): v for p, v in k.counter},
            "f_vector": list(k.f_vector),
            "tops": [key[s] for s in k.tops],
            "simplices": [
                {"key": key[s], "dim": s.dim, "facets": [key[f] for f in k.facets[s]]} for s in k.simplices
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def collapse_json_oracle(seq) -> str:
    """The collapse export as an object tree passed through ``json.dumps``,
    with each key printed whole by ``WitnessTable.key``."""
    return json.dumps(
        {
            "steps": [{"free": s.free.key, "coface": s.coface.key} for s in seq.steps],
            "residual": [s.key for s in seq.residual],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def enumerate_top_brute(r: RoundCounter) -> set:
    """Unpruned route: filter all bounded layer sequences by occurrence counts."""
    act = tuple(sorted(r.active))
    supp = tuple(sorted(r.support))
    total = r.cardinality
    subsets = [tuple(act[i] for i in range(len(act)) if m >> i & 1) for m in range(1, 1 << len(act))]
    found = set()
    for length in range(total + 1):
        for seq in product(subsets, repeat=length):
            counts = {p: 0 for p in act}
            for layer in seq:
                for p in layer:
                    counts[p] += 1
            if all(counts[p] == r[p] for p in act):
                found.add(WitnessTable([(supp, ())] + [(layer, ()) for layer in seq]))
    return found


def membership_brute(sigma: WitnessTable, sid) -> str:
    """Per-simplex Y/Z membership of a stratum, gated by the round-0 condition."""
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


def y_slice_brute(k, first, ghosts) -> frozenset:
    """The Y part of X_{S,A} by a scan of every simplex; empty when A exceeds S."""
    first, ghosts = frozenset(first), frozenset(ghosts)
    if not ghosts <= first:
        return frozenset()
    return frozenset(
        s for s in k.simplices if s.t >= 1 and s.r_set(1) == first and ghosts <= s.g(1)
    )


def z_slice_brute(k, first) -> frozenset:
    """Z_S by a scan of every simplex: S ghosted at layer 1, or at round 0 for one layer."""
    first = frozenset(first)
    return frozenset(
        s
        for s in k.simplices
        if (s.t == 0 and first <= s.g(0)) or (s.t >= 1 and first <= s.g(1))
    )


def slices_oracle(k):
    """Subsets of the active set, and the X_{S,A}, Y_{S,A} and Z_S tables
    (V = 0) as frozensets of simplices: X by asking ``membership`` about
    every simplex, Z_S as X_{S,S} and Y_{S,A} as X_{S,A} - Z_S."""
    subsets = [frozenset(c) for c in sorted_subsets(k.counter.active)]
    x = {
        (s, a): frozenset(sigma for sigma in k.simplices if membership(sigma, StratumId(s, a)) != OUT)
        for s in subsets
        for a in subsets
        if a <= s
    }
    z = {s: x[(s, s)] for s in subsets}
    y = {(s, a): xs - z[s] for (s, a), xs in x.items()}
    return subsets, x, y, z


def gamma_oracle(sigma: WitnessTable, sid) -> WitnessTable:
    """Peel the first class off a stratum member, validating the result."""
    kind = membership_brute(sigma, sid)
    if kind == OUT:
        raise PreconditionViolation(f"{sigma!r} is not in stratum {sid}")
    s, a = sid.first, sid.ghosts
    pairs = sigma.pairs
    if sigma.t == 0:
        w0, g0 = pairs[0]
        return WitnessTable(((w0, tuple(p for p in g0 if p not in a)),))
    if kind == IN_Y:
        w0 = sigma.w(0) - sigma.g(1)
        g0 = (sigma.g(0) | sigma.g(1)) - a
        return WitnessTable([(w0, g0)] + list(pairs[2:]))
    w0 = sigma.w(0) - s
    g0 = (sigma.g(0) | s) - a
    g1 = sigma.g(1) - s
    return WitnessTable([(w0, g0), (sigma.w(1), g1)] + list(pairs[2:]))


def rho_oracle(tau: WitnessTable, first) -> WitnessTable:
    """Re-attach the first class (A = 0), validating the result."""
    s = frozenset(first)
    if not s <= tau.supp:
        raise PreconditionViolation(f"{sorted(s)} is not within the support")
    pairs = tau.pairs
    v0, h0 = tau.w(0), tau.g(0)
    if v0 & s:
        w0 = v0 | (h0 & s)
        return WitnessTable([(w0, h0 - s), (v0 & s, h0 & s)] + list(pairs[1:]))
    if tau.t == 0:
        return WitnessTable(tau.pairs)
    return WitnessTable([(v0 | s, h0 - s), (tau.w(1), tau.g(1) | s)] + list(pairs[2:]))


def delta_v_oracle(sigma: WitnessTable, ids) -> WitnessTable:
    """Strip ids from the round-0 ghost set, validating the result."""
    v = frozenset(ids)
    if not v <= sigma.g(0):
        raise PreconditionViolation(f"{sorted(v)} is not within the round-0 ghost set")
    w0, g0 = sigma.pairs[0]
    return WitnessTable(((w0, tuple(p for p in g0 if p not in v)),) + sigma.pairs[1:])


def undelta_v_oracle(tau: WitnessTable, ids) -> WitnessTable:
    """Add ids to the round-0 ghost set; the constructor rejects what breaks P1-P3."""
    v = frozenset(ids)
    w0, g0 = tau.pairs[0]
    return WitnessTable(((w0, tuple(sorted(set(g0) | v))),) + tau.pairs[1:])


def sorted_subsets(elems) -> list:
    """Every subset as a sorted tuple, by size and then lexicographically:
    bitmask subsets re-sorted, so the oracle shares no enumerator with the library."""
    elems = sorted(elems)
    masks = range(1 << len(elems))
    return sorted((tuple(p for i, p in enumerate(elems) if m >> i & 1) for m in masks), key=lambda c: (len(c), c))


def collapse_plan_oracle(r: RoundCounter, p: int):
    """The collapse plan rebuilt from scratch at every level, with no memo."""
    steps = []
    batches = []
    if not r.active:
        supp = tuple(sorted(r.support))
        free = WitnessTable(((tuple(q for q in supp if q != p), (p,)),))
        top = WitnessTable(((supp, ()),))
        steps.append(CollapseStep(free, top))
        batches.append(CollapseBatch(0, (), (), 0, 1))
        return steps, batches

    def run_batch(stage, s, a, sub_r, sub_p):
        start = len(steps)
        sub_steps, _ = collapse_plan_oracle(sub_r, sub_p)
        for st in sub_steps:
            steps.append(CollapseStep(rho_sa(st.free, s, a), rho_sa(st.coface, s, a)))
        batches.append(CollapseBatch(stage, s, a, start, len(steps)))

    act = sorted(r.active)
    stage1 = []
    for s in sorted_subsets(act):
        if not s or p in s:
            continue
        for a in sorted_subsets(s):
            if len(a) < len(s):
                stage1.append((s, a))
    for s, a in sorted(stage1, key=lambda sa: (len(sa[1]), sa[0], sa[1])):
        run_batch(1, s, a, r.reduce(s, a), p)

    if p in r.active:
        for s in sorted_subsets(act):
            if p not in s or len(s) < 2:
                continue
            q = min(x for x in s if x != p)
            for a in sorted_subsets(x for x in s if x not in (p, q)):
                run_batch(2, s, a, r.reduce(s, a), q)
        run_batch(3, (p,), (), r.execute((p,)), p)
    return steps, batches


def greedy_tail_oracle(k, survivors) -> list:
    """Greedy collapse steps that re-sort every survivor by key at each step."""
    alive = set(survivors)

    def alive_cofacets(s):
        return [c for c in k.cofacets[s] if c in alive]

    steps = []
    while len(alive) > 2:
        best = None
        for s in sorted(alive, key=lambda x: x.key):
            cof = alive_cofacets(s)
            if len(cof) == 1 and not alive_cofacets(cof[0]):
                best = CollapseStep(s, cof[0])
                break
        if best is None:
            raise AssertionError(f"greedy oracle is stuck with {len(alive)} survivors")
        steps.append(best)
        alive.discard(best.free)
        alive.discard(best.coface)
    return steps


def betti_of_simplex_set(simplices) -> tuple:
    """Mod-2 Betti numbers of an arbitrary downward-closed simplex set."""
    from snapcomplex.topology import gf2_rank

    members = set(simplices)
    by_dim = {}
    for s in members:
        by_dim.setdefault(s.dim, []).append(s)
    top = max(by_dim)
    index = {}
    for d in by_dim:
        for i, s in enumerate(sorted(by_dim[d], key=lambda x: x.pairs)):
            index[s] = i
    ranks = {}
    for d in range(1, top + 1):
        rows = []
        for s in by_dim.get(d, ()):
            mask = 0
            for p in sorted(s.active_set):
                f = ghost(s, (p,))
                assert f in members, "set is not downward closed"
                if f.dim >= 0:
                    mask |= 1 << index[f]
            rows.append(mask)
        ranks[d] = gf2_rank(rows)
    return tuple(
        len(by_dim.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d in range(top + 1)
    )
