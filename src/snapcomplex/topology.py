"""Collapsibility and algebraic verification of the snapshot complexes.

``collapse_pair`` removes everything interior to the complex or to one
chosen round-0 boundary piece, by elementary collapses.  The schedule works
stratum pair by stratum pair:

* stage 1 clears the strata avoiding the chosen process p, pairing each
  stratum with its p-boundary piece;
* stage 2 clears the strata whose first class contains p (and at least one
  other process q), pairing forced-ghost sets A with A+q;
* stage 3 clears the remaining column where p runs alone first.

Each pair is simplicially a (boundary piece, whole complex) pair of a
strictly smaller counter, so its schedule comes from the recursion and is
transported back through the stratum isomorphisms.  Within stages 1 and 2
the batches run in never-decreasing |A| order.  The recursion meets the same
(sub-counter, p) pairs many times, so one top-level ``collapse_pair`` call
memoizes each plan and transports it once.  ``collapse_to_point`` finishes
with a greedy tail that keeps a count of surviving cofacets and a heap of
free faces in key order, re-checking only faces of each removed pair.  An
independent replay validator is the arbiter of legality.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .errors import CollapseStuck, PreconditionViolation
from .rounds import RoundCounter, id_set_text, subsets
from .complexes import Complex, _key_list, build
from .decomposition import rho_sa
from .witness import WitnessTable, keys


class CollapseStep(NamedTuple):
    free: WitnessTable
    coface: WitnessTable


class CollapseBatch(NamedTuple):
    stage: int  # 0 base case, 1..3 lemma stages, 4 greedy tail
    first: tuple  # S of the stratum pair
    forced: tuple  # A of the stratum pair
    start: int
    stop: int


class CollapseSequence(NamedTuple):
    steps: tuple
    residual: tuple  # surviving simplices, sorted
    batches: tuple = ()

    @property
    def removed(self) -> frozenset:
        out = set()
        for step in self.steps:
            out.add(step.free)
            out.add(step.coface)
        return frozenset(out)

    def locate(self, index: int) -> str:
        """Name step index with the stage and stratum batch (S, A) that made it."""
        for b in self.batches:
            if b.start <= index < b.stop:
                return f"step {index} (stage {b.stage}, S={id_set_text(b.first)}, A={id_set_text(b.forced)})"
        return f"step {index}"

    def to_json(self) -> str:
        """The bytes of ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
        on {"residual": [key, ...], "steps": [{"coface", "free"}, ...]}, written
        as text like ``complexes.complex_to_json``: keys need no escaping."""
        key = keys([t for s in self.steps for t in (s.free, s.coface)] + list(self.residual))
        parts = ['{"residual":', _key_list(key, self.residual), ',"steps":[']
        sep = ""
        for s in self.steps:
            parts.append(f'{sep}{{"coface":"{key[s.coface]}","free":"{key[s.free]}"}}')
            sep = ","
        parts.append("]}")
        return "".join(parts)


def _collapse_plan(r: RoundCounter, p: int, memo: dict):
    """Steps removing the simplices with round-0 ghosts empty or exactly {p}.

    ``memo`` maps (counter, p) to its plan, so each distinct sub-plan is
    built and transported once per top-level call.  An entry is stored
    before it is filled; that is safe because every sub-plan is for a
    strictly smaller counter.
    """
    if (r, p) in memo:
        return memo[r, p]
    steps = []
    batches = []
    memo[r, p] = steps, batches
    if not r.active:
        supp = tuple(sorted(r.support))
        free = WitnessTable(((tuple(q for q in supp if q != p), (p,)),))
        top = WitnessTable(((supp, ()),))
        steps.append(CollapseStep(free, top))
        batches.append(CollapseBatch(0, (), (), 0, 1))
        return steps, batches

    def run_batch(stage, s, a, sub_r, sub_p):
        start = len(steps)
        sub_steps, _ = _collapse_plan(sub_r, sub_p, memo)
        for st in sub_steps:
            steps.append(CollapseStep(rho_sa(st.free, s, a), rho_sa(st.coface, s, a)))
        batches.append(CollapseBatch(stage, s, a, start, len(steps)))

    act = sorted(r.active)
    stage1 = []
    for s in subsets(act):
        if not s or p in s:
            continue
        for a in subsets(s):
            if len(a) < len(s):
                stage1.append((s, a))
    for s, a in sorted(stage1, key=lambda sa: (len(sa[1]), sa[0], sa[1])):
        run_batch(1, s, a, r.reduce(s, a), p)

    if p in r.active:
        for s in subsets(act):
            if p not in s or len(s) < 2:
                continue
            q = min(x for x in s if x != p)
            for a in subsets(x for x in s if x not in (p, q)):
                run_batch(2, s, a, r.reduce(s, a), q)
        run_batch(3, (p,), (), r.execute((p,)), p)
    return steps, batches


def collapse_pair(r: RoundCounter, p: int) -> CollapseSequence:
    """Collapse away the interior and the interior of the p-boundary piece."""
    if p not in r.support:
        raise PreconditionViolation(f"process {p} is not in the support")
    steps, batches = _collapse_plan(r, p, {})
    k = build(r)
    removed = {s for step in steps for s in (step.free, step.coface)}
    residual = tuple(s for s in k.simplices if s not in removed)
    return CollapseSequence(tuple(steps), residual, tuple(batches))


def collapse_to_point(r: RoundCounter) -> CollapseSequence:
    """Collapse the whole complex down to one vertex (plus the empty simplex).

    The first round removes the interior and one boundary piece via the
    staged schedule; the remaining boundary part is finished by a greedy
    search that always removes the free face of smallest key, validated by
    replay.  The search is incremental: it counts the surviving cofacets of
    every survivor and keeps the free faces in a heap, so a step re-checks
    only the faces of the pair it removed, and a heap entry that is no
    longer free is dropped when it comes up.  A survivor set without a free
    face raises ``CollapseStuck`` naming stage 4.
    """
    k = build(r)
    if len(k.simplices) <= 2:
        return CollapseSequence((), k.simplices, ())
    p = min(r.support)
    first = collapse_pair(r, p)
    steps = list(first.steps)
    batches = list(first.batches)
    alive = set(first.residual)
    # live[s] counts the surviving cofacets of s; s is free when it has one
    # and that one has none.  The survivors stay closed under faces.
    live = {s: sum(c in alive for c in k.cofacets[s]) for s in alive}

    def free_coface(s):
        if live[s] != 1:
            return None
        c = next(c for c in k.cofacets[s] if c in alive)
        return None if live[c] else c

    key = keys(alive)  # each survivor's key, computed once
    heap = [(key[s], s) for s in alive if free_coface(s) is not None]
    heapq.heapify(heap)
    start = len(steps)
    while len(alive) > 2:
        # smallest key that is still a free face; stale entries are dropped
        while heap:
            _, s = heapq.heappop(heap)
            if s in alive and (c := free_coface(s)) is not None:
                break
        else:
            raise CollapseStuck(
                4,
                f"no free face among {len(alive)} surviving simplices of {r!r}",
                sorted(key[s] for s in alive),
            )
        steps.append(CollapseStep(s, c))
        alive.discard(s)
        alive.discard(c)
        for x in (s, c):
            for f in k.facets[x]:
                live[f] -= 1
        # Only faces of s and c can become free.  Any other face keeps its
        # surviving cofacets; if its one cofacet y was a facet of s or c, it
        # lies in a second facet of that simplex too (a codimension-2 face
        # lies in exactly two facets), which survives unless it is s itself.
        for f in {*k.facets[s], *k.facets[c]}:
            if f in alive and free_coface(f) is not None:
                heapq.heappush(heap, (key[f], f))
    if start != len(steps):
        batches.append(CollapseBatch(4, (), (), start, len(steps)))
    residual = tuple(s for s in k.simplices if s in alive)
    return CollapseSequence(tuple(steps), residual, tuple(batches))


class ValidationResult(NamedTuple):
    ok: bool
    failed_index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_collapse(k: Complex, seq: CollapseSequence) -> ValidationResult:
    """Independent replay: each step must be a legal elementary collapse.

    Maintains the set of surviving simplices; a step is legal when its
    coface is maximal among survivors and is the unique surviving
    codimension-1 coface of the free face.
    """
    alive = set(k.simplices)
    for i, step in enumerate(seq.steps):
        f, c = step.free, step.coface
        if f not in alive or c not in alive:
            return ValidationResult(False, i, "step names a removed or unknown simplex")
        if c not in k.cofacets.get(f, ()):
            return ValidationResult(False, i, "coface does not cover the free face")
        if any(x in alive for x in k.cofacets[c]):
            return ValidationResult(False, i, "coface is not maximal")
        live_cof = [x for x in k.cofacets[f] if x in alive]
        if live_cof != [c]:
            return ValidationResult(False, i, "free face has another surviving coface")
        alive.discard(f)
        alive.discard(c)
    if alive != set(seq.residual):
        return ValidationResult(False, None, "residual does not match the replay")
    return ValidationResult(True)


def collapse_failure(k: Complex, seq: CollapseSequence) -> str | None:
    """None when seq is a legal replay that collapses k to one vertex plus the
    empty simplex; else why not: the replay's reason, at the step (stage and
    (S, A) batch) it names if it names one, or ``bad residual``."""
    ver = validate_collapse(k, seq)
    if not ver:
        return ver.reason + ("" if ver.failed_index is None else f" at {seq.locate(ver.failed_index)}")
    return None if sorted(s.dim for s in seq.residual) == [-1, 0] else "bad residual"


# ---------------------------------------------------------------------------
# Mod-2 homology
# ---------------------------------------------------------------------------


class BettiProfile(NamedTuple):
    betti: tuple
    euler: int


def gf2_rank(rows) -> int:
    """Rank of a set of GF(2) row vectors packed as integers."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length()
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def homology_gf2(k: Complex) -> BettiProfile:
    """Non-reduced mod-2 Betti numbers from the facet incidences.

    The empty simplex is excluded from the chain groups, so b_0 counts
    connected components.
    """
    n = k.dim
    if n < 0:
        return BettiProfile((), 0)
    index = {}
    for d in range(n + 1):
        for i, s in enumerate(k.by_dim.get(d, ())):
            index[s] = i
    ranks = {}
    for d in range(1, n + 1):
        rows = []
        for s in k.by_dim.get(d, ()):
            mask = 0
            for f in k.facets[s]:
                mask |= 1 << index[f]
            rows.append(mask)
        ranks[d] = gf2_rank(rows)
    betti = []
    for d in range(n + 1):
        nd = len(k.by_dim.get(d, ()))
        betti.append(nd - ranks.get(d, 0) - ranks.get(d + 1, 0))
    return BettiProfile(tuple(betti), k.euler)
