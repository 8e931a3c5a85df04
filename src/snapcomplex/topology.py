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
(sub-counter, p) pairs many times, so one top-level call memoizes each plan
and transports it once.  ``collapse_to_point`` is one schedule: the same
lemma, with p the least process x, runs on every round-0 boundary piece
B_W (W not holding x, smallest first, the vertex of x left), each plan moved
onto its piece by ``complexes.undelta_v``, so every step sits in a lemma
batch (stage, S, A, V).  An independent replay validator is the arbiter of
legality.  ``homology_gf2`` ranks the boundary matrices by one sparse
reduction with clearing.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import PreconditionViolation
from .rounds import RoundCounter, id_set_text, subsets
from .complexes import Complex, build, undelta_v
from .decomposition import rho_sa
from .witness import WitnessTable, keys


class CollapseStep(NamedTuple):
    free: WitnessTable
    coface: WitnessTable


class CollapseBatch(NamedTuple):
    stage: int  # 0 base case, 1..3 lemma stages
    first: tuple  # S of the stratum pair
    forced: tuple  # A of the stratum pair
    start: int
    stop: int
    round0: tuple = ()  # V: the boundary piece B_V the batch was moved onto


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
        """Name step index with the stage and stratum batch (S, A, V) that
        made it; V is left out when it is empty."""
        for b in self.batches:
            if b.start <= index < b.stop:
                v = f", V={id_set_text(b.round0)}" if b.round0 else ""
                return f"step {index} (stage {b.stage}, S={id_set_text(b.first)}, A={id_set_text(b.forced)}{v})"
        return f"step {index}"

    def to_json(self) -> str:
        """{"residual": [key, ...], "steps": [{"coface", "free"}, ...]} over
        ``witness.keys``, by ``json.dumps(..., sort_keys=True,
        separators=(",", ":"))``.  Only ``collapse --format json`` and
        ``collapse --out`` write it, so it is not worth writing by hand, as
        ``complexes.complex_json_pieces`` is."""
        key = keys([t for s in self.steps for t in (s.free, s.coface)] + list(self.residual))
        steps = [{"coface": key[s.coface], "free": key[s.free]} for s in self.steps]
        doc = {"residual": [key[s] for s in self.residual], "steps": steps}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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


def _residual(k: Complex, steps) -> tuple:
    """The simplices of k that no step removes, in ``simplices`` order."""
    removed = {s for step in steps for s in (step.free, step.coface)}
    return tuple(s for s in k.simplices if s not in removed)


def collapse_pair(r: RoundCounter, p: int) -> CollapseSequence:
    """Collapse away the interior and the interior of the p-boundary piece."""
    if p not in r.support:
        raise PreconditionViolation(f"process {p} is not in the support")
    steps, batches = _collapse_plan(r, p, {})
    return CollapseSequence(tuple(steps), _residual(build(r), steps), tuple(batches))


def collapse_to_point(r: RoundCounter) -> CollapseSequence:
    """Collapse the whole complex down to the vertex of x = min(support)
    (plus the empty simplex), one round-0 boundary piece B_W at a time.

    For each W ⊆ support − {x} in ``rounds.subsets`` order but the last
    (W = support − {x}, whose piece is the vertex of x), the plan
    ``_collapse_plan(r.delete(W), x)`` is moved onto B_W by
    ``complexes.undelta_v(·, W)``.  Each step is legal:

    * the plan removes exactly the simplices of K_{r−W} whose G_0 is ∅ or
      {x}, and ``undelta_v(·, W)`` is the isomorphism K_{r−W} ≅ B_W, so
      piece W removes the two cells G_0 = W and G_0 = W ∪ {x};
    * a coface never has a larger G_0 than its face, so every other coface
      of a step's free face lies in a cell G_0 = W′ or W′ ∪ {x} with
      W′ ⊊ W, which an earlier, smaller piece has already removed;
    * this is the cone collapse of the simplex's face poset, one cell pair
      at a time, and it leaves the vertex of x and the empty simplex.

    The pieces share one plan memo: for an active W disjoint from S,
    ``r.delete(W).reduce(S, A)`` is ``r.reduce(S ∪ W, A ∪ W)``.  A piece's
    batches keep their stage, S and A, name V = W, and are shifted to its
    steps.
    """
    k = build(r)
    if not r.support:  # the empty simplex alone: there is no vertex to keep
        return CollapseSequence((), k.simplices, ())
    x = min(r.support)
    memo = {}
    steps = []
    batches = []
    for w in subsets(r.support - {x})[:-1]:
        plan, plan_batches = _collapse_plan(r.delete(w), x, memo)
        shift = len(steps)
        if w:
            steps.extend(CollapseStep(undelta_v(st.free, w), undelta_v(st.coface, w)) for st in plan)
        else:
            steps.extend(plan)
        batches.extend(b._replace(start=b.start + shift, stop=b.stop + shift, round0=w) for b in plan_batches)
    return CollapseSequence(tuple(steps), _residual(k, steps), tuple(batches))


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
    (S, A, V) batch) it names if it names one, or ``bad residual``."""
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


def homology_gf2(k: Complex) -> BettiProfile:
    """Non-reduced mod-2 Betti numbers from the facet incidences.

    The empty simplex is excluded from the chain groups, so b_0 counts
    connected components.  Each simplex is its position in ``k.by_dim[d]``,
    and the row of a d-simplex is the set of its facets' positions, led by
    the largest.  The boundary matrices are reduced from the top dimension
    down, each by one dict from lead to reduced row: a row is XORed with the
    stored row of its lead until its lead is new or the row is empty, and
    rank_d is the number of stored rows.

    Clearing skips every d-simplex that led a reduced row of ∂_{d+1}.  This
    is exact: the reduced rows of ∂_{d+1} together with the unit vectors of
    the d-simplices that are not leads form a basis of C_d, and ∂_d kills
    the reduced rows, so the other d-simplices' rows span im ∂_d.  That holds
    for any echelon reduction, whatever its order.
    """
    n = k.dim
    if n < 0:
        return BettiProfile((), 0)
    ranks = {}
    leads = ()  # positions in by_dim[d] of the leads of ∂_{d+1}
    for d in range(n, 0, -1):
        pos = {f: i for i, f in enumerate(k.by_dim[d - 1])}
        pivots = {}
        for j, s in enumerate(k.by_dim[d]):
            if j in leads:
                continue
            row = {pos[f] for f in k.facets[s]}
            while row:
                lead = max(row)
                if lead not in pivots:
                    pivots[lead] = row
                    break
                row ^= pivots[lead]
        ranks[d] = len(pivots)
        leads = set(pivots)
    betti = tuple(len(k.by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d in range(n + 1))
    return BettiProfile(betti, k.euler)
