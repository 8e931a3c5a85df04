import json
import random
from itertools import groupby
from operator import itemgetter

import pytest

from snapcomplex import (
    BettiProfile,
    CollapseSequence,
    RoundCounter,
    WitnessTable,
    build,
    collapse_pair,
    collapse_to_point,
    homology_gf2,
    validate_collapse,
)
from snapcomplex import topology
from snapcomplex.complexes import Complex, undelta_v
from snapcomplex.decomposition import StratumId, stratum
from snapcomplex.errors import PreconditionViolation
from snapcomplex.topology import CollapseBatch, CollapseStep, ValidationResult
from tests.helpers import (
    betti_of_simplex_set,
    collapse_json_oracle,
    collapse_plan_oracle,
    counters_with,
    gf2_rank_low_pivot,
    sorted_subsets,
)
from tests.test_acceptance import CORPUS_COLLAPSE
from tests.test_complexes import CORPUS_STRUCT


def test_collapse_pair_two_process():
    r = RoundCounter.of(1, 1)
    seq = collapse_pair(r, 0)
    assert len(seq.steps) == 3
    assert {s.key for s in seq.residual} == {
        WitnessTable([((), {0, 1})]).key,
        WitnessTable([({0}, {1}), ({0}, ())]).key,
    }
    assert validate_collapse(build(r), seq)


def test_collapse_pair_removes_exactly_interiors():
    for values in [(1, 1), (1, 1, 1), (2, 1), (1, 0)]:
        r = RoundCounter.of(*values)
        k = build(r)
        for p in sorted(r.support):
            seq = collapse_pair(r, p)
            assert validate_collapse(k, seq), (values, p)
            expected = {s for s in k.simplices if s.g(0) in (frozenset(), frozenset({p}))}
            assert set(k.simplices) - set(seq.residual) == expected, (values, p)


def test_collapse_pair_single_process_base():
    r = RoundCounter.of(3)
    seq = collapse_pair(r, 0)
    assert len(seq.steps) == 1
    assert seq.steps[0].free == WitnessTable([((), {0})])
    assert seq.residual == ()
    assert validate_collapse(build(r), seq)
    with pytest.raises(PreconditionViolation):
        collapse_pair(r, 4)


def test_collapse_pair_batches_respect_forced_ghost_order():
    for values in [(1, 1, 1), (2, 1)]:
        r = RoundCounter.of(*values)
        for p in sorted(r.support):
            seq = collapse_pair(r, p)
            for stage in (1, 2):
                sizes = [len(b.forced) for b in seq.batches if b.stage == stage]
                assert sizes == sorted(sizes), (values, p, stage)


def test_collapse_pair_batches_run_in_the_stated_order():
    # stage 1 is sorted by (|A|, S, A); stage 2 takes S in subsets order, each
    # S's batches together, and |A| never decreases within one S
    for r in CORPUS_COLLAPSE:
        order = {s: i for i, s in enumerate(sorted_subsets(r.active))}
        for p in sorted(r.support):
            batches = collapse_pair(r, p).batches
            one = [(b.first, b.forced) for b in batches if b.stage == 1]
            assert one == sorted(one, key=lambda sa: (len(sa[1]), sa[0], sa[1])), (r, p)
            two = [(b.first, b.forced) for b in batches if b.stage == 2]
            firsts = [s for s, _ in groupby(two, key=itemgetter(0))]
            assert firsts == sorted(set(firsts), key=order.get), (r, p)
            for s in firsts:
                sizes = [len(a) for first, a in two if first == s]
                assert sizes == sorted(sizes), (r, p, s)
    # but |A| may drop from one S to the next
    two = [(b.first, b.forced) for b in collapse_pair(RoundCounter.of(1, 1, 1, 1), 0).batches if b.stage == 2]
    i = two.index(((0, 1, 2), (2,)))
    assert two[i + 1] == ((0, 1, 3), ())


def test_collapse_to_point_examples():
    r = RoundCounter.of(1, 1)
    seq = collapse_to_point(r)
    assert len(seq.steps) == 3
    dims = sorted(s.dim for s in seq.residual)
    assert dims == [-1, 0]
    assert seq.residual[-1].color == 0

    simplex = collapse_to_point(RoundCounter.of(0, 0, 0))
    assert len(simplex.steps) == (2**3 - 2) // 2

    three = collapse_to_point(RoundCounter.of(1, 1, 1))
    assert len(three.steps) == 24
    assert validate_collapse(build(RoundCounter.of(1, 1, 1)), three)


def test_collapse_to_point_point_complex():
    r = RoundCounter.of(2)
    seq = collapse_to_point(r)
    assert seq.steps == ()
    assert len(seq.residual) == 2
    assert validate_collapse(build(r), seq)


def test_validate_rejects_reordered_steps():
    r = RoundCounter.of(1, 1)
    k = build(r)
    seq = collapse_to_point(r)
    swapped = CollapseSequence((seq.steps[1], seq.steps[0]) + seq.steps[2:], seq.residual)
    bad = validate_collapse(k, swapped)
    assert not bad
    assert bad.failed_index == 0
    # a pair that does not even cover
    junk = CollapseSequence(
        (CollapseStep(seq.steps[0].free, seq.steps[1].coface),) + seq.steps[1:], seq.residual
    )
    assert not validate_collapse(k, junk)


def test_validate_rejects_a_step_on_an_unknown_or_removed_simplex():
    r = RoundCounter.of(1, 1)
    k = build(r)
    seq = collapse_to_point(r)
    stranger = build(RoundCounter.of(1, 1, 1)).tops[0]
    unknown = (CollapseStep(stranger, seq.steps[0].coface),) + seq.steps
    repeated = seq.steps[:2] + seq.steps[1:]
    for steps, index in ((unknown, 0), (repeated, 2)):
        bad = validate_collapse(k, CollapseSequence(steps, seq.residual))
        assert bad == ValidationResult(False, index, "step names a removed or unknown simplex"), index


def test_locate_names_a_step_outside_every_batch_by_its_index():
    seq = collapse_to_point(RoundCounter.of(1, 1, 1))
    assert seq.locate(11) == "step 11 (stage 2, S={0,1,2}, A={})"
    assert seq.locate(len(seq.steps)) == f"step {len(seq.steps)}"
    assert CollapseSequence(seq.steps, seq.residual).locate(11) == "step 11"


def test_validate_checks_residual():
    r = RoundCounter.of(1, 1)
    k = build(r)
    seq = collapse_to_point(r)
    lying = CollapseSequence(seq.steps, seq.steps and seq.residual[:1])
    assert not validate_collapse(k, lying)


def test_collapse_matches_step_count_formula():
    for values in [(1, 1), (1, 1, 1), (2, 1), (1, 0), (2, 0)]:
        r = RoundCounter.of(*values)
        k = build(r)
        seq = collapse_to_point(r)
        assert validate_collapse(k, seq)
        assert len(seq.steps) == (len(k.simplices) - 1 - 1) // 2
        assert sorted(s.dim for s in seq.residual) == [-1, 0]


def test_gf2_rank_low_pivot():
    # the oracle's own elimination, which the homology oracle ranks by
    assert gf2_rank_low_pivot([]) == 0
    assert gf2_rank_low_pivot([0b101, 0b011, 0b110]) == 2
    assert gf2_rank_low_pivot([0b1, 0b10, 0b100]) == 3


def test_homology_matches_the_ghosting_oracle():
    for r in CORPUS_STRUCT:
        k = build(r)
        oracle = betti_of_simplex_set(k.simplices)
        assert homology_gf2(k).betti == oracle + (0,) * (k.dim + 1 - len(oracle)), r


def test_homology_examples():
    assert homology_gf2(build(RoundCounter.of(1, 1, 1))) == BettiProfile((1, 0, 0), 1)
    assert homology_gf2(build(RoundCounter.of(2, 1))) == BettiProfile((1, 0), 1)
    assert homology_gf2(build(RoundCounter.of(0, 0, 0))) == BettiProfile((1, 0, 0), 1)


def test_homology_of_the_empty_complex():
    # the empty counter's complex is the empty simplex alone: no chain group
    assert homology_gf2(build(RoundCounter.parse("x"))) == BettiProfile((), 0)


def _restricted(k, keep):
    """The subcomplex of k on the simplices that ``keep(simplex, dim)``
    accepts, which must be closed under faces."""
    levels = tuple(tuple(s for s in level if keep(s, d)) for d, level in k.by_dim.items())
    members = {s for level in levels for s in level}
    return Complex(k.counter, levels, {s: k.facets[s] for s in members})


def _boundary(s, d):
    return d < 0 or bool(s.g(0))


@pytest.mark.parametrize(
    "values, keep, betti",
    [
        ((1, 1, 1), _boundary, (1, 1, 0)),
        ((2, 2, 1), _boundary, (1, 1, 0)),
        ((1, 1, 1, 1), _boundary, (1, 0, 1, 0)),
        ((1, 1, 1), lambda s, d: d <= 1, (1, 13, 0)),
    ],
    ids=["boundary-111", "boundary-221", "boundary-1111", "skeleton1-111"],
)
def test_homology_of_subcomplexes_that_are_not_acyclic(values, keep, betti):
    # the boundary {G_0 != {}} of a complex is a sphere; the 1-skeleton of
    # 1,1,1 is a graph with 12 vertices and 24 edges
    k = _restricted(build(RoundCounter.of(*values)), keep)
    prof = homology_gf2(k)
    assert prof.betti == betti
    oracle = betti_of_simplex_set(k.simplices)
    assert prof.betti == oracle + (0,) * (len(betti) - len(oracle))
    assert prof.euler == k.euler == sum((-1) ** i * b for i, b in enumerate(betti))


def test_homology_euler_consistency():
    for values in [(1, 1), (1, 1, 1), (2, 2), (1, 1, 0)]:
        k = build(RoundCounter.of(*values))
        prof = homology_gf2(k)
        assert prof.euler == sum((-1) ** i * b for i, b in enumerate(prof.betti))


def test_collapse_prefixes_preserve_homology():
    r = RoundCounter.of(1, 1, 1)
    k = build(r)
    seq = collapse_to_point(r)
    rng = random.Random(11)
    alive = set(k.simplices)
    prefix_cuts = sorted(rng.sample(range(1, len(seq.steps)), 3))
    done = 0
    for cut in prefix_cuts:
        for step in seq.steps[done:cut]:
            alive.discard(step.free)
            alive.discard(step.coface)
        done = cut
        betti = betti_of_simplex_set(alive)
        assert betti + (0,) * (3 - len(betti)) == (1, 0, 0)


def test_collapse_sequence_json():
    seq = collapse_to_point(RoundCounter.of(1, 1))
    obj = json.loads(seq.to_json())
    assert len(obj["steps"]) == 3
    assert set(obj["steps"][0]) == {"free", "coface"}
    assert len(obj["residual"]) == 2


def test_collapse_json_matches_object_tree_oracle():
    for values in [(1, 1), (2, 1, 1), (1, 1, 1, 1), (2, 2, 1)]:
        seq = collapse_to_point(RoundCounter.of(*values))
        assert seq.to_json() == collapse_json_oracle(seq), values
    # no steps (a point complex), and no residual (a one-process pair)
    for seq in (collapse_to_point(RoundCounter.of(2)), collapse_pair(RoundCounter.of(3), 0)):
        assert seq.to_json() == collapse_json_oracle(seq)


def _oracle_corpus():
    return counters_with(3, 4) + [RoundCounter.of(1, 1, 1, 1)]


def test_collapse_pair_matches_unmemoized_plan():
    for r in _oracle_corpus():
        for p in sorted(r.support):
            seq = collapse_pair(r, p)
            steps, batches = collapse_plan_oracle(r, p)
            assert seq.steps == tuple(steps), (r, p)
            assert seq.batches == tuple(batches), (r, p)


def _pieces_oracle(r):
    """collapse_to_point rebuilt from the unmemoized plan: for each W in
    ``sorted_subsets(support - {x})`` but the last, the plan of r - W for
    x = min(support), moved onto B_W, its batches shifted and naming V = W."""
    x = min(r.support)
    steps = []
    batches = []
    for w in sorted_subsets(r.support - {x})[:-1]:
        plan, plan_batches = collapse_plan_oracle(r.delete(w), x)
        shift = len(steps)
        steps += [CollapseStep(undelta_v(st.free, w), undelta_v(st.coface, w)) for st in plan]
        batches += [CollapseBatch(b.stage, b.first, b.forced, b.start + shift, b.stop + shift, w) for b in plan_batches]
    return steps, batches


def test_collapse_to_point_matches_the_piece_by_piece_oracle():
    for r in _oracle_corpus():
        seq = collapse_to_point(r)
        steps, batches = _pieces_oracle(r)
        assert seq.steps == tuple(steps), r
        assert seq.batches == tuple(batches), r


def test_each_collapse_step_lies_in_its_piece_and_stratum():
    # piece V removes the cells G_0 = V and G_0 = V + {x}; a stage 1-3 step
    # of batch (S, A) lies in the stratum X_{S,A,V}
    for r in _oracle_corpus():
        k = build(r)
        seq = collapse_to_point(r)
        x = min(r.support)
        covered = 0
        for b in seq.batches:
            v = frozenset(b.round0)
            part = stratum(k, StratumId(b.first, b.forced, v)) if b.stage else None
            for step in seq.steps[b.start:b.stop]:
                for t in step:
                    assert t.g(0) in (v, v | {x}), (r, b, t)
                    assert part is None or t in part, (r, b, t)
            covered += b.stop - b.start
        assert covered == len(seq.steps), r


def test_a_failed_step_names_its_piece(capsys, monkeypatch):
    # steps 18-20 of 1,1,1 are the piece B_{1}; swapping 18 and 19 puts a
    # stage 2 step before the stage 1 step that frees it
    from snapcomplex import cli

    r = RoundCounter.of(1, 1, 1)
    seq = collapse_to_point(r)
    assert [b.round0 for b in seq.batches if b.start >= 18 and b.stop <= 21] == [(1,)] * 3
    steps = list(seq.steps)
    steps[18], steps[19] = steps[19], steps[18]
    swapped = CollapseSequence(tuple(steps), seq.residual, seq.batches)
    where = "free face has another surviving coface at step 18 (stage 1, S={2}, A={}, V={1})"
    assert topology.collapse_failure(build(r), swapped) == where
    monkeypatch.setattr(topology, "collapse_to_point", lambda r: swapped)
    assert cli.main(["verify", "--counter", "1,1,1", "--checks", "collapse"]) == 1
    assert capsys.readouterr().out == f"collapse: FAIL (1,1,1) counterexample={where}\n"


@pytest.mark.slow
def test_collapse_to_point_on_every_counter_of_four_processes_and_six_rounds():
    for r in counters_with(4, 6):
        assert topology.collapse_failure(build(r), collapse_to_point(r)) is None, r
