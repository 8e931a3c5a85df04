"""The value records' contract: fields, repr text, immutability, truthiness,
and the modules a CLI import pulls in."""

import subprocess
import sys
from pathlib import Path

import pytest

from snapcomplex.complexes import PathReport, StructureReport
from snapcomplex.reports import CheckRecord, Report
from snapcomplex.topology import BettiProfile, CollapseBatch, CollapseSequence, CollapseStep, ValidationResult
from snapcomplex.witness import Classification, TraceForm, WitnessTable

T = WitnessTable([((0,), ())])
U = WitnessTable([((0, 1), ())])
T_TEXT, U_TEXT = "WitnessTable([[[0],[]]])", "WitnessTable([[[0,1],[]]])"
STEP_TEXT = f"CollapseStep(free={T_TEXT}, coface={U_TEXT})"

# (record, its field names, its repr, its truth); the texts are those the
# records printed when they were frozen dataclasses, so the conversion keeps
# them, and only a failing verdict is falsy
RECORDS = [
    (Classification("invalid", "P1"), ("kind", "violated"), "Classification(kind='invalid', violated='P1')", False),
    (
        TraceForm(frozenset({0}), frozenset({1}), ((0, (0,)), (1, ()))),
        ("active", "ghosts", "traces"),
        "TraceForm(active=frozenset({0}), ghosts=frozenset({1}), traces=((0, (0,)), (1, ())))",
        True,
    ),
    (
        CheckRecord("incidence", "S={0}", True),
        ("check", "params", "ok", "counterexample"),
        "CheckRecord(check='incidence', params='S={0}', ok=True, counterexample=None)",
        True,
    ),
    (
        Report((CheckRecord("incidence", "S={0}", False, "x"),)),
        ("records",),
        "Report(records=(CheckRecord(check='incidence', params='S={0}', ok=False, counterexample='x'),))",
        True,
    ),
    (
        StructureReport(True, False, True, True, True, (("pseudomanifold", "pseudomanifold: x"),)),
        ("pure", "pseudomanifold", "boundary_matches", "strongly_connected", "reconstruction_injective", "failures"),
        "StructureReport(pure=True, pseudomanifold=False, boundary_matches=True, strongly_connected=True, "
        "reconstruction_injective=True, failures=(('pseudomanifold', 'pseudomanifold: x'),))",
        True,
    ),
    (
        PathReport(True, 3, ("a", "b")),
        ("ok", "edges", "endpoints", "counterexample"),
        "PathReport(ok=True, edges=3, endpoints=('a', 'b'), counterexample=None)",
        True,
    ),
    (CollapseStep(T, U), ("free", "coface"), STEP_TEXT, True),
    (
        CollapseBatch(1, (0,), (), 0, 2),
        ("stage", "first", "forced", "start", "stop"),
        "CollapseBatch(stage=1, first=(0,), forced=(), start=0, stop=2)",
        True,
    ),
    (
        CollapseSequence((CollapseStep(T, U),), (U,)),
        ("steps", "residual", "batches"),
        f"CollapseSequence(steps=({STEP_TEXT},), residual=({U_TEXT},), batches=())",
        True,
    ),
    (
        ValidationResult(False, 2, "coface is not maximal"),
        ("ok", "failed_index", "reason"),
        "ValidationResult(ok=False, failed_index=2, reason='coface is not maximal')",
        False,
    ),
    (BettiProfile((1, 0), 1), ("betti", "euler"), "BettiProfile(betti=(1, 0), euler=1)", True),
]


@pytest.mark.parametrize("record, names, text, truth", RECORDS, ids=[type(row[0]).__name__ for row in RECORDS])
def test_record_contract(record, names, text, truth):
    assert type(record).__match_args__ == names  # the field names, in order, for either record idiom
    assert repr(record) == text
    for name in names:
        getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert bool(record) is truth


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S keeps site-packages and their .pth files out, so only the package's own imports count
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import snapcomplex.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
