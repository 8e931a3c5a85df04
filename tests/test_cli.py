import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snapcomplex import RoundCounter, chromatic_check, cli, decomposition
from snapcomplex.cli import main
from snapcomplex.errors import PreconditionViolation
from snapcomplex.reports import CheckRecord, Report
from tests.helpers import counters_with, levels_with, vertex_set, vertices, without_second_coface


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_output(capsys):
    code, out, _ = run(capsys, "count", "--counter", "1,1,1")
    assert code == 0
    assert out == "recursion=13 enumeration=13 ok\n"


def test_count_json_output(capsys, monkeypatch):
    code, out, _ = run(capsys, "count", "--counter", "1,1,1", "--format", "json")
    assert (code, out) == (0, '{"check":"count","counterexample":null,"ok":true,"params":"1,1,1"}\n')
    monkeypatch.setattr(cli.counting, "f_top", lambda values: 12)
    code, out, _ = run(capsys, "count", "--counter", "1,1,1", "--format", "json")
    assert code == 1
    assert out == '{"check":"count","counterexample":"recursion=12 enumeration=13","ok":false,"params":"1,1,1"}\n'


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "snapcomplex.cli", "count", "--counter", "1,1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "recursion=3 enumeration=3 ok\n"


def test_verify_small_counter_passes(capsys):
    code, out, _ = run(capsys, "verify", "--counter", "1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.startswith("pure: ok") for line in lines)
    assert any(line.startswith("chromatic: ok") for line in lines)
    assert any("skipped" in line and line.startswith("cone") for line in lines)
    assert not any("FAIL" in line for line in lines)


def test_verify_json_records(capsys):
    code, out, _ = run(capsys, "verify", "--counter", "1,1", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert {rec["check"] for rec in records} >= {"pure", "pseudo", "collapse", "homology"}
    assert all(set(rec) == {"check", "params", "ok", "counterexample"} for rec in records)
    assert all(rec["ok"] for rec in records)


def test_verify_check_subset_and_unknown(capsys):
    code, out, _ = run(capsys, "verify", "--counter", "1,1", "--checks", "pure,homology")
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    code, _, err = run(capsys, "verify", "--counter", "1,1", "--checks", "pure,bogus")
    assert code == 2
    assert "bogus" in err


def test_verify_cone_applicable(capsys):
    code, out, _ = run(capsys, "verify", "--counter", "1,0", "--checks", "cone")
    assert code == 0
    assert out.startswith("cone: ok")


def test_verify_chromatic_skips_a_counter_that_is_not_0_1(capsys):
    code, out, _ = run(capsys, "verify", "--counter", "2,1", "--checks", "chromatic")
    assert (code, out) == (0, "chromatic: skipped (counter is not 0/1-valued)\n")
    code, out, _ = run(capsys, "verify", "--counter", "2,1", "--checks", "chromatic", "--format", "json")
    assert (code, out) == (
        0,
        '{"check":"chromatic","counterexample":null,"ok":true,"params":"skipped: counter is not 0/1-valued"}\n',
    )


def test_chromatic_skips_exactly_where_its_check_raises():
    skip = cli.CHECKS["chromatic"][0]
    for r in counters_with(3, 4):
        try:
            chromatic_check(r)
            raised = False
        except PreconditionViolation:
            raised = True
        assert (skip(r) is not None) == raised, r


def test_report_checks_show_their_first_failed_record(capsys, monkeypatch):
    rep = Report((CheckRecord("law", "a", True), CheckRecord("law", "b", False, "x"), CheckRecord("law", "c", False, "y")))
    for name in ("verify_incidence", "verify_diagrams", "strata_partition"):
        monkeypatch.setattr(decomposition, name, lambda _: rep)
    code, out, _ = run(capsys, "verify", "--counter", "1,1", "--checks", "incidence,diagrams,partition")
    assert code == 1
    assert out == (
        "incidence: FAIL (1,1) counterexample=law b\n"
        "diagrams: FAIL (1,1) counterexample=law b\n"
        "partition: FAIL (1,1) counterexample=b\n"
    )


def test_a_stratum_member_the_maps_reject_fails_its_checks(capsys, monkeypatch):
    # X_{{0,1},{0}} of 1,1,1 rigged to hold a top that gamma rejects: each
    # verifier replaying a law on it reports a failure instead of raising.
    # verify_incidence reads the class masks, not stratum, so it stays ok
    from snapcomplex import complexes

    r = RoundCounter.of(1, 1, 1)
    k, sid = complexes.build(r), decomposition.StratumId({0, 1}, {0})
    real = decomposition.stratum
    monkeypatch.setattr(
        decomposition, "stratum", lambda kk, s: real(kk, s) | {k.tops[0]} if kk is k and s == sid else real(kk, s)
    )
    code, out, err = run(capsys, "verify", "--counter", "1,1,1", "--checks", "incidence,diagrams,partition")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["incidence", "diagrams", "partition"]
    assert lines[0] == "incidence: ok (1,1,1)"
    assert lines[1].startswith("diagrams: FAIL") and lines[2].startswith("partition: FAIL")
    assert not decomposition.verify_stratum_iso(r, sid)


def test_build_point_complex(capsys):
    code, out, _ = run(capsys, "build", "--counter", "1,x")
    assert code == 0
    assert "f_vector=1,1" in out
    assert "counter=1\n" in out  # trailing non-participants drop out of the text form


def test_build_json_and_out_file(tmp_path, capsys):
    out_file = tmp_path / "complex.json"
    code, out, _ = run(capsys, "build", "--counter", "1,1", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["f_vector"] == [1, 4, 3]
    code, out, _ = run(capsys, "build", "--counter", "1,1", "--format", "json")
    assert json.loads(out)["f_vector"] == [1, 4, 3]


def test_json_writes_are_complex_to_json(tmp_path, capsys):
    # build and export write the JSON piece by piece, to stdout and to --out
    from snapcomplex import build, complex_to_json

    want = complex_to_json(build(RoundCounter.of(2, 1, 1))) + "\n"
    out_file = tmp_path / "complex.json"
    for command in ("build", "export"):
        code, out, _ = run(capsys, command, "--counter", "2,1,1", "--format", "json")
        assert (code, out) == (0, want), command
        code, out, _ = run(capsys, command, "--counter", "2,1,1", "--out", str(out_file))
        assert code == 0 and out_file.read_text(encoding="utf-8") == want, command


def test_bad_counter_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--counter", "1,y,2")
    assert code == 2
    assert "position 1" in err
    code, _, _ = run(capsys, "nosuchcommand", "--counter", "1")
    assert code == 2
    code, _, err = run(capsys, "verify", "--counter", "x")
    assert code == 2 and "empty counter" in err
    # degenerate counters still build and count
    code, out, _ = run(capsys, "count", "--counter", "x")
    assert code == 0 and out == "recursion=1 enumeration=1 ok\n"


def test_unreadable_counter_tokens_are_usage_errors(capsys):
    # non-ASCII digits (once read as 1,1 or a traceback) and a token longer than int reads
    for text in ("²,1", "١,1", "9" * 5000 + ",1"):
        code, out, err = run(capsys, "count", "--counter", text)
        assert (code, out) == (2, ""), text
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_memory_error_is_a_usage_error(capsys, monkeypatch):
    from snapcomplex import complexes

    def exhausted(r):
        raise MemoryError

    monkeypatch.setattr(complexes, "build", exhausted)
    want = (2, "", "error: counter 1,1 needs more memory than is available\n")
    assert run(capsys, "build", "--counter", "1,1") == want


def test_collapse_command(tmp_path, capsys):
    out_file = tmp_path / "collapse.json"
    code, out, _ = run(capsys, "collapse", "--counter", "1,1", "--out", str(out_file))
    assert code == 0
    assert "steps=3 residual=2 valid=true" in out
    payload = json.loads(out_file.read_text())
    assert len(payload["steps"]) == 3
    # the empty counter's complex is the empty simplex alone: no vertex to collapse to
    assert run(capsys, "collapse", "--counter", "x") == (1, "steps=0 residual=1 valid=false\n", "error: bad residual\n")


def test_export_formats(capsys):
    code, out, _ = run(capsys, "export", "--counter", "1,1", "--format", "dot")
    assert code == 0
    assert out.startswith("graph dual {")
    code, out, _ = run(capsys, "export", "--counter", "1,1", "--format", "json")
    assert json.loads(out)["f_vector"] == [1, 4, 3]


# sha256 of each artifact of 1,1, with its final newline
ARTIFACT_SHA256 = {
    "complex": "b28684dbe1c823b99365f2458c0446246b26cad43ffcb311d27d21c98b04ebff",
    "collapse": "ba6c244ed8539dbd2b9f640ff3dd837f702242ddacc56e89e90a8afad18297ba",
    "dot": "db217dc4dd58acfbd7eb8698b0b9f89ec47de3cc869e0ee5f5792e6c72bea2c1",
}
SUMMARY = {
    "build": "counter=1,1\nf_vector=1,4,3\nsimplices=8 tops=3 dim=1\n",
    "collapse": "steps=3 residual=2 valid=true\n",
}
# (command, --format, --out given) -> (what stdout holds, what the file holds):
# --out gets the artifact and stdout the summary; otherwise a format other
# than text puts the artifact on stdout; otherwise stdout gets the summary
ARTIFACT_ROUTES = [
    ("build", "text", False, "summary", None),
    ("build", "json", False, "complex", None),
    ("build", "text", True, "summary", "complex"),
    ("build", "json", True, "summary", "complex"),
    ("collapse", "text", False, "summary", None),
    ("collapse", "json", False, "collapse", None),
    ("collapse", "text", True, "summary", "collapse"),
    ("collapse", "json", True, "summary", "collapse"),
    ("export", "json", False, "complex", None),
    ("export", "dot", False, "dot", None),
    ("export", "json", True, None, "complex"),
    ("export", "dot", True, None, "dot"),
]


@pytest.mark.parametrize(
    "command, fmt, to_file, stdout, artifact",
    ARTIFACT_ROUTES,
    ids=[f"{c}-{f}-{'out' if o else 'stdout'}" for c, f, o, _, _ in ARTIFACT_ROUTES],
)
def test_where_each_artifact_goes(command, fmt, to_file, stdout, artifact, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--counter", "1,1", "--format", fmt, *(["--out", "F"] if to_file else []))
    assert (code, err) == (0, "")
    if stdout in ARTIFACT_SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == ARTIFACT_SHA256[stdout]
    else:
        assert out == (SUMMARY[command] if stdout == "summary" else "")
    if artifact is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert [f.name for f in tmp_path.iterdir()] == ["F"]
        assert hashlib.sha256((tmp_path / "F").read_bytes()).hexdigest() == ARTIFACT_SHA256[artifact]


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "verify", "--counter", "1,1", "--format", "json")
    _, second, _ = run(capsys, "verify", "--counter", "1,1", "--format", "json")
    assert first == second


def test_verify_other_counters_pass(capsys):
    for counter in ("1,1,1", "1,0", "0,0,2", "2"):
        code, out, _ = run(capsys, "verify", "--counter", counter)
        assert code == 0, (counter, out)


def test_failing_check_sets_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(cli.CHECKS, "pure", (None, lambda r, structure: "some-simplex-key"))
    code, out, _ = run(capsys, "verify", "--counter", "1,1", "--checks", "pure,homology")
    assert code == 1
    assert out == "pure: FAIL (1,1) counterexample=some-simplex-key\nhomology: ok (1,1)\n"


def test_verify_runs_structural_checks_once(capsys, monkeypatch):
    from snapcomplex import complexes

    calls = []
    real = complexes.structural_checks

    def counted(k):
        calls.append(k)
        return real(k)

    monkeypatch.setattr(complexes, "structural_checks", counted)
    for runs in (1, 2):  # once per run: a second run does not reuse the first run's report
        code, _, _ = run(capsys, "verify", "--counter", "1,1,1", "--checks", "pure,pseudo,connected,reconstruction")
        assert code == 0
        assert len(calls) == runs


def test_each_structural_check_shows_its_own_counterexample(capsys, monkeypatch):
    from snapcomplex import complexes

    k = complexes.build(RoundCounter.of(1, 1))
    twin = k.by_dim[0][0]  # a vertex listed twice; its cofacets stay those of one vertex
    rigged = complexes.Complex(k.counter, levels_with(k, twin), k.facets)
    monkeypatch.setattr(complexes, "build", lambda r: rigged)
    monkeypatch.setattr(complexes, "_dual_graph_connected", lambda _: False)
    code, out, _ = run(capsys, "verify", "--counter", "1,1", "--checks", "connected,reconstruction,pure")
    assert code == 1
    assert out == (
        "connected: FAIL (1,1) counterexample=dual graph disconnected\n"
        f"reconstruction: FAIL (1,1) counterexample=reconstruction: {twin.key} vs {twin.key}\n"
        "pure: ok (1,1)\n"
    )
    assert complexes.structural_checks(rigged).counterexample == "dual graph disconnected"


def test_verify_with_no_checks_named_is_a_usage_error(capsys):
    for checks in (",", " , ,", ""):
        assert run(capsys, "verify", "--counter", "1,1", "--checks", checks) == (2, "", "error: no checks requested\n")


# argv (after the subcommand's --counter) that name an option the subcommand does not read
UNREAD_OPTIONS = (
    ("verify", "--out", "F"),
    ("count", "--out", "F"),
    ("build", "--format", "dot"),
    ("count", "--format", "dot"),
    ("verify", "--format", "dot"),
    ("collapse", "--format", "dot"),
    ("export", "--format", "text"),
)


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=" ".join)
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    command, *rest = argv
    code, out, err = run(capsys, command, "--counter", "1,1", *rest)
    assert (code, out) == (2, "")
    assert err.startswith("usage: snapcomplex") and "error: " in err
    assert not (tmp_path / "F").exists()


def test_failed_collapse_names_step_stage_and_batch(capsys, monkeypatch):
    from snapcomplex import topology
    from snapcomplex.topology import CollapseSequence

    real = topology.collapse_to_point

    def swapped(r):
        seq = real(r)
        steps = list(seq.steps)
        steps[11], steps[12] = steps[12], steps[11]
        return CollapseSequence(tuple(steps), seq.residual, seq.batches)

    assert run(capsys, "collapse", "--counter", "1,1,1") == (0, "steps=24 residual=2 valid=true\n", "")
    monkeypatch.setattr(topology, "collapse_to_point", swapped)
    code, out, _ = run(capsys, "verify", "--counter", "1,1,1", "--checks", "collapse")
    assert code == 1
    where = "coface is not maximal at step 11 (stage 2, S={0,1,2}, A={})"
    assert out == f"collapse: FAIL (1,1,1) counterexample={where}\n"
    # the collapse command keeps its stdout and names the step on stderr
    assert run(capsys, "collapse", "--counter", "1,1,1") == (1, "steps=24 residual=2 valid=false\n", f"error: {where}\n")
    code, out, err = run(capsys, "collapse", "--counter", "1,1,1", "--format", "json")
    assert (code, err) == (1, f"error: {where}\n")
    assert out == swapped(RoundCounter.of(1, 1, 1)).to_json() + "\n"


def test_deep_counter_exits_cleanly():
    # exit 1 means a failed check; a counter too deep to build is a usage error
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (["count", "--counter", "1500"], ["build", "--counter", "1200"]):
        proc = subprocess.run(
            [sys.executable, "-m", "snapcomplex.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error:"), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv


def test_unwritable_out_is_a_usage_error(tmp_path):
    # exit 1 means a failed check; a file that cannot be opened is a usage error
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in ("build", "collapse", "export"):
        proc = subprocess.run(
            [sys.executable, "-m", "snapcomplex.cli", command, "--counter", "1,1", "--out", str(tmp_path / "missing" / "f")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), (command, proc.stderr)
        assert proc.stderr.startswith("error:"), (command, proc.stderr)
        assert "Traceback" not in proc.stderr, command


def test_closed_stdout_exits_1_without_traceback():
    # `snapcomplex build ... | head -c 10`: 261 KB of JSON overfill the pipe,
    # so the write after the reader closes it meets a broken pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "snapcomplex.cli", "build", "--counter", "2,2,2", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(4096).startswith(b'{"counter"')
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "", err  # no traceback


# sha256 of stdout for (command, counter, format) on counters too large for
# the default suite; a change to the witness kernel, the face order, the
# collapse schedule or the exports moves one of them
LARGE_SHA256 = {
    ("build", "2,2,2,1", "json"): "45d62f73b6598d7c678c2795ef8e35135c996b5ac04f20e5934c2b26e98f9652",
    ("export", "2,2,2,1", "dot"): "a560629283dca48fb30a5b3ce179907079a606a58d214a1e5a127f7bd507b535",
    ("collapse", "2,2,2,1", "json"): "ba78cc46311dcd3ef9dac634ce170417337f5ed852468e7faa53ce8f9405012b",
    ("collapse", "3,3,3", "json"): "34c8f9830896d60151ccb687af62cf5764f511122176e134eda92a894fcda25a",
}


@pytest.mark.slow
def test_verify_and_lattice_vertex_sets_on_large_counters():
    from snapcomplex import complexes

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for text in ("2,2,2,1", "1,1,1,1,1", "3,3,3", "2,2,2,2", "2,2,1,1,1"):
        proc = subprocess.run(
            [sys.executable, "-m", "snapcomplex.cli", "verify", "--counter", text],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, (text, proc.stdout, proc.stderr)
        assert "FAIL" not in proc.stdout, text
    for (command, text, fmt), want in LARGE_SHA256.items():
        proc = subprocess.run(
            [sys.executable, "-m", "snapcomplex.cli", command, "--counter", text, "--format", fmt],
            capture_output=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, (command, text, proc.stderr)
        assert hashlib.sha256(proc.stdout).hexdigest() == want, (command, text, fmt)
    for values in ((2, 2, 2, 1), (3, 3, 3)):
        k = complexes.build.__wrapped__(RoundCounter.of(*values))  # not kept in the build cache
        verts = complexes._vertex_sets(k)
        assert all(vertex_set(k, verts[s]) == vertices(s) for s in k.simplices), values


# runs cli.main in the child and reports that child's own peak resident set
_PEAK_CHILD = """
import sys
from snapcomplex.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.slow
def test_verify_fits_seven_processes():
    # 783 890 simplices; boundary rows packed into ints took homology to about 6 GB
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    checks = "pure,pseudo,connected,reconstruction,homology"
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, "verify", "--counter", "1,1,1,1,1,1,1", "--checks", checks],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert proc.stdout == "".join(f"{c}: ok (1,1,1,1,1,1,1)\n" for c in checks.split(","))
    peak_kb = int(proc.stderr.split()[-2])
    assert peak_kb < 1024 * 1024, f"peak {peak_kb} kB"


@pytest.mark.slow
def test_build_seven_processes_keeps_one_adjacency():
    # 783 890 simplices; a stored cofacet map beside the facets peaked at 446 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, "build", "--counter", "1,1,1,1,1,1,1"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    peak_kb = int(proc.stderr.split()[-2])
    assert peak_kb < 350 * 1024, f"peak {peak_kb} kB"


@pytest.mark.slow
def test_collapse_seven_processes():
    # one rho table per transported simplex: re-adding A through undelta_v
    # first peaked at 685 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, "collapse", "--counter", "1,1,1,1,1,1,1"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert proc.stdout == "steps=391944 residual=2 valid=true\n"
    peak_kb = int(proc.stderr.split()[-2])
    assert peak_kb < 700 * 1024, f"peak {peak_kb} kB"


def _rig_pseudo(monkeypatch):
    from snapcomplex import complexes

    rigged, ridge = without_second_coface(complexes.build(RoundCounter.of(1, 1, 1)))
    monkeypatch.setattr(complexes, "build", lambda r: rigged)
    return f"boundary: {ridge.key}"


def _rig_strata(monkeypatch):
    bad = decomposition.StratumId({1}, {1})
    monkeypatch.setattr(decomposition, "verify_stratum_iso", lambda r, sid: sid != bad)


def _rig_homology(monkeypatch):
    from snapcomplex import topology

    monkeypatch.setattr(topology, "homology_gf2", lambda k: topology.BettiProfile((1, 1, 0), 0))


def _rig_chromatic(monkeypatch):
    from snapcomplex import complexes

    monkeypatch.setattr(complexes, "chromatic_check", lambda r: False)


def _rig_cone(monkeypatch):
    from snapcomplex import complexes

    monkeypatch.setattr(complexes, "cone_check", lambda r, apex: False)


def _rig_collapse_sequence(edit):
    """A rig that passes each real collapse sequence through edit."""

    def rig(monkeypatch):
        from snapcomplex import topology

        real = topology.collapse_to_point
        monkeypatch.setattr(topology, "collapse_to_point", lambda r: edit(real(r)))

    return rig


def _without_last_step(seq):
    # the last pair kept in the residual: a legal replay whose residual is not a point
    from snapcomplex.topology import CollapseSequence

    last = seq.steps[-1]
    return CollapseSequence(seq.steps[:-1], seq.residual + (last.free, last.coface), seq.batches)


def _with_one_residual(seq):
    from snapcomplex.topology import CollapseSequence

    return CollapseSequence(seq.steps, seq.residual[:1], seq.batches)


# case -> (check, counter, rig, counterexample): the rig patches one layer
# function on its module, and returns the counterexample when it depends on
# the lattice
FAIL_LINES = {
    "pseudo": ("pseudo", "1,1,1", _rig_pseudo, None),
    "strata": ("strata", "1,1,1", _rig_strata, "StratumId(S=[1], A=[1], V=[])"),
    "homology": ("homology", "1,1,1", _rig_homology, "betti=(1, 1, 0) euler=0"),
    "chromatic": ("chromatic", "1,1", _rig_chromatic, "simplex sets differ"),
    "cone": ("cone", "1,1,0,0", _rig_cone, "apex=2"),
    "collapse-not-a-point": ("collapse", "1,1,1", _rig_collapse_sequence(_without_last_step), "bad residual"),
    "collapse-residual": (
        "collapse", "1,1,1", _rig_collapse_sequence(_with_one_residual), "residual does not match the replay"
    ),
}


# collapse case -> the collapse command's stdout
COLLAPSE_STDOUT = {
    "collapse-not-a-point": "steps=23 residual=4 valid=false\n",
    "collapse-residual": "steps=24 residual=1 valid=false\n",
}


@pytest.mark.parametrize("case", FAIL_LINES)
def test_each_verify_row_prints_its_failure(case, capsys, monkeypatch):
    check, counter, rig, want = FAIL_LINES[case]
    want = rig(monkeypatch) or want
    assert run(capsys, "verify", "--counter", counter, "--checks", check) == (
        1, f"{check}: FAIL ({counter}) counterexample={want}\n", ""
    )
    record = {"check": check, "counterexample": want, "ok": False, "params": counter}
    assert run(capsys, "verify", "--counter", counter, "--checks", check, "--format", "json") == (
        1, json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n", ""
    )
    if check == "collapse":
        # one certificate: the collapse command fails with the row's counterexample on stderr
        assert run(capsys, "collapse", "--counter", counter) == (1, COLLAPSE_STDOUT[case], f"error: {want}\n")
