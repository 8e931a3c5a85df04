import json
import os
import subprocess
import sys
from pathlib import Path

from snapcomplex import RoundCounter
from snapcomplex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_output(capsys):
    code, out, _ = run(capsys, "count", "--counter", "1,1,1")
    assert code == 0
    assert out == "recursion=13 enumeration=13 ok\n"


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


def test_collapse_command(tmp_path, capsys):
    out_file = tmp_path / "collapse.json"
    code, out, _ = run(capsys, "collapse", "--counter", "1,1", "--out", str(out_file))
    assert code == 0
    assert "steps=3 residual=2 valid=true" in out
    payload = json.loads(out_file.read_text())
    assert len(payload["steps"]) == 3


def test_export_formats(capsys):
    code, out, _ = run(capsys, "export", "--counter", "1,1", "--format", "dot")
    assert code == 0
    assert out.startswith("graph dual {")
    code, out, _ = run(capsys, "export", "--counter", "1,1", "--format", "json")
    assert json.loads(out)["f_vector"] == [1, 4, 3]


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "verify", "--counter", "1,1", "--format", "json")
    _, second, _ = run(capsys, "verify", "--counter", "1,1", "--format", "json")
    assert first == second


def test_verify_other_counters_pass(capsys):
    for counter in ("1,1,1", "1,0", "0,0,2", "2"):
        code, out, _ = run(capsys, "verify", "--counter", counter)
        assert code == 0, (counter, out)


def test_failing_check_sets_exit_code(capsys, monkeypatch):
    from snapcomplex import cli
    from snapcomplex.reports import CheckRecord

    real = cli._run_check

    def rigged(name, r):
        if name == "pure":
            return CheckRecord("pure", r.text(), False, "some-simplex-key")
        return real(name, r)

    monkeypatch.setattr(cli, "_run_check", rigged)
    code, out, _ = run(capsys, "verify", "--counter", "1,1", "--checks", "pure,homology")
    assert code == 1
    assert "pure: FAIL" in out and "some-simplex-key" in out
    assert "homology: ok" in out


def test_verify_runs_structural_checks_once(capsys, monkeypatch):
    from snapcomplex import cli, complexes

    calls = []
    real = complexes.structural_checks

    def counted(k):
        calls.append(k)
        return real(k)

    monkeypatch.setattr(complexes, "structural_checks", counted)
    cli._structure.cache_clear()
    code, _, _ = run(capsys, "verify", "--counter", "1,1,1", "--checks", "pure,pseudo,connected,reconstruction")
    assert code == 0
    assert len(calls) == 1


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
