"""The benchmark's scripts name only what the program has.

``bench/tracer.py`` skips a missing name silently, so a rename would zero a
per-layer metric, and ``bench/run.py`` would count a rejected option as a
failed job.  These tests load each script as it is and check its names
against the program.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from snapcomplex import RoundCounter, cli, complexes, topology, witness


def _load(name, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_is_callable(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    assert tracer.LAYERS
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"snapcomplex.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_benchmark_commands_parse_and_report_in_check_order(monkeypatch):
    bench = _load("run", monkeypatch)
    parser = cli.build_parser()
    for workload in bench.WORKLOADS.values():
        parser.parse_args(workload.argv(bench.counter_text(workload.values, 0)))  # SystemExit on a rejected option
    assert tuple(cli.CHECKS) == bench.VERIFY_OK + ("cone",)


def test_build_calls_the_kernel_through_its_module_attribute(monkeypatch):
    # the tracer counts witness.ghost_one by wrapping that attribute; a face
    # loop that bypassed it would zero witness.ghost_one_calls and _us
    real = witness.ghost_one
    calls = []

    def counting(sigma, p):
        calls.append(p)
        return real(sigma, p)

    monkeypatch.setattr(witness, "ghost_one", counting)
    k = complexes.build.__wrapped__(RoundCounter.of(2, 1, 1))
    assert len(calls) == sum(len(k.facets[s]) for s in k.simplices) > 0


def test_cli_writes_json_through_the_module_attribute(monkeypatch, tmp_path):
    # the CLI writes the complex JSON piece by piece from
    # complexes.complex_json_pieces, looked up on the module when it runs, so
    # a wrapper of that attribute sees every JSON export; complex_to_json is
    # the same pieces joined, for the tests and oracles
    real = complexes.complex_json_pieces
    calls = []

    def counting(k):
        calls.append(k.counter)
        return real(k)

    monkeypatch.setattr(complexes, "complex_json_pieces", counting)
    out = str(tmp_path / "k.json")
    for argv in (
        ["build", "--counter", "2,1", "--format", "json"],
        ["build", "--counter", "2,1", "--out", out],
        ["export", "--counter", "2,1"],
        ["export", "--counter", "2,1", "--out", out],
    ):
        calls.clear()
        assert cli.main(argv) == 0
        assert calls == [RoundCounter.of(2, 1)], argv


def test_both_collapse_verdicts_replay_through_the_module_attribute(monkeypatch):
    # the tracer times topology.validate_collapse by wrapping that attribute;
    # the collapse command and the verify row each replay once through it
    real = topology.validate_collapse
    calls = []

    def counting(k, seq):
        calls.append(k.counter)
        return real(k, seq)

    monkeypatch.setattr(topology, "validate_collapse", counting)
    for argv in (["collapse", "--counter", "1,1"], ["verify", "--counter", "1,1", "--checks", "collapse"]):
        calls.clear()
        assert cli.main(argv) == 0
        assert calls == [RoundCounter.of(1, 1)], argv
