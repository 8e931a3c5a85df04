"""Traced child: run one snapcomplex CLI job with a span at each layer call.

Usage (with ``src`` on PYTHONPATH):

    python3 bench/tracer.py verify --counter 1,1,1,1

The program's own stdout, stderr and exit code pass through unchanged.  The
public functions listed in ``LAYERS`` are wrapped on their module objects, so
every call that goes through the module attribute -- the CLI's calls, and a
module's calls to its own functions -- records a span (name, parent span,
start, end; one run id per job).  Calls a module makes through a name it imported from another module
(``from .complexes import build``) are not wrapped and land in the caller's
self time.  After ``main`` returns, the tracer makes its own calls into the
public ``counting.f_top`` and ``WitnessTable.from_key`` (neither is on the
CLI's path for these commands) and reads a few counts off the objects the
wrapped calls returned.  Spans stay in memory; at exit one line
``BENCH-TRACE <json>`` goes to stderr for the parent to aggregate.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

TRACE_MARK = "BENCH-TRACE "

# layer module -> public functions wrapped in place
LAYERS = {
    "witness": ("ghost_one",),
    "complexes": ("enumerate_top", "build", "structural_checks", "chromatic_check", "cone_check", "complex_to_json"),
    "decomposition": ("verify_incidence", "all_stratum_ids", "verify_stratum_iso", "verify_diagrams", "strata_partition"),
    "topology": ("collapse_to_point", "validate_collapse", "homology_gf2"),
    "counting": ("f_top",),
}

# wrapped calls whose most recent (args, result) the tracer keeps
KEEP = {"complexes.build", "complexes.complex_to_json", "topology.collapse_to_point",
        "decomposition.verify_incidence", "decomposition.verify_diagrams", "decomposition.strata_partition"}


class Tracer:
    """In-memory span log, one column per field so spans add no objects for the GC to scan."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.stack = [-1]
        self.kept = {}

    def wrap(self, name, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock, kept = self.stack, time.perf_counter, self.kept
        keep = name in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if keep:
                kept.setdefault(name, []).append((args, result))
            return result

        return traced


def install(tracer):
    for layer, names in LAYERS.items():
        mod = importlib.import_module(f"snapcomplex.{layer}")
        for fname in names:
            fn = getattr(mod, fname, None)
            if callable(fn):
                setattr(mod, fname, tracer.wrap(f"{layer}.{fname}", fn))


def facts(tracer, counter):
    """Counts read off the returned objects, plus the tracer's own oracle calls."""
    from snapcomplex import counting
    from snapcomplex.witness import WitnessTable

    out = {}
    last = {name: calls[-1][1] for name, calls in tracer.kept.items()}
    builds = [res for args, res in tracer.kept.get("complexes.build", ()) if args and args[0] == counter]
    if builds:
        k = builds[-1]
        out["simplices"] = len(k.simplices)
        out["tops"] = len(k.tops)
        out["facet_entries"] = sum(len(f) for f in k.facets.values())
        t0 = time.perf_counter()
        same = all(WitnessTable.from_key(s.key) == s for s in k.simplices)
        out["from_key_s"] = time.perf_counter() - t0
        out["from_key_calls"] = len(k.simplices)
        out["from_key_ok"] = same
        out["f_top"] = counting.f_top([v for _, v in counter])  # wrapped by install()
    if "complexes.complex_to_json" in last:
        out["json_bytes"] = len(last["complexes.complex_to_json"].encode())
    seq = last.get("topology.collapse_to_point")
    if seq is not None:
        out["collapse_steps"] = len(seq.steps)
        out["greedy_steps"] = sum(b.stop - b.start for b in seq.batches if b.stage == 4)
    out["records"] = sum(
        len(last[name].records)
        for name in ("decomposition.verify_incidence", "decomposition.verify_diagrams", "decomposition.strata_partition")
        if name in last
    )
    return out


def main(argv):
    from snapcomplex import cli
    from snapcomplex.rounds import RoundCounter

    tracer = Tracer()
    install(tracer)
    counter = RoundCounter.parse(argv[argv.index("--counter") + 1])
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
    payload = {"run": f"{os.getpid()}-{time.time_ns()}", "code": code,
               "spans": {"name": tracer.names, "parent": tracer.parents, "start": tracer.starts, "end": tracer.ends},
               "facts": facts(tracer, counter)}
    sys.stderr.write(TRACE_MARK + json.dumps(payload, separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
