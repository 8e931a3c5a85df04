#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the snapcomplex command line.

Run from the root of a checkout (standard library only, nothing to build):

    python3 bench/run.py --workload verify-1111 --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all              # every workload, seed 0

Every repetition is a real CLI job in a fresh interpreter, one child at a
time.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced jobs with jobs run under ``bench/tracer.py`` and reports the
per-layer metrics.  Times are scaled to a reference speed of the host, whose
speed drifts (see ``Calibrator``).  Every job's output is checked; the last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, and the exit code is 1 when a check failed, 2 when the program
is missing.  See ``bench/README.md`` for the metrics and why each workload
was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
TRACE_MARK = "BENCH-TRACE "  # must match tracer.TRACE_MARK

HARD_LIMIT_S = 170.0  # a run, children included, ends within this
SETUP_PER_JOB = 2  # set-up children run right before each job
CAL_ROUNDS = 10  # calibration rounds before the first child and after every job
CAL_REF_S = 0.02  # a calibration round at the reference speed, about this host when it is quiet

# A CLI job, plus an epilogue that reports the job's own peak RSS (VmHWM) on
# stderr.  ru_maxrss from wait4 cannot be used: the kernel carries the
# spawning process's peak RSS over into the child's, so it would read at least
# this harness's own footprint (about 20 MB, more after parsing a build).
PEAK_MARK = "BENCH-PEAK-KB "
JOB = f"""import sys
from snapcomplex.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as fh:
    sys.stderr.write("{PEAK_MARK}" + next(l.split()[1] for l in fh if l.startswith("VmHWM:")) + "\\n")
sys.exit(code)
"""
SETUP = "import snapcomplex.cli"

VERIFY_OK = ("pure", "pseudo", "connected", "reconstruction", "incidence", "strata",
             "diagrams", "partition", "collapse", "homology", "chromatic")


@dataclass(frozen=True)
class Workload:
    values: tuple  # round counts, before the seed's relabelling
    command: str
    flags: tuple = ()
    f_vector: tuple = ()  # build: expected f-vector, empty simplex first
    steps: int = 0  # collapse: expected number of elementary collapses

    def argv(self, text):
        return [self.command, "--counter", text, *self.flags]

    def check(self, text, code, out):
        """None when the job's exit code and stdout are right, else the reason."""
        if code != 0:
            return f"exit code {code}"
        if self.command == "verify":
            want = "".join(f"{c}: ok ({text})\n" for c in VERIFY_OK) + "cone: skipped (no passive process)\n"
            return None if out == want.encode() else f"verify report {out[:80]!r}"
        if self.command == "collapse":
            want = f"steps={self.steps} residual=2 valid=true\n"
            return None if out == want.encode() else f"collapse summary {out[:80]!r}"
        if self.command == "build":
            return check_build(self, out)
        raise ValueError(f"no output check for {self.command!r}")


def check_build(w, out):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from snapcomplex.counting import f_top

    try:
        obj = json.loads(out)
        f_vector = tuple(obj["f_vector"])
        dims = Counter(s["dim"] for s in obj["simplices"])
        tops = len(obj["tops"])
    except (ValueError, TypeError, KeyError):
        return f"build output is not a complex in JSON: {out[:80]!r}"
    if f_vector != w.f_vector:
        return f"f_vector {list(f_vector)}"
    if tuple(dims[d] for d in range(-1, len(f_vector) - 1)) != f_vector or sum(dims.values()) != sum(f_vector):
        return "simplex dimensions disagree with the f_vector"
    if tops != f_top(w.values):
        return f"{tops} tops, counting.f_top says {f_top(w.values)}"
    return None


WORKLOADS = {
    "verify-1111": Workload((1, 1, 1, 1), "verify"),
    "build-2221": Workload((2, 2, 2, 1), "build", ("--format", "json"), f_vector=(1, 1065, 5769, 9054, 4349)),
    "collapse-11111": Workload((1, 1, 1, 1, 1), "collapse", steps=2160),
}


def counter_text(values, seed):
    """The CLI counter for a seed: seed 0 is the identity labelling.

    Other seeds shuffle the values and put up to two ``x`` gaps before
    values, never at the end, so the CLI echoes the text unchanged and every
    process id stays one digit.
    """
    if seed == 0:
        return ",".join(map(str, values))
    rng = random.Random(seed)
    vals = list(values)
    rng.shuffle(vals)
    gaps = [0] * len(vals)
    for _ in range(rng.randint(0, 2)):
        gaps[rng.randrange(len(vals))] += 1
    return ",".join(",".join(["x"] * g + [str(v)]) for g, v in zip(gaps, vals))


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    code: int
    out: bytes
    err: bytes


def spawn(args, deadline):
    """Run ``python3 <args>`` to exit; time it and take its rusage from wait4."""
    # default interpreter settings, so that, for example, PYTHONDONTWRITEBYTECODE
    # in the caller's environment does not add compile time to every child
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    try:
        killer.start()
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(wall, usage.ru_utime + usage.ru_stime, proc.returncode, out, err[0])


def marked(err, mark):
    """The rest of the last stderr line when it starts with ``mark``, else None."""
    lines = err.decode(errors="replace").splitlines()
    return lines[-1][len(mark):] if lines and lines[-1].startswith(mark) else None


def peak_rss_mb(job):
    kb = marked(job.err, PEAK_MARK)
    return None if kb is None else int(kb) / 1024


def layer_metrics(payload, scale=1.0):
    """Per-layer numbers of one traced job, times multiplied by ``scale``.

    A layer's self time excludes the time its child spans cover.
    """
    spans = payload["spans"]
    durations = [(t1 - t0) * scale for t0, t1 in zip(spans["start"], spans["end"])]
    covered = [0.0] * len(durations)
    for parent, d in zip(spans["parent"], durations):
        if parent >= 0:
            covered[parent] += d
    total, calls, self_s = defaultdict(float), Counter(), defaultdict(float)
    for name, d, c in zip(spans["name"], durations, covered):
        total[name] += d
        calls[name] += 1
        self_s[name.split(".")[0]] += d - c
    f = payload["facts"]
    ghost_calls = calls["witness.ghost_one"]
    m = {
        "cli.main_s": total["cli.main"],
        "cli.overhead_s": self_s["cli"],
        "witness.ghost_one_us": 1e6 * total["witness.ghost_one"] / ghost_calls if ghost_calls else 0.0,
        "witness.ghost_one_calls": ghost_calls,
        "witness.from_key_us": 1e6 * scale * f["from_key_s"] / f["from_key_calls"] if f.get("from_key_calls") else 0.0,
        "complexes.enumerate_top_s": total["complexes.enumerate_top"],
        "complexes.build_s": total["complexes.build"],
        "complexes.simplices": f.get("simplices", 0),
        "complexes.face_dedup_ratio": (f["simplices"] - f["tops"]) / f["facet_entries"] if f.get("facet_entries") else 0.0,
        "complexes.structural_checks_s": total["complexes.structural_checks"],
        "complexes.chromatic_check_s": total["complexes.chromatic_check"],
        "complexes.complex_to_json_s": total["complexes.complex_to_json"],
        "complexes.json_bytes": f.get("json_bytes", 0),
        "decomposition.verify_incidence_s": total["decomposition.verify_incidence"],
        "decomposition.strata_iso_s": total["decomposition.verify_stratum_iso"],
        "decomposition.strata_count": calls["decomposition.verify_stratum_iso"],
        "decomposition.verify_diagrams_s": total["decomposition.verify_diagrams"],
        "decomposition.strata_partition_s": total["decomposition.strata_partition"],
        "decomposition.records": f.get("records", 0),
        "topology.collapse_to_point_s": total["topology.collapse_to_point"],
        "topology.collapse_steps": f.get("collapse_steps", 0),
        "topology.greedy_steps": f.get("greedy_steps", 0),
        "topology.validate_collapse_s": total["topology.validate_collapse"],
        "topology.homology_gf2_s": total["topology.homology_gf2"],
        "counting.f_top_s": total["counting.f_top"],
    }
    for layer in ("witness", "complexes", "decomposition", "topology", "counting"):
        m[f"{layer}.self_s"] = self_s[layer]
    return m


UNITS = {"_s": "s", "_us": "us", "_mb": "MB", "_ratio": "ratio", "_frac": "ratio", "_bytes": "bytes"}


def unit(name):
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def trace_problem(payload, code):
    if payload is None:
        return "traced job wrote no trace"
    f = payload["facts"]
    if payload["code"] != code:
        return "traced exit code differs"
    if f.get("tops") is not None and f["tops"] != f.get("f_top"):
        return f"{f['tops']} tops, counting.f_top says {f.get('f_top')}"
    if f.get("from_key_ok") is False:
        return "WitnessTable.from_key does not round-trip a simplex key"
    return None


class Calibrator:
    """Times a fixed pure-Python computation, to track the host's speed.

    The host is shared, and its speed drifts by tens of percent over minutes,
    which moves every timing of a run together.  ``run`` times ``CAL_ROUNDS``
    rounds before the first child and after every job, and scales all the
    run's times by ``CAL_REF_S`` over the median round: the reported times
    are seconds at the speed at which a round takes ``CAL_REF_S``.  A round
    mixes dict, tuple and frozenset work with a pointer chase through a
    shuffled 256k-entry list, so that it slows down both when the core and
    when the caches are contended.  Single rounds swing by +-50% within a
    second, faster than any calibration next to a job could follow, so only
    the drift over the whole run is taken out.
    """

    def __init__(self):
        self.nxt = list(range(1 << 18))
        random.Random(1).shuffle(self.nxt)

    def round(self):
        t0 = time.perf_counter()
        table = {}
        for i in range(10000):
            key = (i % 101, frozenset((i % 7, i % 11, i % 13)))
            table[key] = table.get(key, 0) + i
        sorted(table.items(), key=lambda kv: (kv[1], kv[0][0]))
        nxt, j = self.nxt, 0
        for _ in range(60000):
            j = nxt[j]
        return time.perf_counter() - t0

    def __call__(self):
        return [self.round() for _ in range(CAL_ROUNDS)]


def run(workload, seed, seconds, trace):
    """Run one workload for about ``seconds``; return the result object and a summary table."""
    text = counter_text(workload.values, seed)
    argv = workload.argv(text)
    start = time.monotonic()
    hard = start + HARD_LIMIT_S
    spawn(["-c", SETUP], hard)  # warm-up, not timed: byte-compiles the sources into the checkout
    calibrate = Calibrator()
    cal, setup, jobs, traced, digests, attempted, failed, problems = calibrate(), [], [], [], set(), 0, 0, []
    # at least one job even past the hard limit (it is then killed at once); a traced run needs two
    while not jobs or (time.monotonic() < hard and (attempted < 1 + trace or time.monotonic() < start + seconds)):
        batch = [spawn(["-c", SETUP], hard) for _ in range(SETUP_PER_JOB)]
        tracing = bool(trace) and attempted % 2 == 1
        job = spawn([str(TRACER), *argv] if tracing else ["-c", JOB, *argv], hard)
        cal += calibrate()
        setup += batch
        attempted += 1
        problem = workload.check(text, job.code, job.out)
        if tracing:
            payload = marked(job.err, TRACE_MARK)
            payload = None if payload is None else json.loads(payload)
            problem = problem or trace_problem(payload, job.code)
            if payload is not None:
                traced.append(payload)
        else:
            jobs.append(job)
            problem = problem or (None if peak_rss_mb(job) else "job reported no peak RSS")
        digests.add(hashlib.sha256(job.out).hexdigest())
        if problem is None and len(digests) > 1:
            problem = "stdout differs between repetitions"
        if problem:
            failed += 1
            problems.append(problem)
    problems += [f"setup exit code {j.code}" for j in setup if j.code != 0]
    raw = {
        "wall_s": [j.wall_s for j in jobs],
        "cpu_s": [j.cpu_s for j in jobs],
        "setup_s": [j.wall_s for j in setup],
    }
    scale = CAL_REF_S / statistics.median(cal)
    e2e = {name: [v * scale for v in vals] for name, vals in raw.items()}
    e2e["peak_rss_mb"] = [peak_rss_mb(j) or 0.0 for j in jobs]
    per_job = [layer_metrics(payload, scale) for payload in traced]
    layers = {name: [m[name] for m in per_job] for name in per_job[0]} if per_job else {}
    if per_job and jobs:
        untraced_main = statistics.median(e2e["wall_s"]) - statistics.median(e2e["setup_s"])
        layers["trace.overhead_frac"] = [statistics.median(layers["cli.main_s"]) / untraced_main - 1.0]
    reported = layers if trace else e2e
    metrics = {name: {"value": statistics.median(v), "unit": unit(name)} for name, v in reported.items() if v}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    table = {**e2e, **{f"raw.{name}": v for name, v in raw.items()}, "raw.calibration_round_s": cal, **layers}
    lines = [f"# {workload.command} --counter {text}  seed={seed}  jobs={len(jobs)} traced={len(traced)}"
             f"  failed_frac={failed / attempted:.3f} ({failed}/{attempted})"]
    lines += [f"#   {name:34s} {statistics.median(v):14.6g} {unit(name):6s} n={len(v):<3d}"
              f" min={min(v):.6g} max={max(v):.6g}" for name, v in table.items() if v]
    lines += [f"#   FAILED: {p}" for p in dict.fromkeys(problems)]
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The host's speed drifts per CPU, so keep the calibrations and the
    # children (which inherit this) on one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "snapcomplex" / "cli.py").is_file():
        print(f"error: no snapcomplex sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result, lines = run(WORKLOADS[name], args.seed, args.seconds, args.trace)
        print(f"# workload {name}")
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
