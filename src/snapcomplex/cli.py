"""Batch command-line front end.

Subcommands: build, count, verify, collapse, export.  Counters use the
token syntax ``2,x,1`` (``x`` marks a non-participant).  Exit codes:
0 all requested checks pass, 1 some check failed, 2 usage or parse error.
Output is deterministic for a fixed argv; ``--format json`` switches the
reports to line-delimited JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from operator import attrgetter

from .errors import InvalidArgument, PreconditionViolation
from .rounds import RoundCounter
from .reports import CheckRecord
from . import complexes, counting, decomposition, topology


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snapcomplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, formats, writes) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--counter", required=True, help="round counter, e.g. 2,x,1")
        p.add_argument("--format", choices=formats, default=formats[0])
        if writes:
            p.add_argument("--out", default=None, help="write the main artifact to this file")
        if name == "verify":
            p.add_argument("--checks", default=None, help="comma list of checks (default: all applicable)")
    return parser


def _emit(records, fmt):
    for rec in records:
        if fmt == "json":
            print(rec.to_json())
        elif rec.params.startswith("skipped:"):
            print(f"{rec.check}: skipped ({rec.params[8:].strip()})")
        else:
            status = "ok" if rec.ok else "FAIL"
            tail = "" if rec.counterexample is None else f" counterexample={rec.counterexample}"
            print(f"{rec.check}: {status} ({rec.params}){tail}")


def _structural(*fields):
    """Runner showing the first counterexample of any of these StructureReport fields."""
    return lambda r, structure: next((ce for field, ce in structure().failures if field in fields), None)


def _first_failure(items, holds, show):
    """``show`` of the first item that does not hold, or None when all hold."""
    return next((show(x) for x in items if not holds(x)), None)


_ok = attrgetter("ok")
_law = "{0.check} {0.params}".format  # a failed record shown as its law and parameters


def _collapse_run(r):
    """(sequence, verdict) of one collapse of r to a point: the verdict is
    ``topology.collapse_failure``, None when it holds.  The build runs
    first, through the ``complexes.build`` attribute, so a wrapper of it
    times the build apart from the collapse."""
    k = complexes.build(r)
    seq = topology.collapse_to_point(r)
    return seq, topology.collapse_failure(k, seq)


def _homology(r, _):
    k = complexes.build(r)
    prof = topology.homology_gf2(k)
    ok = prof.betti == (1,) + (0,) * k.dim and prof.euler == 1
    return None if ok else f"betti={prof.betti} euler={prof.euler}"


def _no_passive(r):
    return None if r.passive else "no passive process"


# check name -> (skip rule, runner), in report order.  A skip rule maps the
# counter to the reason the check does not apply, or None to run it.  A runner
# maps the counter and ``structure`` (the run's one ``structural_checks``
# report, made on first call) to its verdict: None when the check holds, else
# the counterexample text.  It looks each layer function up on its module when
# it runs, so spans and test doubles see it.
CHECKS = {
    "pure": (None, _structural("pure")),
    "pseudo": (None, _structural("pseudomanifold", "boundary_matches")),
    "connected": (None, _structural("strongly_connected")),
    "reconstruction": (None, _structural("reconstruction_injective")),
    "incidence": (None, lambda r, _: _first_failure(decomposition.verify_incidence(r).records, _ok, _law)),
    "strata": (None, lambda r, _: _first_failure(
        decomposition.all_stratum_ids(r), lambda sid: decomposition.verify_stratum_iso(r, sid), repr)),
    "diagrams": (None, lambda r, _: _first_failure(decomposition.verify_diagrams(r).records, _ok, _law)),
    "partition": (None, lambda r, _: _first_failure(
        decomposition.strata_partition(complexes.build(r)).records, _ok, attrgetter("params"))),
    "collapse": (None, lambda r, _: _collapse_run(r)[1]),
    "homology": (None, _homology),
    "chromatic": (lambda r: None if complexes.is_zero_one(r) else "counter is not 0/1-valued",
                  lambda r, _: None if complexes.chromatic_check(r) else "simplex sets differ"),
    "cone": (_no_passive, lambda r, _: _first_failure(
        sorted(r.passive), lambda p: complexes.cone_check(r, p), "apex={}".format)),
}


def cmd_verify(r: RoundCounter, args) -> int:
    if not r.support:
        print("error: nothing to verify for an empty counter", file=sys.stderr)
        return 2
    names = list(CHECKS) if args.checks is None else [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in names if c not in CHECKS]
    if unknown:
        print(f"error: unknown checks: {','.join(unknown)}", file=sys.stderr)
        return 2
    if not names:
        print("error: no checks requested", file=sys.stderr)
        return 2
    structure = cache(lambda: complexes.structural_checks(complexes.build(r)))
    records = []
    for name in names:
        skip, run = CHECKS[name]
        reason = skip(r) if skip else None
        if reason is None:
            bad = run(r, structure)
            records.append(CheckRecord(name, r.text(), bad is None, bad))
        else:
            records.append(CheckRecord(name, f"skipped: {reason}", True))
    _emit(records, args.format)
    return 0 if all(rec.ok for rec in records) else 1


def _deliver(args, write, summary=None) -> None:
    """The one artifact rule: ``--out`` gets the artifact and stdout the
    summary; otherwise a format other than text puts the artifact on stdout;
    otherwise stdout gets the summary.  ``write(fh)`` writes the artifact."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(fh)
    elif args.format != "text":
        write(sys.stdout)
        return
    if summary is not None:
        print(summary)


def _write_json(k, fh) -> None:
    """Write the complex's JSON and a newline, piece by piece."""
    fh.writelines(complexes.complex_json_pieces(k))
    fh.write("\n")


def cmd_build(r: RoundCounter, args) -> int:
    k = complexes.build(r)
    summary = (f"counter={r.text()}\nf_vector={','.join(map(str, k.f_vector))}\n"
               f"simplices={len(k.simplices)} tops={len(k.tops)} dim={k.dim}")
    _deliver(args, lambda fh: _write_json(k, fh), summary)
    return 0


def cmd_count(r: RoundCounter, args) -> int:
    values = [v for _, v in r]
    rec = counting.f_top(values)
    enum = len(complexes.enumerate_top(r))
    ok = rec == enum
    if args.format == "json":
        record = CheckRecord("count", r.text(), ok, None if ok else f"recursion={rec} enumeration={enum}")
        print(record.to_json())
    else:
        print(f"recursion={rec} enumeration={enum} {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_collapse(r: RoundCounter, args) -> int:
    seq, bad = _collapse_run(r)
    _deliver(args, lambda fh: fh.write(seq.to_json() + "\n"),
             f"steps={len(seq.steps)} residual={len(seq.residual)} valid={str(bad is None).lower()}")
    if bad is not None:
        print(f"error: {bad}", file=sys.stderr)
    return 0 if bad is None else 1


def cmd_export(r: RoundCounter, args) -> int:
    k = complexes.build(r)
    dot = args.format == "dot"
    _deliver(args, lambda fh: fh.write(complexes.complex_to_dot(k)) if dot else _write_json(k, fh))
    return 0


# subcommand -> (handler, its --format choices with the default first, whether it takes --out)
COMMANDS = {
    "build": (cmd_build, ("text", "json"), True),
    "count": (cmd_count, ("text", "json"), False),
    "verify": (cmd_verify, ("text", "json"), False),
    "collapse": (cmd_collapse, ("text", "json"), True),
    "export": (cmd_export, ("json", "dot"), True),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        r = RoundCounter.parse(args.counter)
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command][0](r, args)
    except BrokenPipeError:
        raise  # run() handles a reader that left
    except (InvalidArgument, PreconditionViolation, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: counter {r.text()} is too deep for the recursion limit", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: counter {r.text()} needs more memory than is available", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (``| head``); devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
