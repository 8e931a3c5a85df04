"""Batch command-line front end.

Subcommands: build, count, verify, collapse, export.  Counters use the
token syntax ``2,x,1`` (``x`` marks a non-participant).  Exit codes:
0 all requested checks pass, 1 some check failed, 2 usage or parse error.
Output is deterministic for a fixed argv; ``--format json`` switches the
reports to line-delimited JSON.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .errors import CollapseStuck, InvalidArgument, PreconditionViolation
from .rounds import RoundCounter
from .reports import CheckRecord
from . import complexes, counting, decomposition, topology

CHECK_NAMES = (
    "pure",
    "pseudo",
    "connected",
    "reconstruction",
    "incidence",
    "strata",
    "diagrams",
    "partition",
    "collapse",
    "homology",
    "chromatic",
    "cone",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snapcomplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--counter", required=True, help="round counter, e.g. 2,x,1")
        p.add_argument("--format", choices=("text", "json", "dot"), default="text")
        p.add_argument("--out", default=None, help="write the main artifact to this file")

    for name in ("build", "count", "verify", "collapse", "export"):
        p = sub.add_parser(name)
        add_common(p)
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


# structural check -> the StructureReport fields that must all hold
STRUCTURAL_FIELDS = {
    "pure": ("pure",),
    "pseudo": ("pseudomanifold", "boundary_matches"),
    "connected": ("strongly_connected",),
    "reconstruction": ("reconstruction_injective",),
}


@lru_cache(maxsize=1)
def _structure(k):
    return complexes.structural_checks(k)


def _run_check(name: str, r: RoundCounter) -> CheckRecord:
    k = complexes.build(r)
    if name in STRUCTURAL_FIELDS:
        bad = [ce for field, ce in _structure(k)._failures if field in STRUCTURAL_FIELDS[name]]
        return CheckRecord(name, r.text(), not bad, bad[0] if bad else None)
    if name == "incidence":
        rep = decomposition.verify_incidence(r)
        bad = rep.first_failure
        return CheckRecord("incidence", r.text(), rep.ok, None if rep.ok else f"{bad.check} {bad.params}")
    if name == "strata":
        for sid in decomposition.all_stratum_ids(r):
            if not decomposition.verify_stratum_iso(r, sid):
                return CheckRecord("strata", r.text(), False, repr(sid))
        return CheckRecord("strata", r.text(), True)
    if name == "diagrams":
        rep = decomposition.verify_diagrams(r)
        bad = rep.first_failure
        return CheckRecord("diagrams", r.text(), rep.ok, None if rep.ok else f"{bad.check} {bad.params}")
    if name == "partition":
        rep = decomposition.strata_partition(k)
        bad = rep.first_failure
        return CheckRecord("partition", r.text(), rep.ok, None if rep.ok else bad.params)
    if name == "collapse":
        try:
            seq = topology.collapse_to_point(r)
        except CollapseStuck as exc:
            return CheckRecord("collapse", r.text(), False, str(exc))
        ver = topology.validate_collapse(k, seq)
        ok = bool(ver) and len(seq.residual) == len(k.simplices) - 2 * len(seq.steps)
        ok = ok and sorted(s.dim for s in seq.residual) == [-1, 0]
        if not ok and ver.failed_index is not None:
            return CheckRecord("collapse", r.text(), False, f"{ver.reason} at {seq.locate(ver.failed_index)}")
        return CheckRecord("collapse", r.text(), ok, None if ok else ver.reason or "bad residual")
    if name == "homology":
        prof = topology.homology_gf2(k)
        want = (1,) + (0,) * k.dim
        ok = prof.betti == want and prof.euler == 1
        return CheckRecord("homology", r.text(), ok, None if ok else f"betti={prof.betti} euler={prof.euler}")
    if name == "chromatic":
        ok = complexes.chromatic_check(r)
        return CheckRecord("chromatic", r.text(), ok, None if ok else "simplex sets differ")
    if name == "cone":
        for p in sorted(r.passive):
            if not complexes.cone_check(r, p):
                return CheckRecord("cone", r.text(), False, f"apex={p}")
        return CheckRecord("cone", r.text(), True)
    raise InvalidArgument(f"unknown check {name!r}")


def _applicable(name: str, r: RoundCounter):
    """None when runnable, else the skip reason."""
    if name == "chromatic" and any(v not in (0, 1) for _, v in r):
        return "counter is not 0/1-valued"
    if name == "cone" and not r.passive:
        return "no passive process"
    return None


def cmd_verify(r: RoundCounter, args) -> int:
    if not r.support:
        print("error: nothing to verify for an empty counter", file=sys.stderr)
        return 2
    if args.checks is None:
        names = list(CHECK_NAMES)
    else:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in names if c not in CHECK_NAMES]
        if unknown:
            print(f"error: unknown checks: {','.join(unknown)}", file=sys.stderr)
            return 2
    failed = False
    records = []
    for name in names:
        reason = _applicable(name, r)
        if reason is not None:
            records.append(CheckRecord(name, f"skipped: {reason}", True))
            continue
        rec = _run_check(name, r)
        failed = failed or not rec.ok
        records.append(rec)
    _emit(records, "json" if args.format == "json" else "text")
    return 1 if failed else 0


def cmd_build(r: RoundCounter, args) -> int:
    k = complexes.build(r)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(complexes.complex_to_json(k) + "\n")
    elif args.format == "json":
        print(complexes.complex_to_json(k))
        return 0
    print(f"counter={r.text()}")
    print("f_vector=" + ",".join(str(n) for n in k.f_vector))
    print(f"simplices={len(k.simplices)} tops={len(k.tops)} dim={k.dim}")
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
    k = complexes.build(r)
    try:
        seq = topology.collapse_to_point(r)
    except CollapseStuck as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ver = topology.validate_collapse(k, seq)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(seq.to_json() + "\n")
    if args.format == "json" and not args.out:
        print(seq.to_json())
    else:
        print(f"steps={len(seq.steps)} residual={len(seq.residual)} valid={str(bool(ver)).lower()}")
    if not ver:
        where = "" if ver.failed_index is None else f" at {seq.locate(ver.failed_index)}"
        print(f"error: {ver.reason}{where}", file=sys.stderr)
    return 0 if ver else 1


def cmd_export(r: RoundCounter, args) -> int:
    k = complexes.build(r)
    payload = complexes.complex_to_dot(k) if args.format == "dot" else complexes.complex_to_json(k) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


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
        if args.command == "build":
            return cmd_build(r, args)
        if args.command == "count":
            return cmd_count(r, args)
        if args.command == "verify":
            return cmd_verify(r, args)
        if args.command == "collapse":
            return cmd_collapse(r, args)
        if args.command == "export":
            return cmd_export(r, args)
    except (InvalidArgument, PreconditionViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: counter {r.text()} is too deep for the recursion limit", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
