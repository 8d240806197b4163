"""Command-line driver.

Exit codes: 0 everything verified, 1 a verification failed, 2 the window was
insufficient for a certified answer, 3 invalid input (a malformed job, or a
command line argparse rejects), 4 an internal failure (a bug, never the
input's fault); of several, the first of 4, 3, 1, 2 wins.
"""
from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .jobspec import JobSpec, SpecParseError, parse_spec
from .runner import (
    EXIT_INVALID_INPUT,
    GRAVITY,
    RunResult,
    run_job,
)
from .report import dumps_report
from .suite import run_suite


def _add_overrides(p: argparse.ArgumentParser):
    p.add_argument("--field", help="override the coefficient field (Q or Fq)")
    p.add_argument("--window", type=int, help="override the degree window")
    p.add_argument("--nu-p", type=int, choices=(2, 3), dest="nu_p",
                   help="block size for the annihilator invariant")
    p.add_argument("--no-cache", action="store_true",
                   help="do not read or write the result cache")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, invalid input, not argparse's 2: here 2 means an
    insufficient window.  Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def _add_out(p: argparse.ArgumentParser):
    p.add_argument("--out", help="directory for report.json / report.txt / timing.txt")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="fihomlab",
        description="Exact homological invariants of FI-modules over a field.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every task of a job file")
    p_run.add_argument("spec", help="job file path")
    _add_out(p_run)
    _add_overrides(p_run)

    for name, doc in (
        ("verify", "check the regularity identity on the job's modules"),
        ("tor", "Tor dimension tables for the job's modules"),
        ("lcoh", "local cohomology tables for the job's modules"),
        ("nu", "annihilator-invariant certificates for the job's modules"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("spec", help="job file path")
        p.add_argument("--module", help="restrict to one named module")
        _add_out(p)
        _add_overrides(p)

    p_k = sub.add_parser("koszul-check",
                         help="exactness of the Koszul strands of the ground algebra")
    p_k.add_argument("--field", default="Q")
    p_k.add_argument("--window", type=int, default=5)
    _add_out(p_k)

    p_g = sub.add_parser("good-ideal-check", help="verify the good-ideal axioms")
    p_g.add_argument("--field", default="Q")
    _add_out(p_g)

    p_s = sub.add_parser("suite", help="run the built-in verification corpus")
    _add_out(p_s)
    p_s.add_argument("--no-cache", action="store_true")
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _apply_overrides(job: JobSpec, args) -> JobSpec:
    given = [getattr(args, key, None) for key in ("field", "window", "nu_p")]
    if given == [None] * 3:
        return job
    lines = job.canonical_text().splitlines()
    if getattr(args, "field", None):
        lines = [f"field {args.field}" if ln.startswith("field ") else ln
                 for ln in lines]
    if getattr(args, "window", None) is not None:
        lines = [f"window {args.window}" if ln.startswith("window ") else ln
                 for ln in lines]
    if getattr(args, "nu_p", None) is not None:
        lines = [ln for ln in lines if not ln.startswith("policy nu-p")]
        lines.insert(2, f"policy nu-p {args.nu_p}")
    # re-parse so every override goes through full validation
    return parse_spec("\n".join(lines))


def _load_job(args) -> JobSpec:
    path = Path(args.spec)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecParseError([(0, f"cannot read job file {path}: {exc}")]) from None
    job = parse_spec(text)
    return _apply_overrides(job, args)


def _emit(result: RunResult, args) -> int:
    out = getattr(args, "out", None)
    text = result.report_text()
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(dumps_report(result.report_dict()))
        (outdir / "report.txt").write_text(text)
        (outdir / "timing.txt").write_text(result.timing_text())
    for r in result.results:
        mod = f" {r.module}" if r.module else ""
        print(f"task {r.task}{mod}: {r.status}")
    if not out:
        print(text)
    return result.exit_code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            job = _load_job(args)
            return _emit(run_job(job, use_cache=not args.no_cache), args)
        if args.command in ("verify", "tor", "lcoh", "nu"):
            job = _load_job(args)
            names = [m for m in job.modules
                     if args.module is None or m == args.module]
            if args.module is not None and not names:
                print(f"error: no module named {args.module!r}", file=sys.stderr)
                return EXIT_INVALID_INPUT
            job.tasks = [(args.command, m) for m in names]
            return _emit(run_job(job, use_cache=not args.no_cache), args)
        if args.command == "koszul-check":
            job = parse_spec(
                f"field {args.field}\nwindow {args.window}\ntask koszul-check\n")
            return _emit(run_job(job, use_cache=False), args)
        if args.command == "good-ideal-check":
            job = parse_spec(
                f"field {args.field}\nwindow 0\ntask good-ideal-check\n")
            return _emit(run_job(job, use_cache=False), args)
        if args.command == "suite":
            code = 0
            for name, result in run_suite(use_cache=not args.no_cache):
                print(f"[{name}]")
                sub_args = argparse.Namespace(
                    out=str(Path(args.out) / name) if args.out else None)
                code = max(code, _emit(result, sub_args), key=GRAVITY.index)
            return code
    except SpecParseError as exc:
        for ln, msg in exc.errors:
            where = f"line {ln}: " if ln else ""
            print(f"error: {where}{msg}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
