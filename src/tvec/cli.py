"""Command-line front door: check, eval, erase, selftest.

Each command returns one `Report`: exit status, `--json` payload, stdout
text and stderr note.  A failure that ends a command early raises
`_Failure` instead, and `main` turns it into the common error payload.
`main` alone writes the report, so `--json` puts one JSON object on
stdout whatever happens: a command line that argparse rejects, bad
fuel, an out-of-range `--size` and exhausted stack or memory included.
Human diagnostics go to stderr either way; only `eval --trace` writes
there as it runs, one line per step.

Exit codes are disjoint by construction: 0 is success, 1 is a failed
check, evaluation, or self-test, and 2 is anything that prevented the
request from being carried out at all (usage, unreadable file, syntax
error, exhausted resources).

The reduction budget comes from `--fuel`, falling back to the TVEC_FUEL
environment variable and then to the built-in default.

`main` parses the command line and runs the command with the cycle
collector paused.  Refcounting alone frees everything a command drops,
because nothing it makes can be part of a reference cycle: nodes and
records are frozen and built bottom-up, so each refers only to objects
made before it, and no closure in `src/tvec` refers to itself.  The
collector would only re-walk the live parse tree, tokens and types.
`main` turns it back on before writing the report, and only if it was on
when `main` was called, so an in-process caller finds it as it was.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .frontend import (
    ParseError, ResolveError, ResolvedDef, ResolvedFile, parse, pretty,
    resolve_defs,
)
from .oracle import ENUM_CAP, run_property_suite
from .reduce import DEFAULT_FUEL, FuelExhausted, Stuck, eval_cbv, normalize
from .typecheck import Checker, Diagnostic, Inferred, Mode

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

CBV = "cbv"
FULL = "full"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   help="override the file's mode pragma")
    p.add_argument("--fuel", type=int, metavar="N",
                   help=f"reduction budget (default: TVEC_FUEL or "
                        f"{DEFAULT_FUEL})")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")


class _ArgumentParser(argparse.ArgumentParser):
    """Raises its usage errors as `_Failure`, so that `main` reports them
    under `--json` too; subcommand parsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _Failure(EXIT_USAGE,
                       {"code": "usage-error", "message": message},
                       f"{self.prog}: error: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept."""
    ap = _ArgumentParser(
        prog="tvec",
        description="Type checker and evaluator for .tvec files.")
    sub = ap.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="type-check every definition in a file")
    check.add_argument("path", help="a .tvec source file")
    _add_common(check)

    ev = sub.add_parser(
        "eval", help="evaluate the erasure of one definition")
    ev.add_argument("path", help="a .tvec source file")
    ev.add_argument("name", help="the definition to evaluate")
    ev.add_argument("--strategy", choices=[CBV, FULL], default=CBV,
                    help="call-by-value, or full normalization")
    ev.add_argument("--trace", action="store_true",
                    help="print every reduction step to stderr")
    _add_common(ev)

    er = sub.add_parser(
        "erase", help="print the erasure of one definition")
    er.add_argument("path", help="a .tvec source file")
    er.add_argument("name", help="the definition to erase")
    _add_common(er)

    st = sub.add_parser(
        "selftest", help="run the enumeration-backed property suite")
    st.add_argument("--size", type=int, default=7, metavar="N",
                    help=f"term size bound, at most {ENUM_CAP} (default 7)")
    _add_common(st)
    return ap


class Report(NamedTuple):
    """What a command has to say; `main` writes it."""
    status: int
    payload: dict               # the `--json` report
    text: str | None = None     # stdout without `--json`
    note: str | None = None     # stderr, with or without `--json`


class _Failure(Exception):
    """Ends a command early.  `main` writes `note` to stderr and, under
    `--json`, the common error payload around `error`; `mode` is the
    file's mode once it is known."""

    def __init__(self, status: int, error: dict, note: str,
                 mode: Mode | None = None):
        super().__init__(note)
        self.status = status
        self.error = error
        self.note = note
        self.mode = mode


def _usage(message: str) -> _Failure:
    return _Failure(EXIT_USAGE, {"code": "usage-error", "message": message},
                    f"tvec: {message}")


def _fuel_from(args: argparse.Namespace) -> int:
    if args.fuel is not None:
        fuel = args.fuel
    else:
        raw = os.environ.get("TVEC_FUEL")
        if raw is None:
            return DEFAULT_FUEL
        try:
            fuel = int(raw)
        except ValueError:
            raise _usage(f"TVEC_FUEL must be an integer, got {raw!r}")
    if fuel <= 0:
        raise _usage("fuel must be positive")
    return fuel


def _mode_from(args: argparse.Namespace) -> Mode | None:
    return Mode(args.mode) if args.mode else None


def _load(args: argparse.Namespace, name: str | None = None) -> ResolvedFile:
    """Read, parse, and resolve: every definition, or with `name` only
    those that it needs (see `resolve_defs`).  A resolved item mentions
    only assumed names and released `#` names, which the checker rejects.

    I/O and syntax errors are exit 2; resolution errors (unknown or
    duplicate names, recursion) mean a syntactically fine file that does
    not define what it claims, and are exit 1 like any other failure.
    """
    try:
        # `utf-8-sig` drops a leading byte-order mark, if there is one
        text = Path(args.path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        # an OSError names the file itself; a decoding error does not
        message = str(err) if isinstance(err, OSError) \
            else f"{args.path}: {err}"
        raise _Failure(EXIT_USAGE, {"code": "io-error", "message": message},
                       f"tvec: {message}")
    try:
        return resolve_defs(parse(text), _mode_from(args), name)
    except (ParseError, ResolveError) as err:
        status = EXIT_USAGE if isinstance(err, ParseError) else EXIT_FAIL
        raise _Failure(status, err.diagnostic.to_json(),
                       f"tvec: {args.path}: {err.diagnostic.render()}")


def _find_def(args: argparse.Namespace,
              resolved: ResolvedFile) -> ResolvedDef:
    """The definition named on the command line."""
    for d in resolved.defs:
        if d.name == args.name:
            return d
    message = f"no definition named {args.name}"
    raise _Failure(EXIT_FAIL, {"code": "unknown-def", "message": message},
                   f"tvec: {args.path}: {message}", resolved.mode)


def _failed_to_check(args: argparse.Namespace, name: str,
                     diagnostic: Diagnostic) -> str:
    return (f"tvec: {args.path}: definition {name} failed to check\n"
            f"{diagnostic.render(indent=1)}")


def _cmd_check(args: argparse.Namespace, fuel: int) -> Report:
    resolved = _load(args)
    checker = Checker(fuel, resolved.mode, resolved.defs)
    report: list[dict] = []
    lines: list[str] = []
    note = None
    for d in resolved.defs:
        res = checker.check_against(resolved.assumptions, d.body, d.ty)
        declared = pretty(d.declared)
        if isinstance(res, Inferred):
            lines.append(f"{d.name} : {declared}")
            report.append({"name": d.name, "type": declared,
                           "status": "ok", "diagnostic": None})
        else:
            report.append({"name": d.name, "type": declared,
                           "status": "error",
                           "diagnostic": res.diagnostic.to_json()})
            note = _failed_to_check(args, d.name, res.diagnostic)
            break
    return Report(EXIT_OK if note is None else EXIT_FAIL,
                  {"defs": report, "mode": resolved.mode.value, "fuel": fuel},
                  "\n".join(lines), note)


def _write(stream, text: str | None) -> None:
    """Print `text`, if any, to `stream`.  If its reader has gone, the
    stream goes to the null device, where later writes cannot fail."""
    try:
        if text:
            print(text, file=stream, flush=True)
    except BrokenPipeError:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), stream.fileno())


def _print_step(step: int, term) -> None:
    _write(sys.stderr, f"{step:>5}  {pretty(term)}")


def _cmd_eval(args: argparse.Namespace, fuel: int) -> Report:
    resolved = _load(args, args.name)
    d = _find_def(args, resolved)
    checker = Checker(fuel, resolved.mode, resolved.defs)
    res = checker.check_against(resolved.assumptions, d.body, d.ty)
    if not isinstance(res, Inferred):
        raise _Failure(EXIT_FAIL, res.diagnostic.to_json(),
                       _failed_to_check(args, d.name, res.diagnostic),
                       resolved.mode)

    erasure = d.erased
    # a checked body mentions only assumed names
    closed = not resolved.assumptions
    on_step = None
    if args.trace:
        _print_step(0, erasure)
        on_step = _print_step
    if args.strategy == CBV:
        outcome = eval_cbv(erasure, fuel, on_step=on_step)
    else:
        outcome = normalize(erasure, fuel, on_step=on_step)

    term, kind = pretty(outcome.term), type(outcome).__name__
    steps = outcome.fuel if isinstance(outcome, FuelExhausted) \
        else outcome.steps
    note = None
    code = EXIT_OK
    if isinstance(outcome, Stuck):
        if closed:
            note = ("stuck closed term: evaluation of a well-typed closed "
                    "definition must not get stuck, so either the "
                    "definition or the kernel is wrong")
            code = EXIT_FAIL
        else:
            note = ("the definition lives in a non-empty context, so a "
                    f"stuck erasure is expected ({outcome.reason})")
    elif isinstance(outcome, FuelExhausted):
        note = "out of fuel; raise --fuel or TVEC_FUEL to continue"
        code = EXIT_FAIL

    return Report(code, {
        "def": d.name,
        "strategy": args.strategy,
        "mode": resolved.mode.value,
        "fuel": fuel,
        "closed": closed,
        "kind": kind,
        "term": term,
        "steps": steps,
        "note": note,
    }, f"{term}, {kind}, {steps} steps",
        None if note is None else f"tvec: {note}")


def _cmd_erase(args: argparse.Namespace, fuel: int) -> Report:
    resolved = _load(args, args.name)
    d = _find_def(args, resolved)
    erasure = pretty(d.erased)
    return Report(EXIT_OK, {"def": d.name, "mode": resolved.mode.value,
                            "erasure": erasure}, erasure)


def _cmd_selftest(args: argparse.Namespace, fuel: int) -> Report:
    if not 1 <= args.size <= ENUM_CAP:
        raise _usage(f"--size must be between 1 and {ENUM_CAP}")
    modes = [Mode(args.mode)] if args.mode else list(Mode)
    reports = [run_property_suite(size=args.size, mode=m, fuel=fuel)
               for m in modes]
    ok = all(r.ok and r.undecided == 0 for r in reports)
    return Report(EXIT_OK if ok else EXIT_FAIL,
                  {"reports": [r.to_json() for r in reports], "ok": ok},
                  "\n\n".join(r.render() for r in reports))


_COMMANDS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "erase": _cmd_erase,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = fuel = None
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        fuel = _fuel_from(args)
        report = _COMMANDS[args.command](args, fuel)
    except (_Failure, RecursionError, MemoryError) as err:
        if not isinstance(err, _Failure):
            message = (f"resources exhausted ({type(err).__name__}); the "
                       "input is too deep or too large")
            err = _Failure(EXIT_USAGE, {"code": "resource-exhausted",
                                        "message": message},
                           f"tvec: {message}")
        mode = err.mode or (_mode_from(args) if args is not None else None)
        report = Report(err.status, {
            "defs": [], "mode": mode.value if mode else None, "fuel": fuel,
            "error": err.error}, note=err.note)
    finally:
        if collecting:
            gc.enable()
    rejected = args is None     # argparse rejected the command line
    as_json = "--json" in argv if rejected else args.json
    out = json.dumps(report.payload, indent=2) if as_json else report.text
    _write(sys.stdout, out)
    _write(sys.stderr, report.note)
    if rejected and not as_json:
        sys.exit(report.status)     # as argparse itself would
    return report.status


if __name__ == "__main__":
    sys.exit(main())
