"""Command-line front door: check, eval, erase, selftest.

Exit codes are disjoint by construction: 0 is success, 1 is a failed
check, evaluation, or self-test, and 2 is anything that prevented the
request from being carried out at all (usage, unreadable file, syntax
error).  With `--json` the report on stdout is well-formed JSON whatever
happens; human diagnostics go to stderr either way.

The reduction budget comes from `--fuel`, falling back to the TVEC_FUEL
environment variable and then to the built-in default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .erase import erase
from .frontend import (
    ParseError, ResolveError, ResolvedDef, ResolvedFile, parse, pretty,
    resolve_defs,
)
from .oracle import ENUM_CAP, run_property_suite
from .reduce import DEFAULT_FUEL, FuelExhausted, Stuck, eval_cbv, normalize
from .syntax import free_vars
from .typecheck import Checker, Inferred, Mode

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


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    st.add_argument("--size", type=int, default=6, metavar="N",
                    help=f"term size bound, at most {ENUM_CAP} (default 6)")
    _add_common(st)
    return ap


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
            raise ValueError(f"TVEC_FUEL must be an integer, got {raw!r}")
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    return fuel


def _mode_from(args: argparse.Namespace) -> Mode | None:
    return Mode(args.mode) if args.mode else None


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _error_payload(fuel: int, mode: Mode | None, code: str,
                   message: str, diagnostic: dict | None = None) -> dict:
    return {
        "defs": [],
        "mode": mode.value if mode else None,
        "fuel": fuel,
        "error": diagnostic or {"code": code, "message": message},
    }


def _load(args: argparse.Namespace, fuel: int):
    """Read, parse, and resolve; returns (resolved, None) or (None, exit).

    I/O and syntax errors are exit 2; resolution errors (unknown or
    duplicate names, recursion) mean a syntactically fine file that does
    not define what it claims, and are exit 1 like any other failure.
    """
    mode = _mode_from(args)
    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        # an OSError names the file itself; a decoding error does not
        message = str(err) if isinstance(err, OSError) \
            else f"{args.path}: {err}"
        if args.json:
            _emit(_error_payload(fuel, mode, "io-error", message))
        print(f"tvec: {message}", file=sys.stderr)
        return None, EXIT_USAGE
    try:
        resolved = resolve_defs(parse(text), mode)
    except ParseError as err:
        if args.json:
            _emit(_error_payload(fuel, mode, "parse-error", str(err),
                                 err.diagnostic.to_json()))
        print(f"tvec: {args.path}: {err.diagnostic.render()}",
              file=sys.stderr)
        return None, EXIT_USAGE
    except ResolveError as err:
        if args.json:
            _emit(_error_payload(fuel, mode, "resolve-error", str(err),
                                 err.diagnostic.to_json()))
        print(f"tvec: {args.path}: {err.diagnostic.render()}",
              file=sys.stderr)
        return None, EXIT_FAIL
    return resolved, None


def _find_def(args: argparse.Namespace, fuel: int,
              resolved: ResolvedFile) -> ResolvedDef | None:
    """The definition named on the command line, or None once reported."""
    for d in resolved.defs:
        if d.name == args.name:
            return d
    if args.json:
        _emit(_error_payload(fuel, resolved.mode, "unknown-def",
                             f"no definition named {args.name}"))
    print(f"tvec: {args.path}: no definition named {args.name}",
          file=sys.stderr)
    return None


def _cmd_check(args: argparse.Namespace, fuel: int) -> int:
    resolved, failed = _load(args, fuel)
    if resolved is None:
        return failed
    checker = Checker(fuel, resolved.mode)
    report: list[dict] = []
    lines: list[str] = []
    failure = None
    for d in resolved.defs:
        res = checker.check_against(resolved.assumptions, d.body, d.ty)
        if isinstance(res, Inferred):
            lines.append(f"{d.name} : {pretty(d.declared)}")
            report.append({"name": d.name, "type": pretty(d.declared),
                           "status": "ok", "diagnostic": None})
        else:
            report.append({"name": d.name, "type": pretty(d.declared),
                           "status": "error",
                           "diagnostic": res.diagnostic.to_json()})
            failure = (d.name, res.diagnostic)
            break
    if args.json:
        _emit({"defs": report, "mode": resolved.mode.value, "fuel": fuel})
    else:
        for line in lines:
            print(line)
    if failure is not None:
        name, diag = failure
        print(f"tvec: {args.path}: definition {name} failed to check",
              file=sys.stderr)
        print(diag.render(indent=1), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _print_step(step: int, term) -> None:
    print(f"{step:>5}  {pretty(term)}", file=sys.stderr)


def _cmd_eval(args: argparse.Namespace, fuel: int) -> int:
    resolved, failed = _load(args, fuel)
    if resolved is None:
        return failed
    d = _find_def(args, fuel, resolved)
    if d is None:
        return EXIT_FAIL

    checker = Checker(fuel, resolved.mode)
    res = checker.check_against(resolved.assumptions, d.body, d.ty)
    if not isinstance(res, Inferred):
        if args.json:
            _emit(_error_payload(fuel, resolved.mode, "check-failed",
                                 f"definition {args.name} does not check",
                                 res.diagnostic.to_json()))
        print(f"tvec: {args.path}: definition {args.name} failed to check",
              file=sys.stderr)
        print(res.diagnostic.render(indent=1), file=sys.stderr)
        return EXIT_FAIL

    erasure = erase(d.body)
    closed = not free_vars(d.body) and not len(resolved.assumptions)
    on_step = None
    if args.trace:
        _print_step(0, erasure)
        on_step = _print_step
    if args.strategy == CBV:
        outcome = eval_cbv(erasure, fuel, on_step=on_step)
    else:
        outcome = normalize(erasure, fuel, on_step=on_step)

    kind = type(outcome).__name__
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

    if args.json:
        _emit({
            "def": d.name,
            "strategy": args.strategy,
            "mode": resolved.mode.value,
            "fuel": fuel,
            "closed": closed,
            "kind": kind,
            "term": pretty(outcome.term),
            "steps": steps,
            "note": note,
        })
    else:
        print(f"{pretty(outcome.term)}, {kind}, {steps} steps")
    if note is not None:
        print(f"tvec: {note}", file=sys.stderr)
    return code


def _cmd_erase(args: argparse.Namespace, fuel: int) -> int:
    resolved, failed = _load(args, fuel)
    if resolved is None:
        return failed
    d = _find_def(args, fuel, resolved)
    if d is None:
        return EXIT_FAIL
    erasure = erase(d.body)
    if args.json:
        _emit({"def": d.name, "mode": resolved.mode.value,
               "erasure": pretty(erasure)})
    else:
        print(pretty(erasure))
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace, fuel: int) -> int:
    if not 1 <= args.size <= ENUM_CAP:
        print(f"tvec: --size must be between 1 and {ENUM_CAP}",
              file=sys.stderr)
        return EXIT_USAGE
    modes = [Mode(args.mode)] if args.mode else list(Mode)
    reports = [run_property_suite(size=args.size, mode=m, fuel=fuel)
               for m in modes]
    ok = all(r.ok and r.undecided == 0 for r in reports)
    if args.json:
        _emit({"reports": [r.to_json() for r in reports], "ok": ok})
    else:
        print("\n\n".join(r.render() for r in reports))
    return EXIT_OK if ok else EXIT_FAIL


_COMMANDS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "erase": _cmd_erase,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        fuel = _fuel_from(args)
    except ValueError as err:
        print(f"tvec: {err}", file=sys.stderr)
        return EXIT_USAGE
    return _COMMANDS[args.command](args, fuel)


if __name__ == "__main__":
    sys.exit(main())
