"""One round of a benchmark workload, in a fresh interpreter.

    python3 perfbench/round.py WORKLOAD SEED TRACE SPAWNED_AT \
        PRE_BEGIN PRE_END PRE_KERNEL WORKDIR

`run.py` starts this script once per round, so every round begins cold:
`tvec.oracle` keeps a process-wide enumeration cache, and a second suite
run in the same process would measure a different program.  SPAWNED_AT is
the CLOCK_MONOTONIC reading taken just before the interpreter was started;
set-up time runs from there until `tvec` is imported and the inputs are
built.  PRE_BEGIN, PRE_END and PRE_KERNEL describe the calibration
sample (`calib.measure`) that `run.py` took just before; the round also
reports its set-up and timed section in reference seconds.  The script
prints one JSON line: the round's timings, its operation and failure
counts, workload details and, when TRACE is 1, the per-layer figures from
`tracer.py`.

Each operation's answer is checked against a source independent of the
code under test: step counts and shapes derived by hand, the expected
outputs written out in `EXPECTED_EVALS`, and `tvec.corpus` for the
carried programs.  An operation that raises or answers wrong is counted
as failed; it never stops the round.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calib import Speedometer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAMS = HERE / "programs"

SELFTEST_SIZE = 6

# reduce-scaling: one size is drawn from each range.  The ranges are
# narrow because the cost per step grows with n.  LO and cbv share a
# grid; RI is cubic (append at n = 100 takes seconds), so it gets a smaller
# one.  The largest n stays well below the depth at which the recursive
# walkers overflow the default stack.
LO_CBV_RANGES = ((24, 26), (49, 51), (99, 101), (199, 201))
RI_RANGES = ((10, 11), (20, 21), (40, 41))

# check-program: one family size k is drawn from each range.  The longest
# vector literal in a family has 2k elements; the parser overflows the
# default stack near 245.
FAMILY_RANGES = ((10, 12), (29, 31), (58, 60))

# Hand-derived `tvec eval` results for the carried programs:
# name -> (printed term, steps, cbv kind).  Full normalization reports
# NormalForm with the same term and steps.  `four` and `appendDemo` are
# the figures documented for the language; plus n n takes 3n+3 steps.
EXPECTED_EVALS = {
    "vec.tvec": {
        "plus": ("fun m => fun n => rnat n (fun y => fun u => S u) m",
                 0, "Value"),
        "P1": ("join", 0, "Value"),
        "P2": ("join", 0, "Value"),
        "append": ("fun v1 => fun v2 => rvec v2 "
                   "(fun x => fun v1' => fun r => cons x r) v1", 0, "Value"),
        "append_assoc": ("fun v1 => fun v2 => fun v3 => rvec join "
                         "(fun x => fun v1' => fun r => join) v1", 0, "Value"),
        "two": ("2", 6, "Value"),
        "four": ("4", 21, "Value"),
        "v2": ("cons 1 (cons 2 nil)", 0, "Value"),
        "v3": ("cons 3 (cons 4 (cons 5 nil))", 0, "Value"),
        "appendDemo": ("cons 1 (cons 2 (cons 3 (cons 4 (cons 5 nil))))",
                       11, "Value"),
    },
    # Every definition here lives under the assumption p, so a stuck
    # result is expected and exits 0.
    "quodlibet.tvec": {
        "stuckFn": ("0", 0, "Value"),
        "stuckApp": ("0 0", 0, "Stuck"),
        "quodAll": ("qfun => 0 0", 0, "Value"),
        "viaWitness": ("0 0", 1, "Stuck"),
        "foldRoundZ": ("0", 0, "Value"),
        "foldRoundS": ("fun x => x", 0, "Value"),
    },
}


def _vec_text(elems: list[int]) -> str:
    """Surface vector literal, written out without recursion."""
    text = "nil [Nat]"
    for e in reversed(elems):
        text = f"cons {e} ({text})"
    return text


def _vec_printed(elems: list[int]) -> str:
    """How `tvec eval` prints an erased vector literal."""
    text = "nil"
    for e in reversed(elems):
        text = f"cons {e} {text}" if text == "nil" else f"cons {e} ({text})"
    return text


# --------------------------------------------------------------------------
# selftest: the property suite in both modes


def setup_selftest(rng: random.Random, workdir: Path) -> dict:
    from tvec.typecheck import Mode
    return {"modes": [Mode.BASE, Mode.LARGE_ELIM]}


def run_selftest(inputs: dict, api: dict) -> list:
    suite = api["run_property_suite"]
    results = []
    for mode in inputs["modes"]:
        t0 = time.perf_counter()
        try:
            report = suite(size=SELFTEST_SIZE, mode=mode)
        except Exception:
            report = traceback.format_exc()
        results.append((mode, report, time.perf_counter() - t0))
    return results


def verify_selftest(inputs: dict, results: list):
    checks, terms, seconds = [], 0, 0.0
    for mode, report, dt in results:
        label = f"selftest:{mode.value}"
        if isinstance(report, str):
            checks.append((label, False, report))
            continue
        ok = report.ok and report.undecided == 0
        checks.append((label, ok, "" if ok else
                       f"ok={report.ok} undecided={report.undecided}"))
        open_terms = next(p.checked for p in report.properties
                          if p.name == "P4")
        terms += report.enumerated + open_terms
        seconds += dt
    detail = {"selftest_terms": terms,
              "selftest_terms_per_s": terms / seconds if seconds else 0.0}
    return checks, detail


# --------------------------------------------------------------------------
# reduce-scaling: erased plus and append families, no parsing or checking


def _uvec(elems: list[int]):
    from tvec.corpus import unum
    from tvec.syntax import Cons, Nil
    t = Nil()
    for e in reversed(elems):
        t = Cons(unum(e), t)
    return t


def setup_reduce(rng: random.Random, workdir: Path) -> dict:
    from tvec.corpus import append_u, plus_u, unum
    ops = []
    for strategies, ranges in ((("lo", "cbv"), LO_CBV_RANGES),
                               (("ri",), RI_RANGES)):
        for lo, hi in ranges:
            n = rng.randint(lo, hi)
            plus = plus_u(unum(n), unum(n))
            a = [rng.randrange(4) for _ in range(n)]
            b = [rng.randrange(4) for _ in range(n)]
            append = append_u(_uvec(a), _uvec(b))
            for strategy in strategies:
                ops.append(("plus", strategy, n, plus, [2 * n], 3 * n + 3))
                ops.append(("append", strategy, n, append, a + b, 4 * n + 3))
    rng.shuffle(ops)
    return {"ops": ops}


def run_reduce(inputs: dict, api: dict) -> list:
    from tvec.reduce import RIGHTMOST_INNERMOST
    normalize, eval_cbv = api["normalize"], api["eval_cbv"]
    results = []
    for family, strategy, n, term, _, _ in inputs["ops"]:
        t0 = time.perf_counter()
        try:
            if strategy == "lo":
                out = normalize(term)
            elif strategy == "ri":
                out = normalize(term, strategy=RIGHTMOST_INNERMOST)
            else:
                out = eval_cbv(term)
        except Exception:
            out = traceback.format_exc()
        results.append((out, time.perf_counter() - t0))
    return results


def _numeral_value(t) -> int | None:
    from tvec.syntax import Succ, Zero
    k = 0
    while isinstance(t, Succ):
        t, k = t.pred, k + 1
    return k if isinstance(t, Zero) else None


def _shape_ok(family: str, term, expected: list[int]) -> bool:
    """Whether the result is the expected numeral or vector literal."""
    from tvec.syntax import Cons, Nil
    if family == "plus":
        return _numeral_value(term) == expected[0]
    elems = []
    while isinstance(term, Cons):
        elems.append(_numeral_value(term.head))
        term = term.tail
    return isinstance(term, Nil) and elems == expected


def verify_reduce(inputs: dict, results: list):
    checks = []
    time_by = {"lo": 0.0, "ri": 0.0, "cbv": 0.0}
    steps_by = {"lo": 0, "ri": 0, "cbv": 0}
    per_size: dict[tuple[str, int], list[float]] = {}
    for (family, strategy, n, _, expected, steps), (out, dt) in zip(
            inputs["ops"], results):
        label = f"{family}:{strategy}:{n}"
        if isinstance(out, str):
            checks.append((label, False, out))
            continue
        kind = "Value" if strategy == "cbv" else "NormalForm"
        got_steps = getattr(out, "steps", None)
        ok = (type(out).__name__ == kind and got_steps == steps
              and _shape_ok(family, out.term, expected))
        checks.append((label, ok, "" if ok else
                       f"{type(out).__name__}, {got_steps} steps, "
                       f"expected {kind}, {steps} steps"))
        time_by[strategy] += dt
        steps_by[strategy] += steps
        acc = per_size.setdefault((strategy, n), [0.0, 0])
        acc[0] += dt
        acc[1] += steps
    detail = {}
    for strategy in ("lo", "ri", "cbv"):
        done = steps_by[strategy]
        detail[f"{strategy}_us_per_step"] = (
            time_by[strategy] / done * 1e6 if done else 0.0)
        sizes = sorted(n for s, n in per_size if s == strategy)
        if sizes:
            small = per_size[(strategy, sizes[0])]
            large = per_size[(strategy, sizes[-1])]
            detail[f"{strategy}_step_growth"] = (
                (large[0] / large[1]) / (small[0] / small[1]))
    return checks, detail


# --------------------------------------------------------------------------
# check-program: `tvec check` and `tvec eval` through the CLI, in process


def _family_defs(k: int, a: list[int], b: list[int]) -> tuple[str, dict]:
    """Closed definitions over plus and append at size k, and their
    expected eval results (printed term, steps, cbv kind)."""
    text = f"""
def sum{k} : plus {k} {k} = {2 * k} = join (plus {k} {k}) {2 * k}

def sumVal{k} : Nat = plus {k} {k}

def a{k} : Vec Nat {k} = {_vec_text(a)}

def b{k} : Vec Nat {k} = {_vec_text(b)}

def ab{k} : Vec Nat (plus {k} {k}) = append @[{k}] @[{k}] a{k} b{k}

def abLit{k} : Vec Nat {2 * k} = {_vec_text(a + b)}

def abEq{k} : append a{k} b{k} = abLit{k} =
  join (append @[{k}] @[{k}] a{k} b{k}) abLit{k}
"""
    expected = {
        f"sum{k}": ("join", 0, "Value"),
        f"sumVal{k}": (str(2 * k), 3 * k + 3, "Value"),
        f"a{k}": (_vec_printed(a), 0, "Value"),
        f"b{k}": (_vec_printed(b), 0, "Value"),
        f"ab{k}": (_vec_printed(a + b), 4 * k + 3, "Value"),
        f"abLit{k}": (_vec_printed(a + b), 0, "Value"),
        f"abEq{k}": ("join", 0, "Value"),
    }
    return text, expected


def setup_check(rng: random.Random, workdir: Path) -> dict:
    vec_text = (PROGRAMS / "vec.tvec").read_text()
    files = [(label, PROGRAMS / label, expected, len(expected))
             for label, expected in EXPECTED_EVALS.items()]
    # Each family file extends vec.tvec, whose own definitions are
    # evaluated through vec.tvec itself.
    for lo, hi in FAMILY_RANGES:
        k = rng.randint(lo, hi)
        a = [rng.randrange(4) for _ in range(k)]
        b = [rng.randrange(4) for _ in range(k)]
        text, expected = _family_defs(k, a, b)
        path = workdir / f"family{k}.tvec"
        path.write_text(vec_text + text)
        files.append((path.name, path, expected,
                      len(EXPECTED_EVALS["vec.tvec"]) + len(expected)))
    ops = []
    for label, path, expected, ndefs in files:
        ops.append(("check", label, str(path), None, ndefs))
        for name, want in expected.items():
            for strategy in ("cbv", "full"):
                ops.append(("eval", label, str(path), (name, strategy),
                            want))
    rng.shuffle(ops)
    return {"ops": ops}


def run_check(inputs: dict, api: dict) -> list:
    main = api["main"]
    results = []
    for command, _, path, target, _ in inputs["ops"]:
        argv = [command, path]
        if target is not None:
            argv += [target[0], "--strategy", target[1]]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception:
            code = traceback.format_exc()
        results.append((code, out.getvalue(), time.perf_counter() - t0))
    return results


def _corpus_checks() -> list:
    """The carried programs must resolve alpha-equal to tvec.corpus."""
    from tvec import corpus
    from tvec.frontend import parse, resolve_defs
    from tvec.syntax import alpha_eq
    checks = []
    for label, defs in (("vec.tvec", corpus.base_corpus()),
                        ("quodlibet.tvec", corpus.ext_corpus())):
        try:
            got = resolve_defs(parse((PROGRAMS / label).read_text())).defs
            bad = [w.name for g, w in zip(got, defs)
                   if g.name != w.name or not alpha_eq(g.ty, w.ty)
                   or not alpha_eq(g.body, w.body)]
            if len(got) != len(defs):
                bad.append(f"{len(got)} defs, expected {len(defs)}")
            checks.append((f"corpus:{label}", not bad,
                           "differs: " + ", ".join(bad) if bad else ""))
        except Exception:
            checks.append((f"corpus:{label}", False, traceback.format_exc()))
    return checks


def verify_check(inputs: dict, results: list):
    checks = []
    check_s = eval_s = 0.0
    for (command, label, _, target, want), (code, out, dt) in zip(
            inputs["ops"], results):
        if command == "check":
            check_s += dt
            lines = out.splitlines()
            ok = code == 0 and len(lines) == want
            checks.append((f"check:{label}", ok, "" if ok else
                           f"exit {code!r}, {len(lines)} lines"))
            continue
        eval_s += dt
        name, strategy = target
        printed, steps, cbv_kind = want
        kind = cbv_kind if strategy == "cbv" else "NormalForm"
        line = f"{printed}, {kind}, {steps} steps"
        ok = code == 0 and out.strip() == line
        checks.append((f"eval:{label}:{name}:{strategy}", ok, "" if ok else
                       f"exit {code!r}, got {out.strip()[:200]!r}"))
    checks += _corpus_checks()
    return checks, {"check_s": check_s, "eval_s": eval_s}


WORKLOADS = {
    "selftest": (setup_selftest, run_selftest, verify_selftest),
    "reduce-scaling": (setup_reduce, run_reduce, verify_reduce),
    "check-program": (setup_check, run_check, verify_check),
}


# --------------------------------------------------------------------------


def _api(tracer):
    """The entry points the workloads call, wrapped when tracing."""
    import tvec.cli
    import tvec.oracle
    import tvec.reduce
    api = {"run_property_suite": tvec.oracle.run_property_suite,
           "normalize": tvec.reduce.normalize,
           "eval_cbv": tvec.reduce.eval_cbv,
           "main": tvec.cli.main}
    if tracer is not None:
        spans = {"run_property_suite": "oracle.run_property_suite",
                 "normalize": "reduce.normalize",
                 "eval_cbv": "reduce.eval_cbv",
                 "main": "cli.main"}
        api = {k: tracer.wrap(fn, spans[k]) for k, fn in api.items()}
    return api


def main(argv: list[str]) -> int:
    workload, seed, traced, spawned_at, *pre, workdir = argv
    # The round samples the interpreter's speed from its first line to the
    # end of the timed section.  The parent's sample, taken just before it
    # started this interpreter, covers interpreter start-up.
    speed = Speedometer([tuple(float(x) for x in pre)])
    speed.start()
    try:
        return _round(workload, int(seed), traced == "1", float(spawned_at),
                      Path(workdir), speed)
    finally:
        speed.stop()


def _round(workload: str, seed: int, traced: bool, spawned_at: float,
           workdir: Path, speed: Speedometer) -> int:
    setup, run, verify = WORKLOADS[workload]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tvec
        import tvec.cli  # noqa: F401  (the package does not import it)
    except ImportError as err:
        print(f"round: cannot import tvec: {err}", file=sys.stderr)
        return 3
    if Path(tvec.__file__).resolve().parent != ROOT / "src" / "tvec":
        print(f"round: tvec imported from {tvec.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 3

    inputs = setup(random.Random(seed), workdir)
    setup_end = clock()

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    api = _api(tracer)

    t0 = clock()
    results = run(inputs, api)
    t1 = clock()
    speed.stop()

    record = {
        "setup_s": setup_end - spawned_at,
        "wall_s": t1 - t0,
        "setup_ref_s": speed.reference_s(spawned_at, setup_end),
        "wall_ref_s": speed.reference_s(t0, t1),
        "kernel_s": statistics.median(speed.kernel_s()),
    }
    if tracer is not None:
        # Summarize before verifying, whose own calls into tvec are not
        # part of the round.
        record["layers"] = tracer.summarize(t1 - t0)
        tracer.write(workdir.parent / f"spans-{workload}.bin")
    checks, detail = verify(inputs, results)
    failures = [f"{label}: {why}" for label, ok, why in checks if not ok]
    record.update({
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(checks),
        "failed": len(failures),
        "failures": failures[:5],
        "detail": detail,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
