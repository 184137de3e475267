"""The acceptance gate: one test per shipped guarantee.

Each test here corresponds to exactly one externally visible promise, so
`pytest -v tests/test_acceptance.py` reads as a checklist with one
pass/fail line per criterion.  Loops stay inside the tests to keep that
one-line-per-criterion shape.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import tvec
from tvec import corpus
from tvec.erase import erase
from tvec.frontend import parse_term, pretty
from tvec.oracle import enumerate_terms
from tvec.reduce import (
    DEFAULT_FUEL, FuelExhausted, Stuck, Value, eval_cbv, joinable, normalize,
)
from tvec.syntax import (
    App, BVar, Cons, Context, FVar, Lam, NatTy, Nil, QLam, Succ, TJoin,
    VecTy, Zero, alpha_eq, free_vars,
)
from tvec.typecheck import BASE_RULES, EXT_RULES, Checker, Inferred, Mode

from conftest import VEC_PATH
from reference_reduce import is_value

PUBLISHED_TYPES = [
    "plus : Pi m : Nat. Pi n : Nat. Nat",
    "P1 : All l2 : Nat. l2 = plus 0 l2",
    "P2 : All l : Nat. All l2 : Nat. S (plus l l2) = plus (S l) l2",
    "append : All l1 : Nat. All l2 : Nat. Pi v1 : Vec Nat l1. "
    "Pi v2 : Vec Nat l2. Vec Nat (plus l1 l2)",
    "append_assoc : All l1 : Nat. All l2 : Nat. All l3 : Nat. "
    "Pi v1 : Vec Nat l1. Pi v2 : Vec Nat l2. Pi v3 : Vec Nat l3. "
    "append (append v1 v2) v3 = append v1 (append v2 v3)",
]


def test_criterion_1_corpus_checks_fast_with_published_types():
    # A fresh interpreter, so the timing covers start-up and imports, that
    # runs the tvec package imported here rather than any `tvec` on PATH.
    src = str(Path(tvec.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tvec.cli", "check", str(VEC_PATH)],
        capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 1.0, f"check took {elapsed:.2f}s"
    lines = proc.stdout.splitlines()
    for want in PUBLISHED_TYPES:
        assert want in lines, f"missing: {want}"


def test_criterion_2_equality_semantics_exact_booleans():
    four = corpus.unum(4)
    assert joinable(corpus.plus_u(corpus.unum(2), corpus.unum(2)),
                    four) is True
    l2 = FVar("l2")
    assert joinable(l2, corpus.plus_u(Zero(), l2)) is True
    assert joinable(Zero(), Succ(Zero())) == (Zero(), Succ(Zero()))
    res = Checker(mode=Mode.BASE).infer(
        Context(), TJoin(Zero(), Succ(Zero())))
    assert not isinstance(res, Inferred)
    assert res.diagnostic.code == "join-distinct"


def test_criterion_3_append_matches_independent_oracle():
    def numeral(k):
        t = Zero()
        for _ in range(k):
            t = Succ(t)
        return t

    def straight_line_append(xs, ys):
        chain = Nil()
        for k in reversed(xs + ys):
            chain = Cons(numeral(k), chain)
        return chain

    def literal(ks):
        chain = Nil()
        for k in reversed(ks):
            chain = Cons(numeral(k), chain)
        return chain

    left, right = [1, 2], [3, 4, 5]
    applied = App(App(erase(corpus.append_body()), literal(left)),
                  literal(right))
    outcome = eval_cbv(applied)
    assert isinstance(outcome, Value), outcome
    assert outcome.steps < 1000, outcome.steps
    assert alpha_eq(outcome.term, straight_line_append(left, right))


def test_criterion_4_stuck_application_types_in_absurd_context():
    body = corpus.stuck_app_body()
    res = Checker(mode=Mode.LARGE_ELIM).check_against(
        corpus.ext_assumptions(), body, NatTy())
    assert isinstance(res, Inferred), res
    erasure = erase(body)
    assert erasure == App(Zero(), Zero())
    outcome = eval_cbv(erasure)
    assert isinstance(outcome, Stuck), outcome


def test_criterion_5_quasi_implicit_shell_is_a_closed_value():
    body = corpus.quod_all_body()
    assert not free_vars(body)
    res = Checker(mode=Mode.LARGE_ELIM).check_against(
        Context(), body, corpus.quod_all_ty())
    assert isinstance(res, Inferred), res
    erasure = erase(body)
    assert erasure == QLam(App(Zero(), Zero()))
    assert is_value(erasure)
    outcome = eval_cbv(erasure)
    assert isinstance(outcome, Value), outcome
    assert outcome.steps == 0


def test_criterion_6_property_suite_green_in_both_modes(capsys):
    from tvec.cli import main
    started = time.perf_counter()
    code = main(["selftest", "--size", "6", "--json"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 60.0, f"selftest took {elapsed:.1f}s"
    blob = json.loads(out)
    assert blob["ok"] is True
    assert [r["mode"] for r in blob["reports"]] == ["base", "large-elim"]
    for report, rules in zip(blob["reports"], (BASE_RULES, EXT_RULES)):
        assert report["undecided"] == 0
        assert report["missing_rules"] == []
        assert all(not p["failures"] for p in report["properties"])
        assert set(report["rule_hits"]) == set(rules)
        assert all(count > 0 for count in report["rule_hits"].values())


def test_criterion_7_divergent_term_exhausts_fuel_at_any_budget():
    omega = App(Lam("x", App(BVar(0), BVar(0))),
                Lam("x", App(BVar(0), BVar(0))))
    for fuel in (1, 7, 100, 10000, DEFAULT_FUEL):
        out = normalize(omega, fuel)
        assert isinstance(out, FuelExhausted), (fuel, out)
        out = eval_cbv(omega, fuel)
        assert isinstance(out, FuelExhausted), (fuel, out)


def test_criterion_8_parse_after_pretty_is_alpha_identity():
    ctx = Context().extend("a", NatTy()).extend("b", VecTy(NatTy(), Zero()))
    total = 0
    for mode in (Mode.BASE, Mode.LARGE_ELIM):
        for where in (Context(), ctx):
            for t in enumerate_terms(6, mode=mode, ctx=where):
                reparsed = parse_term(pretty(t))
                assert alpha_eq(reparsed, t), pretty(t)
                total += 1
    assert total > 40000
