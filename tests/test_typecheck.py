"""Base-mode checking: one syntax-directed rule per construct."""

import copy
import dataclasses
import gc
import importlib
import pickle
import sys
import time
import weakref
from collections import Counter
from typing import get_args

import pytest

import reference_checker
import tvec.frontend
import tvec.syntax
import tvec.typecheck
from cli_transcript import BROKEN, FAMILY
from conftest import EXAMPLES, QUODLIBET_PATH, VEC_PATH
from tvec.cli import main
from tvec.corpus import (
    append_body, append_ty, base_corpus, ext_assumptions, ext_corpus, num,
    p1_body, p1_ty, plus_body, plus_ty,
)
from tvec.erase import _ERASE, erase
from tvec.frontend import (
    ParseError, ResolveError, parse, parse_term, pretty, resolve_defs,
)
from tvec.oracle import enumerate_terms
from tvec.syntax import (
    AllTy, AnnTerm, BVar, Context, EqTy, FVar, Join, Lam, NatTy, Nil, PiTy,
    QApp, QLam, RNat, Span, Succ, App, TAppImp, TCast, Cons, TJoin, TLam,
    TLamImp, TNil, TQLam, TRNat, VecTy, Zero, alpha_eq, node_count,
)
from tvec.typecheck import (
    BASE_RULES, RULES, Checker, Diagnostic, Failure, Inferred, Mode,
)

NAT = NatTy()
ERASE = importlib.import_module("tvec.erase")   # `tvec.erase` is the function


def inferred(ctx, t):
    res = Checker().infer(ctx, t)
    assert isinstance(res, Inferred), res
    return res.type


def failure(ctx, t):
    res = Checker().infer(ctx, t)
    assert isinstance(res, Failure), f"expected a failure, got {res}"
    return res.diagnostic


class TestRulePositive:
    @pytest.mark.parametrize("t, ty", [
        (Zero(), NAT),
        (num(3), NAT),
        (TNil(NAT), VecTy(NAT, Zero())),
        (Cons(Zero(), TNil(NAT)), VecTy(NAT, Succ(Zero()))),
        (TLam("x", NAT, BVar(0)), PiTy("x", NAT, NAT)),
        (App(TLam("x", NAT, BVar(0)), Zero()), NAT),
        (TJoin(Zero(), Zero()), EqTy(Zero(), Zero())),
    ])
    def test_closed(self, t, ty):
        assert alpha_eq(inferred(Context(), t), ty)

    def test_var(self):
        ctx = Context().extend("n", NAT)
        assert inferred(ctx, FVar("n")) == NAT

    def test_application_substitutes_erasure_into_codomain(self):
        # f : Pi n:Nat. Vec Nat n, so f 2 : Vec Nat 2
        ctx = Context().extend("f", PiTy("n", NAT, VecTy(NAT, BVar(0))))
        got = inferred(ctx, App(FVar("f"), num(2)))
        assert got == VecTy(NAT, erase(num(2)))

    def test_implicit_abstraction(self):
        # ifun l => join: l never reaches the erasure
        t = TLamImp("l", NAT, TJoin(Zero(), Zero()))
        assert inferred(Context(), t) == AllTy("l", NAT,
                                               EqTy(Zero(), Zero()))

    def test_implicit_application(self):
        t = TAppImp(TLamImp("l", NAT, TJoin(Zero(), Zero())), num(7))
        assert inferred(Context(), t) == EqTy(Zero(), Zero())

    def test_implicit_binder_may_appear_in_annotations(self):
        # ifun l => nil-cast chain may mention l in types freely
        t = TLamImp("l", NAT,
                    TCast("w", VecTy(NAT, Zero()),
                          TJoin(TNil(NAT), TNil(NAT)), TNil(NAT)))
        res = Checker().infer(Context(), t)
        assert isinstance(res, Inferred)

    def test_rnat(self):
        # rnat [x. Nat] 0 (fun y => fun u => S u) 2 : Nat
        step = TLam("y", NAT, TLam("u", NAT, Succ(BVar(0))))
        t = TRNat("x", NAT, Zero(), step, num(2))
        assert inferred(Context(), t) == NAT

    def test_rnat_dependent_motive(self):
        # rnat [x. Vec Nat x] nil[Nat] step n : Vec Nat |n|
        ctx = Context().extend("n", NAT)
        step = TLam("y", NAT,
                    TLam("u", VecTy(NAT, BVar(0)),
                         Cons(Zero(), BVar(0))))
        t = TRNat("x", VecTy(NAT, BVar(0)), TNil(NAT), step, FVar("n"))
        assert inferred(ctx, t) == VecTy(NAT, FVar("n"))

    def test_cast_transports_along_equation(self):
        # p : 0 = n |- cast [w. Vec Nat w] p nil : Vec Nat n
        ctx = (Context().extend("n", NAT)
               .extend("p", EqTy(Zero(), FVar("n"))))
        t = TCast("w", VecTy(NAT, BVar(0)), FVar("p"), TNil(NAT))
        assert inferred(ctx, t) == VecTy(NAT, FVar("n"))

    def test_corpus_definitions(self):
        assert alpha_eq(inferred(Context(), plus_body()), plus_ty())
        assert alpha_eq(inferred(Context(), p1_body()), p1_ty())
        assert alpha_eq(inferred(Context(), append_body()), append_ty())


class TestRuleNegative:
    @pytest.mark.parametrize("ctx, t, rule, code", [
        (Context(), FVar("ghost"), "var", "unbound-variable"),
        (Context(), BVar(0), "var", "unbound-variable"),
        (Context(), Succ(TNil(NAT)), "succ", "type-mismatch"),
        (Context(), Cons(Zero(), Zero()), "cons", "shape-mismatch"),
        (Context(), App(Zero(), Zero()), "app", "shape-mismatch"),
        (Context(), App(TLam("x", NAT, BVar(0)), TNil(NAT)),
         "app", "type-mismatch"),
        (Context(), TJoin(Zero(), Succ(Zero())), "join", "join-distinct"),
        (Context(), TCast("w", NAT, Zero(), Zero()),
         "cast", "shape-mismatch"),
        (Context(), TNil(VecTy(NAT, FVar("n"))), "nil", "scope-violation"),
        (Context(), TQLam("q", NAT, Zero()), "quasi-abs", "mode-violation"),
    ])
    def test_codes(self, ctx, t, rule, code):
        diag = failure(ctx, t)
        assert diag.rule == rule
        assert diag.code == code

    @pytest.mark.parametrize("t", [
        TLam("x", VecTy(NAT, BVar(0)), BVar(0)),
        TLam("n", NAT, TNil(VecTy(NAT, BVar(1)))),
        TRNat("x", VecTy(NAT, BVar(1)), Zero(), Zero(), Zero()),
    ])
    def test_annotation_index_past_the_binders(self, t):
        diag = failure(Context(), t)
        assert (diag.code, diag.message) == (
            "scope-violation",
            "annotation mentions a bound variable past the enclosing binders")

    def test_annotation_may_mention_enclosing_binders(self):
        t = TLam("n", NAT, TNil(VecTy(NAT, BVar(0))))
        assert inferred(Context(), t) == \
            PiTy("n", NAT, VecTy(VecTy(NAT, BVar(0)), Zero()))

    def test_join_zero_succ_zero_rejected(self):
        # there must be no proof of 0 = S 0
        diag = failure(Context(), TJoin(Zero(), Succ(Zero())))
        assert diag.code == "join-distinct"
        notes = [c.message for c in diag.children]
        assert any("left normalizes to 0" in m for m in notes)
        assert any("right normalizes to 1" in m for m in notes)

    def test_join_fuel_exhaustion_is_undecided(self):
        # plus 2 2 needs more than three steps to meet 4
        checker = Checker(fuel=3)
        res = checker.infer(
            Context(),
            TJoin(App(App(plus_body(), num(2)), num(2)), num(4)))
        assert isinstance(res, Failure)
        assert res.diagnostic.code == "fuel-exhausted"

    def test_implicit_binder_must_not_survive_erasure(self):
        t = TLamImp("l", NAT, Succ(BVar(0)))
        diag = failure(Context(), t)
        assert diag.rule == "spec-abs"
        assert diag.code == "erased-occurrence"

    def test_ill_scoped_context_is_rejected_up_front(self):
        ctx = Context().extend("v", VecTy(NAT, FVar("n")))
        diag = failure(ctx, Zero())
        assert diag.code == "context-ill-scoped"

    def test_one_checker_rejects_a_bad_context_every_time(self):
        """A checker checks a context only when it meets one other than
        its last, and keeps only one that passes: the same bad context
        fails again, before and after a good one."""
        bad = Context().extend("v", VecTy(NAT, FVar("n")))
        good = Context().extend("n", NAT).extend("v", VecTy(NAT, FVar("n")))
        checker = Checker()
        for ctx in (bad, bad, good, bad):
            res = checker.infer(ctx, FVar("v"))
            if ctx is good:
                assert res == Inferred(VecTy(NAT, FVar("n")))
            else:
                assert isinstance(res, Failure)
                assert res.diagnostic.code == "context-ill-scoped"

    def test_rnat_base_must_match_motive_at_zero(self):
        t = TRNat("x", VecTy(NAT, BVar(0)), Zero(),
                  TLam("y", NAT, TLam("u", NAT, BVar(0))), num(1))
        diag = failure(Context(), t)
        assert diag.rule == "rnat" and diag.code == "type-mismatch"

    def test_check_against_reports_both_types(self):
        res = Checker().check_against(Context(), Zero(),
                                      VecTy(NAT, Zero()))
        assert isinstance(res, Failure)
        assert res.diagnostic.code == "type-mismatch"
        assert res.diagnostic.expected == "Vec Nat 0"
        assert res.diagnostic.actual == "Nat"


class TestCheckerBookkeeping:
    def test_rule_hits_count_attempts(self):
        checker = Checker()
        checker.infer(Context(), App(TLam("x", NAT, BVar(0)), Zero()))
        assert checker.rule_hits["app"] == 1
        assert checker.rule_hits["abs"] == 1
        assert checker.rule_hits["zero"] == 1

    def test_failed_attempts_still_count(self):
        checker = Checker()
        checker.infer(Context(), TJoin(Zero(), Succ(Zero())))
        assert checker.rule_hits["join"] == 1

    def test_base_rule_set(self):
        assert "quasi-abs" not in BASE_RULES
        assert {"spec-abs", "spec-app", "rvec"} <= BASE_RULES

    def test_diagnostics_serialize(self):
        diag = failure(Context(), TJoin(Zero(), Succ(Zero())))
        blob = diag.to_json()
        assert blob["code"] == "join-distinct"
        assert [c["severity"] for c in blob["children"]] == ["note", "note"]
        assert "distinct normal forms" in diag.render()


class TestLazyDiagnostics:
    def test_types_are_printed_only_when_read(self, monkeypatch):
        calls = 0
        real = tvec.frontend.pretty

        def counted(node):
            nonlocal calls
            calls += 1
            return real(node)

        monkeypatch.setattr(tvec.frontend, "pretty", counted)
        res = Checker().check_against(Context(), Zero(),
                                      VecTy(NAT, Zero()))
        assert isinstance(res, Failure)
        assert calls == 0
        diag = res.diagnostic
        assert (diag.expected, diag.actual) == ("Vec Nat 0", "Nat")
        assert calls == 2
        assert diag.to_json()["expected"] == "Vec Nat 0"
        assert "actual:   Nat" in diag.render()
        assert calls == 2

    def test_join_notes_are_made_only_when_read(self, monkeypatch):
        calls = counting(monkeypatch, ("pretty",), (tvec.frontend,))
        res = Checker().infer(Context(), parse_term("join 0 1"))
        assert isinstance(res, Failure)
        assert calls["pretty"] == 0
        notes = [c.message for c in res.diagnostic.children]
        assert notes == ["left normalizes to 0", "right normalizes to 1"]
        assert calls["pretty"] == 2
        assert res.diagnostic.children[0].message == notes[0]
        assert calls["pretty"] == 2

    def test_binders_are_named_only_when_read(self, monkeypatch):
        calls = counting(monkeypatch, ("fresh_name",))
        res = Checker().infer(Context(), parse_term(
            "fun x : Nat => fun y : Vec Nat x => S y"))
        assert isinstance(res, Failure)
        assert calls["fresh_name"] == 0
        assert res.diagnostic.actual == "Vec Nat x"
        assert calls["fresh_name"] == 2
        assert res.diagnostic.expected == "Nat"
        assert calls["fresh_name"] == 2
        assert Diagnostic("check", "m", (0, 0)).expected is None

    @pytest.mark.parametrize("src", [
        "join 0 1",
        "fun x : Nat => fun y : Vec Nat x => join (S x) (S (S x))",
        "fun x : Nat => cons (nil [Nat]) (nil [Vec Nat x])",
    ])
    def test_a_failure_is_a_record_like_the_reference(self, src):
        """A failure made before it is read equals, hashes and prints as
        the reference checker's eager one, and survives pickle and copy
        whether read or not."""
        t = parse_term(src)
        want = reference_checker.Checker().infer(Context(), t)
        for read in (False, True):
            got = Checker().infer(Context(), t)
            if read:
                got.diagnostic.render()
            copies = [pickle.loads(pickle.dumps(got, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for new in [got, *copies, copy.copy(got), copy.deepcopy(got)]:
                assert type(new) is Failure
                assert new == want and hash(new) == hash(want)
                assert repr(new) == repr(want)
                assert dataclasses.fields(new) == dataclasses.fields(want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.diagnostic = want.diagnostic

    def test_a_failure_holds_no_checker(self):
        t = parse_term("fun x : Nat => join (S x) x")
        gc.disable()
        try:
            checker = Checker()
            res = checker.infer(Context(), t)
            ref = weakref.ref(checker)
            del checker
            assert ref() is None
        finally:
            gc.enable()
        assert [c.message for c in res.diagnostic.children] == \
            ["left normalizes to S x", "right normalizes to x"]


# --------------------------------------------------------------------------
# the environment checker against the opening one


TWO_VARIABLES = Context().extend("a", NAT).extend("b", VecTy(NAT, Zero()))


def _outcome(diag: Diagnostic) -> tuple:
    return (diag.rule, diag.code, diag.message, diag.severity,
            diag.expected, diag.actual,
            tuple(_outcome(c) for c in diag.children))


def _spans(diag: Diagnostic) -> list[Span]:
    return [diag.span, *(s for c in diag.children for s in _spans(c))]


def assert_same_check(ctx, t, expected=None, *, mode=Mode.BASE, defs=()):
    """Both checkers agree on `t`: verdict, type up to alpha, diagnostic and
    rule hits.  A span may differ only where the reference has none.  The
    checker shares the bodies of `defs`; the reference walks every copy."""
    new = Checker(mode=mode, defs=defs)
    ref = reference_checker.Checker(mode=mode)
    if expected is None:
        got, want = new.infer(ctx, t), ref.infer(ctx, t)
    else:
        got = new.check_against(ctx, t, expected)
        want = ref.check_against(ctx, t, expected)
    assert type(got) is type(want), (pretty(t), got, want)
    if isinstance(want, Inferred):
        assert alpha_eq(got.type, want.type), pretty(t)
    else:
        assert _outcome(got.diagnostic) == _outcome(want.diagnostic), \
            pretty(t)
        for mine, theirs in zip(_spans(got.diagnostic),
                                _spans(want.diagnostic)):
            assert mine == theirs or theirs == (0, 0), pretty(t)
    assert new.rule_hits == ref.rule_hits, pretty(t)


class TestReferenceChecker:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("ctx", [Context(), TWO_VARIABLES],
                             ids=["closed", "two-variables"])
    def test_enumerated_terms(self, mode, ctx):
        # The parsed form carries spans, so the span rule is exercised too.
        for t in enumerate_terms(6, mode, ctx):
            assert_same_check(ctx, parse_term(pretty(t)), mode=mode)

    def test_corpus(self):
        for d in base_corpus():
            assert_same_check(Context(), d.body, d.ty)
        for d in ext_corpus():
            assert_same_check(ext_assumptions(), d.body, d.ty,
                              mode=Mode.LARGE_ELIM)

    @pytest.mark.parametrize("path", sorted(
        [*EXAMPLES.glob("*.tvec"),
         *(EXAMPLES.parent / "perfbench" / "programs").glob("*.tvec")]),
        ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_program_files(self, path):
        resolved = resolve_defs(parse(path.read_text(encoding="utf-8")))
        assert resolved.defs
        for d in resolved.defs:
            assert_same_check(resolved.assumptions, d.body, d.ty,
                              mode=resolved.mode)
            assert_same_check(resolved.assumptions, d.body,
                              mode=resolved.mode)

    @pytest.mark.parametrize("src", [
        "fun x : Vec Nat 0 => S x",
        "fun x : Nat => fun y : Vec Nat x => cons y y",
        "ifun l : Nat => fun v : Vec Nat l => join v (S l)",
        "ifun l : Nat => S l",
        "fun n : Nat => rnat [x. Vec Nat x] nil[Nat] 0 n",
        # shadowed hints
        "fun x : Nat => fun x : Vec Nat x => S x",
        # hints that are the context's names
        "fun a : Nat => fun b : Vec Nat a => S b",
        "fun b : Nat => fun a : Nat => join (S a) (S (S b))",
        # notes that print bound names
        "fun x : Nat => fun y : Nat => join (S x) y",
        "fun x : Nat => fun y : Nat => "
        "join ((fun z : Nat => fun w : Nat => z) x) (fun w : Nat => y)",
        # a step type that mentions an enclosing binder
        "fun n : Nat => fun v : Vec (Vec Nat n) n => "
        "rvec [l. w. Vec (Vec Nat n) l] nil[Vec Nat n] "
        "(fun k : Nat => k) v",
    ])
    def test_failures_under_binders(self, src):
        for ctx in (Context(), TWO_VARIABLES):
            assert_same_check(ctx, parse_term(src))

    @pytest.mark.parametrize("ctx", [Context(), TWO_VARIABLES],
                             ids=["closed", "two-variables"])
    @pytest.mark.parametrize("t", [
        TLamImp("", NAT, Succ(BVar(0))),
        TLam("x", NAT, TLamImp("", NAT, Succ(BVar(0)))),
        TLam("", NAT, TLamImp("", NAT, Succ(BVar(0)))),
        TLam("", NAT, TLam("", VecTy(NAT, BVar(0)), Succ(BVar(0)))),
    ], ids=["ifun", "under-x", "under-unnamed", "unnamed-dependent"])
    def test_binders_without_hints(self, ctx, t):
        assert_same_check(ctx, t)


def dependent_chain(n: int):
    """fun x0 : Nat => fun x1 : Vec Nat x0 => ... => x(n-1)"""
    t = BVar(0)
    for k in reversed(range(n)):
        t = TLam(f"x{k}", VecTy(NAT, BVar(0)) if k else NAT, t)
    return t


def shadowing(n: int):
    """fun x : Nat => ... => fun x : Nat => x, with n binders"""
    t = BVar(0)
    for _ in range(n):
        t = TLam("x", NAT, t)
    return t


@pytest.fixture
def deep_recursion():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 20_000))
    yield
    sys.setrecursionlimit(old)


def counting(monkeypatch, names, homes=(tvec.syntax, tvec.typecheck)):
    """Count the calls of the functions `names` in the modules or classes
    `homes`, recursive calls included."""
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for module in homes:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    return calls


class TestCheckingWork:
    """Checking walks each binder body once, not once per enclosing binder,
    and makes no names."""

    def test_nested_binders_over_joins(self, monkeypatch):
        def tree(depth: int, leaf: int):
            if depth == 0:
                return BVar(leaf // 2 % 50), leaf + 1
            lhs, leaf = tree(depth - 1, leaf)
            rhs, leaf = tree(depth - 1, leaf)
            return TJoin(lhs, rhs), leaf

        t, _ = tree(9, 0)
        for _ in range(50):
            t = TLam("x", NAT, t)
        size = node_count(t)
        assert size == 1123

        visits = counting(monkeypatch, ("map_vars", "_collect_free"))
        assert isinstance(Checker().infer(Context(), t), Inferred)
        assert visits.total() <= 5 * size

    @pytest.mark.usefixtures("deep_recursion")
    @pytest.mark.parametrize("family", [dependent_chain, shadowing])
    def test_deep_binders_cost_linear_work(self, family, monkeypatch):
        n = 800
        t = family(n)
        calls = counting(monkeypatch,
                         ("map_vars", "_collect_free", "fresh_name"))
        res = Checker().infer(Context(), t)
        assert isinstance(res, Inferred)
        assert calls["map_vars"] + calls["_collect_free"] <= 10 * n
        assert calls["fresh_name"] == 0
        # Pi over the same domains, down to the innermost domain raised
        # past its own binder
        ty = VecTy(NAT, BVar(1)) if family is dependent_chain else NAT
        binders = []
        while isinstance(t, TLam):
            binders.append(t)
            t = t.body
        for b in reversed(binders):
            ty = PiTy(b.hint, b.dom, ty)
        assert res.type == ty

    def test_context_is_checked_once(self, monkeypatch):
        ctx = Context().extend("n", NAT).extend("v", VecTy(NAT, FVar("n")))
        passes = 0

        def counted(t):
            nonlocal passes
            passes += 1
            return free_vars(t)

        free_vars = tvec.syntax.free_vars
        monkeypatch.setattr(tvec.syntax, "free_vars", counted)
        checker = Checker()
        for _ in range(1000):
            assert isinstance(checker.infer(ctx, FVar("v")), Inferred)
        assert passes == len(ctx), "one free_vars call per context type"


class TestRuleTable:
    """The checker and erasure each find a node's rule in one table keyed
    by class, and the tables cover exactly the annotated terms."""

    def test_tables_cover_exactly_the_annotated_terms(self):
        classes = set(get_args(AnnTerm))
        assert set(tvec.typecheck._RULES) == classes
        assert set(_ERASE) == classes

    def test_every_rule_has_a_row_and_every_row_a_mode(self):
        rows = {rule for rule, _, _ in tvec.typecheck._RULES.values()}
        for mode in Mode:
            assert RULES[mode] <= rows
        assert rows <= RULES[Mode.BASE] | RULES[Mode.LARGE_ELIM]

    @pytest.mark.parametrize("foreign", [
        NAT, VecTy(NAT, Zero()), Lam("x", BVar(0)), Join(), Nil(),
        QLam(Zero()), QApp(Zero()), RNat(Zero(), Zero(), Zero()),
    ], ids=repr)
    def test_a_foreign_class_is_a_type_error(self, foreign):
        with pytest.raises(TypeError, match="not an annotated term"):
            Checker().infer(Context(), foreign)
        with pytest.raises(TypeError, match="not an annotated term"):
            Checker().infer(Context(), TLam("x", NAT, foreign))
        with pytest.raises(TypeError, match="not an annotated term"):
            erase(foreign)

    def test_the_printer_refuses_a_term_where_a_type_goes(self):
        with pytest.raises(TypeError, match="not a type"):
            pretty(TLam("x", Zero(), BVar(0)))


# --------------------------------------------------------------------------
# the def bodies that resolution shares


def def_chain(lines: int) -> str:
    """Each def after the first uses the last one twice, so its inlined
    body, walked as a tree, is twice as large as the last one's."""
    defs = ["def d0 : Nat = 0"]
    defs += [f"def d{i} : Nat = rnat [x. Nat] d{i - 1} "
             f"(fun y : Nat => fun u : Nat => u) d{i - 1}"
             for i in range(1, lines)]
    return "\n".join(defs) + "\n"


def _sources():
    programs = EXAMPLES.parent / "perfbench" / "programs"
    files = sorted([*EXAMPLES.glob("*.tvec"), *programs.glob("*.tvec")])
    yield from ((f"{p.parent.name}/{p.name}", p.read_text(encoding="utf-8"))
                for p in files)
    yield "programs/family3", (programs / "vec.tvec").read_text(
        encoding="utf-8") + FAMILY
    yield from ((f"broken/{label}", text) for label, text in BROKEN.items())
    yield "chain10", def_chain(10)


SOURCES = dict(_sources())


def _loaded(text: str, name: str | None = None):
    """The file resolved (with `name`, for that def only), or None if it
    does not load."""
    try:
        return resolve_defs(parse(text), None, name)
    except (ParseError, ResolveError, RecursionError):
        return None


def _same(shared: Checker, plain: Checker, ctx, d) -> None:
    """Both checkers give `d` the same verdict, type (hints included),
    diagnostic and rule hits, checked against its type and inferred."""
    for run in (lambda c: c.check_against(ctx, d.body, d.ty),
                lambda c: c.infer(ctx, d.body)):
        got, want = run(shared), run(plain)
        assert type(got) is type(want), d.name
        if isinstance(want, Inferred):
            assert repr(got.type) == repr(want.type), d.name
        else:
            assert got.diagnostic.to_json() == want.diagnostic.to_json(), \
                d.name
        assert shared.rule_hits == plain.rule_hits, d.name


@pytest.mark.usefixtures("deep_recursion")     # a deep numeral's `repr`
class TestSharedDefs:
    """A checker given the resolved defs checks each inlined body once per
    context and erases it through its recorded erasure; nothing it reports
    differs from a walk of every copy."""

    @pytest.mark.parametrize("label", SOURCES)
    def test_same_as_without_sharing(self, label):
        resolved = _loaded(SOURCES[label])
        if resolved is None:
            return
        ctx, mode = resolved.assumptions, resolved.mode
        # As `tvec check` does, one checker for the file, in order; and on
        # past a failure, where the memo holds what checked before it.
        shared = Checker(mode=mode, defs=resolved.defs)
        plain = Checker(mode=mode)
        for d in resolved.defs:
            _same(shared, plain, ctx, d)
            assert d.erased == erase(d.body)
            assert repr(d.erased) == repr(erase(d.body))
        # As `tvec eval` does, a checker for one def and what it needs.
        for d in resolved.defs:
            alone = _loaded(SOURCES[label], d.name)
            target, = (e for e in alone.defs if e.name == d.name)
            _same(Checker(mode=mode, defs=alone.defs), Checker(mode=mode),
                  alone.assumptions, target)

    @pytest.mark.parametrize("label", SOURCES)
    def test_same_as_the_reference(self, label):
        resolved = _loaded(SOURCES[label])
        if resolved is None:
            return
        for d in resolved.defs:
            assert_same_check(resolved.assumptions, d.body, d.ty,
                              mode=resolved.mode, defs=resolved.defs)
            assert_same_check(resolved.assumptions, d.body,
                              mode=resolved.mode, defs=resolved.defs)

    def test_interleaved_checkers_keep_their_own_tables(self):
        """Two sharing checkers, one per file and mode, take turns def by
        def while a third file is resolved between turns; each reports
        what it reports for its file checked alone."""
        files = [resolve_defs(parse(path.read_text(encoding="utf-8")))
                 for path in (VEC_PATH, QUODLIBET_PATH)]
        assert [f.mode for f in files] == [Mode.BASE, Mode.LARGE_ELIM]

        def outcome(checker, resolved, d):
            res = checker.check_against(resolved.assumptions, d.body, d.ty)
            shown = (repr(res.type) if isinstance(res, Inferred)
                     else res.diagnostic.to_json())
            return type(res), shown, checker.rule_hits.copy()

        alone = []
        for f in files:
            checker = Checker(mode=f.mode, defs=f.defs)
            alone.append([outcome(checker, f, d) for d in f.defs])
        checkers = [Checker(mode=f.mode, defs=f.defs) for f in files]
        turns = [[] for _ in files]
        for i in range(max(len(f.defs) for f in files)):
            for f, checker, seen in zip(files, checkers, turns):
                if i < len(f.defs):
                    seen.append(outcome(checker, f, f.defs[i]))
                    resolve_defs(parse(def_chain(6)))
        assert turns == alone
        assert all(kind is Inferred for seen in turns for kind, _, _ in seen)

    def test_the_broken_files_reach_the_checker(self):
        loaded = [label for label in BROKEN
                  if _loaded(SOURCES[f"broken/{label}"]) is not None]
        assert len(loaded) >= 8

    def test_def_chain_costs_linear_work(self, tmp_path, monkeypatch,
                                         capsys):
        lines = 18
        path = tmp_path / "chain.tvec"
        path.write_text(def_chain(lines), encoding="utf-8")
        start = time.perf_counter()
        assert main(["check", str(path)]) == 0
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().out.count(" : Nat\n") == lines

        calls = counting(monkeypatch, ("_infer", "erase"),
                         (Checker, ERASE, tvec.typecheck, tvec.frontend))
        assert main(["check", str(path)]) == 0
        assert calls["_infer"] <= 10 * lines
        assert calls["erase"] <= 10 * lines

    def test_a_checker_is_freed_without_the_collector(self):
        resolved = resolve_defs(parse(VEC_PATH.read_text(encoding="utf-8")))
        gc.disable()
        try:
            checker = Checker(mode=resolved.mode, defs=resolved.defs)
            for d in resolved.defs:
                assert isinstance(checker.check_against(
                    resolved.assumptions, d.body, d.ty), Inferred)
            assert checker._memo
            ref = weakref.ref(checker)
            del checker
            assert ref() is None
        finally:
            gc.enable()

    def test_nothing_outlives_a_command(self, capsys):
        def checkers():
            return sum(isinstance(o, Checker) for o in gc.get_objects())

        gc.disable()
        try:
            before = checkers()
            for argv in (["check", str(VEC_PATH)],
                         ["eval", str(VEC_PATH), "appendDemo"]):
                assert main(argv) == 0
            assert checkers() == before
        finally:
            gc.enable()
