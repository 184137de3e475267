"""Reference checker, independent of the nameless `tvec.typecheck`.

This checker names every binder as it meets it: it opens the whole body
with a fresh free name (`open1`), picks that name by collecting the free
names of the body, closes the body's type again (`close1`), and for
implicit binders erases the opened body again to look for the name.  Its
open and close come from `locally_nameless`, which walks terms on its
own, and its erasure from `reference_erase`, so this checker shares no
walker with `tvec.typecheck` and does not use `tvec.erase`.
`tvec.typecheck` keeps every type in de Bruijn form instead, and makes
names only when a diagnostic is printed.  `test_typecheck.py` checks
that both checkers give the same verdict, alpha-equal types, the same
diagnostic text and the same rule hits.  Two differences are intended.
A diagnostic at a bound variable has a span only in `tvec.typecheck`:
opening replaces the parsed `BVar` by an `FVar` without one, so this
checker reports `(0, 0)` there.  And `tvec.typecheck` names a binder
avoiding the free names of the whole term, not of the body, which picks
the same name whenever the term's free names are in the context.
"""

from __future__ import annotations

from collections import Counter

from tvec.frontend import pretty
from tvec.reduce import DEFAULT_FUEL, FuelExhausted, normalize
from tvec.syntax import (
    AllTy, AnnTerm, BVar, Cons, Context, EqTy, FVar, IfZeroTy, NatTy, Nil,
    PiTy, Span, Succ, App, TAppImp, TCast, TFoldS, TFoldZ, TJoin, TLam,
    TLamImp, TNil, TQApp, TQLam, TRNat, TRVec, TUnfoldS, TUnfoldZ,
    Ty, VecTy, Zero, alpha_eq, ctx_ok, free_vars, fresh_name,
)
from tvec.typecheck import (
    RULES, CheckResult, Diagnostic, Failure, Inferred, Mode,
)

from locally_nameless import close1, open1, open2
from reference_erase import erase


class _CheckError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


def _fmt(node) -> str:
    return pretty(node)


def _span(node) -> Span:
    return node.span or (0, 0)


class Checker:
    """The checker for one mode; it accepts exactly the rules in RULES."""

    def __init__(self, fuel: int = DEFAULT_FUEL, mode: Mode = Mode.BASE):
        self.fuel = fuel
        self.mode = mode
        self.rules = RULES[mode]
        self.rule_hits: Counter[str] = Counter()

    # -- public entry points -------------------------------------------

    def infer(self, ctx: Context, t: AnnTerm) -> CheckResult:
        if not ctx_ok(ctx):
            return Failure(Diagnostic(
                "context", "context is not well-scoped", (0, 0),
                code="context-ill-scoped"))
        try:
            return Inferred(self._infer(ctx, t))
        except _CheckError as err:
            return Failure(err.diagnostic)

    def check_against(self, ctx: Context, t: AnnTerm, expected: Ty) -> CheckResult:
        res = self.infer(ctx, t)
        if isinstance(res, Failure):
            return res
        if not alpha_eq(res.type, expected):
            return Failure(Diagnostic(
                "check", "inferred type does not match the declared type",
                _span(t), code="type-mismatch",
                expected=_fmt(expected), actual=_fmt(res.type)))
        return res

    # -- failure helpers -----------------------------------------------

    def _hit(self, rule: str) -> None:
        self.rule_hits[rule] += 1

    def _fail(self, rule: str, node, message: str, *, code: str,
              expected: str | None = None, actual: str | None = None,
              children: tuple[Diagnostic, ...] = ()) -> None:
        raise _CheckError(Diagnostic(
            rule, message, _span(node), code=code,
            expected=expected, actual=actual, children=children))

    def _scope_check(self, rule: str, node, ty: Ty, ctx: Context) -> None:
        loose = free_vars(ty) - ctx.names()
        if loose:
            names = ", ".join(sorted(loose))
            self._fail(rule, node,
                       f"annotation mentions names not in scope: {names}",
                       code="scope-violation", actual=_fmt(ty))

    def _expect_alpha(self, rule: str, node, actual: Ty, expected: Ty,
                      what: str) -> None:
        if not alpha_eq(actual, expected):
            self._fail(rule, node, f"{what} has the wrong type",
                       code="type-mismatch",
                       expected=_fmt(expected), actual=_fmt(actual))

    def _gate(self, rule: str, node, construct: str) -> None:
        """Fail with a mode violation unless the mode has `rule`; then count
        the attempt, so a violation leaves `rule_hits` untouched."""
        if rule not in self.rules:
            self._fail(rule, node,
                       f"{construct} is not part of {self.mode.value} mode",
                       code="mode-violation")
        self._hit(rule)

    # -- the rules -----------------------------------------------------

    def _infer(self, ctx: Context, t: AnnTerm) -> Ty:
        match t:
            # ---------------------------------------- x : ctx(x)
            case FVar(name):
                self._hit("var")
                ty = ctx.lookup(name)
                if ty is None:
                    self._fail("var", t, f"unbound variable {name}",
                               code="unbound-variable")
                return ty
            case BVar():
                self._hit("var")
                self._fail("var", t, "dangling bound variable "
                           "(term is not locally closed)",
                           code="unbound-variable")
            # ---------------------------------------- 0 : Nat
            case Zero():
                self._hit("zero")
                return NatTy()
            # t : Nat
            # ---------------------------------------- S t : Nat
            case Succ(pred):
                self._hit("succ")
                pty = self._infer(ctx, pred)
                self._expect_alpha("succ", pred, pty, NatTy(),
                                   "successor argument")
                return NatTy()
            # ---------------------------------------- nil A : Vec A 0
            case TNil(elem):
                self._hit("nil")
                self._scope_check("nil", t, elem, ctx)
                return VecTy(elem, Zero())
            # h : A   tl : Vec A n
            # ---------------------------------------- cons h tl : Vec A (S n)
            case Cons(head, tail):
                self._hit("cons")
                tail_ty = self._infer(ctx, tail)
                if not isinstance(tail_ty, VecTy):
                    self._fail("cons", tail, "cons tail is not a vector",
                               code="shape-mismatch", actual=_fmt(tail_ty))
                head_ty = self._infer(ctx, head)
                self._expect_alpha("cons", head, head_ty, tail_ty.elem,
                                   "cons head")
                return VecTy(tail_ty.elem, Succ(tail_ty.length))
            # ctx, x:A |- t : B
            # ---------------------------------------- fun x:A => t : Pi x:A. B
            case TLam():
                self._hit("abs")
                hint, dom, cod = self._binder("abs", ctx, t, erased_absent=False)
                return PiTy(hint, dom, cod)
            # ctx, x:A |- t : B    x not free in |t|
            # -------------------------------------- ifun x:A => t : All x:A. B
            case TLamImp():
                self._gate("spec-abs", t, "implicit abstraction")
                hint, dom, cod = self._binder("spec-abs", ctx, t,
                                              erased_absent=True)
                return AllTy(hint, dom, cod)
            # f : Pi x:A. B   a : A
            # ---------------------------------------- f a : B[x := |a|]
            case App(fn, arg):
                self._hit("app")
                fn_ty = self._infer(ctx, fn)
                if not isinstance(fn_ty, PiTy):
                    self._fail("app", fn, "application head is not a function",
                               code="shape-mismatch", actual=_fmt(fn_ty))
                arg_ty = self._infer(ctx, arg)
                self._expect_alpha("app", arg, arg_ty, fn_ty.dom,
                                   "function argument")
                return open1(fn_ty.cod, erase(arg))
            # f : All x:A. B   a : A
            # ---------------------------------------- f @[a] : B[x := |a|]
            case TAppImp(fn, arg):
                self._gate("spec-app", t, "implicit application")
                return self._instantiate(
                    "spec-app", ctx, fn, arg,
                    "implicit application head is not an implicit product",
                    "implicit argument")
            # t : A   t' : B   |t| and |t'| joinable
            # ---------------------------------------- join t t' : |t| = |t'|
            case TJoin(lhs, rhs):
                self._hit("join")
                self._infer(ctx, lhs)
                self._infer(ctx, rhs)
                return self._join_type(t, lhs, rhs)
            # p : a = b   t : M[x := a]
            # ---------------------------------------- cast x.M p t : M[x := b]
            case TCast(_, motive, proof, body):
                self._hit("cast")
                self._scope_check("cast", t, motive, ctx)
                proof_ty = self._infer(ctx, proof)
                if not isinstance(proof_ty, EqTy):
                    self._fail("cast", proof, "cast proof is not an equation",
                               code="shape-mismatch", actual=_fmt(proof_ty))
                body_ty = self._infer(ctx, body)
                self._expect_alpha("cast", body, body_ty,
                                   open1(motive, proof_ty.lhs), "cast subject")
                return open1(motive, proof_ty.rhs)
            # n : Nat   b : M[0]   s : Pi y:Nat. Pi u:M[y]. M[S y]
            # ---------------------------------------- rnat x.M b s n : M[|n|]
            case TRNat(_, motive, base, step, scrut):
                self._hit("rnat")
                self._scope_check("rnat", t, motive, ctx)
                scrut_ty = self._infer(ctx, scrut)
                self._expect_alpha("rnat", scrut, scrut_ty, NatTy(),
                                   "recursor scrutinee")
                base_ty = self._infer(ctx, base)
                self._expect_alpha("rnat", base, base_ty,
                                   open1(motive, Zero()), "recursor base")
                step_ty = self._infer(ctx, step)
                self._expect_alpha("rnat", step, step_ty,
                                   self._rnat_step_ty(ctx, motive),
                                   "recursor step")
                return open1(motive, erase(scrut))
            # v : Vec A n   b : M[0, nil]
            # s : All l:Nat. Pi z:A. Pi v:Vec A l. Pi u:M[l, v]. M[S l, cons z v]
            # ---------------------------------------- rvec x.y.M b s v : M[n, |v|]
            case TRVec(_, _, motive, base, step, scrut):
                self._hit("rvec")
                self._scope_check("rvec", t, motive, ctx)
                scrut_ty = self._infer(ctx, scrut)
                if not isinstance(scrut_ty, VecTy):
                    self._fail("rvec", scrut,
                               "vector recursor scrutinee is not a vector",
                               code="shape-mismatch", actual=_fmt(scrut_ty))
                base_ty = self._infer(ctx, base)
                self._expect_alpha("rvec", base, base_ty,
                                   open2(motive, Zero(), Nil()),
                                   "recursor base")
                step_ty = self._infer(ctx, step)
                self._expect_alpha("rvec", step, step_ty,
                                   self._rvec_step_ty(ctx, motive, scrut_ty.elem),
                                   "recursor step")
                return open2(motive, scrut_ty.length, erase(scrut))
            # quasi-implicit and fold/unfold forms: large-elim mode only
            # ctx, x:A |- t : B    x not free in |t|
            # -------------------------------------- qfun x:A => t : All x:A. B
            case TQLam():
                self._gate("quasi-abs", t, "quasi-implicit abstraction")
                hint, dom, cod = self._binder("quasi-abs", ctx, t,
                                              erased_absent=True)
                return AllTy(hint, dom, cod)
            # f : All x:A. B   w : A
            # ---------------------------------------- f @-[w] : B[x := |w|]
            case TQApp(fn, witness):
                self._gate("quasi-app", t, "quasi-implicit application")
                return self._instantiate(
                    "quasi-app", ctx, fn, witness,
                    "quasi-implicit application head is not a "
                    "quasi-implicit product",
                    "quasi-implicit witness")
            # t : A
            # -------------------------------------- foldz [B] t : ifzero 0 A B
            case TFoldZ(other, body):
                self._gate("fold-zero", t, "ifzero introduction")
                self._scope_check("fold-zero", t, other, ctx)
                return IfZeroTy(Zero(), self._infer(ctx, body), other)
            # t : ifzero 0 A B
            # ---------------------------------------- unfoldz t : A
            case TUnfoldZ(body):
                self._gate("unfold-zero", t, "ifzero elimination")
                body_ty = self._infer(ctx, body)
                if not isinstance(body_ty, IfZeroTy):
                    self._fail("unfold-zero", body,
                               "unfoldz subject is not an ifzero type",
                               code="shape-mismatch", actual=_fmt(body_ty))
                if not alpha_eq(body_ty.scrut, Zero()):
                    self._fail("unfold-zero", body,
                               "unfoldz needs the scrutinee to be literally 0",
                               code="scrutinee-mismatch", actual=_fmt(body_ty))
                return body_ty.on_zero
            # w : Nat   t : B
            # ----------------------------- folds [w][A] t : ifzero (S |w|) A B
            case TFoldS(witness, zero_ty, body):
                self._gate("fold-succ", t, "ifzero introduction")
                self._scope_check("fold-succ", t, zero_ty, ctx)
                wit_ty = self._infer(ctx, witness)
                self._expect_alpha("fold-succ", witness, wit_ty, NatTy(),
                                   "folds witness")
                body_ty = self._infer(ctx, body)
                return IfZeroTy(Succ(erase(witness)), zero_ty, body_ty)
            # w : Nat   t : ifzero (S |w|) A B
            # ---------------------------------------- unfolds [w] t : B
            case TUnfoldS(witness, body):
                self._gate("unfold-succ", t, "ifzero elimination")
                wit_ty = self._infer(ctx, witness)
                self._expect_alpha("unfold-succ", witness, wit_ty, NatTy(),
                                   "unfolds witness")
                body_ty = self._infer(ctx, body)
                if not isinstance(body_ty, IfZeroTy):
                    self._fail("unfold-succ", body,
                               "unfolds subject is not an ifzero type",
                               code="shape-mismatch", actual=_fmt(body_ty))
                scrut = Succ(erase(witness))
                if not alpha_eq(body_ty.scrut, scrut):
                    self._fail("unfold-succ", body,
                               "unfolds needs the scrutinee to be literally "
                               "S of the erased witness; no normalization "
                               "is applied",
                               code="scrutinee-mismatch",
                               expected=_fmt(scrut),
                               actual=_fmt(body_ty.scrut))
                return body_ty.on_succ
        raise TypeError(f"not an annotated term: {t!r}")

    # -- shared rule bodies ---------------------------------------------

    def _binder(self, rule: str, ctx: Context, t, *,
                erased_absent: bool) -> tuple[str, Ty, Ty]:
        """Check a binder form; returns (hint, dom, closed codomain)."""
        self._scope_check(rule, t, t.dom, ctx)
        avoid = ctx.names() | free_vars(t.body) | free_vars(t.dom)
        x = fresh_name(t.hint, avoid)
        opened = open1(t.body, FVar(x))
        body_ty = self._infer(ctx.extend(x, t.dom), opened)
        if erased_absent and x in free_vars(erase(opened)):
            self._fail(rule, t,
                       f"bound variable {t.hint or x} survives erasure; "
                       "it may only occur in annotations",
                       code="erased-occurrence")
        return t.hint, t.dom, close1(body_ty, x)

    def _instantiate(self, rule: str, ctx: Context, fn, arg,
                     head_message: str, what: str) -> Ty:
        """Instantiate an implicit or quasi-implicit product."""
        fn_ty = self._infer(ctx, fn)
        if not isinstance(fn_ty, AllTy):
            self._fail(rule, fn, head_message,
                       code="shape-mismatch", actual=_fmt(fn_ty))
        arg_ty = self._infer(ctx, arg)
        self._expect_alpha(rule, arg, arg_ty, fn_ty.dom, what)
        return open1(fn_ty.cod, erase(arg))

    def _join_type(self, t, lhs, rhs) -> Ty:
        lhs_e, rhs_e = erase(lhs), erase(rhs)
        # One normalization per side both decides the rule and explains a
        # failure.
        forms = []
        for side in (lhs_e, rhs_e):
            out = normalize(side, self.fuel)
            if isinstance(out, FuelExhausted):
                self._fail("join", t,
                           "undecided: fuel exhausted before both sides "
                           "reached normal form",
                           code="fuel-exhausted", actual=_fmt(out.term))
            forms.append(out)
        left, right = forms
        if alpha_eq(left.term, right.term):
            return EqTy(lhs_e, rhs_e)
        self._fail("join", t, "the two sides have distinct normal forms",
                   code="join-distinct",
                   children=(
                       Diagnostic("join",
                                  f"left normalizes to {_fmt(left.term)}",
                                  _span(lhs), code="note", severity="note"),
                       Diagnostic("join",
                                  f"right normalizes to {_fmt(right.term)}",
                                  _span(rhs), code="note", severity="note"),
                   ))

    def _rnat_step_ty(self, ctx: Context, motive: Ty) -> Ty:
        y = fresh_name("y", ctx.names() | free_vars(motive))
        u_ty = open1(motive, FVar(y))
        res_ty = open1(motive, Succ(FVar(y)))
        return PiTy("y", NatTy(), close1(PiTy("u", u_ty, res_ty), y))

    def _rvec_step_ty(self, ctx: Context, motive: Ty, elem: Ty) -> Ty:
        avoid = set(ctx.names() | free_vars(motive) | free_vars(elem))
        l = fresh_name("l", avoid)
        avoid.add(l)
        z = fresh_name("z", avoid)
        avoid.add(z)
        v = fresh_name("v", avoid)
        u_ty = open2(motive, FVar(l), FVar(v))
        res_ty = open2(motive, Succ(FVar(l)), Cons(FVar(z), FVar(v)))
        ty: Ty = PiTy("u", u_ty, res_ty)
        ty = PiTy("v", VecTy(elem, FVar(l)), close1(ty, v))
        ty = PiTy("z", elem, close1(ty, z))
        return AllTy("l", NatTy(), close1(ty, l))
