"""Syntax-directed type computation for annotated terms.

Each annotated construct determines exactly one rule, so checking is a
single recursive pass.  All type comparisons are alpha-equivalence; there
is no conversion rule.  Conversion happens only through explicit casts,
whose equations are produced by `join`, which in turn decides joinability
by fuel-bounded normalization of erasures.  A fuel-exhausted joinability
test is reported as undecided, never as a mismatch.

The checker runs in one of two modes, and a mode is its set of rules
(`RULES`).  Base mode accepts implicit abstraction and application;
large-elimination mode swaps them for quasi-implicit ones (same side
condition, but inhabitants keep an erased shell so progress survives) and
adds fold/unfold forms that move between a branch type and the matching
`ifzero` type.  Unfolding matches the scrutinee purely syntactically:
`unfoldz` wants literally `ifzero 0 _ _`, `unfolds [w]` wants a scrutinee
alpha-equal to `S |w|`; any reduction of the scrutinee must go through an
explicit cast first.  A construct whose rule is not in the mode is a
`mode-violation`.  Rule attempts are tallied in `rule_hits` so the
self-test suite can assert coverage.

Binder bodies are checked without opening them.  The pass carries an
environment `env`, the names given to the enclosing binders, innermost
first; a bound variable `BVar(i)` stands for `env[i]` and is looked up in
the context like a free name.  Only what enters a type is named after
`env` (`_open_env`): binder domains, motives, `nil`/`foldz`/`folds`
types and the erasures that types embed.  A type comes back with free
names, and a binder closes the type of its body (`close1`) only if its
name went into a type.  So each term node is visited once by the pass
itself, not once per enclosing binder.  Whether a bound variable
survives erasure is noted as the pass meets it, so the side condition of
implicit binders erases nothing either.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from .erase import erase
from .reduce import DEFAULT_FUEL, FuelExhausted, normalize
from .syntax import (
    AllTy, AnnTerm, BVar, Cons, Context, EqTy, FVar, IfZeroTy, NatTy, Nil,
    Node, PiTy, Span, Succ, TApp, TAppImp, TCast, TCons, TFoldS, TFoldZ,
    TJoin, TLam, TLamImp, TNil, TQApp, TQLam, TRNat, TRVec, TSucc, TUnfoldS,
    TUnfoldZ, TZero, Ty, VecTy, Zero, alpha_eq, close1, free_vars,
    fresh_name, map_vars, open1, open2,
)


class Mode(enum.Enum):
    BASE = "base"
    LARGE_ELIM = "large-elim"


BASE_RULES = frozenset({
    "var", "zero", "succ", "nil", "cons", "abs", "app", "spec-abs",
    "spec-app", "rnat", "rvec", "join", "cast",
})

EXT_RULES = frozenset({
    "var", "zero", "succ", "nil", "cons", "abs", "app", "rnat", "rvec",
    "join", "cast", "quasi-abs", "quasi-app", "fold-zero", "unfold-zero",
    "fold-succ", "unfold-succ",
})

RULES = {Mode.BASE: BASE_RULES, Mode.LARGE_ELIM: EXT_RULES}


class _Shown:
    """A `Diagnostic` field that holds a node or its text and reads as the
    text, pretty-printing a node on first read.  Most diagnostics are
    never shown (the self-test drops nearly all of its failures), so they
    keep the node and leave the formatting to whoever reads them."""

    def __set_name__(self, owner, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, obj, owner=None) -> str | None:
        if obj is None:
            return None         # the field's default
        value = obj.__dict__[self.slot]
        if isinstance(value, Node):
            value = obj.__dict__[self.slot] = _fmt(value)
        return value

    def __set__(self, obj, value: str | Node | None) -> None:
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    message: str
    span: Span
    code: str = "error"
    expected: str | Node | None = _Shown()
    actual: str | Node | None = _Shown()
    severity: str = "error"
    children: tuple["Diagnostic", ...] = ()

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "code": self.code,
            "message": self.message,
            "severity": self.severity,
            "span": {"start": self.span.start, "end": self.span.end},
            "expected": self.expected,
            "actual": self.actual,
            "children": [c.to_json() for c in self.children],
        }

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.severity}[{self.rule}]: {self.message}"]
        if self.span != Span(0, 0):
            lines.append(f"{pad}  at {self.span.start}..{self.span.end}")
        if self.expected is not None:
            lines.append(f"{pad}  expected: {self.expected}")
        if self.actual is not None:
            lines.append(f"{pad}  actual:   {self.actual}")
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


@dataclass(frozen=True)
class Inferred:
    type: Ty


@dataclass(frozen=True)
class Failure:
    diagnostic: Diagnostic


CheckResult = Inferred | Failure


class _CheckError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


def _fmt(node) -> str:
    from .frontend import pretty
    return pretty(node)


def _span(node) -> Span:
    return node.span or Span(0, 0)


class Checker:
    """The checker for one mode; it accepts exactly the rules in RULES."""

    def __init__(self, fuel: int = DEFAULT_FUEL, mode: Mode = Mode.BASE):
        self.fuel = fuel
        self.mode = mode
        self.rules = RULES[mode]
        self.rule_hits: Counter[str] = Counter()
        # The state of one `infer` call:
        #   _root   the term it checks;
        #   _taken  names a binder's name avoids: the context's, the
        #           term's free names and the enclosing binders' names
        #           (None until the first binder);
        #   _kept   how many innermost binders of `env` the current
        #           position survives erasure for;
        #   _live   binder names met at such a position;
        #   _typed  binder names that `_open_env` put into a type.
        self._root: AnnTerm | None = None
        self._taken: set[str] | None = None
        self._kept = 0
        self._live: set[str] = set()
        self._typed: set[str] = set()

    # -- public entry points -------------------------------------------

    def infer(self, ctx: Context, t: AnnTerm) -> CheckResult:
        if not ctx.ok:
            return Failure(Diagnostic(
                "context", "context is not well-scoped", Span(0, 0),
                code="context-ill-scoped"))
        self._root, self._taken, self._kept = t, None, 0
        self._live.clear()
        self._typed.clear()
        try:
            return Inferred(self._infer(ctx, t, ()))
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
                expected=expected, actual=res.type))
        return res

    # -- failure helpers -----------------------------------------------

    def _hit(self, rule: str) -> None:
        self.rule_hits[rule] += 1

    def _fail(self, rule: str, node, message: str, *, code: str,
              expected: Ty | None = None, actual: Node | None = None,
              children: tuple[Diagnostic, ...] = ()) -> None:
        raise _CheckError(Diagnostic(
            rule, message, _span(node), code=code,
            expected=expected, actual=actual, children=children))

    def _scope_check(self, rule: str, node, ty: Ty, ctx: Context) -> None:
        loose = free_vars(ty)
        if loose:
            loose -= ctx.names()
        if loose:
            names = ", ".join(sorted(loose))
            self._fail(rule, node,
                       f"annotation mentions names not in scope: {names}",
                       code="scope-violation", actual=ty)

    def _expect_alpha(self, rule: str, node, actual: Ty, expected: Ty,
                      what: str) -> None:
        if not alpha_eq(actual, expected):
            self._fail(rule, node, f"{what} has the wrong type",
                       code="type-mismatch", expected=expected, actual=actual)

    def _gate(self, rule: str, node, construct: str) -> None:
        """Fail with a mode violation unless the mode has `rule`; then count
        the attempt, so a violation leaves `rule_hits` untouched."""
        if rule not in self.rules:
            self._fail(rule, node,
                       f"{construct} is not part of {self.mode.value} mode",
                       code="mode-violation")
        self._hit(rule)

    # -- the rules -----------------------------------------------------

    def _infer(self, ctx: Context, t: AnnTerm, env: tuple[str, ...]) -> Ty:
        match t:
            # ---------------------------------------- x : ctx(x)
            case FVar(name):
                self._hit("var")
                ty = ctx.lookup(name)
                if ty is None:
                    self._fail("var", t, f"unbound variable {name}",
                               code="unbound-variable")
                return ty
            case BVar(index):
                self._hit("var")
                if index >= len(env):
                    self._fail("var", t, "dangling bound variable "
                               "(term is not locally closed)",
                               code="unbound-variable")
                if index < self._kept:
                    self._live.add(env[index])
                return ctx.lookup(env[index])
            # ---------------------------------------- 0 : Nat
            case TZero():
                self._hit("zero")
                return NatTy()
            # t : Nat
            # ---------------------------------------- S t : Nat
            case TSucc(pred):
                self._hit("succ")
                pty = self._infer(ctx, pred, env)
                self._expect_alpha("succ", pred, pty, NatTy(),
                                   "successor argument")
                return NatTy()
            # ---------------------------------------- nil A : Vec A 0
            case TNil(elem):
                self._hit("nil")
                elem = self._open_env(elem, env)
                self._scope_check("nil", t, elem, ctx)
                return VecTy(elem, Zero())
            # h : A   tl : Vec A n
            # ---------------------------------------- cons h tl : Vec A (S n)
            case TCons(head, tail):
                self._hit("cons")
                tail_ty = self._infer(ctx, tail, env)
                if not isinstance(tail_ty, VecTy):
                    self._fail("cons", tail, "cons tail is not a vector",
                               code="shape-mismatch", actual=tail_ty)
                head_ty = self._infer(ctx, head, env)
                self._expect_alpha("cons", head, head_ty, tail_ty.elem,
                                   "cons head")
                return VecTy(tail_ty.elem, Succ(tail_ty.length))
            # ctx, x:A |- t : B
            # ---------------------------------------- fun x:A => t : Pi x:A. B
            case TLam():
                self._hit("abs")
                hint, dom, cod = self._binder("abs", ctx, t, env,
                                              erased_absent=False)
                return PiTy(hint, dom, cod)
            # ctx, x:A |- t : B    x not free in |t|
            # -------------------------------------- ifun x:A => t : All x:A. B
            case TLamImp():
                self._gate("spec-abs", t, "implicit abstraction")
                hint, dom, cod = self._binder("spec-abs", ctx, t, env,
                                              erased_absent=True)
                return AllTy(hint, dom, cod)
            # f : Pi x:A. B   a : A
            # ---------------------------------------- f a : B[x := |a|]
            case TApp(fn, arg):
                self._hit("app")
                fn_ty = self._infer(ctx, fn, env)
                if not isinstance(fn_ty, PiTy):
                    self._fail("app", fn, "application head is not a function",
                               code="shape-mismatch", actual=fn_ty)
                arg_ty = self._infer(ctx, arg, env)
                self._expect_alpha("app", arg, arg_ty, fn_ty.dom,
                                   "function argument")
                return open1(fn_ty.cod, self._open_env(erase(arg), env))
            # f : All x:A. B   a : A
            # ---------------------------------------- f @[a] : B[x := |a|]
            case TAppImp(fn, arg):
                self._gate("spec-app", t, "implicit application")
                return self._instantiate(
                    "spec-app", ctx, env, fn, arg,
                    "implicit application head is not an implicit product",
                    "implicit argument")
            # t : A   t' : B   |t| and |t'| joinable
            # ---------------------------------------- join t t' : |t| = |t'|
            case TJoin(lhs, rhs):
                self._hit("join")
                self._infer_erased(ctx, lhs, env)
                self._infer_erased(ctx, rhs, env)
                return self._join_type(t, self._open_env(erase(lhs), env),
                                       self._open_env(erase(rhs), env))
            # p : a = b   t : M[x := a]
            # ---------------------------------------- cast x.M p t : M[x := b]
            case TCast(_, motive, proof, body):
                self._hit("cast")
                motive = self._open_env(motive, env, 1)
                self._scope_check("cast", t, motive, ctx)
                proof_ty = self._infer_erased(ctx, proof, env)
                if not isinstance(proof_ty, EqTy):
                    self._fail("cast", proof, "cast proof is not an equation",
                               code="shape-mismatch", actual=proof_ty)
                body_ty = self._infer(ctx, body, env)
                self._expect_alpha("cast", body, body_ty,
                                   open1(motive, proof_ty.lhs), "cast subject")
                return open1(motive, proof_ty.rhs)
            # n : Nat   b : M[0]   s : Pi y:Nat. Pi u:M[y]. M[S y]
            # ---------------------------------------- rnat x.M b s n : M[|n|]
            case TRNat(_, motive, base, step, scrut):
                self._hit("rnat")
                motive = self._open_env(motive, env, 1)
                self._scope_check("rnat", t, motive, ctx)
                scrut_ty = self._infer(ctx, scrut, env)
                self._expect_alpha("rnat", scrut, scrut_ty, NatTy(),
                                   "recursor scrutinee")
                base_ty = self._infer(ctx, base, env)
                self._expect_alpha("rnat", base, base_ty,
                                   open1(motive, Zero()), "recursor base")
                step_ty = self._infer(ctx, step, env)
                self._expect_alpha("rnat", step, step_ty,
                                   self._rnat_step_ty(ctx, motive),
                                   "recursor step")
                return open1(motive, self._open_env(erase(scrut), env))
            # v : Vec A n   b : M[0, nil]
            # s : All l:Nat. Pi z:A. Pi v:Vec A l. Pi u:M[l, v]. M[S l, cons z v]
            # ---------------------------------------- rvec x.y.M b s v : M[n, |v|]
            case TRVec(_, _, motive, base, step, scrut):
                self._hit("rvec")
                motive = self._open_env(motive, env, 2)
                self._scope_check("rvec", t, motive, ctx)
                scrut_ty = self._infer(ctx, scrut, env)
                if not isinstance(scrut_ty, VecTy):
                    self._fail("rvec", scrut,
                               "vector recursor scrutinee is not a vector",
                               code="shape-mismatch", actual=scrut_ty)
                base_ty = self._infer(ctx, base, env)
                self._expect_alpha("rvec", base, base_ty,
                                   open2(motive, Zero(), Nil()),
                                   "recursor base")
                step_ty = self._infer(ctx, step, env)
                self._expect_alpha("rvec", step, step_ty,
                                   self._rvec_step_ty(ctx, motive, scrut_ty.elem),
                                   "recursor step")
                return open2(motive, scrut_ty.length,
                             self._open_env(erase(scrut), env))
            # quasi-implicit and fold/unfold forms: large-elim mode only
            # ctx, x:A |- t : B    x not free in |t|
            # -------------------------------------- qfun x:A => t : All x:A. B
            case TQLam():
                self._gate("quasi-abs", t, "quasi-implicit abstraction")
                hint, dom, cod = self._binder("quasi-abs", ctx, t, env,
                                              erased_absent=True)
                return AllTy(hint, dom, cod)
            # f : All x:A. B   w : A
            # ---------------------------------------- f @-[w] : B[x := |w|]
            case TQApp(fn, witness):
                self._gate("quasi-app", t, "quasi-implicit application")
                return self._instantiate(
                    "quasi-app", ctx, env, fn, witness,
                    "quasi-implicit application head is not a "
                    "quasi-implicit product",
                    "quasi-implicit witness")
            # t : A
            # -------------------------------------- foldz [B] t : ifzero 0 A B
            case TFoldZ(other, body):
                self._gate("fold-zero", t, "ifzero introduction")
                other = self._open_env(other, env)
                self._scope_check("fold-zero", t, other, ctx)
                return IfZeroTy(Zero(), self._infer(ctx, body, env), other)
            # t : ifzero 0 A B
            # ---------------------------------------- unfoldz t : A
            case TUnfoldZ(body):
                self._gate("unfold-zero", t, "ifzero elimination")
                body_ty = self._infer(ctx, body, env)
                if not isinstance(body_ty, IfZeroTy):
                    self._fail("unfold-zero", body,
                               "unfoldz subject is not an ifzero type",
                               code="shape-mismatch", actual=body_ty)
                if not alpha_eq(body_ty.scrut, Zero()):
                    self._fail("unfold-zero", body,
                               "unfoldz needs the scrutinee to be literally 0",
                               code="scrutinee-mismatch", actual=body_ty)
                return body_ty.on_zero
            # w : Nat   t : B
            # ----------------------------- folds [w][A] t : ifzero (S |w|) A B
            case TFoldS(witness, zero_ty, body):
                self._gate("fold-succ", t, "ifzero introduction")
                zero_ty = self._open_env(zero_ty, env)
                self._scope_check("fold-succ", t, zero_ty, ctx)
                wit_ty = self._infer_erased(ctx, witness, env)
                self._expect_alpha("fold-succ", witness, wit_ty, NatTy(),
                                   "folds witness")
                body_ty = self._infer(ctx, body, env)
                return IfZeroTy(Succ(self._open_env(erase(witness), env)),
                                zero_ty, body_ty)
            # w : Nat   t : ifzero (S |w|) A B
            # ---------------------------------------- unfolds [w] t : B
            case TUnfoldS(witness, body):
                self._gate("unfold-succ", t, "ifzero elimination")
                wit_ty = self._infer_erased(ctx, witness, env)
                self._expect_alpha("unfold-succ", witness, wit_ty, NatTy(),
                                   "unfolds witness")
                body_ty = self._infer(ctx, body, env)
                if not isinstance(body_ty, IfZeroTy):
                    self._fail("unfold-succ", body,
                               "unfolds subject is not an ifzero type",
                               code="shape-mismatch", actual=body_ty)
                scrut = Succ(self._open_env(erase(witness), env))
                if not alpha_eq(body_ty.scrut, scrut):
                    self._fail("unfold-succ", body,
                               "unfolds needs the scrutinee to be literally "
                               "S of the erased witness; no normalization "
                               "is applied",
                               code="scrutinee-mismatch",
                               expected=scrut, actual=body_ty.scrut)
                return body_ty.on_succ
        raise TypeError(f"not an annotated term: {t!r}")

    # -- shared rule bodies ---------------------------------------------

    def _open_env(self, t: Node, env: tuple[str, ...], level: int = 0) -> Node:
        """Name the loose indices of `t` after `env`.

        Under `level` binders of `t`'s own (a motive has one or two), the
        index `level + i` becomes `FVar(env[i])`; an index past `env` is
        left dangling, as opening would leave it.
        """
        if not env:
            return t

        def leaf(v: BVar, depth: int) -> Node:
            i = v.index - depth
            if not 0 <= i < len(env):
                return v
            self._typed.add(env[i])
            return FVar(env[i])
        return map_vars(t, BVar, leaf, level)

    def _infer_erased(self, ctx: Context, t: AnnTerm,
                      env: tuple[str, ...]) -> Ty:
        """Infer a child that erasure drops, such as a join side: no bound
        variable of `env` survives erasure through it."""
        kept, self._kept = self._kept, 0
        ty = self._infer(ctx, t, env)
        self._kept = kept
        return ty

    def _binder(self, rule: str, ctx: Context, t, env: tuple[str, ...], *,
                erased_absent: bool) -> tuple[str, Ty, Ty]:
        """Check a binder form; returns (hint, dom, closed codomain).

        The body is checked as it is, under `env` extended by the bound
        variable's name; the name avoids every name in scope and every
        free name of the term being checked.  Only a name that entered a
        type can occur in the body's type, so only then is it closed.
        """
        dom = self._open_env(t.dom, env)
        self._scope_check(rule, t, dom, ctx)
        if self._taken is None:     # the first binder, so `env` is empty
            self._taken = set(ctx.names() | free_vars(self._root))
        x = fresh_name(t.hint, self._taken)
        self._taken.add(x)
        self._kept += 1
        body_ty = self._infer(ctx.extend(x, dom), t.body, (x, *env))
        self._kept -= 1
        self._taken.discard(x)
        if x in self._live:
            self._live.discard(x)
            if erased_absent:
                self._fail(rule, t,
                           f"bound variable {t.hint or x} survives erasure; "
                           "it may only occur in annotations",
                           code="erased-occurrence")
        if x in self._typed:
            self._typed.discard(x)
            body_ty = close1(body_ty, x)
        return t.hint, dom, body_ty

    def _instantiate(self, rule: str, ctx: Context, env: tuple[str, ...],
                     fn, arg, head_message: str, what: str) -> Ty:
        """Instantiate an implicit or quasi-implicit product."""
        fn_ty = self._infer(ctx, fn, env)
        if not isinstance(fn_ty, AllTy):
            self._fail(rule, fn, head_message,
                       code="shape-mismatch", actual=fn_ty)
        arg_ty = self._infer_erased(ctx, arg, env)
        self._expect_alpha(rule, arg, arg_ty, fn_ty.dom, what)
        return open1(fn_ty.cod, self._open_env(erase(arg), env))

    def _join_type(self, t, lhs, rhs) -> Ty:
        """The equation `join t` proves, given the erasures of its sides."""
        # One normalization per side both decides the rule and explains a
        # failure.
        forms = []
        for side in (lhs, rhs):
            out = normalize(side, self.fuel)
            if isinstance(out, FuelExhausted):
                self._fail("join", t,
                           "undecided: fuel exhausted before both sides "
                           "reached normal form",
                           code="fuel-exhausted", actual=out.term)
            forms.append(out)
        left, right = forms
        if alpha_eq(left.term, right.term):
            return EqTy(lhs, rhs)
        self._fail("join", t, "the two sides have distinct normal forms",
                   code="join-distinct",
                   children=(
                       Diagnostic("join",
                                  f"left normalizes to {_fmt(left.term)}",
                                  _span(t.lhs), code="note", severity="note"),
                       Diagnostic("join",
                                  f"right normalizes to {_fmt(right.term)}",
                                  _span(t.rhs), code="note", severity="note"),
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


def infer(ctx: Context, t: AnnTerm, fuel: int = DEFAULT_FUEL) -> CheckResult:
    """Compute the type of an annotated term in base mode."""
    return Checker(fuel).infer(ctx, t)


def check_against(ctx: Context, t: AnnTerm, expected: Ty,
                  fuel: int = DEFAULT_FUEL) -> CheckResult:
    """Check an annotated term against a declared type in base mode."""
    return Checker(fuel).check_against(ctx, t, expected)
