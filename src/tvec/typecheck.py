"""Syntax-directed type computation for annotated terms.

Each annotated construct determines exactly one rule, so checking is a
single recursive pass over the term as a tree, except at the def bodies
that the term shares (see the last paragraph).  All type comparisons are
alpha-equivalence; there is no conversion rule.  Conversion happens only
through explicit casts, whose equations are produced by `join`.  The
checker decides a join by asking `reduce.joinable` of the two sides'
erasures, the one decision the self-test's canonical shapes ask too.  A
fuel-exhausted joinability test is reported as undecided, never as a
mismatch.

The checker runs in one of two modes, and a mode is its set of rules
(`RULES`).  Base mode accepts implicit abstraction and application;
large-elimination mode swaps them for quasi-implicit ones (same side
condition, but inhabitants keep an erased shell so progress survives) and
adds fold/unfold forms that move between a branch type and the matching
`ifzero` type.  Unfolding matches the scrutinee purely syntactically:
`unfoldz` wants literally `ifzero 0 _ _`, `unfolds [w]` wants a scrutinee
alpha-equal to `S |w|`; any reduction of the scrutinee must go through an
explicit cast first.  The rules are one table, `_RULES`, keyed by node
class: `_infer` finds the row of a node, fails with a `mode-violation`
if the mode lacks its rule, else tallies the attempt in `rule_hits` (the
self-test asserts coverage from it) and calls the row's handler.

Checking makes no names.  Terms and types stay in de Bruijn form: the
pass keeps the enclosing binders as a stack of `(hint, dom)` pairs, and
the context holds only the assumptions.  `BVar(i)` has the i-th binder's
domain for its type, raised past the i + 1 binders between.  A binder
returns its product around its body's type as it stands; codomains,
motives and the recursor step types are built by `syntax.instantiate`;
join sides are decided under the enclosing binders (`joinable`'s
`outer`).  So checking costs time linear in binder depth.  Whether a
bound variable survives erasure is noted by level as the pass meets it,
so the side condition of implicit binders erases nothing.  `infer`
checks that a context is well-scoped when it meets one other than its
last, and keeps only a context that is.

A failed check costs only the rules it ran.  The failing rule raises the
parts its diagnostic is made from (`_fail`): the nodes, the enclosing
binders and, for distinct join sides, the two normal forms.  The
`Failure` that `infer` returns makes the diagnostic when it is first read
(`_diagnose`), and only then are the binders named (`_named`).  The
self-test reads none of its failures.

Resolution inlines each def's body as one object at every use, so a
resolved item is a DAG, and walking it as a tree costs time exponential in
a chain of defs that each use the last twice.  A checker given the
resolved defs (`Checker(defs=...)`) walks each of their bodies once per
context: a body is locally closed, so its type and the rule hits of its
check are the same at every use, and a later use takes both from a memo
keyed by the body's identity (`_infer_shared`), the hits counted again so
that `rule_hits` reads as for the tree.  The checker holds one table,
`_shared`, from the id of each such body to the erasure that resolution
made of it.  `_infer` sends a node that is a key to `_infer_shared`, and
the rules pass the table to `erase`, which answers a shared body from it
(`erase.erase`).  A checker without defs has an empty table, which
`_infer` tests for truth before it takes a node's id.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, Iterable

from .erase import erase
from .frontend import pretty
from .reduce import DEFAULT_FUEL, FuelExhausted, joinable
from .syntax import (
    AllTy, AnnTerm, App, BVar, Cons, Context, Diagnostic, EqTy, FVar,
    IfZeroTy, Mode, NatTy, Nil, Node, PiTy, Span, Succ, TAppImp, TCast,
    TFoldS, TFoldZ, TJoin, TLam, TLamImp, TNil, TQApp, TQLam, TRNat, TRVec,
    TUnfoldS, TUnfoldZ, Ty, UnannTerm, VecTy, Zero, alpha_eq, ctx_ok,
    free_vars, fresh_name, frozen, instantiate, map_vars, numeral,
)


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


@frozen
class Inferred:
    type: Ty


@frozen
class Failure:
    """A failed check.  `diagnostic` may be given as the function that
    makes it; it is then made on first read and kept."""

    diagnostic: Diagnostic


def _made_on_read(slot) -> property:
    """A property that reads `slot` and, if it holds a function, calls it
    once and keeps the value there.  Its setter is the slot's, which
    `frozen`'s `__setstate__` calls."""
    def read(self) -> Diagnostic:
        value = slot.__get__(self)
        if not isinstance(value, Diagnostic):
            value = value()
            slot.__set__(self, value)
        return value
    return property(read, slot.__set__)


Failure.diagnostic = _made_on_read(Failure.diagnostic)

CheckResult = Inferred | Failure


class _CheckError(Exception):
    """A failed rule; its `args` are those of `_diagnose`."""


def _span(node) -> Span:
    return node.span or (0, 0)


def _diagnose(rule: str, node, message: str, code: str,
              expected: Ty | None = None, actual: Node | None = None,
              forms: tuple[Node, Node] | None = None,
              ctx: Context | None = None, root: AnnTerm | None = None,
              env: tuple[tuple[str, Ty], ...] = ()) -> Diagnostic:
    """The diagnostic of a failure at `node`.  `expected`, `actual` and
    the normal `forms` of the two sides of a join (`node`) may point at
    the enclosing binders `env`, which their texts name (`_named`)."""
    text = _named(ctx, root, env) if env else pretty
    children = ()
    if forms:
        children = (
            Diagnostic("join", f"left normalizes to {text(forms[0])}",
                       _span(node.lhs), code="note", severity="note"),
            Diagnostic("join", f"right normalizes to {text(forms[1])}",
                       _span(node.rhs), code="note", severity="note"))
    return Diagnostic(rule, message, _span(node), code=code,
                      expected=expected and text(expected),
                      actual=actual and text(actual), children=children)


def _named(ctx: Context, root: AnnTerm, env) -> Callable[[Node], str]:
    """The printer of nodes whose loose indices point at the binders `env`
    ((hint, dom) pairs, outermost first).  Each binder, outermost first,
    is named once by the first of hint, hint', ... that is not a name of
    `ctx`, a free name of `root` (the checked term) or an outer binder's."""
    taken = set(ctx.names() | free_vars(root))
    args = []           # innermost binder first, as `instantiate` takes them
    for hint, _ in env:
        args.insert(0, FVar(fresh_name(hint, taken)))
        taken.add(args[0].name)
    return lambda node: pretty(instantiate(node, tuple(args)))


class Checker:
    """The checker for one mode; it accepts exactly the rules in RULES.

    `defs` are the resolved defs (`frontend.ResolvedDef`: a `body` and its
    erasure `erased`) whose bodies the checked terms share; see
    `_infer_shared`."""

    def __init__(self, fuel: int = DEFAULT_FUEL, mode: Mode = Mode.BASE,
                 defs: Iterable = ()):
        self.fuel = fuel
        self.mode = mode
        self.rules = RULES[mode]
        self.rule_hits: Counter[str] = Counter()
        # id(body) -> erasure of each shared def body, held alive by `_defs`,
        # and id(body) -> (type, rule-hit delta) of those checked in `_ctx`
        self._defs = tuple(defs)
        self._shared: dict[int, UnannTerm] = {
            id(d.body): d.erased for d in self._defs}
        self._memo: dict[int, tuple[Ty, Counter[str]]] = {}
        # The state of one `infer` call: its context `_ctx` and term `_root`;
        # `_env`, the enclosing binders' (hint, dom) pairs, outermost first,
        # so `BVar(i)` is `_env[-1 - i]`; `_kept`, how many innermost binders
        # the position survives erasure for; `_live`, the levels (positions
        # in `_env`) of the binders met at a position that survives erasure.
        self._ctx = Context()
        self._root: AnnTerm | None = None
        self._env: list[tuple[str, Ty]] = []
        self._kept = 0
        self._live: set[int] = set()

    # -- public entry points -------------------------------------------

    def infer(self, ctx: Context, t: AnnTerm) -> CheckResult:
        if ctx is not self._ctx:    # a context that passed stays passed
            if not ctx_ok(ctx):
                return Failure(Diagnostic(
                    "context", "context is not well-scoped", (0, 0),
                    code="context-ill-scoped"))
            self._ctx = ctx
            self._memo.clear()      # a stored type holds in one context
        self._root, self._kept = t, 0
        self._env.clear()       # a failure leaves its binders behind
        self._live.clear()
        try:
            return Inferred(self._infer(t))
        except _CheckError as err:
            return Failure(partial(_diagnose, *err.args))

    def check_against(self, ctx: Context, t: AnnTerm, expected: Ty) -> CheckResult:
        res = self.infer(ctx, t)
        if isinstance(res, Failure):
            return res
        if not alpha_eq(res.type, expected):
            return Failure(partial(
                _diagnose, "check", t, "inferred type does not match the "
                "declared type", "type-mismatch", expected, res.type))
        return res

    # -- failure helpers -----------------------------------------------

    def _fail(self, rule: str, node, message: str, *, code: str,
              expected: Ty | None = None, actual: Node | None = None,
              forms: tuple[Node, Node] | None = None) -> None:
        """Raise the parts of the diagnostic; `_env` is copied, as the
        failure outlives this check."""
        raise _CheckError(rule, node, message, code, expected, actual,
                          forms, self._ctx, self._root, tuple(self._env))

    def _scope_check(self, rule: str, node, ty: Ty, binders: int = 0) -> None:
        """An annotation (under `binders` of its own) may mention only the
        context's names and the enclosing binders."""
        loose = free_vars(ty)
        if loose:
            loose -= self._ctx.names()
        if loose:
            names = ", ".join(sorted(loose))
            self._fail(rule, node,
                       f"annotation mentions names not in scope: {names}",
                       code="scope-violation", actual=ty)
        depth = len(self._env) + binders

        def leaf(v: BVar, d: int) -> Node:
            if v.index - d >= depth:
                self._fail(rule, node, "annotation mentions a bound variable "
                           "past the enclosing binders",
                           code="scope-violation", actual=ty)
            return v
        map_vars(ty, BVar, leaf)

    def _expect_alpha(self, rule: str, node, actual: Ty, expected: Ty,
                      what: str) -> None:
        if not alpha_eq(actual, expected):
            self._fail(rule, node, f"{what} has the wrong type",
                       code="type-mismatch", expected=expected, actual=actual)

    # -- the rules -----------------------------------------------------

    def _infer(self, t: AnnTerm) -> Ty:
        try:
            rule, construct, handler = _RULES[t.__class__]
        except KeyError:
            raise TypeError(f"not an annotated term: {t!r}") from None
        if rule not in self.rules:
            self._fail(rule, t, f"{construct} is not part of "
                       f"{self.mode.value} mode", code="mode-violation")
        self.rule_hits[rule] += 1   # after the gate: a violation is no hit
        if self._shared and id(t) in self._shared:
            return self._infer_shared(t, handler)
        return handler(self, t)

    def _infer_shared(self, t: AnnTerm, handler: Callable) -> Ty:
        """A def body, which resolution inlines as one object at every use.
        It is locally closed and mentions only assumed names, so in one
        context its type and the rule hits of checking it are the same
        wherever it occurs, and so is its effect on `_live` (none).  The
        first occurrence is checked; a later one takes the stored type and
        counts the stored hits again.  A failure is never stored: it ends
        the check, and a later check meets the body afresh."""
        known = self._memo.get(id(t))
        if known is not None:
            ty, hits = known
            self.rule_hits.update(hits)
            return ty
        before = self.rule_hits.copy()
        ty = handler(self, t)
        self._memo[id(t)] = ty, self.rule_hits - before
        return ty

    # ---------------------------------------- x : ctx(x)
    def _free_var(self, t: FVar) -> Ty:
        ty = self._ctx.lookup(t.name)
        if ty is None:
            self._fail("var", t, f"unbound variable {t.name}",
                       code="unbound-variable")
        return ty

    def _bound_var(self, t: BVar) -> Ty:
        level = len(self._env) - 1 - t.index
        if level < 0:
            self._fail("var", t, "dangling bound variable "
                       "(term is not locally closed)", code="unbound-variable")
        if t.index < self._kept:
            self._live.add(level)
        return instantiate(self._env[level][1], (), t.index + 1)

    # ---------------------------------------- 0 : Nat
    def _zero(self, t: Zero) -> Ty:
        return NatTy()

    # t : Nat
    # ---------------------------------------- S t : Nat
    def _succ(self, t: Succ) -> Ty:     # a tower at once: a hit per level
        n, base = numeral(t)
        self.rule_hits["succ"] += n - 1
        pty = self._infer(base)
        self._expect_alpha("succ", base, pty, NatTy(), "successor argument")
        return NatTy()

    # ---------------------------------------- nil A : Vec A 0
    def _nil(self, t: TNil) -> Ty:
        self._scope_check("nil", t, t.elem)
        return VecTy(t.elem, Zero())

    # h : A   tl : Vec A n
    # ---------------------------------------- cons h tl : Vec A (S n)
    def _cons(self, t: Cons) -> Ty:     # a spine at once, innermost first
        cells = [t]
        while type(t := t.tail) is Cons:
            self.rule_hits["cons"] += 1
            cells.append(t)
        ty = self._infer(t)
        for cell in reversed(cells):
            if not isinstance(ty, VecTy):
                self._fail("cons", cell.tail, "cons tail is not a vector",
                           code="shape-mismatch", actual=ty)
            head_ty = self._infer(cell.head)
            self._expect_alpha("cons", cell.head, head_ty, ty.elem,
                               "cons head")
            ty = VecTy(ty.elem, Succ(ty.length))
        return ty

    # ctx, x:A |- t : B
    # ---------------------------------------- fun x:A => t : Pi x:A. B
    # ctx, x:A |- t : B    x not free in |t|
    # -------------------------------------- ifun x:A => t : All x:A. B
    # ctx, x:A |- t : B    x not free in |t|    (large-elim mode only)
    # -------------------------------------- qfun x:A => t : All x:A. B
    def _binder(self, t: TLam | TLamImp | TQLam) -> Ty:
        """The product of the domain and the body's type, as it stands.
        The variable of an `All` must not survive erasure."""
        rule = _RULES[t.__class__][0]
        self._scope_check(rule, t, t.dom)
        level = len(self._env)
        self._env.append((t.hint, t.dom))
        self._kept += 1
        body_ty = self._infer(t.body)
        self._kept -= 1
        if level in self._live:
            self._live.discard(level)
            if t.__class__ is not TLam:
                name = t.hint or _named(self._ctx, self._root,
                                        self._env)(BVar(0))
                self._fail(rule, t,
                           f"bound variable {name} survives erasure; "
                           "it may only occur in annotations",
                           code="erased-occurrence")
        self._env.pop()
        return (PiTy if t.__class__ is TLam else AllTy)(t.hint, t.dom, body_ty)

    # f : Pi x:A. B   a : A
    # ---------------------------------------- f a : B[x := |a|]
    def _app(self, t: App) -> Ty:
        fn_ty = self._infer(t.fn)
        if not isinstance(fn_ty, PiTy):
            self._fail("app", t.fn, "application head is not a function",
                       code="shape-mismatch", actual=fn_ty)
        arg_ty = self._infer(t.arg)
        self._expect_alpha("app", t.arg, arg_ty, fn_ty.dom,
                           "function argument")
        return instantiate(fn_ty.cod, (erase(t.arg, self._shared),))

    # f : All x:A. B   a : A
    # ---------------------------------------- f @[a] : B[x := |a|]
    # f : All x:A. B   w : A                  (large-elim mode only)
    # ---------------------------------------- f @-[w] : B[x := |w|]
    def _implicit_app(self, t: TAppImp | TQApp, head: str, what: str) -> Ty:
        rule = _RULES[t.__class__][0]
        fn, arg = t.children()
        fn_ty = self._infer(fn)
        if not isinstance(fn_ty, AllTy):
            self._fail(rule, fn, head, code="shape-mismatch", actual=fn_ty)
        arg_ty = self._infer_erased(arg)
        self._expect_alpha(rule, arg, arg_ty, fn_ty.dom, what)
        return instantiate(fn_ty.cod, (erase(arg, self._shared),))

    # t : A   t' : B   |t| and |t'| joinable
    # ---------------------------------------- join t t' : |t| = |t'|
    def _join(self, t: TJoin) -> Ty:
        self._infer_erased(t.lhs)
        self._infer_erased(t.rhs)
        lhs, rhs = erase(t.lhs, self._shared), erase(t.rhs, self._shared)
        verdict = joinable(lhs, rhs, self.fuel, len(self._env))
        if verdict is True:
            return EqTy(lhs, rhs)
        if isinstance(verdict, FuelExhausted):
            self._fail("join", t, "undecided: fuel exhausted before both "
                       "sides reached normal form", code="fuel-exhausted",
                       actual=verdict.term)
        self._fail("join", t, "the two sides have distinct normal forms",
                   code="join-distinct", forms=verdict)

    # p : a = b   t : M[x := a]
    # ---------------------------------------- cast x.M p t : M[x := b]
    def _cast(self, t: TCast) -> Ty:
        self._scope_check("cast", t, t.motive, 1)
        proof_ty = self._infer_erased(t.proof)
        if not isinstance(proof_ty, EqTy):
            self._fail("cast", t.proof, "cast proof is not an equation",
                       code="shape-mismatch", actual=proof_ty)
        body_ty = self._infer(t.body)
        self._expect_alpha("cast", t.body, body_ty,
                           instantiate(t.motive, (proof_ty.lhs,)),
                           "cast subject")
        return instantiate(t.motive, (proof_ty.rhs,))

    # n : Nat   b : M[0]   s : Pi y:Nat. Pi u:M[y]. M[S y]
    # ---------------------------------------- rnat x.M b s n : M[|n|]
    def _rnat(self, t: TRNat) -> Ty:
        motive, scrut = t.motive, t.scrut
        self._scope_check("rnat", t, motive, 1)
        scrut_ty = self._infer(scrut)
        self._expect_alpha("rnat", scrut, scrut_ty, NatTy(),
                           "recursor scrutinee")
        base_ty = self._infer(t.base)
        self._expect_alpha("rnat", t.base, base_ty,
                           instantiate(motive, (Zero(),)), "recursor base")
        step_ty = self._infer(t.step)
        # Under y and u, M[y] is M itself and y is index 1.
        self._expect_alpha("rnat", t.step, step_ty, PiTy(
            "y", NatTy(), PiTy("u", motive, instantiate(
                motive, (Succ(BVar(1)),), 2))), "recursor step")
        return instantiate(motive, (erase(scrut, self._shared),))

    # v : Vec A n   b : M[0, nil]
    # s : All l:Nat. Pi z:A. Pi v:Vec A l. Pi u:M[l, v]. M[S l, cons z v]
    # ---------------------------------------- rvec x.y.M b s v : M[n, |v|]
    def _rvec(self, t: TRVec) -> Ty:
        motive, scrut = t.motive, t.scrut
        self._scope_check("rvec", t, motive, 2)
        scrut_ty = self._infer(scrut)
        if not isinstance(scrut_ty, VecTy):
            self._fail("rvec", scrut,
                       "vector recursor scrutinee is not a vector",
                       code="shape-mismatch", actual=scrut_ty)
        base_ty = self._infer(t.base)
        self._expect_alpha("rvec", t.base, base_ty,
                           instantiate(motive, (Nil(), Zero())),
                           "recursor base")
        step_ty = self._infer(t.step)
        # Under l, z, v and u; the motive takes (vector, length).
        a1, a2 = (instantiate(scrut_ty.elem, (), k) for k in (1, 2))
        self._expect_alpha("rvec", t.step, step_ty, AllTy(
            "l", NatTy(), PiTy("z", a1, PiTy(
                "v", VecTy(a2, BVar(1)), PiTy(
                    "u", instantiate(motive, (BVar(0), BVar(2)), 3),
                    instantiate(motive, (Cons(BVar(2), BVar(1)),
                                         Succ(BVar(3))), 4))))),
            "recursor step")
        return instantiate(motive, (erase(scrut, self._shared),
                                    scrut_ty.length))

    # fold/unfold forms: large-elim mode only
    # t : A
    # -------------------------------------- foldz [B] t : ifzero 0 A B
    def _fold_zero(self, t: TFoldZ) -> Ty:
        self._scope_check("fold-zero", t, t.other)
        return IfZeroTy(Zero(), self._infer(t.body), t.other)

    # t : ifzero 0 A B
    # ---------------------------------------- unfoldz t : A
    def _unfold_zero(self, t: TUnfoldZ) -> Ty:
        body_ty = self._infer(t.body)
        if not isinstance(body_ty, IfZeroTy):
            self._fail("unfold-zero", t.body,
                       "unfoldz subject is not an ifzero type",
                       code="shape-mismatch", actual=body_ty)
        if not alpha_eq(body_ty.scrut, Zero()):
            self._fail("unfold-zero", t.body,
                       "unfoldz needs the scrutinee to be literally 0",
                       code="scrutinee-mismatch", actual=body_ty)
        return body_ty.on_zero

    # w : Nat   t : B
    # ----------------------------- folds [w][A] t : ifzero (S |w|) A B
    def _fold_succ(self, t: TFoldS) -> Ty:
        self._scope_check("fold-succ", t, t.zero_ty)
        wit_ty = self._infer_erased(t.witness)
        self._expect_alpha("fold-succ", t.witness, wit_ty, NatTy(),
                           "folds witness")
        body_ty = self._infer(t.body)
        return IfZeroTy(Succ(erase(t.witness, self._shared)), t.zero_ty,
                        body_ty)

    # w : Nat   t : ifzero (S |w|) A B
    # ---------------------------------------- unfolds [w] t : B
    def _unfold_succ(self, t: TUnfoldS) -> Ty:
        wit_ty = self._infer_erased(t.witness)
        self._expect_alpha("unfold-succ", t.witness, wit_ty, NatTy(),
                           "unfolds witness")
        body_ty = self._infer(t.body)
        if not isinstance(body_ty, IfZeroTy):
            self._fail("unfold-succ", t.body,
                       "unfolds subject is not an ifzero type",
                       code="shape-mismatch", actual=body_ty)
        scrut = Succ(erase(t.witness, self._shared))
        if not alpha_eq(body_ty.scrut, scrut):
            self._fail("unfold-succ", t.body, "unfolds needs the scrutinee "
                       "to be literally S of the erased witness; no "
                       "normalization is applied", code="scrutinee-mismatch",
                       expected=scrut, actual=body_ty.scrut)
        return body_ty.on_succ

    # -- shared rule bodies ---------------------------------------------

    def _infer_erased(self, t: AnnTerm) -> Ty:
        """Infer a child that erasure drops, such as a join side: no
        enclosing binder survives erasure through it."""
        kept, self._kept = self._kept, 0
        ty = self._infer(t)
        self._kept = kept
        return ty


# (rule, construct a mode violation names, handler) per annotated-term class.
_RULES: dict[type, tuple[str, str, Callable]] = {
    FVar: ("var", "variable", Checker._free_var),
    BVar: ("var", "variable", Checker._bound_var),
    Zero: ("zero", "zero", Checker._zero),
    Succ: ("succ", "successor", Checker._succ),
    TNil: ("nil", "nil", Checker._nil),
    Cons: ("cons", "cons", Checker._cons),
    TLam: ("abs", "abstraction", Checker._binder),
    TLamImp: ("spec-abs", "implicit abstraction", Checker._binder),
    TQLam: ("quasi-abs", "quasi-implicit abstraction", Checker._binder),
    App: ("app", "application", Checker._app),
    TAppImp: ("spec-app", "implicit application", partial(
        Checker._implicit_app, head="implicit application head is not an "
        "implicit product", what="implicit argument")),
    TQApp: ("quasi-app", "quasi-implicit application", partial(
        Checker._implicit_app, head="quasi-implicit application head is "
        "not a quasi-implicit product", what="quasi-implicit witness")),
    TJoin: ("join", "join", Checker._join),
    TCast: ("cast", "cast", Checker._cast),
    TRNat: ("rnat", "Nat recursor", Checker._rnat),
    TRVec: ("rvec", "vector recursor", Checker._rvec),
    TFoldZ: ("fold-zero", "ifzero introduction", Checker._fold_zero),
    TUnfoldZ: ("unfold-zero", "ifzero elimination", Checker._unfold_zero),
    TFoldS: ("fold-succ", "ifzero introduction", Checker._fold_succ),
    TUnfoldS: ("unfold-succ", "ifzero elimination", Checker._unfold_succ),
}
