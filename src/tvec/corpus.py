"""Reference corpus: natural-number arithmetic, length-indexed vector
append with its associativity proof, and the large-elimination
demonstrations where an absurd equality types a stuck application.

Every builder returns the fully resolved form: references between
definitions are inlined by value, exactly as `resolve_defs` expands
them, so these terms can be compared against parsed example files and
fed straight to the checker or the reduction engine.

The two lemmas used inside append's casts say that the recursor
computes on its scrutinee:

    P1 : All l2 : Nat. l2 = plus 0 l2
    P2 : All l : Nat. All l2 : Nat. S (plus l l2) = plus (S l) l2

Both are plain join proofs.  The associativity proof runs induction
over the first vector; its step case turns the induction hypothesis
into the goal with two casts around joins that peel one cons off each
side.
"""

from __future__ import annotations

from .erase import erase
from .syntax import (
    AllTy, AnnTerm, App, BVar, Cons, Context, EqTy, FVar, IfZeroTy, NatTy,
    Node, PiTy, Succ, TAppImp, TCast, TFoldS, TFoldZ, TJoin, TLam, TLamImp,
    TNil, TQApp, TQLam, TRNat, TRVec, TUnfoldS, TUnfoldZ, Ty, UnannTerm,
    VecTy, Zero, frozen, map_vars,
)

NAT = NatTy()


@frozen
class CorpusDef:
    name: str
    ty: Ty
    body: AnnTerm


# --------------------------------------------------------------------------
# small construction helpers


def num(n: int) -> AnnTerm:
    """The numeral n: an S tower over zero, annotated and erased alike."""
    t: AnnTerm = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


unum = num   # the erased numeral is the same term


def _bind(t: Node, *names: str) -> Node:
    """`t` as the body of one binder per name, the last name innermost:
    each free occurrence of a name becomes the index of its binder."""
    level = {name: len(names) - 1 - i for i, name in enumerate(names)}

    def leaf(v: FVar, depth: int) -> Node:
        i = level.get(v.name)
        return v if i is None else BVar(depth + i, v.span)
    return map_vars(t, FVar, leaf)


def lam(name: str, dom: Ty, body: AnnTerm) -> AnnTerm:
    return TLam(name, dom, _bind(body, name))


def ilam(name: str, dom: Ty, body: AnnTerm) -> AnnTerm:
    return TLamImp(name, dom, _bind(body, name))


def qlam(name: str, dom: Ty, body: AnnTerm) -> AnnTerm:
    return TQLam(name, dom, _bind(body, name))


def pi(name: str, dom: Ty, cod: Ty) -> Ty:
    return PiTy(name, dom, _bind(cod, name))


def all_(name: str, dom: Ty, cod: Ty) -> Ty:
    return AllTy(name, dom, _bind(cod, name))


def cast(name: str, motive: Ty, proof: AnnTerm, body: AnnTerm) -> AnnTerm:
    return TCast(name, _bind(motive, name), proof, body)


def app(fn: AnnTerm, *args: AnnTerm) -> AnnTerm:
    for a in args:
        fn = App(fn, a)
    return fn


def iapp(fn: AnnTerm, *args: AnnTerm) -> AnnTerm:
    for a in args:
        fn = TAppImp(fn, a)
    return fn


def vec(length: UnannTerm) -> Ty:
    return VecTy(NAT, length)


def vec_lit(*elems: int) -> AnnTerm:
    t: AnnTerm = TNil(NAT)
    for e in reversed(elems):
        t = Cons(num(e), t)
    return t


# --------------------------------------------------------------------------
# naturals


def plus_ty() -> Ty:
    return pi("m", NAT, pi("n", NAT, NAT))


def plus_body() -> AnnTerm:
    # plus m n recurses on m, returning n in the base case.
    step = lam("y", NAT, lam("u", NAT, Succ(FVar("u"))))
    return lam("m", NAT, lam("n", NAT,
               TRNat("x", NAT, FVar("n"), step, FVar("m"))))


def plus_u(a: UnannTerm, b: UnannTerm) -> UnannTerm:
    """Erased plus applied to two erased arguments."""
    return App(App(erase(plus_body()), a), b)


def p1_ty() -> Ty:
    l2 = FVar("l2")
    return all_("l2", NAT, EqTy(l2, plus_u(Zero(), l2)))


def p1_body() -> AnnTerm:
    l2 = FVar("l2")
    return ilam("l2", NAT, TJoin(l2, app(plus_body(), Zero(), l2)))


def p2_ty() -> Ty:
    l, l2 = FVar("l"), FVar("l2")
    return all_("l", NAT, all_("l2", NAT,
                EqTy(Succ(plus_u(l, l2)), plus_u(Succ(l), l2))))


def p2_body() -> AnnTerm:
    l, l2 = FVar("l"), FVar("l2")
    return ilam("l", NAT, ilam("l2", NAT,
                TJoin(Succ(app(plus_body(), l, l2)),
                      app(plus_body(), Succ(l), l2))))


# --------------------------------------------------------------------------
# vector append


def append_ty() -> Ty:
    l1, l2 = FVar("l1"), FVar("l2")
    return all_("l1", NAT, all_("l2", NAT,
                pi("v1", vec(l1), pi("v2", vec(l2),
                   vec(plus_u(l1, l2))))))


def append_body() -> AnnTerm:
    l1, l2 = FVar("l1"), FVar("l2")
    base = cast("w", vec(FVar("w")),
                TAppImp(p1_body(), l2), FVar("v2"))
    step = ilam("l", NAT,
                lam("x", NAT,
                    lam("v1'", vec(FVar("l")),
                        lam("r", vec(plus_u(FVar("l"), l2)),
                            cast("w", vec(FVar("w")),
                                 iapp(p2_body(), FVar("l"), l2),
                                 Cons(FVar("x"), FVar("r")))))))
    motive = vec(plus_u(FVar("x"), l2))
    rec = TRVec("x", "y", _bind(motive, "x", "y"),
                base, step, FVar("v1"))
    return ilam("l1", NAT, ilam("l2", NAT,
                lam("v1", vec(l1), lam("v2", vec(l2), rec))))


def append_u(a: UnannTerm, b: UnannTerm) -> UnannTerm:
    """Erased append applied to two erased vectors."""
    return App(App(erase(append_body()), a), b)


def append_a(len1: AnnTerm, len2: AnnTerm,
             v1: AnnTerm, v2: AnnTerm) -> AnnTerm:
    """Annotated append fully applied: two implicit lengths, two vectors."""
    return app(iapp(append_body(), len1, len2), v1, v2)


# --------------------------------------------------------------------------
# associativity of append


def _assoc_lhs(y: UnannTerm) -> UnannTerm:
    return append_u(append_u(y, FVar("v2")), FVar("v3"))


def _assoc_rhs(y: UnannTerm) -> UnannTerm:
    return append_u(y, append_u(FVar("v2"), FVar("v3")))


def _assoc_eq(y: UnannTerm) -> Ty:
    return EqTy(_assoc_lhs(y), _assoc_rhs(y))


def _plus_a(a: AnnTerm, b: AnnTerm) -> AnnTerm:
    return app(plus_body(), a, b)


def _assoc_left_ann(len_of_y: AnnTerm, y: AnnTerm) -> AnnTerm:
    """Annotated (append (append y v2) v3) with all lengths supplied."""
    inner = append_a(len_of_y, FVar("l2"), y, FVar("v2"))
    return append_a(_plus_a(len_of_y, FVar("l2")), FVar("l3"), inner,
                    FVar("v3"))


def _assoc_right_ann(len_of_y: AnnTerm, y: AnnTerm) -> AnnTerm:
    """Annotated (append y (append v2 v3)) with all lengths supplied."""
    inner = append_a(FVar("l2"), FVar("l3"), FVar("v2"), FVar("v3"))
    return append_a(len_of_y, _plus_a(FVar("l2"), FVar("l3")), y, inner)


def append_assoc_ty() -> Ty:
    return all_("l1", NAT, all_("l2", NAT, all_("l3", NAT,
                pi("v1", vec(FVar("l1")),
                   pi("v2", vec(FVar("l2")),
                      pi("v3", vec(FVar("l3")),
                         _assoc_eq(FVar("v1"))))))))


def append_assoc_body() -> AnnTerm:
    base = TJoin(_assoc_left_ann(Zero(), TNil(NAT)),
                 _assoc_right_ann(Zero(), TNil(NAT)))

    # In the step case the goal follows from the induction hypothesis r
    # by peeling one cons off each side: a join proves the left side
    # equal to (cons x <left of r>), r rewrites that to
    # (cons x <right of r>), and a second join closes the gap to the
    # right side of the goal.
    x, v1p = FVar("x"), FVar("v1'")
    goal_l = _assoc_left_ann(Succ(FVar("l")), Cons(x, v1p))
    goal_r = _assoc_right_ann(Succ(FVar("l")), Cons(x, v1p))
    ih_l = _assoc_left_ann(FVar("l"), v1p)
    ih_r = _assoc_right_ann(FVar("l"), v1p)

    peel_left = TJoin(goal_l, Cons(x, ih_l))
    rewrite = cast("w", EqTy(erase(goal_l), Cons(FVar("x"), FVar("w"))),
                   FVar("r"), peel_left)
    peel_right = TJoin(Cons(x, ih_r), goal_r)
    step_body = cast("w", EqTy(erase(goal_l), FVar("w")),
                     peel_right, rewrite)
    step = ilam("l", NAT,
                lam("x", NAT,
                    lam("v1'", vec(FVar("l")),
                        lam("r", _assoc_eq(FVar("v1'")), step_body))))

    motive = _assoc_eq(FVar("y"))
    rec = TRVec("x", "y", _bind(motive, "x", "y"),
                base, step, FVar("v1"))
    return ilam("l1", NAT, ilam("l2", NAT, ilam("l3", NAT,
                lam("v1", vec(FVar("l1")),
                    lam("v2", vec(FVar("l2")),
                        lam("v3", vec(FVar("l3")), rec))))))


# --------------------------------------------------------------------------
# concrete demos


def two_body() -> AnnTerm:
    return app(plus_body(), num(1), num(1))


def four_body() -> AnnTerm:
    return app(plus_body(), two_body(), two_body())


def v2_body() -> AnnTerm:
    return vec_lit(1, 2)


def v3_body() -> AnnTerm:
    return vec_lit(3, 4, 5)


def append_demo_ty() -> Ty:
    return vec(plus_u(num(2), num(3)))


def append_demo_body() -> AnnTerm:
    return append_a(num(2), num(3), v2_body(), v3_body())


def base_corpus() -> tuple[CorpusDef, ...]:
    """The defs of examples/vec.tvec, in file order, fully resolved."""
    return (
        CorpusDef("plus", plus_ty(), plus_body()),
        CorpusDef("P1", p1_ty(), p1_body()),
        CorpusDef("P2", p2_ty(), p2_body()),
        CorpusDef("append", append_ty(), append_body()),
        CorpusDef("append_assoc", append_assoc_ty(), append_assoc_body()),
        CorpusDef("two", NAT, two_body()),
        CorpusDef("four", NAT, four_body()),
        CorpusDef("v2", vec(num(2)), v2_body()),
        CorpusDef("v3", vec(num(3)), v3_body()),
        CorpusDef("appendDemo", append_demo_ty(), append_demo_body()),
    )


# --------------------------------------------------------------------------
# large eliminations: an absurd equality types a stuck application


def absurd_eq() -> Ty:
    """S 0 = 0, the assumption the demonstrations run under."""
    return EqTy(Succ(Zero()), Zero())


def ext_assumptions() -> Context:
    return Context().extend("p", absurd_eq())


def _nat_to_nat() -> Ty:
    return pi("x", NAT, NAT)


def stuck_fn_from(proof: AnnTerm) -> AnnTerm:
    """0 at type (Pi x : Nat. Nat), built by folding 0's type into an
    ifzero, casting the scrutinee along the absurd proof, and unfolding
    the other branch."""
    folded = TFoldS(num(0), _nat_to_nat(), num(0))
    casted = cast("w", IfZeroTy(FVar("w"), _nat_to_nat(), NAT),
                  proof, folded)
    return TUnfoldZ(casted)


def stuck_fn_body() -> AnnTerm:
    return stuck_fn_from(FVar("p"))


def stuck_app_body() -> AnnTerm:
    return App(stuck_fn_from(FVar("p")), num(0))


def quod_all_ty() -> Ty:
    return all_("q", absurd_eq(), NAT)


def quod_all_body() -> AnnTerm:
    return qlam("q", absurd_eq(), App(stuck_fn_from(FVar("q")), num(0)))


def via_witness_body() -> AnnTerm:
    return TQApp(quod_all_body(), FVar("p"))


def fold_round_z_body() -> AnnTerm:
    return TUnfoldZ(TFoldZ(_nat_to_nat(), num(0)))


def fold_round_s_body() -> AnnTerm:
    ident = lam("x", NAT, FVar("x"))
    return TUnfoldS(num(0), TFoldS(num(0), NAT, ident))


def ext_corpus() -> tuple[CorpusDef, ...]:
    """The defs of examples/quodlibet.tvec, in file order, fully
    resolved; stuckFn, stuckApp, and viaWitness assume p : S 0 = 0."""
    return (
        CorpusDef("stuckFn", _nat_to_nat(), stuck_fn_body()),
        CorpusDef("stuckApp", NAT, stuck_app_body()),
        CorpusDef("quodAll", quod_all_ty(), quod_all_body()),
        CorpusDef("viaWitness", NAT, via_witness_body()),
        CorpusDef("foldRoundZ", NAT, fold_round_z_body()),
        CorpusDef("foldRoundS", _nat_to_nat(), fold_round_s_body()),
    )
