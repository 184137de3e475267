"""Erasure from annotated to unannotated terms.

Erasure strips annotations, motives, witnesses, and every implicit or
fold/unfold wrapper, one table entry (`_ERASE`) per annotated-term class.
It is total and purely syntactic: it never consults types and is defined
on ill-typed terms too.  Implicit and quasi-implicit abstractions erase to
their bare bodies; for well-typed terms the bound variable cannot occur in
the erased body, and for arbitrary terms any leftover occurrence is
released as a fresh free name so the result stays locally closed.  A
released name is the hint followed by `#` (`b#`, then `b#'`, ...; `x#` for
an empty hint).  No identifier contains `#`, so no def, assumption or
binder can capture a released name, and the checker rejects any type,
annotation or context that still mentions one.

Variables, application, zero, successor and `cons` carry no annotation,
so erasure returns an annotation-free subterm (a numeral, a vector
literal, `f (g 0)`) as it is, not a copy.  Erasure and `inline` cross a
numeral or a vector literal in one loop (`syntax.map_spine`).

Resolution inlines (`inline`) every earlier def that an item names in one
walk, a def's body as one shared object at every use, so an item is a
DAG.  `erase(t, shared)` takes a table from the id of such a body to its
erasure, which its caller owns and whose bodies it keeps alive, and
answers the stored erasure at a body that is a key instead of walking it
again: the answer equals a fresh erasure, since erasure depends on nothing
but its argument, and the result shares the body's erasure as the item
shares the body.  Erasure only reads the table; without one it walks the
whole term.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, get_args

from .syntax import (
    AnnTerm, App, BVar, Cons, FVar, Join, Lam, Nil, Node, QApp, QLam, RNat,
    RVec, Succ, TAppImp, TCast, TFoldS, TFoldZ, TJoin, TLam, TLamImp, TNil,
    TQApp, TQLam, TRNat, TRVec, TUnfoldS, TUnfoldZ, Ty, UnannTerm, Zero,
    free_vars, fresh_name, map_spine, map_vars,
)

_ERASED = (frozenset(get_args(Ty) + get_args(UnannTerm))
           - frozenset(get_args(AnnTerm)))
# The leaves with no free name, which no substitution changes.
_CLOSED = frozenset(cls for cls in get_args(Ty) + get_args(UnannTerm)
                    + get_args(AnnTerm) if not cls.SCOPES) - {FVar}
_UNSHARED: Mapping[int, UnannTerm] = MappingProxyType({})


def erase(t: AnnTerm, shared: Mapping[int, UnannTerm] = _UNSHARED
          ) -> UnannTerm:
    """The erasure of `t`, which is `shared[id(t)]` at a node that is a
    key."""
    if shared:
        done = shared.get(id(t))
        if done is not None:
            return done
    clause = _ERASE.get(t.__class__)
    if clause is None:
        raise TypeError(f"not an annotated term: {t!r}")
    return clause(t, shared)


def _erase(t: AnnTerm, shared, _b, _c) -> UnannTerm:   # for `map_spine`
    return erase(t, shared)


def _app(t: App, shared) -> UnannTerm:
    f, a = erase(t.fn, shared), erase(t.arg, shared)
    return t if f is t.fn and a is t.arg else App(f, a, t.span)


# One clause per annotated-term class; each passes `shared` down.
_ERASE = {
    **dict.fromkeys((FVar, BVar, Zero), lambda t, s: t),
    **dict.fromkeys((Succ, Cons),
                    lambda t, s: map_spine(t, _erase, s, None, None)),
    **dict.fromkeys((TCast, TFoldZ, TUnfoldZ, TFoldS, TUnfoldS),
                    lambda t, s: erase(t.body, s)),
    App: _app,
    TLam: lambda t, s: Lam(t.hint, erase(t.body, s), t.span),
    TRNat: lambda t, s: RNat(erase(t.base, s), erase(t.step, s),
                             erase(t.scrut, s), t.span),
    TNil: lambda t, s: Nil(t.span),
    TRVec: lambda t, s: RVec(erase(t.base, s), erase(t.step, s),
                             erase(t.scrut, s), t.span),
    TJoin: lambda t, s: Join(t.span),
    TQApp: lambda t, s: QApp(erase(t.fn, s), t.span),
    TAppImp: lambda t, s: erase(t.fn, s),
    TLamImp: lambda t, s: _release(erase(t.body, s), t.hint),
    TQLam: lambda t, s: QLam(_release(erase(t.body, s), t.hint), t.span),
}


def _release(body: UnannTerm, hint: str) -> UnannTerm:
    """Drop one binder level from an erased body.

    Indices that point past the dropped binder move down by one.  If the
    erased body still mentions the dropped variable itself (only possible
    for ill-typed terms), that occurrence is released under a `#` name
    that no other free name of the body takes.  The body itself comes back
    if nothing changes.
    """
    released: FVar | None = None

    def leaf(v: BVar, k: int) -> Node:
        nonlocal released
        if v.index < k:
            return v
        if v.index > k:
            return BVar(v.index - 1, v.span)
        if released is None:
            released = FVar(fresh_name((hint or "x") + "#", free_vars(body)))
        return released

    return map_vars(body, BVar, leaf)


def subst_annotated(t: AnnTerm, name: str, repl: AnnTerm,
                    repl_erased: UnannTerm) -> AnnTerm:
    """Substitute an annotated term for a free variable: `inline` with the
    one entry `name` to `(repl, repl_erased)`."""
    return inline(t, {name: (repl, repl_erased)})


def inline(t: AnnTerm | Ty, defs: dict[str, tuple[AnnTerm, UnannTerm]]
           ) -> AnnTerm | Ty:
    """Substitute for every free name of `t` that `defs` maps, in one walk.

    Annotated-term nodes are walked, and a free occurrence there receives
    the annotated term the name maps to.  Any other node, a type (a
    domain, a motive) or a node only unannotated terms have, embeds
    unannotated terms only, so its occurrences receive the erasure paired
    with it, which must be `erase` of that term; callers hold it already.
    A replacement is put in place as it is and never walked, so a body
    inlined at many uses, or inlined inside another body, costs nothing.
    """
    def leaf(v: FVar, _depth: int) -> Node:
        entry = defs.get(v.name)
        return v if entry is None else entry[1]
    return _inline(t, defs, leaf)


def _inline(t: Node, defs: dict, leaf, _c=None) -> Node:
    # `_c` because `map_spine` passes three arguments after the node
    cls = type(t)
    if cls is FVar:
        entry = defs.get(t.name)
        return t if entry is None else entry[0]
    if cls in _ERASED:
        return map_vars(t, FVar, leaf)
    if cls is Succ or cls is Cons:
        return map_spine(t, _inline, defs, leaf, None)
    kids, i = None, -1
    for fname in cls.SCOPES:
        i += 1
        child = getattr(t, fname)
        kind = type(child)
        if kind in _CLOSED:
            continue
        new = (map_vars(child, FVar, leaf) if kind in _ERASED
               else _inline(child, defs, leaf))
        if new is not child:
            if kids is None:
                kids = t.children()
            kids[i] = new
    return t if kids is None else t.rebuild(kids)
