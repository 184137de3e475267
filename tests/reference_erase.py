"""Reference erasure, independent of `tvec.erase`.

This follows the paper's clauses one at a time, with a class test per
clause, and binds in the plain locally nameless way: a binder's body is
opened with a name of its own (`open1` from `locally_nameless`), erased,
and closed again (`close1`).  `tvec.erase` instead looks a clause up in a
table and lowers the indices of an implicit binder's body in one walk.
`test_erase.py` checks that both give the same term, hints included, on
every enumerated term up to size 6.

The bodies of `ifun` and `qfun` lose their binder.  If the erased body
still mentions the variable (only an ill-typed term does), the
occurrence is released as a free name: the hint followed by `#`, then
primes (`b#`, `b#'`, ...; `x#` for an empty hint), the first that no
other free name of the erased body takes.
"""

from __future__ import annotations

from tvec.syntax import (
    App, BVar, Cons, FVar, Join, Lam, Nil, Node, QApp, QLam, RNat, RVec,
    Succ, TAppImp, TCast, TFoldS, TFoldZ, TJoin, TLam, TLamImp, TNil,
    TQApp, TQLam, TRNat, TRVec, TUnfoldS, TUnfoldZ, Zero,
)

from locally_nameless import close1, open1


def erase(t: Node) -> Node:
    """|t|, for a term whose loose indices are all opened."""
    return _erase(t, 0)


def _erase(t: Node, depth: int) -> Node:
    # `depth` counts the binders opened on the way down; the binder at
    # depth d is opened with the name `%d`, which no identifier, released
    # name or other open binder on the path takes.
    if isinstance(t, (FVar, BVar, Zero)):               # |x| = x, |0| = 0
        return t
    if isinstance(t, App):                              # |f a| = |f| |a|
        return App(_erase(t.fn, depth), _erase(t.arg, depth))
    if isinstance(t, Succ):                             # |S t| = S |t|
        return Succ(_erase(t.pred, depth))
    if isinstance(t, TNil):                             # |nil [A]| = nil
        return Nil()
    if isinstance(t, Cons):                 # |cons h tl| = cons |h| |tl|
        return Cons(_erase(t.head, depth), _erase(t.tail, depth))
    if isinstance(t, TLam):             # |fun x:A => t| = fun x => |t|
        name = f"%{depth}"
        body = _erase(open1(t.body, FVar(name)), depth + 1)
        return Lam(t.hint, close1(body, name))
    if isinstance(t, TLamImp):          # |ifun x:A => t| = |t|
        return _drop_binder(t, depth)
    if isinstance(t, TQLam):            # |qfun x:A => t| = qfun => |t|
        return QLam(_drop_binder(t, depth))
    if isinstance(t, TAppImp):          # |f @[a]| = |f|
        return _erase(t.fn, depth)
    if isinstance(t, TQApp):            # |f @-[w]| = |f| @-[]
        return QApp(_erase(t.fn, depth))
    if isinstance(t, TRNat):            # |rnat x.M b s n| = rnat |b| |s| |n|
        return RNat(_erase(t.base, depth), _erase(t.step, depth),
                    _erase(t.scrut, depth))
    if isinstance(t, TRVec):            # |rvec x.y.M b s v| = rvec |b| |s| |v|
        return RVec(_erase(t.base, depth), _erase(t.step, depth),
                    _erase(t.scrut, depth))
    if isinstance(t, TJoin):            # |join t t'| = join
        return Join()
    if isinstance(t, (TCast, TFoldZ, TUnfoldZ, TFoldS, TUnfoldS)):
        return _erase(t.body, depth)    # |cast x.M p t| = |t|, and so on
    raise TypeError(f"not an annotated term: {t!r}")


def _drop_binder(t: TLamImp | TQLam, depth: int) -> Node:
    """The erased body of an implicit binder, its variable released."""
    name = f"%{depth}"
    body = _erase(open1(t.body, FVar(name)), depth + 1)
    taken = _free_names(body) - {name}
    released = (t.hint or "x") + "#"
    while released in taken:
        released += "'"
    return open1(close1(body, name), FVar(released))


def _free_names(t: Node) -> set[str]:
    if isinstance(t, FVar):
        return {t.name}
    names: set[str] = set()
    for field in type(t).SCOPES:
        names |= _free_names(getattr(t, field))
    return names
