"""Open, close and substitution for the tests, independent of the walkers
in `tvec.syntax`.

The kernel fills binders only with `syntax.instantiate` and replaces free
names only with `syntax.subst` and `erase.inline`, over its walker
`map_vars`.  The reference implementations (`reference_checker`,
`reference_erase`, `reference_parser`, `reference_reduce`,
`reference_resolve`) follow the plain locally nameless discipline instead:
they open a binder with a name and close it again (Charguéraud, *The
Locally Nameless Representation*, JAR 2012), and substitute for a free
name one name at a time.  This module does that with a recursive walk of
its own over `SCOPES` that rebuilds nodes with `dataclasses.replace`, so a
reference shares no walker with the code it is compared against, and
`test_syntax.py` can compare `instantiate` with it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from tvec.syntax import BVar, FVar, Node


def _walk(t: Node, leaf: Callable[[Node, int], Node], depth: int) -> Node:
    """`t` with each variable `v` replaced by `leaf(v, d)`, where `d` is
    `depth` plus the number of binders between `t` and `v`."""
    if isinstance(t, (BVar, FVar)):
        return leaf(t, depth)
    changed = {}
    for name, extra in type(t).SCOPES.items():
        child = getattr(t, name)
        new = _walk(child, leaf, depth + extra)
        if new is not child:
            changed[name] = new
    return replace(t, **changed) if changed else t


def open_at(t: Node, k: int, repl: Node) -> Node:
    """Replace the bound variable at level k with `repl`, which must be
    locally closed, so that no index needs shifting."""
    def leaf(v: Node, depth: int) -> Node:
        return repl if isinstance(v, BVar) and v.index == depth else v
    return _walk(t, leaf, k)


def close_at(t: Node, k: int, name: str) -> Node:
    """Abstract the free variable `name` as the bound variable at level k."""
    def leaf(v: Node, depth: int) -> Node:
        if isinstance(v, FVar) and v.name == name:
            return BVar(depth, span=v.span)
        return v
    return _walk(t, leaf, k)


def subst(t: Node, name: str, repl: Node) -> Node:
    """Replace the free variable `name` with `repl`, which must be locally
    closed, so that no binder of `t` catches its names."""
    def leaf(v: Node, depth: int) -> Node:
        return repl if isinstance(v, FVar) and v.name == name else v
    return _walk(t, leaf, 0)


def free_names(t: Node) -> frozenset[str]:
    """The names of the free variables of `t`."""
    names: set[str] = set()

    def leaf(v: Node, depth: int) -> Node:
        if isinstance(v, FVar):
            names.add(v.name)
        return v
    _walk(t, leaf, 0)
    return frozenset(names)


def open1(t: Node, repl: Node) -> Node:
    return open_at(t, 0, repl)


def close1(t: Node, name: str) -> Node:
    return close_at(t, 0, name)


def open2(t: Node, outer: Node, inner: Node) -> Node:
    """Open a two-binder scope: level 1 gets `outer`, level 0 `inner`."""
    return open_at(open_at(t, 1, outer), 0, inner)
