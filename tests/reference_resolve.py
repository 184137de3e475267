"""Reference definition resolution, independent of `tvec.erase.inline`.

This is the resolution `tvec.frontend` had before it inlined every earlier
def in one walk: each item substitutes the earlier defs among its free
names one name at a time, and each substitution walks the whole item,
the bodies inlined by the substitutions before it included.  It finds an
item's names with `free_vars` instead of reading the names the parser
recorded, and substitutes with `locally_nameless.subst`, a walk of the
test suite's own: annotated positions get a def's body, and types (a
declared type, a domain, a motive) get its erasure.  `test_frontend.py`
checks that both resolve every carried file, the broken files and the
benchmark's family to equal results, binder hints and spans included, or
fail with the same error.

Walking inlined bodies again makes this exponential on a chain of defs
that each name two earlier ones, so it is run on small files only.
"""

from __future__ import annotations

from dataclasses import replace
from typing import get_args

from tvec.erase import erase
from tvec.frontend import (
    AssumeItem, DefItem, ModeItem, ResolvedDef, ResolvedFile, ResolveError,
    SourceFile,
)
from tvec.syntax import Context, FVar, Node, Ty, free_vars
from tvec.typecheck import Diagnostic, Mode

from locally_nameless import subst

_TYPES = get_args(Ty)


def subst_annotated(t: Node, name: str, body: Node, erased: Node) -> Node:
    """Substitute `body` for the free variable `name` in an annotated term
    or a type, and `erased`, the erasure of `body`, inside types."""
    if isinstance(t, _TYPES):
        return subst(t, name, erased)
    if isinstance(t, FVar):
        return body if t.name == name else t
    changed = {}
    for field in type(t).SCOPES:
        child = getattr(t, field)
        new = subst_annotated(child, name, body, erased)
        if new is not child:
            changed[field] = new
    return replace(t, **changed) if changed else t


def resolve_defs(source: SourceFile,
                 mode_override: Mode | None = None) -> ResolvedFile:
    mode = None
    assumptions = []
    defs: dict[str, ResolvedDef] = {}
    bound: set[str] = set()

    def fail(message: str, span, code: str):
        raise ResolveError(Diagnostic("resolve", message, span, code=code))

    for item in source.items:
        if isinstance(item, ModeItem):
            if mode is not None:
                fail("duplicate mode pragma", item.span, "duplicate-pragma")
            mode = item.mode
            continue
        is_def = isinstance(item, DefItem)
        kind = "def" if is_def else "assume"
        names = free_vars(item.ty) | (free_vars(item.body) if is_def
                                      else frozenset())
        if item.name in bound:
            fail(f"duplicate name {item.name}", item.span, "duplicate-name")
        loose = names - bound
        if is_def and item.name in loose:
            fail(f"def {item.name} refers to itself; definitions are "
                 "non-recursive", item.span, "recursive-definition")
        unknown = sorted(n for n in loose if "#" not in n)
        if unknown:
            fail(f"{kind} {item.name} mentions unknown names: "
                 f"{', '.join(unknown)}", item.span, "unknown-name")
        if loose:
            fail(f"bound variable {min(loose).split('#')[0]} survives "
                 "erasure; it may only occur in annotations", item.span,
                 "erased-occurrence")
        bound.add(item.name)
        ty = item.ty
        body = item.body if is_def else None
        for n in sorted(names & defs.keys()):
            d = defs[n]
            ty = subst(ty, n, d.erased)
            if is_def:
                body = subst_annotated(body, n, d.body, d.erased)
        if isinstance(item, AssumeItem):
            assumptions.append((item.name, ty))
        else:
            defs[item.name] = ResolvedDef(item.name, ty, body, erase(body),
                                          item.ty, item.span)
    return ResolvedFile(mode_override or mode or Mode.BASE,
                        Context(tuple(assumptions)), tuple(defs.values()))
