"""Reference small-step reducers, kept independent of `tvec.reduce`.

Each step function contracts one redex by walking the whole term from its
root, opening every binder on the way with a name fresh for that subterm.
This is the plain definition of the strategies, and it is slow on
purpose: the engine in `tvec.reduce` must reproduce its step sequence,
step counts, fuel verdicts, result terms and stuck reasons exactly, and
`test_reduce_engine.py` checks that it does.  The loops `normalize` and
`eval_cbv` are the loops the engine replaced.
"""

from __future__ import annotations

from dataclasses import replace

from tvec.reduce import (
    LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST, FuelExhausted, NormalForm,
    Stuck, Value,
)
from tvec.syntax import (
    App, Cons, FVar, Join, Lam, Nil, QApp, QLam, RNat, RVec, Succ, UnannTerm,
    Zero, free_vars, fresh_name,
)

from locally_nameless import close1, open1


def contract(t: UnannTerm) -> UnannTerm | None:
    """Contract the redex at the root, if there is one."""
    match t:
        case App(Lam(_, body), arg):
            return open1(body, arg)
        case RNat(base, _, Zero()):
            return base
        case RNat(base, step, Succ(n)):
            return App(App(step, n), RNat(base, step, n))
        case RVec(base, _, Nil()):
            return base
        case RVec(base, step, Cons(head, tail)):
            return App(App(App(step, head), tail), RVec(base, step, tail))
        case QApp(QLam(body)):
            return body
    return None


def step_full(t: UnannTerm) -> set[UnannTerm]:
    """All one-step reducts of t, under arbitrary contexts."""
    out: set[UnannTerm] = set()
    c = contract(t)
    if c is not None:
        out.add(c)
    for fname, extra in type(t).SCOPES.items():
        child = getattr(t, fname)
        if extra:
            name = fresh_name("x", free_vars(child))
            for r in step_full(open1(child, FVar(name))):
                out.add(replace(t, **{fname: close1(r, name)}))
        else:
            for r in step_full(child):
                out.add(replace(t, **{fname: r}))
    return out


def step_lo(t: UnannTerm) -> UnannTerm | None:
    """Contract the leftmost-outermost redex: the root if it is one,
    otherwise the first child (in constructor order) holding one."""
    c = contract(t)
    if c is not None:
        return c
    for fname, extra in type(t).SCOPES.items():
        child = getattr(t, fname)
        if extra:
            name = fresh_name("x", free_vars(child))
            r = step_lo(open1(child, FVar(name)))
            if r is not None:
                return replace(t, **{fname: close1(r, name)})
        else:
            r = step_lo(child)
            if r is not None:
                return replace(t, **{fname: r})
    return None


def step_ri(t: UnannTerm) -> UnannTerm | None:
    """Contract the rightmost-innermost redex."""
    for fname, extra in reversed(list(type(t).SCOPES.items())):
        child = getattr(t, fname)
        if extra:
            name = fresh_name("x", free_vars(child))
            r = step_ri(open1(child, FVar(name)))
            if r is not None:
                return replace(t, **{fname: close1(r, name)})
        else:
            r = step_ri(child)
            if r is not None:
                return replace(t, **{fname: r})
    return contract(t)


_STRATEGIES = {LEFTMOST_OUTERMOST: step_lo, RIGHTMOST_INNERMOST: step_ri}


def normalize(t: UnannTerm, fuel: int,
              strategy: str = LEFTMOST_OUTERMOST) -> NormalForm | FuelExhausted:
    """Reduce t to a normal form, or report fuel exhaustion."""
    step = _STRATEGIES[strategy]
    steps = 0
    while steps < fuel:
        nxt = step(t)
        if nxt is None:
            return NormalForm(t, steps)
        t = nxt
        steps += 1
    return FuelExhausted(t, fuel)


def is_value(t: UnannTerm) -> bool:
    match t:
        case Lam() | Zero() | Nil() | Join() | QLam():
            return True
        case Succ(p):
            return is_value(p)
        case Cons(h, tl):
            return is_value(h) and is_value(tl)
    return False


def step_cbv(t: UnannTerm) -> UnannTerm | None:
    """One deterministic call-by-value step, or None on values and stuck
    terms.  Order: operator, then operand; recursor arguments left to
    right with the scrutinee last; redexes fire only on value arguments."""
    match t:
        case App(fn, arg):
            if not is_value(fn):
                r = step_cbv(fn)
                return None if r is None else App(r, arg)
            if not is_value(arg):
                r = step_cbv(arg)
                return None if r is None else App(fn, r)
            if isinstance(fn, Lam):
                return open1(fn.body, arg)
            return None
        case Succ(p):
            r = step_cbv(p)
            return None if r is None else Succ(r)
        case Cons(h, tl):
            if not is_value(h):
                r = step_cbv(h)
                return None if r is None else Cons(r, tl)
            r = step_cbv(tl)
            return None if r is None else Cons(h, r)
        case RNat(base, step, scrut) | RVec(base, step, scrut):
            for name, sub in (("base", base), ("step", step), ("scrut", scrut)):
                if not is_value(sub):
                    r = step_cbv(sub)
                    return None if r is None else replace(t, **{name: r})
            return contract(t)
        case QApp(fn):
            if not is_value(fn):
                r = step_cbv(fn)
                return None if r is None else QApp(r)
            if isinstance(fn, QLam):
                return fn.body
            return None
    return None


def eval_cbv(t: UnannTerm, fuel: int) -> Value | Stuck | FuelExhausted:
    """Run call-by-value to a value, a stuck state, or out of fuel."""
    steps = 0
    while steps < fuel:
        nxt = step_cbv(t)
        if nxt is None:
            if is_value(t):
                return Value(t, steps)
            return Stuck(t, _stuck_reason(t), steps)
        t = nxt
        steps += 1
    return FuelExhausted(t, fuel)


def _stuck_reason(t: UnannTerm) -> str:
    match t:
        case FVar(name):
            return f"free variable {name}"
        case App(fn, arg):
            if not is_value(fn):
                return _stuck_reason(fn)
            if not is_value(arg):
                return _stuck_reason(arg)
            return "application head is not an abstraction"
        case Succ(p):
            return _stuck_reason(p)
        case Cons(h, tl):
            return _stuck_reason(h) if not is_value(h) else _stuck_reason(tl)
        case RNat(base, step, scrut):
            for sub in (base, step, scrut):
                if not is_value(sub):
                    return _stuck_reason(sub)
            return "numeral recursor scrutinee is not 0 or S _"
        case RVec(base, step, scrut):
            for sub in (base, step, scrut):
                if not is_value(sub):
                    return _stuck_reason(sub)
            return "vector recursor scrutinee is not nil or cons"
        case QApp(fn):
            if not is_value(fn):
                return _stuck_reason(fn)
            return "quasi-implicit application head is not a quasi-implicit abstraction"
    return "no rule applies"
