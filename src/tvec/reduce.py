"""Reduction: full beta normalization and call-by-value evaluation.

Full reduction contracts redexes anywhere, including under binders; it
drives `joinable`, the one joinability test, which the checker's `join`
and the self-test's canonical shapes both ask.  Call-by-value is the
runtime semantics: left-to-right, operator before operand, recursor
scrutinee last, never under a binder.  Both are fuel-bounded and report
fuel exhaustion as a distinct outcome rather than looping or guessing.

The contraction rules:

    (fun x => b) a          ~>  b[x := a]
    rnat b s 0              ~>  b
    rnat b s (S n)          ~>  s n (rnat b s n)
    rvec b s nil            ~>  b
    rvec b s (cons h t)     ~>  s h t (rvec b s t)
    (qfun => b) @-[]        ~>  b

The quasi-implicit rule and closure under its contexts only ever fire on
large-elimination terms; base-mode terms contain no such nodes, so on them
the relation is exactly the five-rule system.

The engine
----------
One focused reducer, `_run`, serves all three strategies.  It never walks
back to the root: it keeps the path from the root to the current subterm
(the focus) as an explicit stack of frames, each holding a parent node,
its children so far and the slot the focus sits in, and it rebuilds a
parent only when the focus leaves it.  The strategies differ only in the
order the machine visits a node and its children:

  * leftmost-outermost (LO) asks `contract` about a node before its
    children, and visits the children left to right;
  * rightmost-innermost (RI) visits the children right to left and asks
    `contract` about the node after them;
  * call-by-value visits the children left to right (operator before
    operand, recursor scrutinee last), asks `contract` about the node
    after them, treats abstractions and shells as values without entering
    them, and stops at the first node that is neither a value nor a redex.

`contract` is the only redex test: a node is a redex iff it returns a
contractum, and the machine continues at that contractum.  Under LO only
the parent of a contracted node can have become a redex, and only if the
node sat in the slot `contract` inspects (`fn` of an application or
quasi-implicit application, `scrut` of a recursor); the machine asks
`contract` about that parent rebuilt, and then about its parent in turn,
before it resumes.  Under RI and call-by-value the parent is asked anyway
once the contractum is done.
Subterms found normal (call-by-value: found to be values) are remembered
by identity for the rest of the call, so the copies a contraction makes
of them are never scanned again.

No names are made.  An abstraction is a frame like any other, the machine
counts the abstractions on its stack, and a beta step instantiates the
body's de Bruijn indices in one walk that shifts the argument and lowers
the indices of those abstractions (see `contract`).  The walk keeps an
explicit stack too, so no part of the reducer recurses: depth is bounded
by memory, not by the interpreter's recursion limit.

Cost model.  A step costs the contraction itself (the walk of the body)
plus the frames pushed and popped to reach the next redex; a binder is
one frame like any other node.  On the benchmark families (`plus n n`,
`append` of length-n vectors) the cost per step is flat in n for all
three strategies.

Step-count contract.  The engine contracts exactly the redexes, in exactly
the order, that the plain definitions contract: "find the LO (or RI, or
call-by-value) redex from the root, contract it, repeat".  Step counts,
result terms and stuck reasons are theirs.  Fuel counts contractions; a
run that has made `fuel` contractions reports `FuelExhausted`, even when
its last step lands on a normal form or a value.  Those definitions live
on as the reference in the test suite, which checks the engine against
them.
"""

from __future__ import annotations

from typing import Callable, get_args

from .syntax import (
    App, BVar, Cons, FVar, Lam, Nil, QApp, QLam, RNat, RVec, Succ,
    UnannTerm, Zero, alpha_eq, frozen,
)

DEFAULT_FUEL = 100_000

LEFTMOST_OUTERMOST = "leftmost-outermost"
RIGHTMOST_INNERMOST = "rightmost-innermost"


@frozen
class NormalForm:
    term: UnannTerm
    steps: int


@frozen
class FuelExhausted:
    term: UnannTerm
    fuel: int


NormalizeOutcome = NormalForm | FuelExhausted


@frozen
class Value:
    term: UnannTerm
    steps: int


@frozen
class Stuck:
    term: UnannTerm
    reason: str
    steps: int


CbvOutcome = Value | Stuck | FuelExhausted

# Called after every contraction with the step number and the whole term.
StepHook = Callable[[int, UnannTerm], None]


# --------------------------------------------------------------------------
# node tables: children in constructor order (`Node.children`) for the
# types that have any; a frame rebuilds its node with `Node.rebuild`

_KIDS = {tp: tp.children for tp in get_args(UnannTerm) if tp.SCOPES}

# The heads `contract` can fire on, with the slot of the child it inspects
# (`fn`, or the recursor's `scrut`).
_SLOT = {App: 0, QApp: 0, RNat: 2, RVec: 2}

_STUCK = {
    App: "application head is not an abstraction",
    RNat: "numeral recursor scrutinee is not 0 or S _",
    RVec: "vector recursor scrutinee is not nil or cons",
    QApp: "quasi-implicit application head is not a quasi-implicit "
          "abstraction",
}


# --------------------------------------------------------------------------
# contraction and the engine, none of which recurses


def _map_vars(t: UnannTerm, leaf) -> UnannTerm:
    """Rebuild t with `leaf(v, depth)` in place of every bound variable v,
    where depth counts the abstractions above v.  Subterms that do not
    change are shared, and t itself comes back if nothing changes."""
    stack: list[list] = []   # [node, children, slot, changed, depth]
    depth = 0
    while True:
        tp = type(t)
        kids_of = _KIDS.get(tp)
        if kids_of is not None:
            kids = kids_of(t)
            stack.append([t, kids, 0, False, depth])
            if tp is Lam:
                depth += 1
            t = kids[0]
            continue
        if tp is BVar:
            t = leaf(t, depth)
        while stack:
            fr = stack[-1]
            kids, slot = fr[1], fr[2]
            if t is not kids[slot]:
                kids[slot] = t
                fr[3] = True
            depth = fr[4]
            slot += 1
            if slot < len(kids):
                fr[2] = slot
                t = kids[slot]
                break
            stack.pop()
            node = fr[0]
            t = node.rebuild(kids) if fr[3] else node
        else:
            return t


def contract(t: UnannTerm, outer: int = 0) -> UnannTerm | None:
    """Contract the redex at the root, if there is one.

    `outer` is the number of abstractions around t.  A beta step
    `(fun x => b) a` renumbers the de Bruijn indices of b (de Bruijn,
    "Lambda calculus notation with nameless dummies", 1972).  At depth d
    in b, index d (x) becomes a with its indices into the `outer`
    abstractions raised by d; indices d+1 .. d+outer, which point at
    those abstractions, drop by one; indices past them are loose and
    stay.  At the default 0 this is locally nameless opening.
    """
    tp = type(t)
    if tp is App:
        fn, arg = t.fn, t.arg
        if type(fn) is Lam:
            copies = {0: arg}   # a shifted past d binders, shared per d

            def leaf(v: BVar, d: int) -> UnannTerm:
                i = v.index
                if i == d:
                    if outer and d not in copies:
                        copies[d] = _map_vars(
                            arg, lambda w, e: BVar(w.index + d, w.span)
                            if e <= w.index < e + outer else w)
                    return copies.get(d, arg)
                if d < i <= d + outer:
                    return BVar(i - 1, v.span)
                return v

            return _map_vars(fn.body, leaf)
    elif tp is RNat:
        scrut = t.scrut
        if type(scrut) is Zero:
            return t.base
        if type(scrut) is Succ:
            n = scrut.pred
            return App(App(t.step, n), RNat(t.base, t.step, n))
    elif tp is RVec:
        scrut = t.scrut
        if type(scrut) is Nil:
            return t.base
        if type(scrut) is Cons:
            tail = scrut.tail
            return App(App(App(t.step, scrut.head), tail),
                       RVec(t.base, t.step, tail))
    elif tp is QApp:
        fn = t.fn
        if type(fn) is QLam:
            return fn.body
    return None


def _plug(t: UnannTerm, stack: list[list]) -> UnannTerm:
    """The whole term: t at the focus, the frames rebuilt around it.  The
    stack is left as it is."""
    for node, kids, slot, changed in reversed(stack):
        if t is kids[slot] and not changed:
            t = node
        else:
            kids = list(kids)
            kids[slot] = t
            t = node.rebuild(kids)
    return t


def _run(t: UnannTerm, fuel: int, strategy: str, on_step: StepHook | None,
         outer: int):  # abstractions around the focus, inside t or not
    lo, ri = strategy == LEFTMOST_OUTERMOST, strategy == RIGHTMOST_INNERMOST
    cbv = not (lo or ri)
    done: dict[int, UnannTerm] = {}   # id -> node found normal / a value
    stack: list[list] = []   # frames: [node, children, slot, changed]
    steps = 0
    down = True
    while True:
        if down:
            tp = type(t)
            kids_of = _KIDS.get(tp)
            if kids_of is None:
                if cbv and (tp is FVar or tp is BVar):
                    reason = (f"free variable {t.name}" if tp is FVar
                              else "no rule applies")
                    return Stuck(_plug(t, stack), reason, steps)
                down = False
                continue
            if id(t) in done or (cbv and (tp is Lam or tp is QLam)):
                down = False
                continue
            r = contract(t, outer) if lo and tp in _SLOT else None
            if r is None:
                kids = kids_of(t)
                slot = len(kids) - 1 if ri else 0
                stack.append([t, kids, slot, False])
                if tp is Lam:
                    outer += 1
                t = kids[slot]
                continue
        else:
            # Going up: t is normal (LO, RI) or a value (call-by-value).
            if not stack:
                return Value(t, steps) if cbv else NormalForm(t, steps)
            fr = stack[-1]
            kids, slot = fr[1], fr[2]
            if t is not kids[slot]:
                kids[slot] = t
                fr[3] = True
            slot += -1 if ri else 1
            if 0 <= slot < len(kids):
                fr[2] = slot
                t = kids[slot]
                down = True
                continue
            stack.pop()
            node = fr[0]
            tp = type(node)
            if tp is Lam:
                outer -= 1
            t = node.rebuild(kids) if fr[3] else node
            r = None if lo or tp not in _SLOT else contract(t, outer)
            if r is None:
                if cbv and tp in _SLOT:
                    return Stuck(_plug(t, stack), _STUCK[tp], steps)
                done[id(t)] = t
                continue

        # t is a redex and r its contractum.  Under LO, contract the parents
        # this turns into redexes too; then go down into the last contractum.
        while True:
            steps += 1
            t = r
            if on_step is not None:
                on_step(steps, _plug(t, stack))
            if steps == fuel:
                return FuelExhausted(_plug(t, stack), fuel)
            if not lo or not stack:
                break
            fr = stack[-1]
            node, slot = fr[0], fr[2]
            if _SLOT.get(type(node)) != slot:
                break
            kids = list(fr[1])
            kids[slot] = t
            r = contract(node.rebuild(kids), outer)
            if r is None:
                break
            stack.pop()
        down = True


def normalize(t: UnannTerm, fuel: int = DEFAULT_FUEL,
              strategy: str = LEFTMOST_OUTERMOST, *,
              on_step: StepHook | None = None,
              outer: int = 0) -> NormalizeOutcome:
    """Reduce t to a normal form, or report fuel exhaustion.

    Every loose index of t must point at one of the `outer` abstractions
    around it.  A deeper index is not rejected: it is a constant that a
    beta step leaves as it stands, so a binder may capture it, as the
    opening in `tests/reference_reduce.py` does, whose results the engine
    tests pin.  `outer = 0`, the default, suits locally closed terms."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if strategy != LEFTMOST_OUTERMOST and strategy != RIGHTMOST_INNERMOST:
        raise ValueError(f"unknown strategy {strategy!r}: expected "
                         f"{LEFTMOST_OUTERMOST!r} or {RIGHTMOST_INNERMOST!r}")
    return _run(t, fuel, strategy, on_step, outer)


def joinable(a: UnannTerm, b: UnannTerm, fuel: int = DEFAULT_FUEL,
             outer: int = 0
             ) -> bool | tuple[UnannTerm, UnannTerm] | FuelExhausted:
    """The one decision of a join: True iff a and b, under `outer`
    abstractions (see `normalize`), normalize to alpha-equal terms, else
    their two distinct normal forms.  The first side to run out of fuel,
    left first, gives its `FuelExhausted`: an undecided comparison is
    never reported as unequal."""
    forms = []
    for side in (a, b):
        out = normalize(side, fuel, outer=outer)
        if isinstance(out, FuelExhausted):
            return out
        forms.append(out.term)
    return alpha_eq(*forms) or tuple(forms)


def eval_cbv(t: UnannTerm, fuel: int = DEFAULT_FUEL, *,
             on_step: StepHook | None = None) -> CbvOutcome:
    """Run call-by-value to a value, a stuck state, or out of fuel."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    return _run(t, fuel, "call-by-value", on_step, 0)
