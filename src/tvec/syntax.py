"""Term and type syntax with a locally nameless binding discipline, and
the checker's modes (`Mode`), which the parser reads too.

Three syntactic categories share one node infrastructure:

  * unannotated terms  (the runtime language: variables, application,
    abstraction, numerals, vectors, their recursors, the equality witness
    `join`, and the quasi-implicit forms of the large-elimination extension)
  * types              (Nat, length-indexed vectors, dependent and
    quasi-implicit products, untyped equations, and `ifzero` large
    eliminations; types embed unannotated terms only)
  * annotated terms    (the surface language the checker consumes; binders
    carry type annotations, recursors carry motives, plus cast/join and the
    fold/unfold forms of the extension)

The two term categories share `FVar`, `BVar`, `App`, `Zero`, `Succ` and
`Cons`: these carry no annotation, so erasure leaves them as they are.
The categories also decide annotation positions: a type inside an
annotated term (a domain, a motive) is an annotation, which erasure drops
and `erase.inline` fills with erased terms.

Bound variables are de Bruijn indices (`BVar`), free variables are names
(`FVar`).  Binder name hints are kept for printing and diagnostics but are
excluded from equality, so `a == b` on locally closed nodes is exactly
alpha-equivalence.  Every binding construct declares, per child field, how
many extra binder levels that child sits under (`SCOPES`).  One walker,
`map_vars`, follows those levels down to the variables and rebuilds only
what changes.  The kernel fills binders one way, with `instantiate`, and
replaces free names with leaf functions over the same walker: one name
with `subst`, and in `erase.inline` the names of a mapping, in the types
inside an annotated term.  Erasure's index lowering (`erase._release`)
is one too.  The folds
`free_vars` and `node_count` walk the same children.  The walkers cross a
numeral or a vector literal in one loop (`map_spine`), not a frame a level,
and so do `==`, `hash` and `repr`.

Only printing names bound variables.  The parser binds names as it reads
them.  The checker instantiates codomains and motives with `instantiate`,
which raises a loose argument's indices past the binders it lands under;
with no arguments it is a shift.  The reducer instantiates a beta redex
with its own walker, which does not recurse (`reduce.contract`).  Nothing
here opens a binder with a name or closes a name into a binder: the
corpus binds the names it builds terms from with a helper of its own, and
the test suite's reference implementations carry their own open and close.

Storage.  Node classes, the `Diagnostic`s that the frontend and the checker
report, and the records of the other modules (`reduce.NormalForm`,
`frontend.ResolvedDef`, ...) are slotted dataclasses that cannot change
(`frozen`).  A node's `span` is a plain `(start, end)`
pair of character offsets into the parsed text, or None; it is left out
of `==`, `hash` and `repr`.  Per field shape, `frozen` compiles once an
`__init__` that takes each field, positional or keyword, with its default
if it has one (`span` last, so that it may be given by position), and
stores it through its slot descriptor, `__eq__` and `__hash__` over the
compared fields, and on nodes `children()` and `rebuild()`, which walkers
use; `__repr__`, `__setattr__`/`__delattr__` and
`__getstate__`/`__setstate__` are shared by all.  A method the class defines
itself is kept (the `__eq__`, `__hash__` and `__reduce__` that `Succ` and
`Cons` share: pickle and `copy` take a tower or a spine apart into its
heads, spans and base, and `_spine` rebuilds it, each in one loop).
`__setstate__` stores through the class's attribute for each field, so a
record may put a property with a setter over a field's slot
(`typecheck.Failure`).
Nodes must stay frozen, as subterms are shared: by the enumerator's cache
(`oracle._exact`), by def bodies inlined at every use, and by the
reducer's memo of normal subterms by `id`.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from functools import cache
from typing import Callable, ClassVar, Iterator


_compile = cache(lambda src: compile(src, "<node>", "exec"))   # shared code


def frozen(cls: type) -> type:
    """Make `cls` a slotted dataclass that cannot change.  `dataclass`
    only records the fields; see "Storage" above for the methods.  A
    `kw_only` field (a node's `span`) is the last parameter, positional or
    keyword: `App(f, a, span)` costs no keyword call."""
    doc, cls.__doc__ = cls.__doc__, "-"   # else dataclass calls signature()
    cls = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    sig = ", ".join(f"{f.name}={f.default!r}" if f.default is not MISSING
                    else f.name
                    for f in sorted(fields(cls), key=lambda f: f.kw_only))
    cls.__doc__ = doc or f"{cls.__name__}({sig})"
    same = "".join(f"{{0}}.{f.name}," for f in fields(cls) if f.compare)
    kids = list(getattr(cls, "SCOPES", ()))
    src = [f"def __init__(self, {sig}):",
           *(f" _{n}(self, {n})" for n in names),
           # a tuple compare tries `is` first, so shared children are cheap
           "def __eq__(self, other):",
           " if other.__class__ is not self.__class__: return NotImplemented",
           f" return ({same.format('self')}) == ({same.format('other')})",
           f"def __hash__(self): return hash(({same.format('self')}))"]
    if kids:
        listed = ", ".join(f"self.{n}" for n in kids)
        src += [f"def children(self): return [{listed}]",
                "def rebuild(self, kids):", " new = _new(_cls)",
                *(f" _{n}(new, kids[{kids.index(n)}])" if n in kids
                  else f" _{n}(new, self.{n})" for n in names),
                " return new"]
    env = {f"_{n}": getattr(cls, n).__set__ for n in names}
    env.update(_new=object.__new__, _cls=cls)
    made: dict[str, Callable] = dict(_SHARED)
    exec(_compile("\n".join(src)), env, made)
    for name, fn in made.items():
        if cls.__dict__.get(name) is None:   # keep the class's own methods
            setattr(cls, name, fn)
    return cls


def _repr(self) -> str:
    opened = []         # an `S` tower or a `cons` spine in one loop
    while (cls := type(self)) is Succ or cls is Cons:
        if cls is Succ:
            opened.append("Succ(pred=")
            self = self.pred
        else:
            opened.append(f"Cons(head={self.head!r}, tail=")
            self = self.tail
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                      for f in fields(self) if f.repr)
    inner = f"{type(self).__qualname__}({shown})"
    return "".join(opened) + inner + ")" * len(opened)


def _setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self) -> list:
    return [getattr(self, f.name) for f in fields(self)]


def _setstate(self, state: list) -> None:
    for f, value in zip(fields(self), state):   # `_setattr` refuses
        getattr(type(self), f.name).__set__(self, value)


_SHARED = {"__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr,
           "__getstate__": _getstate, "__setstate__": _setstate}


Span = tuple[int, int]      # half-open [start, end) character offsets


@frozen
class Node:
    span: Span | None = field(default=None, kw_only=True, compare=False, repr=False)

    # child field name -> number of binder levels the child is under
    SCOPES: ClassVar[dict[str, int]] = {}


# --------------------------------------------------------------------------
# variables (shared by all three categories)


@frozen
class FVar(Node):
    name: str


@frozen
class BVar(Node):
    index: int


# --------------------------------------------------------------------------
# unannotated terms (App, Zero, Succ and Cons are annotated terms too)


@frozen
class App(Node):
    fn: "UnannTerm"
    arg: "UnannTerm"
    SCOPES = {"fn": 0, "arg": 0}


@frozen
class Lam(Node):
    hint: str = field(compare=False)
    body: "UnannTerm"
    SCOPES = {"body": 1}


@frozen
class Zero(Node):
    pass


@frozen
class Succ(Node):
    pred: "UnannTerm"
    SCOPES = {"pred": 0}

    def __eq__(self, other):    # in a loop: towers and spines can be deep
        if other.__class__ is not self.__class__:
            return NotImplemented
        while self is not other and (cls := self.__class__) is other.__class__:
            if cls is Succ:
                self, other = self.pred, other.pred
            elif cls is not Cons:
                return self == other
            elif self.head is other.head or self.head == other.head:
                self, other = self.tail, other.tail
            else:
                return False
        return self is other

    def __hash__(self):         # in a loop too; equal nodes hash alike
        h = 0
        while (cls := self.__class__) is Succ or cls is Cons:
            h = hash((h,)) if cls is Succ else hash((h, self.head))
            self = self.pred if cls is Succ else self.tail
        return hash((h, self))

    def __reduce__(self):       # pickle and copy flat, rebuilt by `_spine`
        heads, spans = [], []
        while (cls := self.__class__) is Succ or cls is Cons:
            spans.append(self.span)
            if cls is Succ:
                heads.append(None)
                self = self.pred
            else:
                heads.append(self.head)
                self = self.tail
        return _spine, (heads, spans, self)


@frozen
class RNat(Node):
    """Recursor over Nat; the scrutinee is the last argument."""

    base: "UnannTerm"
    step: "UnannTerm"
    scrut: "UnannTerm"
    SCOPES = {"base": 0, "step": 0, "scrut": 0}


@frozen
class Nil(Node):
    pass


@frozen
class Cons(Node):
    head: "UnannTerm"
    tail: "UnannTerm"
    SCOPES = {"head": 0, "tail": 0}
    # one loop for both classes
    __eq__, __hash__, __reduce__ = Succ.__eq__, Succ.__hash__, Succ.__reduce__


@frozen
class RVec(Node):
    """Recursor over vectors; the scrutinee is the last argument."""

    base: "UnannTerm"
    step: "UnannTerm"
    scrut: "UnannTerm"
    SCOPES = {"base": 0, "step": 0, "scrut": 0}


@frozen
class Join(Node):
    """The unique witness of equations; carries no evidence."""


@frozen
class QLam(Node):
    """Quasi-implicit abstraction.  Binds nothing: the body may not use
    the abstracted variable, so no index is introduced."""

    body: "UnannTerm"
    SCOPES = {"body": 0}


@frozen
class QApp(Node):
    """Quasi-implicit application; supplies no argument."""

    fn: "UnannTerm"
    SCOPES = {"fn": 0}


# --------------------------------------------------------------------------
# types


@frozen
class NatTy(Node):
    pass


@frozen
class VecTy(Node):
    elem: "Ty"
    length: "UnannTerm"
    SCOPES = {"elem": 0, "length": 0}


@frozen
class PiTy(Node):
    hint: str = field(compare=False)
    dom: "Ty"
    cod: "Ty"
    SCOPES = {"dom": 0, "cod": 1}


@frozen
class AllTy(Node):
    """Quasi-implicit product: the bound variable may occur in the
    codomain but not in the (erased) body of its inhabitants."""

    hint: str = field(compare=False)
    dom: "Ty"
    cod: "Ty"
    SCOPES = {"dom": 0, "cod": 1}


@frozen
class EqTy(Node):
    """Untyped equation between unannotated terms."""

    lhs: "UnannTerm"
    rhs: "UnannTerm"
    SCOPES = {"lhs": 0, "rhs": 0}


@frozen
class IfZeroTy(Node):
    """Large elimination: a type computed from a Nat scrutinee."""

    scrut: "UnannTerm"
    on_zero: "Ty"
    on_succ: "Ty"
    SCOPES = {"scrut": 0, "on_zero": 0, "on_succ": 0}


# --------------------------------------------------------------------------
# annotated terms


@frozen
class TAppImp(Node):
    """Implicit application: the argument is erased, only its erasure
    lands in the result type."""

    fn: "AnnTerm"
    arg: "AnnTerm"
    SCOPES = {"fn": 0, "arg": 0}


@frozen
class TLam(Node):
    hint: str = field(compare=False)
    dom: "Ty"
    body: "AnnTerm"
    SCOPES = {"dom": 0, "body": 1}


@frozen
class TLamImp(Node):
    """Implicit abstraction: erases to its body, which must not use the
    bound variable at the term level."""

    hint: str = field(compare=False)
    dom: "Ty"
    body: "AnnTerm"
    SCOPES = {"dom": 0, "body": 1}


@frozen
class TRNat(Node):
    """Nat recursor with motive `x. motive` (one binder)."""

    motive_hint: str = field(compare=False)
    motive: "Ty"
    base: "AnnTerm"
    step: "AnnTerm"
    scrut: "AnnTerm"
    SCOPES = {"motive": 1, "base": 0, "step": 0, "scrut": 0}


@frozen
class TNil(Node):
    elem: "Ty"
    SCOPES = {"elem": 0}


@frozen
class TRVec(Node):
    """Vector recursor with motive `x. y. motive`: x (index 1) is the
    length, y (index 0) the vector."""

    len_hint: str = field(compare=False)
    vec_hint: str = field(compare=False)
    motive: "Ty"
    base: "AnnTerm"
    step: "AnnTerm"
    scrut: "AnnTerm"
    SCOPES = {"motive": 2, "base": 0, "step": 0, "scrut": 0}


@frozen
class TJoin(Node):
    lhs: "AnnTerm"
    rhs: "AnnTerm"
    SCOPES = {"lhs": 0, "rhs": 0}


@frozen
class TCast(Node):
    """Transport along an equation through the motive `x. motive`."""

    motive_hint: str = field(compare=False)
    motive: "Ty"
    proof: "AnnTerm"
    body: "AnnTerm"
    SCOPES = {"motive": 1, "proof": 0, "body": 0}


@frozen
class TQLam(Node):
    """Quasi-implicit abstraction: binds into the body's annotations and
    type, but the erased body must not use the variable."""

    hint: str = field(compare=False)
    dom: "Ty"
    body: "AnnTerm"
    SCOPES = {"dom": 0, "body": 1}


@frozen
class TQApp(Node):
    """Quasi-implicit application of fn to an erased witness."""

    fn: "AnnTerm"
    witness: "AnnTerm"
    SCOPES = {"fn": 0, "witness": 0}


@frozen
class TFoldZ(Node):
    """Fold a term of the zero branch into `ifzero 0 _ other`."""

    other: "Ty"
    body: "AnnTerm"
    SCOPES = {"other": 0, "body": 0}


@frozen
class TUnfoldZ(Node):
    body: "AnnTerm"
    SCOPES = {"body": 0}


@frozen
class TFoldS(Node):
    """Fold a term of the successor branch into `ifzero (S w) zero_ty _`
    where w is the erased witness."""

    witness: "AnnTerm"
    zero_ty: "Ty"
    body: "AnnTerm"
    SCOPES = {"witness": 0, "zero_ty": 0, "body": 0}


@frozen
class TUnfoldS(Node):
    witness: "AnnTerm"
    body: "AnnTerm"
    SCOPES = {"witness": 0, "body": 0}


# --------------------------------------------------------------------------
# category aliases

UnannTerm = (
    FVar | BVar | App | Lam | Zero | Succ | RNat | Nil | Cons | RVec | Join
    | QLam | QApp
)

Ty = NatTy | VecTy | PiTy | AllTy | EqTy | IfZeroTy

AnnTerm = (
    FVar | BVar | App | TAppImp | TLam | TLamImp | Zero | Succ | TRNat
    | TNil | Cons | TRVec | TJoin | TCast | TQLam | TQApp | TFoldZ
    | TUnfoldZ | TFoldS | TUnfoldS
)


# --------------------------------------------------------------------------
# generic binding operations


def numeral(t: Node) -> tuple[int, Node]:
    """The height of the `S` tower at `t`, and the node it stands on."""
    n = 0
    while type(t) is Succ:
        t, n = t.pred, n + 1
    return n, t


def tower(n: int, base: Node, span: Span) -> Node:
    """`n` levels of `S` over `base`, each with `span`.  A level is made as
    `rebuild` makes a node, through the slot setters: a parsed numeral has
    a level per unit, and the constructor's call would double its cost."""
    new, pred, at = object.__new__, Succ.pred.__set__, Succ.span.__set__
    for _ in range(n):
        level = new(Succ)
        pred(level, base)
        at(level, span)
        base = level
    return base


def _spine(heads: list, spans: list, base: Node) -> Node:
    """The `S` and `cons` levels that `Succ.__reduce__` took apart, rebuilt
    over `base` innermost first: a head of None is an `S` level."""
    for head, span in zip(reversed(heads), reversed(spans)):
        base = Succ(base, span) if head is None else Cons(head, base, span)
    return base


def map_spine(t: Succ | Cons, f: Callable[..., Node], a, b, c) -> Node:
    """Replace each `cons` head `h` met from `t` down its `S` and `cons`
    levels, outermost first, then the node they stand on, by `f(h, a, b,
    c)` (fixed arity: `*args` costs more than a short spine saves).
    Rebuilt levels keep their spans, levels below the innermost change are
    shared, and `t` itself comes back if nothing changes."""
    node, heads = t, None       # id(cell) -> new head, made on a change
    while (cls := type(node)) is Succ or cls is Cons:
        if cls is Cons:
            new = f(node.head, a, b, c)
            if new is not node.head:
                heads = heads or {}
                heads[id(node)] = new
        node = node.pred if cls is Succ else node.tail
    end = f(node, a, b, c)
    if heads is None and end is node:
        return t
    levels, heads = [], heads or {}
    while t is not node:
        levels.append(t)
        t = t.pred if type(t) is Succ else t.tail
    for level in reversed(levels):
        if type(level) is Succ:
            end = level if end is level.pred else Succ(end, level.span)
        else:
            head = heads.get(id(level), level.head)
            end = (level if end is level.tail and head is level.head
                   else Cons(head, end, level.span))
    return end


def map_vars(t: Node, kind: type[FVar] | type[BVar],
             leaf: Callable[[Node, int], Node], depth: int = 0) -> Node:
    """Replace every variable `v` of class `kind` in `t` with `leaf(v, d)`.

    `d` is `depth` plus the number of binders between the root and `v`.
    Unchanged subterms are shared, and `t` itself comes back if nothing
    changes.  Each caller needs one class of variable only; leaving the
    other class out of `leaf` keeps the walk as fast as a hand-written one.
    """
    cls = type(t)
    scopes = cls.SCOPES
    if not scopes:
        return leaf(t, depth) if cls is kind else t
    if cls is Succ or cls is Cons:
        return map_spine(t, map_vars, kind, leaf, depth)
    kids = None   # made on the first change: most walks change nothing
    i = 0
    for name, extra in scopes.items():
        child = getattr(t, name)
        new = map_vars(child, kind, leaf, depth + extra)
        if new is not child:
            if kids is None:
                kids = t.children()
            kids[i] = new
        i += 1
    return t if kids is None else t.rebuild(kids)


def instantiate(t: Node, args: tuple[Node, ...], lift: int = 0) -> Node:
    """Replace each loose index i < len(args) of `t` by `args[i]`, raised
    past the binders it lands under, and move every other loose index i
    to i - len(args) + lift.  `t` itself comes back if nothing changes."""
    n = len(args)
    raised: dict[tuple[int, int], Node] = {}   # (i, depth) -> args[i] raised

    def leaf(v: BVar, depth: int) -> Node:
        i = v.index - depth
        if i < 0 or (i >= n and n == lift):
            return v
        if i >= n:
            return BVar(v.index - n + lift, v.span)
        if not depth:
            return args[i]
        if (i, depth) not in raised:
            raised[i, depth] = instantiate(args[i], (), depth)
        return raised[i, depth]
    return map_vars(t, BVar, leaf)


def free_vars(t: Node) -> frozenset[str]:
    """Names of the free variables of a term or type."""
    acc: set[str] = set()
    _collect_free(t, acc)
    return frozenset(acc)


def _collect_free(t: Node, acc: set[str], _b=None, _c=None) -> Node:
    cls = type(t)
    if cls is FVar:
        acc.add(t.name)
    elif cls is Succ or cls is Cons:    # `t` comes back, as `map_spine` wants
        map_spine(t, _collect_free, acc, None, None)
    else:
        for name in cls.SCOPES:
            _collect_free(getattr(t, name), acc)
    return t


def subst(t: Node, name: str, repl: Node) -> Node:
    """Capture-avoiding substitution of `repl` for the free variable `name`.

    Capture cannot occur: bound variables are indices and `repl` is locally
    closed, so its free names cannot be caught by any binder in `t`.
    """
    def leaf(v: FVar, depth: int) -> Node:
        return repl if v.name == name else v
    return map_vars(t, FVar, leaf)


def alpha_eq(a: Node, b: Node) -> bool:
    """Alpha-equivalence: structural equality with hints ignored."""
    return a == b


def node_count(t: Node) -> int:
    """Number of AST nodes, annotations and motives included."""
    return 1 + sum(node_count(getattr(t, name)) for name in type(t).SCOPES)


def fresh_name(hint: str, avoid: frozenset[str] | set[str]) -> str:
    """First of hint, hint', hint'', ... not in `avoid`."""
    name = hint or "x"
    while name in avoid:
        name += "'"
    return name


# --------------------------------------------------------------------------
# contexts


def ctx_ok(ctx: Context) -> bool:
    """Context well-scoping: names are distinct and every type's free
    variables are bound earlier in the context."""
    seen: set[str] = set()
    for name, ty in ctx:
        if name in seen or not free_vars(ty) <= seen:
            return False
        seen.add(name)
    return True


@frozen
class Context:
    """Ordered typing context; later entries may mention earlier names."""

    entries: tuple[tuple[str, Ty], ...] = ()

    def extend(self, name: str, ty: Ty) -> "Context":
        return Context(self.entries + ((name, ty),))

    def lookup(self, name: str) -> Ty | None:
        for n, ty in reversed(self.entries):
            if n == name:
                return ty
        return None

    def domain(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    def names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.entries)

    def __iter__(self) -> Iterator[tuple[str, Ty]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class Mode(enum.Enum):
    BASE = "base"
    LARGE_ELIM = "large-elim"


@frozen
class Diagnostic:
    rule: str
    message: str
    span: Span
    code: str = "error"
    expected: str | None = None
    actual: str | None = None
    severity: str = "error"
    children: tuple["Diagnostic", ...] = ()

    def to_json(self) -> dict:
        start, end = self.span
        return {
            "rule": self.rule,
            "code": self.code,
            "message": self.message,
            "severity": self.severity,
            "span": {"start": start, "end": end},
            "expected": self.expected,
            "actual": self.actual,
            "children": [c.to_json() for c in self.children],
        }

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.severity}[{self.rule}]: {self.message}"]
        if self.span != (0, 0):
            start, end = self.span
            lines.append(f"{pad}  at {start}..{end}")
        if self.expected is not None:
            lines.append(f"{pad}  expected: {self.expected}")
        if self.actual is not None:
            lines.append(f"{pad}  actual:   {self.actual}")
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)
