"""Term and type syntax with a locally nameless binding discipline.

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

Bound variables are de Bruijn indices (`BVar`), free variables are names
(`FVar`).  Binder name hints are kept for printing and diagnostics but are
excluded from equality, so `a == b` on locally closed nodes is exactly
alpha-equivalence.  Every binding construct declares, per child field, how
many extra binder levels that child sits under (`SCOPES`).  One walker,
`map_vars`, follows those levels down to the variables and rebuilds only
what changes; `open_at`, `close_at`, `subst` and erasure's index lowering
(`erase._release`) are each a leaf function over it.  The folds
`free_vars` and `node_count` walk the same children.  The reducer opens
no binder: a beta step instantiates indices with its own walker, which
does not recurse (`reduce.contract`).  The parser closes nothing: it
binds names as it reads them.  The checker opens no term either: it
checks a binder body under an environment of names.  It opens and closes
types only: `open1`/`open2` instantiate a codomain or a motive, and
`close1` closes the type of a binder body and the recursor step types.
Besides the checker, the oracle opens a codomain at `0`
(`canonical_shape`), and the corpus closes the terms it builds from
names (`close1`/`close_at`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Iterator


@dataclass(frozen=True)
class Span:
    """Half-open [start, end) offsets into the source text."""

    start: int
    end: int


@dataclass(frozen=True)
class Node:
    span: Span | None = field(default=None, kw_only=True, compare=False, repr=False)

    # child field name -> number of binder levels the child is under
    SCOPES: ClassVar[dict[str, int]] = {}
    # child fields that are annotated-term positions (used by erasure-aware
    # substitution; empty on type and unannotated-term nodes)
    ANN: ClassVar[frozenset[str]] = frozenset()


# --------------------------------------------------------------------------
# variables (shared by all three categories)


@dataclass(frozen=True)
class FVar(Node):
    name: str


@dataclass(frozen=True)
class BVar(Node):
    index: int


# --------------------------------------------------------------------------
# unannotated terms


@dataclass(frozen=True)
class App(Node):
    fn: "UnannTerm"
    arg: "UnannTerm"
    SCOPES = {"fn": 0, "arg": 0}


@dataclass(frozen=True)
class Lam(Node):
    hint: str = field(compare=False)
    body: "UnannTerm"
    SCOPES = {"body": 1}


@dataclass(frozen=True)
class Zero(Node):
    pass


@dataclass(frozen=True)
class Succ(Node):
    pred: "UnannTerm"
    SCOPES = {"pred": 0}


@dataclass(frozen=True)
class RNat(Node):
    """Recursor over Nat; the scrutinee is the last argument."""

    base: "UnannTerm"
    step: "UnannTerm"
    scrut: "UnannTerm"
    SCOPES = {"base": 0, "step": 0, "scrut": 0}


@dataclass(frozen=True)
class Nil(Node):
    pass


@dataclass(frozen=True)
class Cons(Node):
    head: "UnannTerm"
    tail: "UnannTerm"
    SCOPES = {"head": 0, "tail": 0}


@dataclass(frozen=True)
class RVec(Node):
    """Recursor over vectors; the scrutinee is the last argument."""

    base: "UnannTerm"
    step: "UnannTerm"
    scrut: "UnannTerm"
    SCOPES = {"base": 0, "step": 0, "scrut": 0}


@dataclass(frozen=True)
class Join(Node):
    """The unique witness of equations; carries no evidence."""


@dataclass(frozen=True)
class QLam(Node):
    """Quasi-implicit abstraction.  Binds nothing: the body may not use
    the abstracted variable, so no index is introduced."""

    body: "UnannTerm"
    SCOPES = {"body": 0}


@dataclass(frozen=True)
class QApp(Node):
    """Quasi-implicit application; supplies no argument."""

    fn: "UnannTerm"
    SCOPES = {"fn": 0}


# --------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class NatTy(Node):
    pass


@dataclass(frozen=True)
class VecTy(Node):
    elem: "Ty"
    length: "UnannTerm"
    SCOPES = {"elem": 0, "length": 0}


@dataclass(frozen=True)
class PiTy(Node):
    hint: str = field(compare=False)
    dom: "Ty"
    cod: "Ty"
    SCOPES = {"dom": 0, "cod": 1}


@dataclass(frozen=True)
class AllTy(Node):
    """Quasi-implicit product: the bound variable may occur in the
    codomain but not in the (erased) body of its inhabitants."""

    hint: str = field(compare=False)
    dom: "Ty"
    cod: "Ty"
    SCOPES = {"dom": 0, "cod": 1}


@dataclass(frozen=True)
class EqTy(Node):
    """Untyped equation between unannotated terms."""

    lhs: "UnannTerm"
    rhs: "UnannTerm"
    SCOPES = {"lhs": 0, "rhs": 0}


@dataclass(frozen=True)
class IfZeroTy(Node):
    """Large elimination: a type computed from a Nat scrutinee."""

    scrut: "UnannTerm"
    on_zero: "Ty"
    on_succ: "Ty"
    SCOPES = {"scrut": 0, "on_zero": 0, "on_succ": 0}


# --------------------------------------------------------------------------
# annotated terms


@dataclass(frozen=True)
class TApp(Node):
    fn: "AnnTerm"
    arg: "AnnTerm"
    SCOPES = {"fn": 0, "arg": 0}
    ANN = frozenset({"fn", "arg"})


@dataclass(frozen=True)
class TAppImp(Node):
    """Implicit application: the argument is erased, only its erasure
    lands in the result type."""

    fn: "AnnTerm"
    arg: "AnnTerm"
    SCOPES = {"fn": 0, "arg": 0}
    ANN = frozenset({"fn", "arg"})


@dataclass(frozen=True)
class TLam(Node):
    hint: str = field(compare=False)
    dom: "Ty"
    body: "AnnTerm"
    SCOPES = {"dom": 0, "body": 1}
    ANN = frozenset({"body"})


@dataclass(frozen=True)
class TLamImp(Node):
    """Implicit abstraction: erases to its body, which must not use the
    bound variable at the term level."""

    hint: str = field(compare=False)
    dom: "Ty"
    body: "AnnTerm"
    SCOPES = {"dom": 0, "body": 1}
    ANN = frozenset({"body"})


@dataclass(frozen=True)
class TZero(Node):
    pass


@dataclass(frozen=True)
class TSucc(Node):
    pred: "AnnTerm"
    SCOPES = {"pred": 0}
    ANN = frozenset({"pred"})


@dataclass(frozen=True)
class TRNat(Node):
    """Nat recursor with motive `x. motive` (one binder)."""

    motive_hint: str = field(compare=False)
    motive: "Ty"
    base: "AnnTerm"
    step: "AnnTerm"
    scrut: "AnnTerm"
    SCOPES = {"motive": 1, "base": 0, "step": 0, "scrut": 0}
    ANN = frozenset({"base", "step", "scrut"})


@dataclass(frozen=True)
class TNil(Node):
    elem: "Ty"
    SCOPES = {"elem": 0}


@dataclass(frozen=True)
class TCons(Node):
    head: "AnnTerm"
    tail: "AnnTerm"
    SCOPES = {"head": 0, "tail": 0}
    ANN = frozenset({"head", "tail"})


@dataclass(frozen=True)
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
    ANN = frozenset({"base", "step", "scrut"})


@dataclass(frozen=True)
class TJoin(Node):
    lhs: "AnnTerm"
    rhs: "AnnTerm"
    SCOPES = {"lhs": 0, "rhs": 0}
    ANN = frozenset({"lhs", "rhs"})


@dataclass(frozen=True)
class TCast(Node):
    """Transport along an equation through the motive `x. motive`."""

    motive_hint: str = field(compare=False)
    motive: "Ty"
    proof: "AnnTerm"
    body: "AnnTerm"
    SCOPES = {"motive": 1, "proof": 0, "body": 0}
    ANN = frozenset({"proof", "body"})


@dataclass(frozen=True)
class TQLam(Node):
    """Quasi-implicit abstraction: binds into the body's annotations and
    type, but the erased body must not use the variable."""

    hint: str = field(compare=False)
    dom: "Ty"
    body: "AnnTerm"
    SCOPES = {"dom": 0, "body": 1}
    ANN = frozenset({"body"})


@dataclass(frozen=True)
class TQApp(Node):
    """Quasi-implicit application of fn to an erased witness."""

    fn: "AnnTerm"
    witness: "AnnTerm"
    SCOPES = {"fn": 0, "witness": 0}
    ANN = frozenset({"fn", "witness"})


@dataclass(frozen=True)
class TFoldZ(Node):
    """Fold a term of the zero branch into `ifzero 0 _ other`."""

    other: "Ty"
    body: "AnnTerm"
    SCOPES = {"other": 0, "body": 0}
    ANN = frozenset({"body"})


@dataclass(frozen=True)
class TUnfoldZ(Node):
    body: "AnnTerm"
    SCOPES = {"body": 0}
    ANN = frozenset({"body"})


@dataclass(frozen=True)
class TFoldS(Node):
    """Fold a term of the successor branch into `ifzero (S w) zero_ty _`
    where w is the erased witness."""

    witness: "AnnTerm"
    zero_ty: "Ty"
    body: "AnnTerm"
    SCOPES = {"witness": 0, "zero_ty": 0, "body": 0}
    ANN = frozenset({"witness", "body"})


@dataclass(frozen=True)
class TUnfoldS(Node):
    witness: "AnnTerm"
    body: "AnnTerm"
    SCOPES = {"witness": 0, "body": 0}
    ANN = frozenset({"witness", "body"})


# --------------------------------------------------------------------------
# category aliases

UnannTerm = (
    FVar | BVar | App | Lam | Zero | Succ | RNat | Nil | Cons | RVec | Join
    | QLam | QApp
)

Ty = NatTy | VecTy | PiTy | AllTy | EqTy | IfZeroTy

AnnTerm = (
    FVar | BVar | TApp | TAppImp | TLam | TLamImp | TZero | TSucc | TRNat
    | TNil | TCons | TRVec | TJoin | TCast | TQLam | TQApp | TFoldZ
    | TUnfoldZ | TFoldS | TUnfoldS
)


# --------------------------------------------------------------------------
# generic binding operations


def map_vars(t: Node, kind: type[FVar] | type[BVar],
             leaf: Callable[[Node, int], Node], depth: int = 0) -> Node:
    """Replace every variable `v` of class `kind` in `t` with `leaf(v, d)`.

    `d` is `depth` plus the number of binders between the root and `v`.
    Unchanged subterms are shared, and `t` itself comes back if nothing
    changes.  Each caller needs one class of variable only; leaving the
    other class out of `leaf` keeps the walk as fast as a hand-written one.
    """
    scopes = type(t).SCOPES
    if not scopes:
        return leaf(t, depth) if type(t) is kind else t
    changes = {}
    for name, extra in scopes.items():
        child = getattr(t, name)
        new = map_vars(child, kind, leaf, depth + extra)
        if new is not child:
            changes[name] = new
    return replace(t, **changes) if changes else t


def open_at(t: Node, k: int, repl: Node) -> Node:
    """Replace the bound variable at level k with `repl`.

    `repl` must be locally closed; no index shifting is ever required.
    """
    def leaf(v: BVar, depth: int) -> Node:
        return repl if v.index == depth else v
    return map_vars(t, BVar, leaf, k)


def close_at(t: Node, k: int, name: str) -> Node:
    """Abstract the free variable `name` as the bound variable at level k."""
    def leaf(v: FVar, depth: int) -> Node:
        return BVar(depth, span=v.span) if v.name == name else v
    return map_vars(t, FVar, leaf, k)


def open1(t: Node, repl: Node) -> Node:
    return open_at(t, 0, repl)


def close1(t: Node, name: str) -> Node:
    return close_at(t, 0, name)


def open2(t: Node, outer: Node, inner: Node) -> Node:
    """Instantiate a two-binder scope: level 1 gets `outer`, level 0 `inner`."""
    return open_at(open_at(t, 1, outer), 0, inner)


def free_vars(t: Node) -> frozenset[str]:
    """Names of the free variables of a term or type."""
    acc: set[str] = set()
    _collect_free(t, acc)
    return frozenset(acc)


def _collect_free(t: Node, acc: set[str]) -> None:
    if isinstance(t, FVar):
        acc.add(t.name)
        return
    for name in type(t).SCOPES:
        _collect_free(getattr(t, name), acc)


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


@dataclass(frozen=True)
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


def ctx_ok(ctx: Context) -> bool:
    """Context well-scoping: names are distinct and every type's free
    variables are bound earlier in the context."""
    seen: set[str] = set()
    for name, ty in ctx:
        if name in seen or not free_vars(ty) <= seen:
            return False
        seen.add(name)
    return True
