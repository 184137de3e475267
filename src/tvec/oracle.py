"""Exhaustive term enumeration and the self-test property suite.

The enumerator produces every annotated term up to a node budget over a
fixed alphabet: the atoms are `zero`, variables (from a supplied context,
plus bound variables in scope), `join` components and `nil`; annotation
positions (binder domains, motives, nil element types) draw from a small
closed type grammar rather than recursing.  Size is the node count of the
whole term, annotations included, so `node_count` on any produced term
equals the size bucket it came from.  The order is deterministic, and no
two produced terms are alpha-equivalent: terms are built directly in
de Bruijn form with a fixed binder hint, which equality ignores.

The property suite filters the enumeration through the type checker and
then exercises five behavioural laws on the survivors:

  P1  full-beta normalization terminates and the normal form is canonical
      for the inferred type (proofs of equations also require the two
      sides to be joinable);
  P2  call-by-value evaluation of a closed well-typed erasure reaches a
      value of canonical shape, never a stuck state;
  P3  leftmost-outermost and rightmost-innermost normalization agree;
  P4  substitution laws: the free-variable equation for substitution, and
      erasure commuting with annotated substitution;
  P5  parsing the pretty-printed form of a term gives it back up to alpha.

Fuel exhaustion during P1, P2 or P3 is tallied as "undecided", separate
from failure.  The checker used for filtering counts rule attempts, and
the report lists any rule of the active mode that was never attempted;
the bundled corpus definitions are checked alongside the enumeration so
coverage does not hinge on the enumerator reaching every construct.
"""

from __future__ import annotations

import functools
import time
from typing import Iterator

from . import frontend
from .corpus import base_corpus, ext_assumptions, ext_corpus
from .erase import erase, subst_annotated
from .reduce import (
    DEFAULT_FUEL, LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST, CbvOutcome,
    FuelExhausted, NormalizeOutcome, Stuck, eval_cbv, joinable, normalize,
)
from .syntax import (
    AllTy, AnnTerm, App, BVar, Cons, Context, EqTy, FVar, IfZeroTy, Join,
    Lam, Mode, NatTy, Nil, PiTy, QLam, Succ, TAppImp, TCast, TFoldS,
    TFoldZ, TJoin, TLam, TLamImp, TNil, TQApp, TQLam, TRNat, TRVec,
    TUnfoldS, TUnfoldZ, Ty, UnannTerm, VecTy, Zero, alpha_eq, free_vars,
    frozen, instantiate, node_count, subst,
)
from .typecheck import RULES, Checker, Inferred

ENUM_CAP = 8

# Closed types used for every annotation position the enumerator fills.
ANNOTATION_TYPES: tuple[Ty, ...] = (
    NatTy(),
    EqTy(Zero(), Zero()),
    VecTy(NatTy(), Zero()),
    PiTy("x", NatTy(), NatTy()),
)

_SIZED_TYPES = tuple((ty, node_count(ty)) for ty in ANNOTATION_TYPES)


# --------------------------------------------------------------------------
# enumeration


def enumerate_terms(max_size: int, mode: Mode = Mode.BASE,
                    ctx: Context = Context()) -> Iterator[AnnTerm]:
    """Yield every annotated term of at most `max_size` nodes.

    Smaller terms come first; within a size bucket the order is fixed by
    the construction.  Terms are locally closed, and their free variables
    are exactly drawn from `ctx`.  Sizes above ENUM_CAP are refused: the
    buckets grow steeply, and the memo table behind this function is
    shared between callers.
    """
    if not 1 <= max_size <= ENUM_CAP:
        raise ValueError(f"size must be between 1 and {ENUM_CAP}")
    names = ctx.domain()
    for n in range(1, max_size + 1):
        yield from _exact(n, 0, mode, names)


def _splits2(total: int) -> Iterator[tuple[int, int]]:
    for i in range(1, total):
        yield i, total - i


def _splits3(total: int) -> Iterator[tuple[int, int, int]]:
    for i in range(1, total - 1):
        for j in range(1, total - i):
            yield i, j, total - i - j


@functools.cache
def _exact(n: int, depth: int, mode: Mode,
           names: tuple[str, ...]) -> tuple[AnnTerm, ...]:
    """All terms of exactly n nodes with `depth` enclosing binders."""
    ext = mode is Mode.LARGE_ELIM
    out: list[AnnTerm] = []
    if n == 1:
        out.append(Zero())
        out.extend(FVar(name) for name in names)
        out.extend(BVar(i) for i in range(depth))
        return tuple(out)
    rest = n - 1

    def exact(k: int, deeper: bool = False) -> tuple[AnnTerm, ...]:
        return _exact(k, depth + 1 if deeper else depth, mode, names)

    for t in exact(rest):
        out.append(Succ(t))
        if ext:
            out.append(TUnfoldZ(t))
    for ty, k in _SIZED_TYPES:
        if k == rest:
            out.append(TNil(ty))
    for i, j in _splits2(rest):
        for a in exact(i):
            for b in exact(j):
                out.append(Cons(a, b))
                out.append(App(a, b))
                out.append(TJoin(a, b))
                if ext:
                    out.append(TQApp(a, b))
                    out.append(TUnfoldS(a, b))
                else:
                    out.append(TAppImp(a, b))
    for ty, k in _SIZED_TYPES:
        budget = rest - k
        if budget >= 1:
            for b in exact(budget, deeper=True):
                out.append(TLam("x", ty, b))
                if ext:
                    out.append(TQLam("x", ty, b))
                else:
                    out.append(TLamImp("x", ty, b))
            if ext:
                for b in exact(budget):
                    out.append(TFoldZ(ty, b))
        for i, j in _splits2(budget):
            for a in exact(i):
                for b in exact(j):
                    out.append(TCast("w", ty, a, b))
                    if ext:
                        out.append(TFoldS(a, ty, b))
        for i, j, k2 in _splits3(budget):
            for b in exact(i):
                for s in exact(j):
                    for sc in exact(k2):
                        out.append(TRNat("x", ty, b, s, sc))
                        out.append(TRVec("x", "y", ty, b, s, sc))
    return tuple(out)


# --------------------------------------------------------------------------
# canonical forms


def canonical_shape(v: UnannTerm, ty: Ty, mode: Mode = Mode.BASE,
                    fuel: int = DEFAULT_FUEL) -> bool | FuelExhausted:
    """Whether a closed value has the shape its type promises.

    Nat demands a numeral; Vec demands nil or cons agreeing with the
    normalized length, recursively; Pi demands an abstraction; an
    equation demands `join` and joinable sides; an ifzero type first
    normalizes its scrutinee and then defers to the branch it selects.
    Quasi-implicit products demand a suspended shell in large-elimination
    mode; in base mode the product is invisible at runtime, so the check
    recurses into the codomain at an arbitrary instance (the codomain
    head never depends on it).  Fuel exhaustion in any inner
    normalization is returned as such rather than as a verdict.
    """
    match ty:
        case NatTy():
            match v:
                case Zero():
                    return True
                case Succ(pred):
                    return canonical_shape(pred, NatTy(), mode, fuel)
            return False
        case VecTy(elem, length):
            idx = normalize(length, fuel)
            if isinstance(idx, FuelExhausted):
                return idx
            match v, idx.term:
                case Nil(), Zero():
                    return True
                case Cons(head, tail), Succ(pred):
                    head_ok = canonical_shape(head, elem, mode, fuel)
                    if head_ok is not True:
                        return head_ok
                    return canonical_shape(tail, VecTy(elem, pred), mode,
                                           fuel)
            return False
        case PiTy():
            return isinstance(v, Lam)
        case AllTy(_, _, cod):
            if mode is Mode.LARGE_ELIM:
                return isinstance(v, QLam)
            return canonical_shape(v, instantiate(cod, (Zero(),)), mode,
                                   fuel)
        case EqTy(lhs, rhs):
            if not isinstance(v, Join):
                return False
            verdict = joinable(lhs, rhs, fuel)
            return False if isinstance(verdict, tuple) else verdict
        case IfZeroTy(scrut, on_zero, on_succ):
            nf = normalize(scrut, fuel)
            if isinstance(nf, FuelExhausted):
                return nf
            match nf.term:
                case Zero():
                    return canonical_shape(v, on_zero, mode, fuel)
                case Succ():
                    return canonical_shape(v, on_succ, mode, fuel)
            return False
    return False


# --------------------------------------------------------------------------
# property suite


_DESCRIPTIONS = {
    "P1": "full-beta normal forms exist and are canonical",
    "P2": "call-by-value reaches a canonical value",
    "P3": "normalization strategies agree",
    "P4": "substitution laws hold",
    "P5": "parse after pretty is the identity",
}
PROPERTY_NAMES = tuple(_DESCRIPTIONS)


@frozen
class Counterexample:
    prop: str
    term: str
    ty: str | None
    detail: str

    def to_json(self) -> dict:
        return {"property": self.prop, "term": self.term, "type": self.ty,
                "detail": self.detail}


@frozen
class PropertyResult:
    name: str
    checked: int
    undecided: int
    failures: tuple[Counterexample, ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": _DESCRIPTIONS[self.name],
            "checked": self.checked,
            "undecided": self.undecided,
            "failures": [c.to_json() for c in self.failures],
        }


@frozen
class SuiteReport:
    mode: Mode
    size: int
    fuel: int
    enumerated: int
    well_typed: int
    corpus_checked: int
    corpus_failures: tuple[Counterexample, ...]
    properties: tuple[PropertyResult, ...]
    rule_hits: dict[str, int]
    missing_rules: tuple[str, ...]
    elapsed: float

    @property
    def undecided(self) -> int:
        return sum(p.undecided for p in self.properties)

    @property
    def failure_count(self) -> int:
        return (sum(len(p.failures) for p in self.properties)
                + len(self.corpus_failures))

    @property
    def ok(self) -> bool:
        return self.failure_count == 0 and not self.missing_rules

    def to_json(self) -> dict:
        return {
            "mode": self.mode.value,
            "size": self.size,
            "fuel": self.fuel,
            "enumerated": self.enumerated,
            "well_typed": self.well_typed,
            "corpus_checked": self.corpus_checked,
            "corpus_failures": [c.to_json() for c in self.corpus_failures],
            "properties": [p.to_json() for p in self.properties],
            "rule_hits": dict(sorted(self.rule_hits.items())),
            "missing_rules": list(self.missing_rules),
            "undecided": self.undecided,
            "elapsed": round(self.elapsed, 3),
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            f"self-test: mode {self.mode.value}, size <= {self.size}, "
            f"fuel {self.fuel}",
            f"  enumerated {self.enumerated} closed terms, "
            f"{self.well_typed} well typed; "
            f"corpus definitions checked: {self.corpus_checked}",
        ]
        for c in self.corpus_failures:
            lines.append(f"  corpus FAILURE {c.term}: {c.detail}")
        for p in self.properties:
            verdict = "ok" if not p.failures else f"{len(p.failures)} FAILED"
            lines.append(
                f"  {p.name} {_DESCRIPTIONS[p.name]}: {p.checked} checked, "
                f"{p.undecided} undecided, {verdict}")
            for c in p.failures[:5]:
                lines.append(f"    counterexample: {c.term}")
                if c.ty is not None:
                    lines.append(f"      type: {c.ty}")
                lines.append(f"      {c.detail}")
        total = len(RULES[self.mode])
        if self.missing_rules:
            lines.append("  rule coverage: MISSING "
                         + ", ".join(self.missing_rules))
        else:
            lines.append(f"  rule coverage: all {total} rules attempted")
        lines.append(f"  elapsed: {self.elapsed:.2f}s")
        lines.append(f"result: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def run_property_suite(size: int = 6, mode: Mode = Mode.BASE,
                       fuel: int = DEFAULT_FUEL) -> SuiteReport:
    """Enumerate, check, and test; see the module docstring for the laws.

    Properties P1 to P3 run on every closed well-typed term (enumerated or
    from the corpus); P4 and P5 are syntactic laws and run on the whole
    enumeration over a two-variable context, well typed or not.
    """
    start = time.perf_counter()
    checker = Checker(fuel=fuel, mode=mode)

    closed: list[tuple[str, AnnTerm, Ty]] = []
    empty = Context()
    enumerated = 0
    for t in enumerate_terms(size, mode, empty):
        enumerated += 1
        res = checker.infer(empty, t)
        if isinstance(res, Inferred):
            closed.append((frontend.pretty(t), t, res.type))
    well_typed = len(closed)

    scope = empty.extend("a", NatTy()).extend("b", VecTy(NatTy(), Zero()))
    open_terms: list[AnnTerm] = []
    for t in enumerate_terms(size, mode, scope):
        open_terms.append(t)
        checker.infer(scope, t)

    corpus_failures: list[Counterexample] = []
    if mode is Mode.LARGE_ELIM:
        defs, ctx = ext_corpus(), ext_assumptions()
    else:
        defs, ctx = base_corpus(), empty
    for d in defs:
        res = checker.check_against(ctx, d.body, d.ty)
        if not isinstance(res, Inferred):
            corpus_failures.append(Counterexample(
                "corpus", d.name, frontend.pretty(d.ty),
                res.diagnostic.message))
        elif not free_vars(d.body):
            closed.append((d.name, d.body, res.type))

    p1, p2, p3 = _run_closed(closed, mode, fuel)
    p4 = _run_p4(open_terms)
    p5 = _run_p5(open_terms)

    missing = tuple(sorted(r for r in RULES[mode] if not checker.rule_hits[r]))

    return SuiteReport(
        mode=mode,
        size=size,
        fuel=fuel,
        enumerated=enumerated,
        well_typed=well_typed,
        corpus_checked=len(defs),
        corpus_failures=tuple(corpus_failures),
        properties=(p1, p2, p3, p4, p5),
        rule_hits=dict(checker.rule_hits),
        missing_rules=missing,
        elapsed=time.perf_counter() - start,
    )


def _run_closed(closed: list[tuple[str, AnnTerm, Ty]], mode: Mode,
                fuel: int) -> tuple[PropertyResult, ...]:
    """P1, P2 and P3 on each closed well-typed term, erased once.  A
    verdict is None when the property holds, `FuelExhausted` when it is
    undecided, and otherwise the detail of a counterexample."""
    undecided = dict.fromkeys(("P1", "P2", "P3"), 0)
    failures: dict[str, list[Counterexample]] = {p: [] for p in undecided}
    for label, t, ty in closed:
        u = erase(t)
        lo = normalize(u, fuel, LEFTMOST_OUTERMOST)
        verdicts = (
            ("P1", ty, _canonical(lo, ty, mode, fuel, "normal form")),
            ("P2", ty, _canonical(eval_cbv(u, fuel), ty, mode, fuel, "value")),
            ("P3", None, _agree(lo, normalize(u, fuel, RIGHTMOST_INNERMOST))),
        )
        for prop, shown, verdict in verdicts:
            if isinstance(verdict, FuelExhausted):
                undecided[prop] += 1
            elif verdict is not None:
                text = None if shown is None else frontend.pretty(shown)
                failures[prop].append(
                    Counterexample(prop, label, text, verdict))
    return tuple(PropertyResult(p, len(closed), undecided[p],
                                tuple(failures[p])) for p in undecided)


def _canonical(outcome: NormalizeOutcome | CbvOutcome, ty: Ty, mode: Mode,
               fuel: int, what: str) -> str | FuelExhausted | None:
    """The verdict on whether a reduction ended in a canonical `ty`."""
    if isinstance(outcome, FuelExhausted):
        return outcome
    if isinstance(outcome, Stuck):
        return f"stuck after {outcome.steps} steps: {outcome.reason}"
    shape = canonical_shape(outcome.term, ty, mode, fuel)
    if isinstance(shape, FuelExhausted):
        return shape
    return None if shape else \
        f"{what} {frontend.pretty(outcome.term)} is not canonical"


def _agree(lo: NormalizeOutcome,
           ri: NormalizeOutcome) -> str | FuelExhausted | None:
    """The verdict on whether the two strategies reach one normal form."""
    for nf in (lo, ri):
        if isinstance(nf, FuelExhausted):
            return nf
    if alpha_eq(lo.term, ri.term):
        return None
    return (f"outermost gave {frontend.pretty(lo.term)}, innermost gave "
            f"{frontend.pretty(ri.term)}")


def _run_p4(terms: list[AnnTerm]) -> PropertyResult:
    probe = Succ(FVar("b"))
    probe_ann = Succ(Zero())
    probe_erased = erase(probe_ann)
    failures: list[Counterexample] = []
    for t in terms:
        u = erase(t)
        u_names = free_vars(u)
        got = free_vars(subst(u, "a", probe))
        expected = u_names - {"a"}
        if "a" in u_names:
            expected |= free_vars(probe)
        if got != expected:
            failures.append(Counterexample(
                "P4", frontend.pretty(t), None,
                f"free variables after substitution: {sorted(got)}, "
                f"expected {sorted(expected)}"))
            continue
        via_ann = erase(subst_annotated(t, "a", probe_ann, probe_erased))
        via_erased = subst(u, "a", probe_erased)
        if not alpha_eq(via_ann, via_erased):
            failures.append(Counterexample(
                "P4", frontend.pretty(t), None,
                "erasure does not commute with annotated substitution"))
    return PropertyResult("P4", len(terms), 0, tuple(failures))


def _run_p5(terms: list[AnnTerm]) -> PropertyResult:
    failures: list[Counterexample] = []
    for t in terms:
        printed = frontend.pretty(t)
        try:
            back = frontend.parse_term(printed)
        except frontend.SourceError as err:
            failures.append(Counterexample(
                "P5", printed, None, f"failed to reparse: {err}"))
            continue
        if not alpha_eq(back, t):
            failures.append(Counterexample(
                "P5", printed, None,
                f"reparsed as {frontend.pretty(back)}"))
    return PropertyResult("P5", len(terms), 0, tuple(failures))
