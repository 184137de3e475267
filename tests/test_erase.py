"""Erasure: annotations vanish, quasi-implicit shells stay.

The erasure is the semantic heart of the system: typing talks about a
term through what its erasure does.  These tests pin each clause and the
one commutation law everything else leans on, erasure versus annotated
substitution.
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from tvec.corpus import append_body, num, plus_body, quod_all_body
from tvec.erase import _release, erase, subst_annotated
from tvec.frontend import parse_term
from tvec.oracle import ANNOTATION_TYPES, enumerate_terms
from tvec.syntax import (
    App, BVar, Cons, Context, EqTy, FVar, IfZeroTy, Join, Lam, NatTy, Nil,
    PiTy, QApp, QLam, RNat, RVec, Succ, TAppImp, TCast, TFoldS, TFoldZ,
    TJoin, TLam, TLamImp, TNil, TQApp, TQLam, TRNat, TRVec, TUnfoldS,
    TUnfoldZ, VecTy, Zero, alpha_eq, free_vars, subst,
)
from tvec.typecheck import Mode

from reference_erase import erase as reference_erase

NAT = NatTy()


@pytest.mark.parametrize("annotated, erased", [
    (Zero(), Zero()),
    (Succ(Zero()), Succ(Zero())),
    (TNil(NAT), Nil()),
    (Cons(Zero(), TNil(NAT)), Cons(Zero(), Nil())),
    (TJoin(Zero(), Zero()), Join()),
    (TLam("x", NAT, BVar(0)), Lam("x", BVar(0))),
    (App(FVar("f"), Zero()), App(FVar("f"), Zero())),
    (TRNat("x", NAT, Zero(), FVar("s"), FVar("n")),
     RNat(Zero(), FVar("s"), FVar("n"))),
    (TRVec("x", "y", NAT, Zero(), FVar("s"), FVar("v")),
     RVec(Zero(), FVar("s"), FVar("v"))),
])
def test_structural_clauses(annotated, erased):
    assert erase(annotated) == erased


ANNOTATION_FREE = (FVar, BVar, App, Zero, Succ, Cons)


def annotation_free(t) -> bool:
    return isinstance(t, ANNOTATION_FREE) and all(
        annotation_free(getattr(t, f)) for f in type(t).SCOPES)


class TestSharing:
    """Annotations are all that erasure drops, so a subterm without any
    comes back as the same object, not as a copy."""

    @pytest.mark.parametrize("text", ["7", "f (g 0)", "cons 0 (cons 1 x)"])
    def test_annotation_free_term_is_returned(self, text):
        t = parse_term(text)
        assert erase(t) is t

    def test_body_of_a_lambda_is_shared(self):
        t = parse_term("fun x : Nat => f 3")
        assert erase(t).body is t.body

    def test_only_the_annotated_spine_is_rebuilt(self):
        t = parse_term("cons (f 2) (cons (g @[0]) nil[Nat])")
        e = erase(t)
        assert e is not t and e.head is t.head
        assert e.tail.head == FVar("g")

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_every_annotation_free_term_is_returned(self, mode):
        free = [t for t in enumerate_terms(6, mode) if annotation_free(t)]
        assert len(free) > 50
        for t in free:
            assert erase(t) is t


class TestVanishingForms:
    """Forms that leave no trace in the erasure."""

    def test_cast_erases_to_its_subject(self):
        t = TCast("w", VecTy(NAT, BVar(0)), FVar("p"), Zero())
        assert erase(t) == Zero()

    def test_implicit_abstraction_erases_to_body(self):
        t = TLamImp("l", NAT, Succ(Zero()))
        assert erase(t) == Succ(Zero())

    def test_implicit_application_erases_to_function(self):
        t = TAppImp(FVar("f"), Zero())
        assert erase(t) == FVar("f")

    def test_folds_and_unfolds_erase_to_subject(self):
        assert erase(TFoldZ(NAT, Zero())) == Zero()
        assert erase(TUnfoldZ(Zero())) == Zero()
        assert erase(TFoldS(num(1), NAT, Zero())) == Zero()
        assert erase(TUnfoldS(num(1), Zero())) == Zero()

    def test_implicit_body_may_not_mention_binder_after_erasure(self):
        # ifun l => S l erases to S l with l free: the binder is gone,
        # so the occurrence must be released as a fresh free name
        t = TLamImp("l", NAT, Succ(BVar(0)))
        e = erase(t)
        assert isinstance(e, Succ)
        assert isinstance(e.pred, FVar)


class TestDroppedBinders:
    """An implicit or quasi-implicit binder vanishes from the erasure, so
    indices pointing past it must move down by one."""

    def test_outer_variable_under_implicit_binder(self):
        # fun x => ifun y => S x   erases to   fun x => S x
        t = TLam("x", NAT, TLamImp("y", NAT, Succ(BVar(1))))
        assert erase(t) == Lam("x", Succ(BVar(0)))

    def test_outer_variable_under_quasi_implicit_binder(self):
        # fun x => qfun y => S x   erases to   fun x => qfun => S x
        t = TLam("x", NAT, TQLam("y", NAT, Succ(BVar(1))))
        assert erase(t) == Lam("x", QLam(Succ(BVar(0))))

    def test_dropped_variable_is_released_under_an_outer_binder(self):
        t = TLam("x", NAT, TLamImp("y", NAT, App(BVar(0), BVar(1))))
        assert erase(t) == Lam("x", App(FVar("y#"), BVar(0)))

    def test_released_names_are_no_identifiers(self):
        # the hint and `#`, primed apart from the body's other free names;
        # `x#` when the binder has no hint
        inner = TLamImp("b", NAT, App(BVar(0), BVar(1)))
        assert erase(TLamImp("b", NAT, inner)) == \
            App(FVar("b#"), FVar("b#'"))
        assert erase(TLamImp("", NAT, Succ(BVar(0)))) == Succ(FVar("x#"))

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_erasure_adds_only_released_names(self, mode):
        # every name that erasure adds was released, so it holds a `#`
        # and cannot be a name of the context
        ctx = Context().extend("a", NAT).extend("b", VecTy(NAT, Zero()))
        added = set()
        for t in enumerate_terms(6, mode, ctx):
            added |= free_vars(erase(t)) - free_vars(t)
        assert added
        assert all("#" in name for name in added)

    def test_indices_bound_inside_the_body_stay(self):
        body = Lam("z", App(BVar(0), BVar(2)))
        assert _release(body, "y") == Lam("z", App(BVar(0), BVar(1)))

    def test_unchanged_body_is_returned_as_is(self):
        body = Lam("z", App(BVar(0), FVar("a")))
        assert _release(body, "y") is body

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_erasure_of_locally_closed_is_locally_closed(self, mode):
        for t in enumerate_terms(6, mode):
            assert locally_closed(t)
            assert locally_closed(erase(t)), t


def locally_closed(t, depth: int = 0) -> bool:
    """No bound variable points past the binders around it."""
    if isinstance(t, BVar):
        return t.index < depth
    return all(locally_closed(getattr(t, name), depth + extra)
               for name, extra in type(t).SCOPES.items())


class TestQuasiImplicit:
    """The large-elimination mode keeps a one-node shell."""

    def test_qlam_erases_to_shell(self):
        t = TQLam("q", EqTy(Succ(Zero()), Zero()), App(Zero(), Zero()))
        assert erase(t) == QLam(App(Zero(), Zero()))

    def test_qapp_erases_to_shell_application(self):
        t = TQApp(FVar("f"), FVar("p"))
        assert erase(t) == QApp(FVar("f"))

    def test_quod_all_shape(self):
        assert erase(quod_all_body()) == QLam(App(Zero(), Zero()))


class TestCorpusErasures:
    def test_plus_is_a_two_argument_recursor(self):
        e = erase(plus_body())
        assert e == Lam("m", Lam("n", RNat(
            BVar(0), Lam("y", Lam("u", Succ(BVar(0)))), BVar(1))))

    def test_append_is_cast_free(self):
        def has_no_casts(t) -> bool:
            # erased syntax has no cast constructor at all; check the
            # stronger statement that the tree mentions only runtime forms
            runtime = (App, BVar, Cons, FVar, Join, Lam, Nil, QApp, QLam,
                       RNat, RVec, Succ, Zero)
            return isinstance(t, runtime) and all(
                has_no_casts(getattr(t, f)) for f in type(t).SCOPES)
        assert has_no_casts(erase(append_body()))


class TestFreeVariables:
    def test_free_vars_include_annotations(self):
        t = TLam("x", VecTy(NAT, FVar("n")), BVar(0))
        assert free_vars(t) == frozenset({"n"})

    def test_erasure_can_only_drop_free_vars(self):
        t = TCast("w", NAT, FVar("p"), Zero())
        assert free_vars(erase(t)) <= free_vars(t)


def subst_by_fields(t, name, repl, repl_erased, annotated=True):
    """Reference for `subst_annotated` that reads positions off the declared
    field types.  In an annotated term a field declared `Ty` is an
    annotation: it gets `repl_erased` at every occurrence, and so does a
    root that is not an annotated term (pass `annotated=False`).  Every
    other field of an annotated term is an annotated-term position."""
    if not annotated:
        return subst(t, name, repl_erased)
    if isinstance(t, FVar):
        return repl if t.name == name else t
    return type(t)(**{
        f.name: subst_by_fields(getattr(t, f.name), name, repl, repl_erased,
                                f.type.strip("'") != "Ty")
        if f.name in type(t).SCOPES else getattr(t, f.name)
        for f in dataclasses.fields(t)})


OPEN_TY = VecTy(NAT, FVar("a"))


def open_annotations(t):
    """t with every field declared `Ty` replaced by `OPEN_TY`."""
    return type(t)(**{
        f.name: (OPEN_TY if f.type.strip("'") == "Ty"
                 else open_annotations(getattr(t, f.name)))
        if f.name in type(t).SCOPES else getattr(t, f.name)
        for f in dataclasses.fields(t)})


class TestAnnotationPositions:
    """Erasure drops domains and motives, so the commutation law cannot
    see what substitution puts in them.  These compare `subst_annotated`
    with `subst_by_fields` directly, with a replacement whose erasure is
    not itself."""

    CTX = Context((("a", NAT), ("b", VecTy(NAT, Zero()))))
    REPL = TAppImp(FVar("b"), Zero())

    def check(self, t, annotated=True):
        want = subst_by_fields(t, "a", self.REPL, FVar("b"), annotated)
        assert subst_annotated(t, "a", self.REPL, erase(self.REPL)) == want

    def test_a_type_position_gets_the_erasure(self):
        t = TLam("x", OPEN_TY, FVar("a"))
        assert subst_by_fields(t, "a", self.REPL, FVar("b")) == TLam(
            "x", VecTy(NAT, FVar("b")), self.REPL)
        self.check(t)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_enumerated_terms(self, mode):
        for t in enumerate_terms(5, mode, self.CTX):
            self.check(t)
            self.check(open_annotations(t))

    def test_type_roots(self):
        for ty in ANNOTATION_TYPES + (
                OPEN_TY, PiTy("x", OPEN_TY, EqTy(FVar("a"), BVar(0))),
                IfZeroTy(FVar("a"), OPEN_TY, NAT)):
            self.check(ty, annotated=False)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_unannotated_roots(self, mode):
        # roots that only unannotated terms have; a shared one (`App`,
        # `Cons`, ...) is an annotated term as well
        roots = [erase(t) for t in enumerate_terms(5, mode, self.CTX)]
        roots = [u for u in roots if not isinstance(u, ANNOTATION_FREE)]
        assert {type(u) for u in roots} >= {Lam, RNat, RVec, Nil, Join}
        for u in roots:
            self.check(u, annotated=False)
        self.check(Lam("x", App(FVar("a"), BVar(0))), annotated=False)


def annotated_terms():
    leaves = st.sampled_from(
        [Zero(), TNil(NAT), FVar("a"), FVar("b"), TJoin(Zero(), Zero())])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Succ),
            st.tuples(sub, sub).map(lambda p: App(*p)),
            st.tuples(sub, sub).map(lambda p: Cons(*p)),
            st.tuples(sub, sub).map(lambda p: TCast("w", NAT, *p)),
            st.tuples(sub, sub).map(lambda p: TAppImp(*p)),
            sub.map(lambda b: TLam("x", NAT, b)),
        ),
        max_leaves=10,
    )


@given(annotated_terms())
def test_erase_commutes_with_substitution(t):
    """|t[x := s]| == |t|[x := |s|] for annotated substitution."""
    repl = Succ(Zero())
    assert alpha_eq(erase(subst_annotated(t, "a", repl, erase(repl))),
                    subst(erase(t), "a", erase(repl)))


@given(annotated_terms())
def test_erasure_introduces_no_free_names(t):
    # these terms have no implicit binder, so erasure releases no name;
    # `TestDroppedBinders.test_erasure_adds_only_released_names` covers
    # the terms that have one
    assert free_vars(erase(t)) <= free_vars(t)


class TestReferenceErase:
    """`erase` agrees with the clause-by-clause reference
    (`reference_erase.py`), which shares no code with it, on every
    enumerated term up to size 6, hints and released names included."""

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("ctx", [
        Context(),
        Context().extend("a", NAT).extend("b", VecTy(NAT, Zero())),
    ], ids=["empty", "a-b"])
    def test_every_enumerated_term(self, mode, ctx):
        terms = released = 0
        for t in enumerate_terms(6, mode, ctx):
            got, want = erase(t), reference_erase(t)
            assert got == want and repr(got) == repr(want), t
            terms += 1
            released += any("#" in name for name in free_vars(got))
        assert terms > 1000
        assert released > 0     # the release clause is compared too

    def test_foreign_class_is_refused(self):
        for foreign in (NAT, Lam("x", BVar(0)), Join()):
            with pytest.raises(TypeError, match="not an annotated term"):
                erase(foreign)
            with pytest.raises(TypeError, match="not an annotated term"):
                reference_erase(foreign)
