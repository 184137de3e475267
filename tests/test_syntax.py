"""Binding-structure laws: open/close, substitution, alpha equality."""

import pytest
from hypothesis import given, strategies as st

from tvec.syntax import (
    App, BVar, Cons, Context, EqTy, FVar, Join, Lam, NatTy, Nil, PiTy,
    Succ, TJoin, TLam, TSucc, TZero, VecTy, Zero, alpha_eq, close1,
    ctx_ok, free_vars, fresh_name, node_count, open1, open_at,
    open2, subst,
)

# A reusable closed abstraction: fun x => S x, in de Bruijn form.
SUCC_FN = Lam("x", Succ(BVar(0)))


def unann_terms(leaves=None):
    """Hypothesis strategy for locally closed unannotated terms."""
    if leaves is None:
        leaves = st.sampled_from(
            [Zero(), Nil(), Join(), FVar("a"), FVar("b")])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Succ),
            st.tuples(sub, sub).map(lambda p: App(*p)),
            st.tuples(sub, sub).map(lambda p: Cons(*p)),
            st.tuples(st.sampled_from(["x", "y"]), sub).map(
                lambda p: Lam(p[0], close1(p[1], "a"))),
        ),
        max_leaves=12,
    )


class TestAlphaEquality:
    def test_hints_do_not_matter(self):
        assert alpha_eq(Lam("x", BVar(0)), Lam("y", BVar(0)))

    def test_spans_do_not_matter(self):
        from tvec.syntax import Span
        assert alpha_eq(FVar("a", span=Span(0, 1)),
                        FVar("a", span=Span(7, 8)))

    def test_free_names_do_matter(self):
        assert not alpha_eq(FVar("a"), FVar("b"))

    def test_shadowing_distinguished(self):
        # fun x => fun y => x  vs  fun x => fun y => y
        outer = Lam("x", Lam("y", BVar(1)))
        inner = Lam("x", Lam("y", BVar(0)))
        assert not alpha_eq(outer, inner)

    def test_annotated_and_types(self):
        assert alpha_eq(PiTy("x", NatTy(), NatTy()),
                        PiTy("z", NatTy(), NatTy()))
        assert not alpha_eq(EqTy(Zero(), Zero()),
                            EqTy(Zero(), Succ(Zero())))


class TestOpenClose:
    def test_open_then_close_roundtrip(self):
        body = App(BVar(0), Succ(BVar(0)))
        opened = open1(body, FVar("v"))
        assert opened == App(FVar("v"), Succ(FVar("v")))
        assert close1(opened, "v") == body

    def test_close_then_open_roundtrip(self):
        t = App(FVar("v"), FVar("w"))
        assert open1(close1(t, "v"), FVar("v")) == t

    def test_open_at_targets_one_level(self):
        # under two binders, level 1 is the outer one
        body = App(BVar(1), BVar(0))
        assert open_at(body, 1, FVar("f")) == App(FVar("f"), BVar(0))

    def test_open2_orders_outer_then_inner(self):
        body = Cons(BVar(1), BVar(0))
        assert open2(body, FVar("len"), FVar("v")) == \
            Cons(FVar("len"), FVar("v"))

    def test_binders_shift_levels(self):
        # closing under a Lam must account for the body's extra level
        t = Lam("y", App(FVar("f"), BVar(0)))
        closed = close1(t, "f")
        assert closed == Lam("y", App(BVar(1), BVar(0)))
        assert open1(closed, FVar("f")) == t

    def test_motive_scope_in_recursor(self):
        # the annotated recursor's motive has one binder level of its own
        from tvec.syntax import TRNat
        r = TRNat("x", VecTy(NatTy(), BVar(0)), TZero(), TZero(), BVar(0))
        opened = open_at(r, 0, FVar("k"))
        assert opened.motive == VecTy(NatTy(), BVar(0)), \
            "the motive binds its own index, the outer opening skips it"
        assert opened.scrut == FVar("k")

    @given(unann_terms())
    def test_close_open_identity_on_fresh(self, t):
        name = fresh_name("z", free_vars(t))
        assert open1(close1(t, name), FVar(name)) == t


class TestSubstitution:
    def test_simple(self):
        assert subst(App(FVar("f"), FVar("x")), "x", Zero()) == \
            App(FVar("f"), Zero())

    def test_no_capture_through_binders(self):
        # (fun y => x) [x := y-free term] keeps the binder intact
        t = Lam("y", FVar("x"))
        assert subst(t, "x", SUCC_FN) == Lam("y", SUCC_FN)

    def test_miss_is_identity(self):
        t = App(FVar("f"), Zero())
        assert subst(t, "nope", Zero()) == t

    @given(unann_terms())
    def test_free_var_law(self, t):
        repl = Succ(FVar("fresh"))
        got = free_vars(subst(t, "a", repl))
        expected = free_vars(t) - {"a"}
        if "a" in free_vars(t):
            expected |= free_vars(repl)
        assert got == expected

    @given(unann_terms())
    def test_subst_for_absent_name_is_identity(self, t):
        name = fresh_name("absent", free_vars(t))
        assert subst(t, name, Zero()) == t


class TestMeasures:
    @pytest.mark.parametrize("t, n", [
        (Zero(), 1),
        (Succ(Zero()), 2),
        (TJoin(TZero(), TSucc(TZero())), 4),
        (TLam("x", NatTy(), BVar(0)), 3),
        (VecTy(NatTy(), Zero()), 3),
    ])
    def test_node_count(self, t, n):
        assert node_count(t) == n

    def test_fresh_name_primes(self):
        assert fresh_name("x", set()) == "x"
        assert fresh_name("x", {"x"}) == "x'"
        assert fresh_name("x", {"x", "x'"}) == "x''"


class TestContext:
    def test_lookup_latest_binding(self):
        ctx = Context().extend("x", NatTy()).extend("x", EqTy(Zero(), Zero()))
        assert ctx.lookup("x") == EqTy(Zero(), Zero())

    def test_ok_requires_distinct_names(self):
        ctx = Context().extend("x", NatTy()).extend("x", NatTy())
        assert not ctx_ok(ctx)

    def test_ok_requires_earlier_scope(self):
        good = Context().extend("n", NatTy()).extend(
            "v", VecTy(NatTy(), FVar("n")))
        bad = Context().extend("v", VecTy(NatTy(), FVar("n")))
        assert ctx_ok(good)
        assert not ctx_ok(bad)

    def test_domain_in_order(self):
        ctx = Context().extend("a", NatTy()).extend("b", NatTy())
        assert ctx.domain() == ("a", "b")
