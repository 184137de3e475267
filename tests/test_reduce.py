"""Reduction: contraction rules, strategies, joinability, call-by-value."""

import pytest

from tvec.corpus import plus_u, unum
from reference_reduce import is_value, step_cbv, step_full, step_lo, step_ri
from tvec.reduce import (
    FuelExhausted, LEFTMOST_OUTERMOST, NormalForm,
    RIGHTMOST_INNERMOST, Stuck, Value, contract, eval_cbv, joinable,
    normalize,
)
from tvec.syntax import (
    App, BVar, Cons, FVar, Join, Lam, Nil, QApp, QLam, RNat, RVec, Succ,
    Zero, alpha_eq,
)

IDENTITY = Lam("x", BVar(0))
OMEGA_HALF = Lam("x", App(BVar(0), BVar(0)))
OMEGA = App(OMEGA_HALF, OMEGA_HALF)


class TestContract:
    # (fun x => b) v  ~>  b[x := v]
    def test_beta(self):
        assert contract(App(IDENTITY, Zero())) == Zero()

    # rnat b s 0  ~>  b
    def test_rnat_zero(self):
        assert contract(RNat(FVar("b"), FVar("s"), Zero())) == FVar("b")

    # rnat b s (S a)  ~>  s a (rnat b s a)
    def test_rnat_succ(self):
        r = RNat(FVar("b"), FVar("s"), Succ(Zero()))
        assert contract(r) == App(
            App(FVar("s"), Zero()), RNat(FVar("b"), FVar("s"), Zero()))

    # rvec b s nil  ~>  b
    def test_rvec_nil(self):
        assert contract(RVec(FVar("b"), FVar("s"), Nil())) == FVar("b")

    # rvec b s (cons a1 a2)  ~>  s a1 a2 (rvec b s a2)
    def test_rvec_cons(self):
        r = RVec(FVar("b"), FVar("s"), Cons(Zero(), Nil()))
        assert contract(r) == App(
            App(App(FVar("s"), Zero()), Nil()),
            RVec(FVar("b"), FVar("s"), Nil()))

    # (qfun => b) applied  ~>  b
    def test_qapp_shell(self):
        assert contract(QApp(QLam(Zero()))) == Zero()

    # under enclosing abstractions: fun w => (fun y => fun z => y w) w
    def test_beta_under_outer_binders(self):
        body = Lam("z", App(BVar(1), BVar(2)))
        # y lands under z, so w in the argument is shifted past it; w in
        # the body now sits one binder closer to its abstraction
        assert contract(App(Lam("y", body), BVar(0)), 1) == Lam(
            "z", App(BVar(1), BVar(1)))
        # at outer 0 the same indices are loose: opening leaves them alone
        assert contract(App(Lam("y", body), BVar(0))) == Lam(
            "z", App(BVar(0), BVar(2)))

    def test_beta_shares_the_argument(self):
        arg = App(FVar("f"), Zero())
        out = contract(App(Lam("x", Lam("z", App(BVar(1), BVar(1)))), arg))
        assert out.body.fn is arg and out.body.arg is arg

    def test_non_redexes(self):
        for t in (Zero(), FVar("x"), App(Zero(), Zero()),
                  RNat(Zero(), Zero(), FVar("n"))):
            assert contract(t) is None


class TestStrategies:
    def test_full_collects_all_one_step_reducts(self):
        # both the root redex and the inner one are available, and they
        # disagree when the function discards its argument
        k = Lam("x", Zero())
        t = App(k, App(IDENTITY, Zero()))
        reducts = step_full(t)
        assert reducts == {Zero(), App(k, Zero())}

    def test_leftmost_outermost_takes_root_first(self):
        t = App(IDENTITY, App(IDENTITY, Zero()))
        assert step_lo(t) == App(IDENTITY, Zero())

    def test_rightmost_innermost_takes_argument_first(self):
        t = App(IDENTITY, App(IDENTITY, Zero()))
        assert step_ri(t) == App(IDENTITY, Zero())
        # the two strategies differ on which redex fired; on this term
        # the results coincide, so distinguish via a discarding function
        k = Lam("x", Zero())
        t2 = App(k, App(IDENTITY, Zero()))
        assert step_lo(t2) == Zero()
        assert step_ri(t2) == App(k, Zero())

    def test_reduces_under_binders(self):
        t = Lam("x", App(IDENTITY, BVar(0)))
        assert step_lo(t) == Lam("x", BVar(0))

    def test_reduces_under_quasi_shell(self):
        t = QLam(App(IDENTITY, Zero()))
        assert step_lo(t) == QLam(Zero())


class TestNormalize:
    def test_plus_two_two(self):
        out = normalize(plus_u(unum(2), unum(2)))
        assert isinstance(out, NormalForm)
        assert out.term == unum(4)

    def test_strategies_agree_on_plus(self):
        lo = normalize(plus_u(unum(2), unum(2)), strategy=LEFTMOST_OUTERMOST)
        ri = normalize(plus_u(unum(2), unum(2)),
                       strategy=RIGHTMOST_INNERMOST)
        assert alpha_eq(lo.term, ri.term)

    def test_normal_form_is_fixed_point(self):
        out = normalize(plus_u(unum(1), unum(1)))
        again = normalize(out.term)
        assert again.steps == 0 and again.term == out.term

    @pytest.mark.parametrize("fuel", [1, 7, 100, 10000])
    def test_omega_exhausts_any_fuel(self, fuel):
        out = normalize(OMEGA, fuel)
        assert isinstance(out, FuelExhausted)
        assert out.fuel == fuel
        assert alpha_eq(out.term, OMEGA)  # omega steps to itself

    def test_open_terms_normalize(self):
        t = App(IDENTITY, FVar("n"))
        out = normalize(t)
        assert out.term == FVar("n")

    @pytest.mark.parametrize("strategy",
                             [LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST])
    def test_loose_indices_point_at_outer_abstractions(self, strategy):
        # Under one abstraction x (index 0 at the root):
        # (fun y => fun z => y) x  ~>  fun z => x
        t = App(Lam("y", Lam("z", BVar(1))), BVar(0))
        out = normalize(t, strategy=strategy, outer=1)
        assert out.term == Lam("z", BVar(1))
        # (fun y => fun z => x) 0  ~>  fun z => x
        t = App(Lam("y", Lam("z", BVar(2))), Zero())
        out = normalize(t, strategy=strategy, outer=1)
        assert out.term == Lam("z", BVar(1))


class TestJoinable:
    def test_equal_after_reduction(self):
        assert joinable(plus_u(unum(2), unum(2)), unum(4)) is True

    def test_open_instance(self):
        # l2 and plus 0 l2 meet because the recursor consumes the literal 0
        assert joinable(FVar("l2"), plus_u(unum(0), FVar("l2"))) is True

    def test_distinct_normal_forms(self):
        assert joinable(unum(0), unum(1)) == (unum(0), unum(1))
        # the pair is each side normalized
        a, b = plus_u(unum(1), unum(1)), plus_u(unum(0), unum(3))
        assert joinable(a, b) == (normalize(a).term, normalize(b).term) \
            == (unum(2), unum(3))

    def test_open_sides_join_under_outer(self):
        # x |- (fun y => fun z => y) x  and  fun z => x: at outer=0 the
        # loose x is a constant, which the beta step lets `fun z` capture
        a, b = App(Lam("y", Lam("z", BVar(1))), BVar(0)), Lam("z", BVar(1))
        assert joinable(a, b, outer=1) is True
        assert joinable(a, b) == (normalize(a).term, normalize(b).term) \
            == (Lam("z", BVar(0)), Lam("z", BVar(1)))

    def test_fuel_exhaustion_is_not_a_verdict(self):
        out = joinable(OMEGA, Zero(), fuel=50)
        assert isinstance(out, FuelExhausted)

    def test_left_side_exhausts_first(self):
        stalled = App(OMEGA, Zero())
        for a, b, first in ((OMEGA, stalled, OMEGA),
                            (stalled, OMEGA, stalled),
                            (Zero(), OMEGA, OMEGA)):
            want = normalize(first, fuel=50)
            assert isinstance(want, FuelExhausted)
            assert joinable(a, b, fuel=50) == want


class TestCallByValue:
    @pytest.mark.parametrize("v", [
        Zero(), unum(3), Nil(), Cons(Zero(), Nil()), Join(), IDENTITY,
        QLam(App(Zero(), Zero())),
    ])
    def test_values(self, v):
        assert is_value(v)
        out = eval_cbv(v)
        assert isinstance(out, Value) and out.steps == 0

    def test_non_values(self):
        for t in (App(Zero(), Zero()), FVar("x"), Succ(App(Zero(), Zero())),
                  RNat(Zero(), Zero(), Zero())):
            assert not is_value(t)

    def test_plus_evaluates(self):
        out = eval_cbv(plus_u(unum(2), unum(3)))
        assert isinstance(out, Value)
        assert out.term == unum(5)

    def test_stuck_application_of_zero(self):
        out = eval_cbv(App(Zero(), Zero()))
        assert isinstance(out, Stuck)
        assert out.term == App(Zero(), Zero())

    def test_stuck_free_variable(self):
        out = eval_cbv(App(FVar("f"), Zero()))
        assert isinstance(out, Stuck)

    def test_shell_suspends_its_body(self):
        # the body 0 0 would be stuck, but the shell never runs it
        out = eval_cbv(QLam(App(Zero(), Zero())))
        assert isinstance(out, Value) and out.steps == 0

    def test_operand_evaluated_before_beta(self):
        t = App(Lam("x", Zero()), App(IDENTITY, Zero()))
        first = step_cbv(t)
        assert first == App(Lam("x", Zero()), Zero())

    def test_fuel_exhaustion(self):
        assert isinstance(eval_cbv(OMEGA, 25), FuelExhausted)

    def test_rejects_nonpositive_fuel(self):
        with pytest.raises(ValueError):
            eval_cbv(Zero(), 0)
        with pytest.raises(ValueError):
            normalize(Zero(), -3)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match=f"'bogus'.*{LEFTMOST_OUTERMOST}"
                                             f".*{RIGHTMOST_INNERMOST}"):
            normalize(Zero(), strategy="bogus")
