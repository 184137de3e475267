"""Large-elimination mode: quasi-implicit products and ifzero folding.

The mode keeps every structural rule of the base system, swaps the
implicit product for a quasi-implicit one whose inhabitants erase to a
one-node shell, and adds the four fold/unfold forms around `ifzero`
types.  The interesting negative space: scrutinee matching is purely
syntactic, and the base-mode implicit forms become mode violations.
"""

import pytest

from tvec.corpus import (
    absurd_eq, ext_assumptions, fold_round_s_body, fold_round_z_body, num,
    quod_all_body, quod_all_ty, stuck_app_body, stuck_fn_body,
    via_witness_body,
)
from tvec.erase import erase
from tvec.reduce import Stuck, Value, eval_cbv
from tvec.syntax import (
    AllTy, App, BVar, Context, IfZeroTy, NatTy, PiTy, QLam, Succ,
    TAppImp, TFoldS, TFoldZ, TJoin, TLam, TLamImp, TQApp,
    TQLam, TUnfoldS, TUnfoldZ, Zero, alpha_eq, free_vars,
)
from tvec.typecheck import (
    BASE_RULES, EXT_RULES, RULES, Checker, Failure, Inferred, Mode,
)

NAT = NatTy()
NAT_TO_NAT = PiTy("x", NAT, NAT)


def inferred(ctx, t):
    res = Checker(mode=Mode.LARGE_ELIM).infer(ctx, t)
    assert isinstance(res, Inferred), res
    return res.type


def failure(ctx, t):
    res = Checker(mode=Mode.LARGE_ELIM).infer(ctx, t)
    assert isinstance(res, Failure), f"expected a failure, got {res}"
    return res.diagnostic


class TestFoldUnfold:
    def test_fold_zero(self):
        # foldz [B] t moves t : A into ifzero 0 A B
        t = TFoldZ(NAT_TO_NAT, Zero())
        assert inferred(Context(), t) == IfZeroTy(Zero(), NAT, NAT_TO_NAT)

    def test_unfold_zero_roundtrip(self):
        t = fold_round_z_body()
        assert inferred(Context(), t) == NAT

    def test_fold_succ(self):
        t = TFoldS(num(1), NAT, TLam("x", NAT, BVar(0)))
        assert inferred(Context(), t) == \
            IfZeroTy(Succ(Succ(Zero())), NAT, NAT_TO_NAT)

    def test_unfold_succ_roundtrip(self):
        t = fold_round_s_body()
        assert inferred(Context(), t) == NAT_TO_NAT

    def test_unfold_zero_demands_literal_zero_scrutinee(self):
        # folds produces scrutinee S |w|; unfoldz must refuse it
        t = TUnfoldZ(TFoldS(num(0), NAT, Zero()))
        diag = failure(Context(), t)
        assert diag.rule == "unfold-zero"
        assert diag.code == "scrutinee-mismatch"

    def test_unfold_succ_matches_witness_syntactically(self):
        # scrutinee is S 1 but the unfolding witness erases to 0:
        # no normalization bridges the gap, only an explicit cast can
        t = TUnfoldS(num(0), TFoldS(num(1), NAT, Zero()))
        diag = failure(Context(), t)
        assert diag.rule == "unfold-succ"
        assert diag.code == "scrutinee-mismatch"

    def test_unfold_needs_ifzero_type(self):
        assert failure(Context(), TUnfoldZ(Zero())).code == "shape-mismatch"
        assert failure(
            Context(), TUnfoldS(num(0), Zero())).code == "shape-mismatch"


class TestQuasiImplicit:
    def test_quasi_abs_types_as_product(self):
        t = TQLam("q", absurd_eq(), Zero())
        assert inferred(Context(), t) == AllTy("q", absurd_eq(), NAT)

    def test_quasi_abs_bound_var_must_erase_away(self):
        t = TQLam("q", NAT, Succ(BVar(0)))
        assert failure(Context(), t).code == "erased-occurrence"

    def test_quasi_app_instantiates(self):
        ctx = ext_assumptions()
        assert inferred(ctx, via_witness_body()) == NAT

    def test_quasi_app_head_shape(self):
        diag = failure(Context(), TQApp(Zero(), Zero()))
        assert diag.rule == "quasi-app" and diag.code == "shape-mismatch"

    def test_implicit_forms_are_mode_violations(self):
        assert failure(
            Context(), TLamImp("l", NAT, Zero())).code == "mode-violation"
        t = TAppImp(TLam("x", NAT, BVar(0)), Zero())
        assert failure(Context(), t).code == "mode-violation"


class TestStuckButTyped:
    """An absurd hypothesis types a stuck application; closed terms
    stay safe because the quasi-shell suspends the body."""

    CTX = ext_assumptions()

    def test_stuck_fn_types_as_function(self):
        assert inferred(self.CTX, stuck_fn_body()) == NAT_TO_NAT

    def test_stuck_fn_erases_to_zero(self):
        assert erase(stuck_fn_body()) == Zero()

    def test_stuck_app_types_as_nat(self):
        assert inferred(self.CTX, stuck_app_body()) == NAT

    def test_stuck_app_erasure_is_stuck(self):
        e = erase(stuck_app_body())
        assert e == App(Zero(), Zero())
        assert isinstance(eval_cbv(e), Stuck)

    def test_quod_all_is_closed_and_checks(self):
        assert free_vars(quod_all_body()) == frozenset()
        assert alpha_eq(inferred(Context(), quod_all_body()), quod_all_ty())

    def test_quod_all_erasure_is_an_immediate_value(self):
        e = erase(quod_all_body())
        assert e == QLam(App(Zero(), Zero()))
        out = eval_cbv(e)
        assert isinstance(out, Value) and out.steps == 0

    def test_via_witness_gets_stuck_after_shell_opens(self):
        out = eval_cbv(erase(via_witness_body()))
        assert isinstance(out, Stuck)
        assert out.steps == 1  # one step to discharge the shell

    def test_the_absurdity_is_not_provable(self):
        # without the assumption, join cannot produce 1 = 0
        diag = failure(Context(), TJoin(Succ(Zero()), Zero()))
        assert diag.code == "join-distinct"


# Each mode-only construct in the mode that lacks it: (mode, term, rule,
# construct name in the message).
WRONG_MODE = [
    (Mode.LARGE_ELIM, TLamImp("l", NAT, Zero()), "spec-abs",
     "implicit abstraction"),
    (Mode.LARGE_ELIM, TAppImp(TLam("x", NAT, BVar(0)), Zero()), "spec-app",
     "implicit application"),
    (Mode.BASE, TQLam("q", NAT, Zero()), "quasi-abs",
     "quasi-implicit abstraction"),
    (Mode.BASE, TQApp(Zero(), Zero()), "quasi-app",
     "quasi-implicit application"),
    (Mode.BASE, TFoldZ(NAT, Zero()), "fold-zero", "ifzero introduction"),
    (Mode.BASE, TUnfoldZ(Zero()), "unfold-zero", "ifzero elimination"),
    (Mode.BASE, TFoldS(Zero(), NAT, Zero()), "fold-succ",
     "ifzero introduction"),
    (Mode.BASE, TUnfoldS(Zero(), Zero()), "unfold-succ",
     "ifzero elimination"),
]


class TestModeDispatch:
    @pytest.mark.parametrize("mode, t, rule, construct", WRONG_MODE,
                             ids=[case[2] for case in WRONG_MODE])
    def test_mode_only_construct_in_the_wrong_mode(self, mode, t, rule,
                                                   construct):
        checker = Checker(mode=mode)
        res = checker.infer(Context(), t)
        assert isinstance(res, Failure), res
        diag = res.diagnostic
        assert diag.rule == rule
        assert diag.code == "mode-violation"
        assert diag.message == f"{construct} is not part of {mode.value} mode"
        assert checker.rule_hits[rule] == 0

    def test_checker_for(self):
        # a mode is its rule table; nothing else differs between checkers
        for mode, rules in ((Mode.BASE, BASE_RULES),
                            (Mode.LARGE_ELIM, EXT_RULES)):
            checker = Checker(mode=mode)
            assert checker.mode is mode
            assert checker.rules is RULES[mode] is rules
        assert Checker().mode is Mode.BASE

    def test_shared_rules_unchanged(self):
        # the structural fragment behaves identically in both modes
        t = App(TLam("x", NAT, Succ(BVar(0))), num(1))
        base = Checker(mode=Mode.BASE).infer(Context(), t)
        ext = Checker(mode=Mode.LARGE_ELIM).infer(Context(), t)
        assert isinstance(base, Inferred) and isinstance(ext, Inferred)
        assert alpha_eq(base.type, ext.type)

    def test_ext_rule_hits(self):
        checker = Checker(mode=Mode.LARGE_ELIM)
        checker.infer(Context(), fold_round_z_body())
        assert checker.rule_hits["fold-zero"] == 1
        assert checker.rule_hits["unfold-zero"] == 1
