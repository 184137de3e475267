"""Tests for the enumeration oracle and the property suite.

The enumerator is the foundation the self-test stands on, so it gets an
independent witness: a naive brute-force generator written here from
scratch over the same alphabet.  Both must produce identical sets.
Canonical-shape checking and the suite report are exercised directly,
including a deliberately broken checker to prove the suite would notice.
"""

import json

import pytest

import tvec.oracle
import tvec.typecheck
from tvec import corpus
from tvec.oracle import (
    ANNOTATION_TYPES, ENUM_CAP, PROPERTY_NAMES, Counterexample,
    canonical_shape, enumerate_terms, run_property_suite,
)
from tvec.reduce import FuelExhausted
from tvec.syntax import (
    AllTy, App, BVar, Cons, Context, EqTy, FVar, IfZeroTy, Join, Lam,
    NatTy, Nil, PiTy, QLam, Succ, TAppImp, TCast, TFoldS,
    TFoldZ, TJoin, TLam, TLamImp, TNil, TQApp, TQLam, TRNat, TRVec,
    TUnfoldS, TUnfoldZ, VecTy, Zero, free_vars, node_count,
)
from tvec.typecheck import Diagnostic, Mode

NAT = NatTy()
OMEGA = App(Lam("x", App(BVar(0), BVar(0))),
            Lam("x", App(BVar(0), BVar(0))))


# --------------------------------------------------------------------------
# an independent generator over the same alphabet


def brute(n, depth, mode, names):
    """Every annotated term of exactly n nodes, the slow obvious way."""
    ext = mode is Mode.LARGE_ELIM
    if n == 1:
        return ({Zero()} | {FVar(x) for x in names}
                | {BVar(i) for i in range(depth)})
    acc = set()
    rest = n - 1
    for t in brute(rest, depth, mode, names):
        acc.add(Succ(t))
        if ext:
            acc.add(TUnfoldZ(t))
    for ty in ANNOTATION_TYPES:
        if node_count(ty) == rest:
            acc.add(TNil(ty))
    for i in range(1, rest):
        lefts = brute(i, depth, mode, names)
        rights = brute(rest - i, depth, mode, names)
        for a in lefts:
            for b in rights:
                acc.add(Cons(a, b))
                acc.add(App(a, b))
                acc.add(TJoin(a, b))
                if ext:
                    acc.add(TQApp(a, b))
                    acc.add(TUnfoldS(a, b))
                else:
                    acc.add(TAppImp(a, b))
    for ty in ANNOTATION_TYPES:
        budget = rest - node_count(ty)
        if budget >= 1:
            for b in brute(budget, depth + 1, mode, names):
                acc.add(TLam("brute", ty, b))
                if ext:
                    acc.add(TQLam("brute", ty, b))
                else:
                    acc.add(TLamImp("brute", ty, b))
            if ext:
                for b in brute(budget, depth, mode, names):
                    acc.add(TFoldZ(ty, b))
        for i in range(1, budget):
            for a in brute(i, depth, mode, names):
                for b in brute(budget - i, depth, mode, names):
                    acc.add(TCast("brute", ty, a, b))
                    if ext:
                        acc.add(TFoldS(a, ty, b))
        for i in range(1, budget - 1):
            for j in range(1, budget - i):
                for b in brute(i, depth, mode, names):
                    for s in brute(j, depth, mode, names):
                        for sc in brute(budget - i - j, depth, mode,
                                        names):
                            acc.add(TRNat("brute", ty, b, s, sc))
                            acc.add(TRVec("brute", "brute2", ty, b, s,
                                          sc))
    return acc


class TestEnumeration:
    def test_size_one_is_zero_alone(self):
        assert list(enumerate_terms(1)) == [Zero()]

    @pytest.mark.parametrize("term, size", [
        (Succ(Zero()), 2),
        (TNil(NAT), 2),
        (TJoin(Zero(), Zero()), 3),
        (TLam("x", NAT, BVar(0)), 3),
    ])
    def test_known_members_appear(self, term, size):
        bucket = [t for t in enumerate_terms(size) if node_count(t) == size]
        assert term in bucket

    @pytest.mark.parametrize("mode", [Mode.BASE, Mode.LARGE_ELIM])
    def test_sizes_honest_and_ordered(self, mode):
        sizes = [node_count(t) for t in enumerate_terms(5, mode=mode)]
        assert sizes == sorted(sizes)
        assert max(sizes) == 5
        assert min(sizes) == 1

    @pytest.mark.parametrize("mode", [Mode.BASE, Mode.LARGE_ELIM])
    def test_no_duplicates(self, mode):
        terms = list(enumerate_terms(5, mode=mode))
        assert len(terms) == len(set(terms))

    @pytest.mark.parametrize("mode, counts", [
        (Mode.BASE, {3: 13, 4: 49, 5: 249, 6: 1130}),
        (Mode.LARGE_ELIM, {3: 20, 4: 100, 5: 586, 6: 3475}),
    ])
    def test_cumulative_counts_are_stable(self, mode, counts):
        # frozen reference counts: a change here means the alphabet moved
        for size, want in counts.items():
            assert sum(1 for _ in enumerate_terms(size, mode=mode)) == want

    def test_closed_enumeration_is_closed(self):
        for t in enumerate_terms(4):
            assert not free_vars(t)

    def test_context_supplies_atoms(self):
        ctx = Context().extend("a", NAT)
        terms = list(enumerate_terms(2, mode=Mode.BASE, ctx=ctx))
        assert FVar("a") in terms
        assert Succ(FVar("a")) in terms
        assert all(free_vars(t) <= {"a"} for t in terms)

    @pytest.mark.parametrize("bad", [0, -1, ENUM_CAP + 1])
    def test_size_out_of_range_refused(self, bad):
        with pytest.raises(ValueError):
            list(enumerate_terms(bad))

    @pytest.mark.parametrize("mode", [Mode.BASE, Mode.LARGE_ELIM])
    def test_agrees_with_brute_force(self, mode):
        got = set(enumerate_terms(4, mode=mode))
        want = set()
        for n in range(1, 5):
            want |= brute(n, 0, mode, ())
        assert got == want

    def test_agrees_with_brute_force_in_context(self):
        ctx = Context().extend("a", NAT)
        got = set(enumerate_terms(3, mode=Mode.LARGE_ELIM, ctx=ctx))
        want = set()
        for n in range(1, 4):
            want |= brute(n, 0, Mode.LARGE_ELIM, ("a",))
        assert got == want


# --------------------------------------------------------------------------
# canonical shapes


class TestCanonicalShape:
    @pytest.mark.parametrize("value, ty, want", [
        # Nat wants a numeral, all the way down
        (corpus.unum(3), NAT, True),
        (Lam("x", BVar(0)), NAT, False),
        (Succ(Lam("x", BVar(0))), NAT, False),
        # Pi wants an abstraction
        (Lam("x", BVar(0)), PiTy("x", NAT, NAT), True),
        (Zero(), PiTy("x", NAT, NAT), False),
        # Vec checks the normalized length and recurses
        (Cons(Zero(), Nil()),
         VecTy(NAT, App(Lam("n", Succ(BVar(0))), Zero())), True),
        (Cons(Zero(), Nil()), VecTy(NAT, Zero()), False),
        (Nil(), VecTy(NAT, Succ(Zero())), False),
        (Cons(Lam("x", BVar(0)), Nil()), VecTy(NAT, Succ(Zero())), False),
        (Cons(Lam("x", BVar(0)), Nil()),
         VecTy(PiTy("x", NAT, NAT), Succ(Zero())), True),
        # an equation wants join, and the sides really joinable
        (Join(), EqTy(corpus.plus_u(corpus.unum(2), corpus.unum(2)),
                      corpus.unum(4)), True),
        (Join(), EqTy(Zero(), Succ(Zero())), False),
        (Zero(), EqTy(Zero(), Zero()), False),
        # ifzero normalizes the scrutinee, then follows the branch
        (Zero(), IfZeroTy(Zero(), NAT, PiTy("x", NAT, NAT)), True),
        (Lam("x", BVar(0)),
         IfZeroTy(App(Lam("n", Succ(BVar(0))), Zero()),
                  NAT, PiTy("x", NAT, NAT)), True),
        (Zero(), IfZeroTy(Succ(Zero()), NAT, PiTy("x", NAT, NAT)), False),
    ])
    def test_base_clauses(self, value, ty, want):
        assert canonical_shape(value, ty) is want

    def test_forall_in_base_mode_checks_an_instance(self):
        ty = AllTy("l", NAT, VecTy(NAT, BVar(0)))
        assert canonical_shape(Nil(), ty) is True
        assert canonical_shape(Zero(), ty) is False

    def test_forall_in_large_elim_mode_wants_a_shell(self):
        ty = AllTy("q", EqTy(Succ(Zero()), Zero()), NAT)
        suspended = QLam(App(Zero(), Zero()))
        assert canonical_shape(suspended, ty, Mode.LARGE_ELIM) is True
        assert canonical_shape(Zero(), ty, Mode.LARGE_ELIM) is False

    @pytest.mark.parametrize("value, ty", [
        (Nil(), VecTy(NAT, OMEGA)),
        (Zero(), IfZeroTy(OMEGA, NAT, NAT)),
        (Join(), EqTy(OMEGA, Zero())),
    ])
    def test_fuel_exhaustion_is_propagated(self, value, ty):
        out = canonical_shape(value, ty, fuel=20)
        assert isinstance(out, FuelExhausted)


# --------------------------------------------------------------------------
# the suite itself


# enumerated, well typed, P1-P3 checked, P4-P5 checked, rule hits
SIZE_FIVE = {
    Mode.BASE: (249, 51, 61, 1863, {
        "abs": 546, "app": 739, "cast": 78, "cons": 631, "join": 636,
        "nil": 136, "rnat": 84, "rvec": 43, "spec-abs": 337,
        "spec-app": 671, "succ": 848, "var": 2109, "zero": 1012}),
    Mode.LARGE_ELIM: (586, 74, 77, 4078, {
        "abs": 373, "app": 973, "cast": 82, "cons": 970, "fold-succ": 83,
        "fold-zero": 243, "join": 970, "nil": 289, "quasi-abs": 374,
        "quasi-app": 971, "rnat": 28, "rvec": 28, "succ": 1669,
        "unfold-succ": 971, "unfold-zero": 1674, "var": 3670,
        "zero": 2259}),
}


class TestPropertySuite:
    def test_base_suite_is_green(self):
        rep = run_property_suite(size=4, mode=Mode.BASE)
        assert rep.ok
        assert rep.undecided == 0
        assert rep.enumerated == 49
        assert rep.well_typed == 18
        assert rep.missing_rules == ()
        assert [p.name for p in rep.properties] == list(PROPERTY_NAMES)
        assert all(p.checked > 0 for p in rep.properties)

    def test_large_elim_suite_is_green(self):
        rep = run_property_suite(size=5, mode=Mode.LARGE_ELIM)
        assert rep.ok
        assert rep.undecided == 0
        assert rep.missing_rules == ()

    def test_rule_coverage_gap_is_detected(self):
        # the quasi-implicit corpus never uses the recursors, and no
        # recursor fits in four nodes, so the suite must flag the gap
        rep = run_property_suite(size=4, mode=Mode.LARGE_ELIM)
        assert not rep.ok
        assert set(rep.missing_rules) == {"rnat", "rvec"}
        assert rep.failure_count == 0

    def test_report_serializes(self):
        rep = run_property_suite(size=3, mode=Mode.BASE)
        blob = json.loads(json.dumps(rep.to_json()))
        assert blob["mode"] == "base"
        assert blob["ok"] is True
        assert {p["name"] for p in blob["properties"]} == set(PROPERTY_NAMES)
        text = rep.render()
        assert "result: ok" in text
        for name in PROPERTY_NAMES:
            assert name in text

    @pytest.mark.parametrize("mode", list(Mode))
    def test_size_five_counts_are_pinned(self, mode):
        """What the size-5 suite counts, as it counted when every failed
        check built its diagnostic at once: making diagnostics later must
        not change which terms check or which rules they hit."""
        enumerated, well_typed, closed, open_, hits = SIZE_FIVE[mode]
        rep = run_property_suite(size=5, mode=mode)
        assert (rep.enumerated, rep.well_typed) == (enumerated, well_typed)
        assert [(p.name, p.checked, p.undecided) for p in rep.properties] \
            == [(p, closed, 0) for p in ("P1", "P2", "P3")] \
            + [(p, open_, 0) for p in ("P4", "P5")]
        assert rep.rule_hits == hits

    @pytest.mark.parametrize("mode", list(Mode))
    def test_the_suite_makes_no_diagnostic(self, mode, monkeypatch):
        """The suite reads none of its failed checks' diagnostics, so it
        makes none."""
        made = 0
        init = Diagnostic.__init__

        def counted(self, *args, **kwargs):
            nonlocal made
            made += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Diagnostic, "__init__", counted)
        rep = run_property_suite(size=5, mode=mode)
        assert rep.ok and rep.enumerated > rep.well_typed
        assert made == 0

    def test_unsound_join_rule_is_caught(self, monkeypatch):
        # the checker accepts any join without comparing the sides
        monkeypatch.setattr(tvec.typecheck, "joinable", lambda *a: True)
        rep = run_property_suite(size=4, mode=Mode.BASE)
        assert not rep.ok
        p1, p2 = rep.properties[0], rep.properties[1]
        assert len(p1.failures) == 4
        assert len(p2.failures) == 4
        assert all(isinstance(c, Counterexample) for c in p1.failures)
        assert any("join" in c.term for c in p1.failures)
        assert all("canonical" in c.detail for c in p1.failures)
