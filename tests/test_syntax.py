"""Binding-structure laws: open/close, substitution, alpha equality.

The open/close laws hold of the tests' own toolkit (`locally_nameless`),
which `TestInstantiate` compares the kernel's `instantiate` with."""

import ast
import copy
import dataclasses
import inspect
import pathlib
import pickle
import sys
import typing

import pytest
from hypothesis import given, strategies as st

import tvec.syntax
from tvec.corpus import CorpusDef
from tvec.frontend import (
    AssumeItem, DefItem, ModeItem, ResolvedDef, ResolvedFile, SourceFile,
)
from tvec.oracle import Counterexample, PropertyResult, SuiteReport
from tvec.reduce import FuelExhausted, NormalForm, Stuck, Value
from tvec.typecheck import Diagnostic, Failure, Inferred, Mode
from tvec.syntax import (
    AnnTerm, App, BVar, Cons, Context, EqTy, FVar, Join, Lam, NatTy, Nil,
    PiTy, Succ, TJoin, TLam, Ty, UnannTerm, VecTy, Zero, alpha_eq, Node,
    ctx_ok, free_vars, fresh_name, instantiate, node_count, subst,
)

from locally_nameless import close1, close_at, open1, open_at, open2

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
        assert alpha_eq(FVar("a", span=(0, 1)),
                        FVar("a", span=(7, 8)))

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
        r = TRNat("x", VecTy(NatTy(), BVar(0)), Zero(), Zero(), BVar(0))
        opened = open_at(r, 0, FVar("k"))
        assert opened.motive == VecTy(NatTy(), BVar(0)), \
            "the motive binds its own index, the outer opening skips it"
        assert opened.scrut == FVar("k")

    @given(unann_terms())
    def test_close_open_identity_on_fresh(self, t):
        name = fresh_name("z", free_vars(t))
        assert open1(close1(t, name), FVar(name)) == t


class TestInstantiate:
    @given(unann_terms(), unann_terms())
    def test_is_open1_on_locally_closed_arguments(self, t, a):
        body = close1(t, "a")
        assert instantiate(body, (a,)) == open1(body, a)

    @given(unann_terms(), unann_terms(), unann_terms())
    def test_is_open2_on_locally_closed_arguments(self, t, vec, length):
        body = close_at(close_at(t, 1, "b"), 0, "a")
        assert instantiate(body, (vec, length)) == open2(body, length, vec)

    def test_loose_arguments_are_raised_under_binders(self):
        # fun y => fun z => x y, with x := a term with a loose index
        body = Lam("y", Lam("z", App(BVar(2), BVar(1))))
        assert instantiate(body, (App(BVar(0), BVar(3)),)) == \
            Lam("y", Lam("z", App(App(BVar(2), BVar(5)), BVar(1))))

    def test_other_indices_move_by_lift_minus_arguments(self):
        t = Lam("y", App(BVar(0), App(BVar(1), BVar(2))))
        assert instantiate(t, (Zero(),), 2) == \
            Lam("y", App(BVar(0), App(Zero(), BVar(3))))
        assert instantiate(t, (Zero(), Nil())) == \
            Lam("y", App(BVar(0), App(Zero(), Nil())))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_no_arguments_is_the_shift(self, k):
        t = Lam("y", App(BVar(0), Cons(BVar(1), BVar(3))))
        assert instantiate(t, (), k) == \
            Lam("y", App(BVar(0), Cons(BVar(1 + k), BVar(3 + k))))

    @pytest.mark.parametrize("t, args, lift", [
        (Lam("y", App(BVar(0), FVar("f"))), (Zero(),), 0),
        (Lam("y", App(BVar(0), BVar(1))), (), 0),
        (Lam("y", App(BVar(0), BVar(2))), (Zero(),), 1),
        (PiTy("x", NatTy(), VecTy(NatTy(), BVar(0))), (Zero(),), 0),
    ])
    def test_unchanged_term_comes_back_itself(self, t, args, lift):
        assert instantiate(t, args, lift) is t


def test_references_share_no_walker_with_the_kernel():
    """The reference implementations take only folds from `tvec.syntax`
    and open and close binders with `locally_nameless`, whose walk calls
    neither the kernel's walker nor the node methods it rebuilds with."""
    folds = {"alpha_eq", "ctx_ok", "free_vars", "fresh_name"}
    here = pathlib.Path(__file__).parent
    for path in [here / "locally_nameless.py",
                 *here.glob("reference_*.py")]:
        tree = ast.parse(path.read_text())
        imported = {a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom)
                    and n.module == "tvec.syntax" for a in n.names}
        assert {name for name in imported if inspect.isfunction(
            getattr(tvec.syntax, name))} <= folds, path.name
        assert not {n.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute)} & \
            {"map_vars", "children", "rebuild"}, path.name


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
        (TJoin(Zero(), Succ(Zero())), 4),
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


NODE_CLASSES = [c for c in vars(tvec.syntax).values()
                if isinstance(c, type) and issubclass(c, Node)]


class TestCategories:
    """`erase.subst_annotated` takes annotation positions from the three
    category unions, which is sound only while they split the nodes so."""

    TY, UNANN, ANNOTATED = (set(typing.get_args(u))
                            for u in (Ty, UnannTerm, AnnTerm))

    def test_every_node_class_has_a_category(self):
        concrete = set(NODE_CLASSES) - {Node}
        assert set(Node.__subclasses__()) == concrete
        assert concrete == self.TY | self.UNANN | self.ANNOTATED

    def test_types_are_not_terms(self):
        assert not self.TY & (self.UNANN | self.ANNOTATED)

    def test_shared_term_classes(self):
        assert self.UNANN & self.ANNOTATED == {
            FVar, BVar, App, Zero, Succ, Cons}


def _build(cls, hint, span):
    """An instance of cls: children are `0`, hints are `hint`."""
    args = []
    for f in dataclasses.fields(cls):
        if f.kw_only:
            continue
        if f.name in cls.SCOPES:
            args.append(Zero())
        elif not f.compare:
            args.append(hint)
        else:
            args.append({"str": "a", "int": 0}[f.type])
    return cls(*args, span=span), args


def _record_pair(cls):
    """Two instances of a record class that differ in every field."""
    def build(a, n, ty, term, span, mode, ctx):
        diag = Diagnostic(a, "message " + a, span)
        c = Counterexample("P" + str(n), a, a, a)
        prop = PropertyResult("P" + str(n), n, n, (c,))
        r = ResolvedDef(a, ty, term, term, ty, span)
        return {
            NormalForm: (term, n), FuelExhausted: (term, n),
            Value: (term, n), Stuck: (term, a, n), Inferred: (ty,),
            Diagnostic: (a, "message " + a, span, "code " + a,
                         "expected " + a, "actual " + a, "severity " + a,
                         (diag,)),
            Failure: (diag,), DefItem: (a, ty, term, span, frozenset(a)),
            AssumeItem: (a, ty, span, frozenset(a)), ModeItem: (mode, span),
            SourceFile: ((ModeItem(mode, span),),),
            ResolvedDef: (a, ty, term, term, ty, span),
            ResolvedFile: (mode, ctx, (r,)),
            Counterexample: ("P" + str(n), a, a, a),
            PropertyResult: (prop.name, n, n, (c,)),
            SuiteReport: (mode, n, n, n, n, n, (c,), (prop,), {a: n}, (a,),
                          float(n)),
            CorpusDef: (a, ty, term),
        }[cls]
    return [cls(*build(*args)) for args in [
        ("a", 1, NatTy(), Zero(), (0, 1), Mode.BASE, Context()),
        ("b", 2, VecTy(NatTy(), Zero()), Succ(Zero()), (2, 3),
         Mode.LARGE_ELIM, Context().extend("n", NatTy())),
    ]]


RECORD_CLASSES = [
    NormalForm, FuelExhausted, Value, Stuck, Inferred, Diagnostic, Failure,
    DefItem, AssumeItem, ModeItem, SourceFile, ResolvedDef, ResolvedFile,
    Counterexample, PropertyResult, SuiteReport, CorpusDef,
]


def _sample(cls):
    if cls in RECORD_CLASSES:
        return _record_pair(cls)[0]
    return _build(cls, "x", (0, 1))[0]


def _stdlib_repr(t):
    """What `repr` of a plain frozen dataclass with t's fields prints."""
    like = dataclasses.make_dataclass(
        type(t).__qualname__,
        [(f.name, f.type, dataclasses.field(repr=f.repr))
         for f in dataclasses.fields(t)], frozen=True)
    return repr(like(**{f.name: getattr(t, f.name)
                        for f in dataclasses.fields(t)}))


class TestNodeContract:
    """Nodes and the records of the other modules are slotted
    dataclasses that cannot change: built once, never changed."""

    @pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
    def test_frozen_slotted_dataclass(self, cls):
        t, args = _build(cls, "x", (0, 1))
        twin, _ = _build(cls, "y", (2, 3))
        assert not hasattr(t, "__dict__")
        names = [f.name for f in dataclasses.fields(t)]
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, getattr(t, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, name)
        assert t == twin and hash(t) == hash(twin)
        if args:
            with pytest.raises(TypeError):
                cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, None, Zero())
        by_position = cls(*args, (0, 1))
        assert by_position == t and by_position.span == t.span == (0, 1)
        with pytest.raises(TypeError):
            cls(*args, colour="red")
        assert cls.__match_args__ == tuple(n for n in names if n != "span")
        if args:
            C = cls
            match t:
                case C(first):
                    assert first == args[0]
                case _:
                    pytest.fail("class pattern did not match")
        moved = dataclasses.replace(t, **{names[-1]: args[-1]}) \
            if args else dataclasses.replace(t)
        assert moved == t and moved is not t
        assert [getattr(moved, n) for n in names] == \
            [getattr(t, n) for n in names]

    @pytest.mark.parametrize("cls", [c for c in NODE_CLASSES if c.SCOPES],
                             ids=lambda c: c.__name__)
    def test_rebuild_keeps_hints_and_span(self, cls):
        t, _ = _build(cls, "x", (0, 1))
        kids = t.children()
        assert kids == [getattr(t, n) for n in cls.SCOPES]
        new = t.rebuild([Succ(k) for k in kids])
        assert type(new) is cls and new is not t
        assert new.children() == [Succ(k) for k in kids]
        assert new.span is t.span
        assert repr(new.rebuild(kids)) == repr(t)

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
    def test_frozen_record(self, cls):
        t, other = _record_pair(cls)
        twin = _record_pair(cls)[0]
        names = [f.name for f in dataclasses.fields(t)]
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, getattr(t, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, name)
        assert t == twin and t is not twin and t != other
        hashable = cls is not SuiteReport   # its `rule_hits` is a dict
        if hashable:
            assert hash(t) == hash(twin)
        assert cls.__match_args__ == tuple(names)
        for name in names:
            moved = dataclasses.replace(t, **{name: getattr(other, name)})
            assert moved != t, name
            if hashable:
                assert hash(moved) != hash(t), name
            assert dataclasses.replace(moved, **{name: getattr(t, name)}) \
                == t
        assert repr(t) == _stdlib_repr(t)

    def test_records_of_one_shape_differ_by_class(self):
        assert NormalForm(Zero(), 1) != Value(Zero(), 1)
        assert Value(Zero(), 1) != NormalForm(Zero(), 1)
        assert NormalForm(Zero(), 1) == NormalForm(Zero(), 1)

    def test_repr_is_the_dataclass_repr(self):
        assert repr(Stuck(Zero(), "no rule", 3)) == \
            "Stuck(term=Zero(), reason='no rule', steps=3)"
        assert repr(Lam("x", Succ(BVar(0)), span=(0, 9))) == \
            "Lam(hint='x', body=Succ(pred=BVar(index=0)))"
        for cls in NODE_CLASSES:
            t = _sample(cls)
            assert repr(t) == _stdlib_repr(t)

    @pytest.mark.parametrize("cls", NODE_CLASSES + RECORD_CLASSES,
                             ids=lambda c: c.__name__)
    def test_pickle_and_copy_round_trip(self, cls):
        t = _sample(cls)
        values = [getattr(t, f.name) for f in dataclasses.fields(t)]
        copies = [pickle.loads(pickle.dumps(t, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for new in copies + [copy.copy(t), copy.deepcopy(t)]:
            assert type(new) is cls and new is not t
            assert new == t
            assert [getattr(new, f.name)
                    for f in dataclasses.fields(new)] == values
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(new, dataclasses.fields(new)[0].name, None)

    def test_equality_tries_identity_on_shared_children(self):
        """Two distinct nodes over one deep subterm compare without walking
        it, since a tuple compare tries `is` before `==`."""
        deep = Zero()
        for _ in range(100_000):
            deep = Succ(deep)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert Succ(deep) == Succ(deep)
            assert App(deep, Zero()) == App(deep, Zero())
        finally:
            sys.setrecursionlimit(old)
