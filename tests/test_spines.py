"""Numerals and vector literals: walkers cross them in a loop.

A numeral `n` is a tower of n `S` nodes and a vector literal a spine of
`cons` cells, so every walker that spent a Python frame per level ran out
of stack on a numeral near 1,000.  These tests run each walker on deep
towers and long spines under a recursion limit only a few dozen frames
above the caller's, and pin what checking and rebuilding give on short
ones: the rule counts, the first failure and its span, and the spans of
the levels rebuilt.
"""

import copy
import pickle
import sys

import pytest

from tvec.erase import erase, subst_annotated
from tvec.frontend import parse, parse_term, pretty, resolve_defs
from tvec.syntax import (
    BVar, Cons, Context, FVar, Lam, NatTy, Nil, Succ, TJoin, TNil,
    VecTy, Zero, free_vars, instantiate, map_spine, numeral, subst,
)
from tvec.typecheck import Checker, Failure, Inferred

NAT = NatTy()


def tower(n, base):
    for _ in range(n):
        base = Succ(base)
    return base


def vector(n, base, end=TNil(NAT)):
    """cons 0 (cons 1 ... end) with n cells, its heads the numerals 0, 1,
    2, 3, 4, 0, ... stacked on `base`."""
    t = end
    for i in reversed(range(n)):
        t = Cons(tower(i % 5, base), t)
    return t


def preorder(t):
    """The nodes of `t` in preorder as (class, name, index), walked with a
    list and not by recursion, so deep results compare anywhere."""
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        out.append((type(node), getattr(node, "name", None),
                    getattr(node, "index", None)))
        stack.extend(getattr(node, f) for f in reversed(type(node).SCOPES))
    return out


def levels(t):
    """The `S` and `cons` levels from `t` down, outermost first."""
    out = []
    while isinstance(t, (Succ, Cons)):
        out.append(t)
        t = t.pred if isinstance(t, Succ) else t.tail
    return out


class TestFrameGuard:
    """Every walker and `repr` return on a 5,000-deep numeral and on a
    500-cell vector of numerals, `==` and `pretty` on vectors of up to
    1,000 cells, `hash` on 2,000 levels, and the parser on 5,000-link
    chains, with stack for a few dozen frames; pickle and copy return on
    5,000 levels at the default recursion limit."""

    @staticmethod
    def guarded(fn, *args):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            return fn(*args)
        finally:
            sys.setrecursionlimit(old)

    @pytest.mark.parametrize("build", [
        lambda base: tower(5000, base),
        lambda base: vector(500, base),
    ], ids=["numeral", "vector"])
    def test_walkers_return(self, build):
        closed, named, loose = build(Zero()), build(FVar("x")), build(BVar(0))
        erased = self.guarded(erase, closed)
        if isinstance(closed, Succ):
            assert erased is closed
        else:
            assert preorder(erased) == preorder(vector(500, Zero(), Nil()))
        assert self.guarded(free_vars, named) == {"x"}
        assert self.guarded(free_vars, closed) == frozenset()
        for got in (self.guarded(subst, named, "x", Zero()),
                    self.guarded(subst_annotated, named, "x", Zero(), Zero()),
                    self.guarded(instantiate, loose, (Zero(),))):
            assert preorder(got) == preorder(closed)
        assert self.guarded(instantiate, closed, (Zero(),)) is closed
        res = self.guarded(Checker().infer, Context(), closed)
        assert isinstance(res, Inferred)
        if isinstance(closed, Cons):
            assert preorder(res.type) == preorder(VecTy(NAT, tower(500, Zero())))

    def test_equal_towers_compare_in_a_loop(self):
        a, b = tower(1201, Zero()), tower(1201, Zero())
        assert self.guarded(lambda: a == b)
        assert not self.guarded(lambda: a != b)
        assert not self.guarded(lambda: a == tower(1200, Zero()))
        assert not self.guarded(lambda: a == tower(1201, FVar("x")))
        assert not self.guarded(lambda: tower(3, Zero()) == Zero())
        assert tower(2, FVar("x")) == tower(2, FVar("x"))
        assert Succ(Zero()) != Zero() and Succ(Zero()) != Cons(Zero(), Nil())
        assert hash(tower(3, Zero())) == hash(tower(3, Zero()))
        assert len({tower(3, Zero()), tower(3, Zero()), tower(2, Zero())}) == 2

    def test_equal_vectors_compare_in_a_loop(self):
        a, b = vector(1000, Zero()), vector(1000, Zero())
        assert a is not b and a.tail is not b.tail
        assert self.guarded(lambda: a == b)
        assert not self.guarded(lambda: a != b)
        assert not self.guarded(lambda: a == vector(999, Zero()))
        assert not self.guarded(lambda: a == vector(1000, FVar("x")))
        assert not self.guarded(lambda: a == vector(1000, Zero(), Nil()))
        assert Cons(Zero(), Nil()) != Cons(Succ(Zero()), Nil())
        assert Cons(Zero(), Nil()) != Succ(Zero())
        assert hash(vector(3, Zero())) == hash(vector(3, Zero()))

    def test_long_vectors_print_in_a_loop(self):
        t = vector(500, Zero())
        text = self.guarded(pretty, t)
        cells = " (".join(f"cons {i % 5}" for i in range(500))
        assert text == cells + " nil[Nat]" + ")" * 499
        assert self.guarded(pretty, erase(t)).endswith(" nil" + ")" * 499)
        u, w = vector(1000, Zero()), vector(1000, Zero())
        assert self.guarded(pretty, u) == self.guarded(pretty, w)

    @pytest.mark.parametrize("build", [
        lambda base: tower(2000, base),
        lambda base: vector(2000, base),
        lambda base: tower(700, vector(700, tower(600, base))),
    ], ids=["numeral", "vector", "mixed"])
    def test_hash_in_a_loop(self, build):
        """`hash` crosses a tower or a spine in one loop, at the default
        recursion limit and under the guard, and agrees with `==`:
        spans and binder hints change neither."""
        assert sys.getrecursionlimit() == 1000
        a = build(Zero())
        b = build(Zero(span=(3, 4)))
        assert a == b and hash(a) == hash(b)
        assert self.guarded(hash, a) == hash(a)
        assert self.guarded(lambda: len({a, b, build(FVar("x"))})) == 2

    def test_repr_in_a_loop(self):
        """`repr` crosses a tower or a spine in one loop and stays the
        dataclass repr; a resolved file's numeral of 1,000 prints at the
        default recursion limit."""
        assert self.guarded(repr, tower(5000, Zero())) == \
            "Succ(pred=" * 5000 + "Zero()" + ")" * 5000
        heads = [repr(tower(i % 5, Zero())) for i in range(500)]
        assert self.guarded(repr, vector(500, Zero(span=(1, 2)))) == \
            "".join(f"Cons(head={h}, tail=" for h in heads) + \
            "TNil(elem=NatTy())" + ")" * 500
        assert sys.getrecursionlimit() == 1000
        text = repr(resolve_defs(parse("def n : Nat = 1000")))
        assert "body=" + repr(tower(1000, Zero())) in text

    def test_hash_ignores_spans_and_hints_in_heads(self):
        heads = [(Lam("x", BVar(0)), Lam("y", BVar(0), span=(0, 9))),
                 (Succ(FVar("a")), Succ(FVar("a"), span=(1, 2)))]
        for h1, h2 in heads:
            a = Cons(h1, Succ(Cons(h1, Nil())), span=(5, 6))
            b = Cons(h2, Succ(Cons(h2, Nil(span=(7, 8)))))
            assert a == b and hash(a) == hash(b)
        assert hash(Succ(Zero())) != hash(Cons(Zero(), Zero()))
        assert hash(vector(3, Zero())) != hash(vector(4, Zero()))

    @pytest.mark.parametrize("keyword, cls, last, base, end", [
        ("cons", Cons, "tail", "nil [Nat]", TNil(NAT)),
        ("join", TJoin, "rhs", "0", Zero()),
    ])
    def test_long_chains_parse_in_a_loop(self, keyword, cls, last, base,
                                         end):
        """A chain of one form is read in one loop: a 5,000-cell vector
        literal and a 5,000-link `join` chain parse under the guard, each
        level with its own span."""
        n = 5000
        text = f"{keyword} 0 (" * n + base + ")" * n
        t = self.guarded(parse_term, text)
        for i in range(n):
            assert type(t) is cls and t.span == (8 * i, len(text) - i)
            first = getattr(t, cls.__match_args__[0])
            assert first == Zero() and first.span == (8 * i + 5, 8 * i + 6)
            t = getattr(t, last)
        assert t == end and t.span == (8 * n, 8 * n + len(base))

    @pytest.mark.parametrize("text", [
        "S (" * 5000 + "0" + ")" * 5000,
        "cons 1 (" * 5000 + "nil [Nat]" + ")" * 5000,
        "cons 5000 (cons (S (S y)) (S (cons 2 v)))",
    ], ids=["numeral", "vector", "mixed"])
    def test_pickle_and_copy_in_a_loop(self, text):
        """pickle at every protocol, `copy` and `deepcopy` take a tower or
        a spine apart and rebuild it in one loop, at the default recursion
        limit, with every level's span."""
        assert sys.getrecursionlimit() == 1000
        t = parse_term(text)
        copies = [pickle.loads(pickle.dumps(t, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        spans = [(lv.span, getattr(lv, "head", lv).span) for lv in levels(t)]
        for new in copies + [copy.copy(t), copy.deepcopy(t)]:
            assert new == t and new is not t
            assert [(lv.span, getattr(lv, "head", lv).span)
                    for lv in levels(new)] == spans

    def test_the_class_keeps_its_own_equality(self):
        assert Succ.__eq__ is Cons.__eq__
        assert Succ.__hash__ is Cons.__hash__
        for method in (Succ.__eq__, Succ.__hash__):
            assert method.__code__.co_filename.endswith("syntax.py")
        assert FVar.__eq__.__code__.co_filename == "<node>"
        assert FVar.__hash__.__code__.co_filename == "<node>"


# The values below are what checking gave when each level cost a frame.
FAILS = [
    ('cons (nil [Nat]) (nil [Nat])', {'cons': 1, 'nil': 2}, 'type-mismatch', 'cons head has the wrong type', (6, 15)),
    ('cons (nil [Nat]) (cons 1 (nil [Nat]))', {'cons': 2, 'nil': 2, 'succ': 1, 'zero': 1}, 'type-mismatch', 'cons head has the wrong type', (6, 15)),
    ('cons 0 (cons (nil [Nat]) (nil [Nat]))', {'cons': 2, 'nil': 2}, 'type-mismatch', 'cons head has the wrong type', (14, 23)),
    ('cons (nil [Nat]) (cons 1 (cons 2 (nil [Nat])))', {'cons': 3, 'nil': 2, 'succ': 3, 'zero': 2}, 'type-mismatch', 'cons head has the wrong type', (6, 15)),
    ('cons 0 (cons (nil [Nat]) (cons 2 (nil [Nat])))', {'cons': 3, 'nil': 2, 'succ': 2, 'zero': 1}, 'type-mismatch', 'cons head has the wrong type', (14, 23)),
    ('cons 0 (cons 1 (cons (nil [Nat]) (nil [Nat])))', {'cons': 3, 'nil': 2}, 'type-mismatch', 'cons head has the wrong type', (22, 31)),
    ('cons (nil [Nat]) (cons 1 (cons 2 (cons 0 (nil [Nat]))))', {'cons': 4, 'nil': 2, 'succ': 3, 'zero': 3}, 'type-mismatch', 'cons head has the wrong type', (6, 15)),
    ('cons 0 (cons (nil [Nat]) (cons 2 (cons 0 (nil [Nat]))))', {'cons': 4, 'nil': 2, 'succ': 2, 'zero': 2}, 'type-mismatch', 'cons head has the wrong type', (14, 23)),
    ('cons 0 (cons 1 (cons (nil [Nat]) (cons 0 (nil [Nat]))))', {'cons': 4, 'nil': 2, 'zero': 1}, 'type-mismatch', 'cons head has the wrong type', (22, 31)),
    ('cons 0 (cons 1 (cons 2 (cons (nil [Nat]) (nil [Nat]))))', {'cons': 4, 'nil': 2}, 'type-mismatch', 'cons head has the wrong type', (30, 39)),
    ('cons (nil [Nat]) (cons 1 (cons 2 (cons 0 (cons 1 (nil [Nat])))))', {'cons': 5, 'nil': 2, 'succ': 4, 'zero': 4}, 'type-mismatch', 'cons head has the wrong type', (6, 15)),
    ('cons 0 (cons (nil [Nat]) (cons 2 (cons 0 (cons 1 (nil [Nat])))))', {'cons': 5, 'nil': 2, 'succ': 3, 'zero': 3}, 'type-mismatch', 'cons head has the wrong type', (14, 23)),
    ('cons 0 (cons 1 (cons (nil [Nat]) (cons 0 (cons 1 (nil [Nat])))))', {'cons': 5, 'nil': 2, 'succ': 1, 'zero': 2}, 'type-mismatch', 'cons head has the wrong type', (22, 31)),
    ('cons 0 (cons 1 (cons 2 (cons (nil [Nat]) (cons 1 (nil [Nat])))))', {'cons': 5, 'nil': 2, 'succ': 1, 'zero': 1}, 'type-mismatch', 'cons head has the wrong type', (30, 39)),
    ('cons 0 (cons 1 (cons 2 (cons 0 (cons (nil [Nat]) (nil [Nat])))))', {'cons': 5, 'nil': 2}, 'type-mismatch', 'cons head has the wrong type', (38, 47)),
    ('cons (nil [Nat]) (cons 1 (cons 2 (cons 0 (cons 1 (cons 2 (nil [Nat]))))))', {'cons': 6, 'nil': 2, 'succ': 6, 'zero': 5}, 'type-mismatch', 'cons head has the wrong type', (6, 15)),
    ('cons 0 (cons (nil [Nat]) (cons 2 (cons 0 (cons 1 (cons 2 (nil [Nat]))))))', {'cons': 6, 'nil': 2, 'succ': 5, 'zero': 4}, 'type-mismatch', 'cons head has the wrong type', (14, 23)),
    ('cons 0 (cons 1 (cons (nil [Nat]) (cons 0 (cons 1 (cons 2 (nil [Nat]))))))', {'cons': 6, 'nil': 2, 'succ': 3, 'zero': 3}, 'type-mismatch', 'cons head has the wrong type', (22, 31)),
    ('cons 0 (cons 1 (cons 2 (cons (nil [Nat]) (cons 1 (cons 2 (nil [Nat]))))))', {'cons': 6, 'nil': 2, 'succ': 3, 'zero': 2}, 'type-mismatch', 'cons head has the wrong type', (30, 39)),
    ('cons 0 (cons 1 (cons 2 (cons 0 (cons (nil [Nat]) (cons 2 (nil [Nat]))))))', {'cons': 6, 'nil': 2, 'succ': 2, 'zero': 1}, 'type-mismatch', 'cons head has the wrong type', (38, 47)),
    ('cons 0 (cons 1 (cons 2 (cons 0 (cons 1 (cons (nil [Nat]) (nil [Nat]))))))', {'cons': 6, 'nil': 2}, 'type-mismatch', 'cons head has the wrong type', (46, 55)),
    ('cons 1 (cons 2 (S 0))', {'cons': 2, 'succ': 1, 'zero': 1}, 'shape-mismatch', 'cons tail is not a vector', (16, 19)),
    ('cons 1 (cons (S y) (nil [Nat]))', {'cons': 2, 'nil': 1, 'succ': 1, 'var': 1}, 'unbound-variable', 'unbound variable y', (16, 17)),
    ('S (nil [Nat])', {'nil': 1, 'succ': 1}, 'type-mismatch', 'successor argument has the wrong type', (3, 12)),
    ('S (S (nil [Nat]))', {'nil': 1, 'succ': 2}, 'type-mismatch', 'successor argument has the wrong type', (6, 15)),
    ('S (S (S (nil [Nat])))', {'nil': 1, 'succ': 3}, 'type-mismatch', 'successor argument has the wrong type', (9, 18)),
    ('S (S (S (S (nil [Nat]))))', {'nil': 1, 'succ': 4}, 'type-mismatch', 'successor argument has the wrong type', (12, 21)),
    ('S (S (fun x : Nat => x))', {'abs': 1, 'succ': 2, 'var': 1}, 'type-mismatch', 'successor argument has the wrong type', (6, 22)),
    ('S (2 (nil [Nat]))', {'app': 1, 'succ': 3, 'zero': 1}, 'shape-mismatch', 'application head is not a function', (3, 4)),
    ('S (S (S y))', {'succ': 3, 'var': 1}, 'unbound-variable', 'unbound variable y', (8, 9)),
    ('S (cons 0 (nil [Nat]))', {'cons': 1, 'nil': 1, 'succ': 1, 'zero': 1}, 'type-mismatch', 'successor argument has the wrong type', (3, 21)),
]


class TestSpinesFailAlike:
    @pytest.mark.parametrize("text, hits, code, message, span", FAILS,
                             ids=[row[0] for row in FAILS])
    def test_first_failure(self, text, hits, code, message, span):
        checker = Checker()
        res = checker.infer(Context(), parse_term(text))
        assert isinstance(res, Failure)
        diag = res.diagnostic
        assert (diag.code, diag.message) == (code, message)
        assert diag.span == span
        assert checker.rule_hits == hits


class TestRebuild:
    """A walker that changes the base of a tower or a head of a spine
    rebuilds the levels above the change, each with its span, and shares
    the levels below."""

    @pytest.mark.parametrize("walk", [
        lambda t: subst(t, "x", Zero()),
        lambda t: subst_annotated(t, "x", Zero(), Zero()),
        lambda t: erase(subst_annotated(t, "x", TNil(NAT), Nil())),
    ], ids=["subst", "subst_annotated", "erase"])
    def test_changed_base_keeps_spans(self, walk):
        t = parse_term("S (S (S x))")
        got = walk(t)
        assert [lv.span for lv in levels(got)] == [lv.span for lv in levels(t)]
        assert len({lv.span for lv in levels(t)}) == 3
        assert all(a is not b for a, b in zip(levels(got), levels(t)))

    def test_instantiate_keeps_spans(self):
        t = parse_term("fun x : Nat => S (S (S x))").body
        got = instantiate(t, (Zero(),))
        assert got == tower(3, Zero())
        assert [lv.span for lv in levels(got)] == [lv.span for lv in levels(t)]

    def test_erase_keeps_spans(self):
        t = parse_term("S (S (nil [Nat]))")
        got = erase(t)
        assert got == tower(2, Nil())
        assert [lv.span for lv in levels(got)] == [lv.span for lv in levels(t)]

    def test_spine_shares_below_the_change(self):
        t = parse_term("cons 1 (cons x (cons 2 (cons 3 v)))")
        got = subst(t, "x", Zero())
        old, new = levels(t), levels(got)
        assert [lv.span for lv in new] == [lv.span for lv in old]
        assert new[0] is not old[0] and new[1] is not old[1]
        assert new[0].head is old[0].head and new[1].head == Zero()
        assert new[2] is old[2]
        assert got == parse_term("cons 1 (cons 0 (cons 2 (cons 3 v)))")

    def test_unchanged_is_returned(self):
        t = parse_term("cons 1 (cons (S (S y)) (cons 2 v))")
        assert subst(t, "x", Zero()) is t
        assert erase(t) is t
        assert map_spine(t, lambda node, *_: node, 1, 2, 3) is t

    def test_heads_then_end_outermost_first(self):
        seen = []
        t = parse_term("cons a (S (cons b (S (S c))))")
        map_spine(t, lambda node, *args: seen.append((node.name, args))
                  or node, 1, 2, 3)
        assert seen == [("a", (1, 2, 3)), ("b", (1, 2, 3)), ("c", (1, 2, 3))]

    def test_numeral(self):
        assert numeral(tower(4, FVar("x"))) == (4, FVar("x"))
        assert numeral(Zero()) == (0, Zero())
