"""The reduction engine against the reference reducers.

`tvec.reduce` runs one focused machine for leftmost-outermost (LO),
rightmost-innermost (RI) and call-by-value; `reference_reduce` holds the
plain definitions that re-walk the term from its root for every step.
Their outcomes must agree in everything: outcome class, term, step count,
fuel and stuck reason.  Every intermediate term must agree as well, and
the engine's per-step hook shows those terms.
"""

import functools
import sys

import pytest

import reference_reduce as ref
from tvec import reduce
from tvec.corpus import append_demo_body, append_u, four_body, plus_u, unum
from tvec.erase import erase
from tvec.frontend import pretty
from tvec.oracle import enumerate_terms
from tvec.reduce import (
    DEFAULT_FUEL, LEFTMOST_OUTERMOST, RIGHTMOST_INNERMOST, FuelExhausted,
    NormalForm, Value, eval_cbv, normalize,
)
from tvec.syntax import (
    App, BVar, Cons, Context, FVar, Join, Lam, NatTy, Nil, QApp, QLam, RNat,
    RVec, Succ, VecTy, Zero,
)
from tvec.typecheck import Mode

STRATEGIES = ("lo", "ri", "cbv")
_NAMED = {"lo": LEFTMOST_OUTERMOST, "ri": RIGHTMOST_INNERMOST}
_REF_STEP = {"lo": ref.step_lo, "ri": ref.step_ri, "cbv": ref.step_cbv}


def engine(strategy, t, fuel, on_step=None):
    if strategy == "cbv":
        return eval_cbv(t, fuel, on_step=on_step)
    return normalize(t, fuel, _NAMED[strategy], on_step=on_step)


def reference(strategy, t, fuel):
    if strategy == "cbv":
        return ref.eval_cbv(t, fuel)
    return ref.normalize(t, fuel, _NAMED[strategy])


def reference_trajectory(strategy, t, fuel):
    """The terms after each of the reference's first `fuel` steps."""
    step, out = _REF_STEP[strategy], []
    while len(out) < fuel:
        t = step(t)
        if t is None:
            break
        out.append(t)
    return out


def assert_agrees(strategy, t, fuel):
    got, want = engine(strategy, t, fuel), reference(strategy, t, fuel)
    assert type(got) is type(want)
    assert got == want  # term (alpha-equal), steps or fuel, stuck reason
    assert pretty(got.term) == pretty(want.term)  # binder hints too
    return want


def assert_agrees_everywhere(strategy, t):
    """Same trajectory at the default fuel, and the same outcome at fuel 1,
    2, 3 and exactly the step count."""
    seen = []
    want = assert_agrees(strategy, t, DEFAULT_FUEL)
    got = engine(strategy, t, DEFAULT_FUEL,
                 on_step=lambda i, u: seen.append((i, u)))
    trajectory = reference_trajectory(strategy, t, DEFAULT_FUEL)
    assert [i for i, _ in seen] == list(range(1, len(trajectory) + 1))
    assert [u for _, u in seen] == trajectory
    if trajectory:
        assert seen[-1][1] == got.term
    steps = getattr(want, "steps", DEFAULT_FUEL)
    for fuel in sorted({1, 2, 3, steps} - {0}):
        assert_agrees(strategy, t, fuel)
    return want


@functools.cache
def erasures(mode: Mode, size: int, scoped: bool) -> tuple:
    """The distinct erasures of the enumeration, in enumeration order."""
    ctx = Context()
    if scoped:
        ctx = ctx.extend("a", NatTy()).extend("b", VecTy(NatTy(), Zero()))
    return tuple(dict.fromkeys(erase(t)
                               for t in enumerate_terms(size, mode, ctx)))


class TestEnumeration:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_closed_size_7(self, mode, strategy):
        terms = erasures(mode, 7, False)
        assert len(terms) > 1000
        for t in terms:
            assert_agrees_everywhere(strategy, t)

    # free variables: stuck reasons name them, and the reference opens
    # binders with names that avoid them
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_open_size_6(self, mode, strategy):
        for t in erasures(mode, 6, True):
            assert_agrees_everywhere(strategy, t)


@functools.cache
def raw_terms(n: int, depth: int, full: bool) -> tuple:
    """Every unannotated term of exactly n nodes under `depth` binders,
    ill-scoped or not; without `full`, only the lambda fragment."""
    if n == 1:
        leaves = [FVar("a"), *map(BVar, range(depth))]
        return tuple(leaves + [Zero(), Nil(), Join()] if full else leaves)
    out = [Lam("x", t) for t in raw_terms(n - 1, depth + 1, full)]
    for i in range(1, n - 1):
        for a in raw_terms(i, depth, full):
            for b in raw_terms(n - 1 - i, depth, full):
                out.append(App(a, b))
                if full:
                    out.append(Cons(a, b))
    if full:
        for t in raw_terms(n - 1, depth, full):
            out += [Succ(t), QLam(t), QApp(t)]
        for i in range(1, n - 2):
            for j in range(1, n - 1 - i):
                for a in raw_terms(i, depth, full):
                    for b in raw_terms(j, depth, full):
                        for c in raw_terms(n - 1 - i - j, depth, full):
                            out += [RNat(a, b, c), RVec(a, b, c)]
    return tuple(out)


class TestRawTerms:
    """Terms no enumeration of typed terms reaches: redexes under nested
    binders that mention the outer variable, and loose indices, which the
    engine must treat as the reference does."""

    # generated under one binder, so BVar 0 occurs loose
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_constructors_up_to_size_5(self, strategy):
        for n in range(1, 6):
            for t in raw_terms(n, 1, True):
                assert_agrees_everywhere(strategy, t)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_lambda_fragment_up_to_size_7(self, strategy):
        for n in range(1, 8):
            for t in raw_terms(n, 0, False):
                assert_agrees_everywhere(strategy, t)


def _uvec(elems):
    t = Nil()
    for e in reversed(elems):
        t = Cons(unum(e), t)
    return t


class TestFamilies:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])
    def test_plus(self, n, strategy):
        want = assert_agrees_everywhere(strategy, plus_u(unum(n), unum(n)))
        assert want.steps == 3 * n + 3

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])
    def test_append(self, n, strategy):
        t = append_u(_uvec(range(n)), _uvec(range(n, 0, -1)))
        want = assert_agrees_everywhere(strategy, t)
        assert want.steps == 4 * n + 3

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_four(self, strategy):
        want = assert_agrees_everywhere(strategy, erase(four_body()))
        assert want.steps == 21 and want.term == unum(4)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_append_demo(self, strategy):
        want = assert_agrees_everywhere(strategy, erase(append_demo_body()))
        assert want.steps == 11 and want.term == _uvec([1, 2, 3, 4, 5])


def _family(name, n):
    if name == "plus":
        return plus_u(unum(n), unum(n))
    return append_u(_uvec(range(n)), _uvec(range(n, 0, -1)))


class TestWork:
    """`contract` is the engine's only redex test.  Its calls per step, one
    per contraction plus one per node asked that is not a redex, stay flat
    in n: LO about 1.33 on `plus` and 1.5 on `append`, RI and cbv 1."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("family", ["plus", "append"])
    def test_contract_calls_per_step_are_flat(self, family, strategy,
                                              monkeypatch):
        calls = []
        real = reduce.contract

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(reduce, "contract", counted)
        per_step = []
        for n in (50, 200):
            calls.clear()
            out = engine(strategy, _family(family, n), DEFAULT_FUEL)
            per_step.append(len(calls) / out.steps)
        # a fixed few calls outside the steps move the ratio by under 1%
        assert per_step[1] == pytest.approx(per_step[0], rel=0.01)
        assert max(per_step) <= 2


def _binders(k, body):
    """fun x1 ... fun xk => body."""
    for i in range(k, 0, -1):
        body = Lam(f"x{i}", body)
    return body


class TestBinders:
    """Redexes under several abstractions: the argument is shifted past
    the binders it lands under, indices of the enclosing abstractions are
    lowered, and loose indices stay."""

    # fun x1 ... fun xk => (fun y => fun z => z y w) (xk w), where w is x1
    # or an index loose past every binder
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("loose", [False, True], ids=["x1", "loose"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_redex_under_k_binders(self, k, loose, strategy):
        w = k if loose else k - 1   # the index of w just under the k binders
        fn = Lam("y", Lam("z", App(App(BVar(0), BVar(1)), BVar(w + 2))))
        t = _binders(k, App(fn, App(BVar(0), BVar(w))))
        want = assert_agrees_everywhere(strategy, t)
        assert want.steps == (0 if strategy == "cbv" else 1)


# --------------------------------------------------------------------------
# deep terms: no recursion anywhere in the engine


def _numeral(t):
    k = 0
    while isinstance(t, Succ):
        t, k = t.pred, k + 1
    return k if isinstance(t, Zero) else None


def _vector(t):
    elems = []
    while isinstance(t, Cons):
        elems.append(_numeral(t.head))
        t = t.tail
    return elems if isinstance(t, Nil) else None


def _nested_redex(n):
    """fun x1 ... fun xn => (fun y => S y) x1."""
    return _binders(n, App(Lam("y", Succ(BVar(0))), BVar(n - 1)))


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.mark.usefixtures("default_recursion_limit")
@pytest.mark.parametrize("strategy", STRATEGIES)
class TestDeep:
    def test_plus_1000(self, strategy):
        out = engine(strategy, plus_u(unum(1000), unum(1000)), DEFAULT_FUEL)
        assert isinstance(out, Value if strategy == "cbv" else NormalForm)
        assert out.steps == 3003
        assert _numeral(out.term) == 2000

    def test_append_1000(self, strategy):
        a = [i % 4 for i in range(1000)]
        b = [i % 3 for i in range(1000)]
        out = engine(strategy, append_u(_uvec(a), _uvec(b)), DEFAULT_FUEL)
        assert isinstance(out, Value if strategy == "cbv" else NormalForm)
        assert out.steps == 4003
        assert _vector(out.term) == a + b

    def test_nested_binders_1000(self, strategy):
        out = engine(strategy, _nested_redex(1000), DEFAULT_FUEL)
        assert isinstance(out, Value if strategy == "cbv" else NormalForm)
        body = out.term
        for _ in range(1000):   # `==` on the whole result would recurse
            assert type(body) is Lam
            body = body.body
        if strategy == "cbv":
            assert out.steps == 0
            assert body == App(Lam("y", Succ(BVar(0))), BVar(999))
        else:
            assert out.steps == 1 and body == Succ(BVar(999))

    def test_nested_binders_work_is_flat(self, strategy, monkeypatch):
        calls = []
        walk = reduce._map_vars

        def counted(*args):
            calls.append(None)
            return walk(*args)

        monkeypatch.setattr(reduce, "_map_vars", counted)
        counts = []
        for n in (200, 800):
            calls.clear()
            engine(strategy, _nested_redex(n), DEFAULT_FUEL)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_fuel_exhausted_mid_run(self, strategy):
        out = engine(strategy, plus_u(unum(1000), unum(1000)), 2000)
        assert isinstance(out, FuelExhausted) and out.fuel == 2000
