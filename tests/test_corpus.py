"""The bundled .tvec files and the programmatic corpus must agree.

corpus.py builds every definition as a raw AST; the examples directory
carries the same definitions in surface syntax.  Tests here parse the
files, resolve them, and demand alpha-equality definition by definition,
then check everything in the right mode.  This is what keeps the shipped
examples honest.
"""

import pytest

from tvec import corpus
from tvec.erase import erase
from tvec.frontend import parse, pretty, resolve_defs
from tvec.reduce import Value, eval_cbv, normalize
from tvec.syntax import Cons, Nil, Zero, alpha_eq, free_vars
from tvec.typecheck import Checker, Inferred, Mode

from conftest import QUODLIBET_PATH, VEC_PATH


@pytest.fixture(scope="module")
def vec_resolved():
    return resolve_defs(parse(VEC_PATH.read_text()))


@pytest.fixture(scope="module")
def quod_resolved():
    return resolve_defs(parse(QUODLIBET_PATH.read_text()))


class TestVecFile:
    def test_mode(self, vec_resolved):
        assert vec_resolved.mode is Mode.BASE
        assert len(vec_resolved.assumptions) == 0

    def test_matches_corpus(self, vec_resolved):
        expected = corpus.base_corpus()
        assert [d.name for d in vec_resolved.defs] == \
            [d.name for d in expected]
        for got, want in zip(vec_resolved.defs, expected):
            assert alpha_eq(got.ty, want.ty), got.name
            assert alpha_eq(got.body, want.body), got.name

    def test_every_def_checks(self, vec_resolved):
        checker = Checker(mode=vec_resolved.mode)
        for d in vec_resolved.defs:
            res = checker.check_against(
                vec_resolved.assumptions, d.body, d.ty)
            assert isinstance(res, Inferred), (d.name, res)

    def test_append_declared_type_prints_in_source_form(self, vec_resolved):
        append = next(d for d in vec_resolved.defs if d.name == "append")
        assert pretty(append.declared) == (
            "All l1 : Nat. All l2 : Nat. Pi v1 : Vec Nat l1. "
            "Pi v2 : Vec Nat l2. Vec Nat (plus l1 l2)")


class TestQuodlibetFile:
    def test_mode_and_assumption(self, quod_resolved):
        assert quod_resolved.mode is Mode.LARGE_ELIM
        assert quod_resolved.assumptions.lookup("p") == corpus.absurd_eq()

    def test_matches_corpus(self, quod_resolved):
        expected = corpus.ext_corpus()
        assert [d.name for d in quod_resolved.defs] == \
            [d.name for d in expected]
        for got, want in zip(quod_resolved.defs, expected):
            assert alpha_eq(got.ty, want.ty), got.name
            assert alpha_eq(got.body, want.body), got.name

    def test_every_def_checks(self, quod_resolved):
        checker = Checker(mode=quod_resolved.mode)
        for d in quod_resolved.defs:
            res = checker.check_against(
                quod_resolved.assumptions, d.body, d.ty)
            assert isinstance(res, Inferred), (d.name, res)


class TestCorpusBehaviour:
    def test_plus_two_two_is_four(self):
        out = normalize(corpus.plus_u(corpus.unum(2), corpus.unum(2)))
        assert out.term == corpus.unum(4)

    def test_append_demo_evaluates_to_listing(self):
        out = eval_cbv(erase(corpus.append_demo_body()))
        assert isinstance(out, Value)
        want = Cons(corpus.unum(1), Cons(corpus.unum(2), Cons(
            corpus.unum(3), Cons(corpus.unum(4), Cons(
                corpus.unum(5), Nil())))))
        assert alpha_eq(out.term, want)

    def test_append_assoc_erasure_normalizes(self):
        # the whole associativity proof body reduces to a normal form
        # whose equation witness parts are gone: only join remains inside
        out = normalize(erase(corpus.append_assoc_body()))
        assert out.term is not None and out.steps >= 0

    def test_base_corpus_is_closed(self):
        for d in corpus.base_corpus():
            assert not free_vars(d.body), d.name
            assert not free_vars(d.ty), d.name

    def test_ext_corpus_closure_status(self):
        open_defs = {d.name for d in corpus.ext_corpus()
                     if free_vars(d.body)}
        # exactly the definitions that consume the absurd assumption
        assert open_defs == {"stuckFn", "stuckApp", "viaWitness"}

    def test_numeral_helpers_agree(self):
        assert erase(corpus.num(5)) == corpus.unum(5)
        assert corpus.unum(0) == Zero()
