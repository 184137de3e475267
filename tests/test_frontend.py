"""Surface syntax: lexing, parsing, printing, and definition resolution."""

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

import reference_lexer
import reference_parser
import reference_resolve
import tvec.frontend
import tvec.syntax
from cli_transcript import BROKEN, FAMILY, two_name_chain
from conftest import EXAMPLES
from tvec.cli import main as cli_main
from tvec.erase import erase
from tvec.frontend import (
    KEYWORDS, MAX_NUMERAL, AssumeItem, DefItem, ModeItem, ParseError,
    ResolveError, parse, parse_term, parse_type, pretty, resolve_defs,
    tokenize,
)
from tvec.oracle import enumerate_terms
from tvec.syntax import (
    AllTy, App, BVar, Context, EqTy, FVar, IfZeroTy, Lam, NatTy, PiTy, RNat,
    RVec, Succ, TAppImp, TCast, Cons, TJoin, TLam, TLamImp, TNil, TQApp, TQLam,
    TRNat, TRVec, TUnfoldZ, VecTy, Zero, alpha_eq, free_vars,
)
from tvec.typecheck import Checker, Inferred, Mode

NAT = NatTy()

# The hand-written files: the examples and the benchmark's programs.
CARRIED = sorted(EXAMPLES.glob("*.tvec")) + sorted(
    (EXAMPLES.parent / "perfbench" / "programs").glob("*.tvec"))
# Broken files that fail to parse, or exhaust the parser's stack.
UNPARSED = {"parse_error_after", "deep_parens_later"}


def _vec_literal(elems) -> str:
    text = "nil [Nat]"
    for e in reversed(elems):
        text = f"cons {e} ({text})"
    return text


def _family(k: int) -> str:
    """`vec.tvec` and the definitions that the check-program benchmark
    adds at size k: vector literals of k and 2k elements, numerals up to
    2k."""
    a = [i % 4 for i in range(k)]
    b = [(3 * i + 1) % 4 for i in range(k)]
    return (EXAMPLES / "vec.tvec").read_text() + f"""
def sum{k} : plus {k} {k} = {2 * k} = join (plus {k} {k}) {2 * k}
def sumVal{k} : Nat = plus {k} {k}
def a{k} : Vec Nat {k} = {_vec_literal(a)}
def b{k} : Vec Nat {k} = {_vec_literal(b)}
def ab{k} : Vec Nat (plus {k} {k}) = append @[{k}] @[{k}] a{k} b{k}
def abLit{k} : Vec Nat {2 * k} = {_vec_literal(a + b)}
def abEq{k} : append a{k} b{k} = abLit{k} =
  join (append @[{k}] @[{k}] a{k} b{k}) abLit{k}
"""


def _spaced(text: str) -> str:
    """`text` with tabs, comments and CRLF line ends between every pair of
    its tokens."""
    gaps = ("\t", " -- a comment\r\n", "\r\n\t", "\t--\r\n")
    words = [word for _, word, _, _ in reference_lexer.tokenize(text)]
    return "".join(word + gaps[i % len(gaps)]
                   for i, word in enumerate(words))


# Whole files at the benchmark's scale, beside the carried ones.
LARGE_FILES = {
    "family59": _family(59),
    "vec-spaced": _spaced((EXAMPLES / "vec.tvec").read_text()),
}

# Pieces of random source text: every symbol, keywords and fragments of
# them, comment and identifier punctuation, whitespace (Unicode included),
# characters that no token may start with, and letters, digits and other
# numeric characters from any script.  Characters that fail at once are
# kept few, so that most texts get far before the first error.
FRAGMENTS = st.one_of(
    st.sampled_from(sorted(KEYWORDS) + [
        "@-[", "@[", "=>", "(", ")", "[", "]", ":", ".", "=", "@", "@-",
        "-", "--", "large", "-elim", "large-", "elim", "'", "_", "\n",
        " ", "\t", "\u00a0", "\u2028", "x", "v1", "z", "0", "7", "42",
        "\u00e9", "\u00df", "\u03a9", "\u0663", "\uff17", "\u00b2",
        "\u00bd", "\u216b", "~", "#",
    ]),
    st.characters(categories=("L", "N", "Z", "Pc")),
)
SOURCE_TEXT = st.lists(FRAGMENTS, max_size=30).map("".join)


def lexed(lex, text):
    try:
        return [tuple(t) for t in lex(text)]
    except ParseError as err:
        return err.diagnostic.message, err.diagnostic.span


class TestLexer:
    def test_comments_and_whitespace(self):
        toks = tokenize("zero -- a comment\n  zero")
        assert [kind for kind, _, _, _ in toks] == ["zero", "zero", "eof"]

    def test_apostrophes_in_identifiers(self):
        toks = tokenize("v1' x''")
        assert [text for _, text, _, _ in toks[:2]] == ["v1'", "x''"]

    def test_large_elim_is_one_token(self):
        toks = tokenize("mode large-elim")
        assert [kind for kind, _, _, _ in toks] == \
            ["mode", "large-elim", "eof"]

    def test_at_brackets(self):
        toks = tokenize("f @[x] @-[y]")
        kinds = [kind for kind, _, _, _ in toks]
        assert "@[" in kinds and "@-[" in kinds

    @pytest.mark.parametrize("text, char, offset", [
        pytest.param("zero ~ zero", "~", 5, id="tilde"),
        # a digit, but not a decimal one
        pytest.param("\u00b2", "\u00b2", 0, id="superscript-two"),
        pytest.param("def n : Nat = \u00b2", "\u00b2", 14,
                     id="superscript-two-in-def"),
        # numeric, but not a letter; inside a word it is fine
        pytest.param("x\u00b2 \u00bd", "\u00bd", 3, id="one-half"),
    ])
    def test_bad_character(self, text, char, offset):
        with pytest.raises(ParseError) as exc:
            tokenize(text)
        diag = exc.value.diagnostic
        assert diag.code == "parse-error"
        assert diag.message == f"unexpected character {char!r}"
        assert diag.span == (offset, offset + 1)

    @pytest.mark.parametrize("text", [
        "mode large-elim", "large-elim'", "large-elim_", "large-elim--",
        "large-elim.", "f=>x=y", "f @-[x]@[y]", "x--y\nz", "v1'' \u0663",
        "\u00e9t\u00e9\u00b2", "\u00a0zero\u2028",
        # comments: at the end without a newline, right after a token,
        # of dashes only; and a lone dash, which is no comment
        "zero -- end", "zero--end", "zero--", "(--)\n)", "--", "---",
        "zero ---\n--- zero", "-", "zero - zero", "zero -", "large-elim--x",
        "\t--\r\n", "@-[--]\n]",
    ])
    def test_matches_reference_lexer_at_boundaries(self, text):
        assert lexed(tokenize, text) == lexed(reference_lexer.tokenize, text)

    @pytest.mark.parametrize("text", [
        *(path.read_text(encoding="utf-8") for path in CARRIED),
        *LARGE_FILES.values(),
    ], ids=[*(f"{path.parent.name}/{path.name}" for path in CARRIED),
            *LARGE_FILES])
    def test_matches_reference_lexer_on_files(self, text):
        assert lexed(tokenize, text) == lexed(reference_lexer.tokenize, text)

    @settings(max_examples=500)
    @given(SOURCE_TEXT)
    def test_matches_reference_lexer(self, text):
        assert lexed(tokenize, text) == lexed(reference_lexer.tokenize, text)

    @settings(max_examples=500)
    @given(SOURCE_TEXT.map(lambda text: text[:40]))
    def test_parse_raises_only_parse_errors(self, text):
        try:
            parse(text)
        except ParseError:
            pass


class TestFormTable:
    """The rows of keyword forms that the parser and the printer read."""

    FORMS = tvec.frontend._FORMS

    @pytest.mark.parametrize("form", FORMS,
                             ids=[cls.__name__ for _, cls, _, _ in FORMS])
    def test_pieces_cover_the_fields_in_order(self, form):
        _, cls, pieces, last = form
        covered, held = [], []    # field names, and what each field holds
        for piece, name, hints, _ in pieces:
            # a bracketed type covers one hint per variable, then the type
            bracketed_type = type(piece) is tuple
            assert len(hints) == (len(piece) if bracketed_type else 0)
            assert piece in ("atom", "term") or bracketed_type
            covered += [*hints, name]
            held += ["str"] * len(hints) + [
                "Ty" if bracketed_type else "Term"]
        covered.append(last)
        held.append("Term")
        declared = [f for f in fields(cls) if not f.kw_only]
        assert covered == [f.name for f in declared]
        for what, f in zip(held, declared):
            assert f.type.strip("'").endswith(what), f.name

    def test_each_class_has_one_row(self):
        classes = [cls for _, cls, _, _ in self.FORMS]
        assert len(set(classes)) == len(classes) == 12
        parsed = tvec.frontend._PARSED
        assert sorted(parsed) == sorted([
            "S", "cons", "join", "rnat", "rvec", "cast", "foldz", "unfoldz",
            "folds", "unfolds"])
        assert all(parsed[form[0]] is form for form in self.FORMS
                   if form[1] not in (RNat, RVec))

    def test_keywords_are_the_same_words(self):
        assert KEYWORDS == {
            "def", "mode", "assume", "Nat", "Vec", "Pi", "All", "ifzero",
            "fun", "ifun", "qfun", "zero", "S", "nil", "cons", "rnat",
            "rvec", "join", "cast", "foldz", "unfoldz", "folds", "unfolds",
            "large-elim"}
        assert KEYWORDS - {"large-elim"} == reference_lexer.KEYWORDS


class TestParseTerm:
    @pytest.mark.parametrize("src, expected", [
        ("zero", Zero()),
        ("0", Zero()),
        ("3", Succ(Succ(Succ(Zero())))),
        ("S 0", Succ(Zero())),
        ("nil[Nat]", TNil(NAT)),
        ("cons 0 nil[Nat]", Cons(Zero(), TNil(NAT))),
        ("join 0 0", TJoin(Zero(), Zero())),
        ("fun x : Nat => x", TLam("x", NAT, BVar(0))),
        ("ifun l : Nat => join 0 0",
         TLamImp("l", NAT, TJoin(Zero(), Zero()))),
        ("qfun q : 1 = 0 => 0",
         TQLam("q", EqTy(Succ(Zero()), Zero()), Zero())),
        ("f x", App(FVar("f"), FVar("x"))),
        ("f @[0]", TAppImp(FVar("f"), Zero())),
        ("f @-[p]", TQApp(FVar("f"), FVar("p"))),
        ("unfoldz x", TUnfoldZ(FVar("x"))),
        ("cast [w. Vec Nat w] p nil[Nat]",
         TCast("w", VecTy(NAT, BVar(0)), FVar("p"), TNil(NAT))),
        ("rnat [x. Nat] 0 s n",
         TRNat("x", NAT, Zero(), FVar("s"), FVar("n"))),
        ("rvec [x. y. Nat] 0 s v",
         TRVec("x", "y", NAT, Zero(), FVar("s"), FVar("v"))),
        ("\u0663", Succ(Succ(Succ(Zero())))),  # Arabic-Indic three
        ("0" * 30 + "2", Succ(Succ(Zero()))),
    ])
    def test_forms(self, src, expected):
        assert alpha_eq(parse_term(src), expected)

    def test_application_is_left_associative(self):
        assert parse_term("f x y") == \
            App(App(FVar("f"), FVar("x")), FVar("y"))

    def test_binders_close_their_variable(self):
        t = parse_term("fun x : Nat => fun y : Nat => x")
        assert t == TLam("x", NAT, TLam("y", NAT, BVar(1)))

    def test_motive_binds_in_brackets(self):
        t = parse_term("cast [w. Vec Nat w] p v")
        assert t.motive == VecTy(NAT, BVar(0))

    def test_rvec_motive_binds_two(self):
        t = parse_term("rvec [n. v. Vec Nat n] b s xs")
        assert t.motive == VecTy(NAT, BVar(1))
        t = parse_term("rvec [n. v. n = v] b s xs")
        assert t.motive == EqTy(BVar(1), BVar(0))

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_term("zero zero)")

    def test_missing_body(self):
        with pytest.raises(ParseError):
            parse_term("fun x : Nat =>")

    @pytest.mark.parametrize("src", [str(MAX_NUMERAL + 1), "1" * 5000])
    def test_numeral_above_the_limit_is_rejected(self, src):
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        assert "larger than" in exc.value.diagnostic.message


class TestParseType:
    @pytest.mark.parametrize("src, expected", [
        ("Nat", NAT),
        ("Vec Nat 0", VecTy(NAT, Zero())),
        ("Pi x : Nat. Nat", PiTy("x", NAT, NAT)),
        ("All l : Nat. Vec Nat l", AllTy("l", NAT, VecTy(NAT, BVar(0)))),
        ("0 = 0", EqTy(Zero(), Zero())),
        ("ifzero 0 Nat (Pi x : Nat. Nat)",
         IfZeroTy(Zero(), NAT, PiTy("x", NAT, NAT))),
        ("(Nat)", NAT),
    ])
    def test_forms(self, src, expected):
        assert alpha_eq(parse_type(src), expected)

    def test_equation_sides_are_erased_on_parse(self):
        ty = parse_type("(fun x : Nat => x) 0 = 0")
        assert isinstance(ty, EqTy)
        assert ty.lhs == erase(parse_term("(fun x : Nat => x) 0"))

    def test_parenthesized_type_versus_equation(self):
        # "(" opens either a type or an equation side; both must work
        assert parse_type("(Pi x : Nat. Nat)") == PiTy("x", NAT, NAT)
        assert parse_type("(S 0) = 1") == \
            EqTy(Succ(Zero()), Succ(Zero()))

    def test_pi_scopes_into_codomain(self):
        ty = parse_type("Pi n : Nat. Vec Nat n")
        assert ty == PiTy("n", NAT, VecTy(NAT, BVar(0)))

    def test_name_released_from_an_implicit_binder_stays_free(self):
        # The length erases to the `b#` that the ill-typed `ifun` releases,
        # which no binder can take: the two-pass reference parser, which
        # erases before closing the `Pi`, agrees.
        src = "Pi b : Nat. Vec Nat (ifun b : Nat => b)"
        expected = PiTy("b", NAT, VecTy(NAT, FVar("b#")))
        assert parse_type(src) == expected
        assert reference_parser.parse_type(src) == expected

    def test_failed_parenthesised_type_is_tried_once(self, monkeypatch):
        # Each `(` here opens a term that fails as `( type )` and is read
        # again as an equation side; retrying every nested attempt made
        # 98,303 calls to `type_` at n = 16.
        calls = 0
        type_ = tvec.frontend._Parser.type_

        def counted(self):
            nonlocal calls
            calls += 1
            return type_(self)

        monkeypatch.setattr(tvec.frontend._Parser, "type_", counted)
        n = 16
        src = "Vec Nat " + "(nil[" * n + "Nat" + "])" * n
        with pytest.raises(ParseError) as exc:
            parse_type(src)
        assert exc.value.diagnostic.span == (93, 94)
        assert calls <= 256


class TestBinding:
    """Names bind as they are parsed, with no pass over finished bodies."""

    def test_deep_binder_chains_parse(self):
        # Each `fun` level costs the parser one Python frame and each `Pi`
        # level two, so both fit under the default recursion limit.
        t = parse_term("fun x : Nat => " * 700 + "x")
        for _ in range(700):
            t = t.body
        assert t == BVar(0)
        ty = parse_type("Pi x : Nat. " * 350 + "Vec Nat x")
        for _ in range(350):
            ty = ty.cod
        assert ty == VecTy(NAT, BVar(0))

    @pytest.mark.parametrize("make, levels", [
        (lambda n: "cons 1 (" * n + "nil [Nat]" + ")" * n, 5000),
        (lambda n: "S (" * n + "0" + ")" * n, 5000),
        (lambda n: "(" * n + "0" + ")" * n, 247),
        (lambda n: "fun x : Nat => " * n + "x", 986),
    ], ids=["cons", "S", "parens", "fun"])
    def test_nesting_limits(self, make, levels):
        """Nesting that parses at the default recursion limit on CPython
        3.11, pinned so that no parser change adds a frame per level: a
        parenthesis costs four frames and a `fun` level one, so 247 and
        986 are the deepest, and a chain of `cons` or `S` levels, read in
        a loop, costs none.  It runs in a fresh thread, whose stack holds
        none of the test runner's frames."""
        outcome = []

        def run():
            try:
                outcome.append(parse_term(make(levels)))
            except RecursionError as err:
                outcome.append(err)

        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            thread = threading.Thread(target=run)
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setrecursionlimit(old)
        assert not thread.is_alive()
        assert not isinstance(outcome[0], RecursionError)

    @pytest.mark.parametrize("src", [
        "fun x : Nat => " * 200 + "x",
        "ifun x : Nat => qfun y : Nat => " * 100 + "x",
        "nil[" + "Pi x : Nat. All y : Nat. " * 100 + "Vec Nat x]",
        "cast [w. Vec Nat (" * 100 + "w" + ")] p v" * 100,
        "rnat [x. Vec Nat (" * 100 + "x" + ")] 0 s n" * 100,
        "rvec [l. v. Vec Nat (" * 100 + "l" + ")] 0 s n" * 100,
    ], ids=["fun", "ifun-qfun", "Pi-All", "cast", "rnat", "rvec"])
    def test_parsing_walks_no_finished_body(self, src, monkeypatch):
        calls = 0
        map_vars = tvec.syntax.map_vars

        def counted(*args):
            nonlocal calls
            calls += 1
            return map_vars(*args)

        monkeypatch.setattr(tvec.syntax, "map_vars", counted)
        parse_term(src)
        assert calls == 0

    def test_inner_binder_shadows_outer(self):
        t = parse_term("fun x : Nat => fun y : Nat => fun x : Nat => x y")
        assert t.body.body.body == App(BVar(0), BVar(1))


class TestPretty:
    @pytest.mark.parametrize("src", [
        "0", "3", "nil[Nat]", "join 0 0", "fun x : Nat => x",
        "cons 1 (cons 2 nil[Nat])",
        "fun f : Pi x : Nat. Nat => f (f 0)",
        "rnat [x. Nat] 0 (fun y : Nat => fun u : Nat => S u) 2",
        "cast [w. Vec Nat w] p nil[Nat]",
        "ifun l : Nat => join 0 0",
        "qfun q : 1 = 0 => 0",
        "f @[0] @-[p]",
        "unfolds [0] (folds [0][Nat] (fun x : Nat => x))",
    ])
    def test_roundtrip(self, src):
        t = parse_term(src)
        assert alpha_eq(parse_term(pretty(t)), t)

    def test_numerals_print_as_digits(self):
        assert pretty(parse_term("S (S (S 0))")) == "3"

    def test_shadowed_binders_are_renamed_apart(self):
        t = TLam("x", NAT, TLam("x", NAT, App(BVar(1), BVar(0))))
        printed = pretty(t)
        assert printed == "fun x : Nat => fun x' : Nat => x x'"
        assert alpha_eq(parse_term(printed), t)

    def test_binder_avoids_capturing_free_names(self):
        # fun x => x' where x' is free: the binder cannot print as x'
        t = TLam("x'", NAT, App(BVar(0), FVar("x'")))
        reparsed = parse_term(pretty(t))
        assert alpha_eq(reparsed, t)

    def test_successor_tower_is_walked_once(self, monkeypatch):
        # an `S` tower over a name is decided to be no numeral once, not
        # once per level: its nodes are visited once, and its base too
        n, visits = 200, 0
        numeral = tvec.frontend.numeral

        def counted(t):
            nonlocal visits
            node = t
            while isinstance(node, Succ):
                visits += 1
                node = node.pred
            visits += 1
            return numeral(t)

        monkeypatch.setattr(tvec.frontend, "numeral", counted)
        tower = FVar("x")
        for _ in range(n):
            tower = Succ(tower)
        assert pretty(tower) == "S (" * (n - 1) + "S x" + ")" * (n - 1)
        assert visits <= n + 2

    def test_pretty_is_idempotent(self):
        src = "fun v1' : Vec Nat 2 => rvec [x. y. Nat] 0 s v1'"
        once = pretty(parse_term(src))
        assert pretty(parse_term(once)) == once

    def test_types(self):
        assert pretty(parse_type("All l : Nat. l = plus 0 l")) == \
            "All l : Nat. l = plus 0 l"


class TestFileParsing:
    def test_items(self):
        src = """
        mode large-elim
        assume p : 1 = 0
        def x : Nat = 0
        """
        f = parse(src)
        assert len(f.items) == 3

    def test_resolve_inlines_earlier_defs(self):
        src = """
        def two : Nat = 2
        def four : Nat = plus two two
        def plusTwo : Pi n : Nat. Nat = fun n : Nat => plus two n
        """
        # plus must exist first; write it inline
        src = "def plus : Pi m : Nat. Pi n : Nat. Nat = " \
              "fun m : Nat => fun n : Nat => " \
              "rnat [x. Nat] n (fun y : Nat => fun u : Nat => S u) m\n" + src
        resolved = resolve_defs(parse(src))
        four = next(d for d in resolved.defs if d.name == "four")
        assert free_vars_empty(four.body)
        assert four.declared == NAT

    def test_resolve_inlines_types_erased(self):
        src = """
        def two : Nat = 2
        def v : Vec Nat two = cons 0 (cons 0 nil[Nat])
        """
        resolved = resolve_defs(parse(src))
        v = next(d for d in resolved.defs if d.name == "v")
        assert v.ty == VecTy(NAT, Succ(Succ(Zero())))
        assert v.declared == VecTy(NAT, FVar("two"))

    def test_mode_default_and_override(self):
        f = parse("def x : Nat = 0")
        assert resolve_defs(f).mode is Mode.BASE
        assert resolve_defs(f, Mode.LARGE_ELIM).mode is Mode.LARGE_ELIM

    def test_mode_pragma(self):
        f = parse("mode large-elim\ndef x : Nat = 0")
        assert resolve_defs(f).mode is Mode.LARGE_ELIM

    def test_assumptions_enter_context(self):
        f = parse("assume p : 1 = 0\ndef x : Nat = 0")
        resolved = resolve_defs(f)
        assert resolved.assumptions.lookup("p") == \
            EqTy(Succ(Zero()), Zero())

    @pytest.mark.parametrize("src, code", [
        ("mode base\nmode base", "duplicate-pragma"),
        ("def x : Nat = 0\ndef x : Nat = 0", "duplicate-name"),
        ("def x : Nat = y", "unknown-name"),
        ("def x : Nat = x", "recursive-definition"),
        ("def x : Vec Nat x = nil[Nat]", "recursive-definition"),
        ("def x : Vec Nat y = nil[Nat]", "unknown-name"),
        ("assume p : n = 0", "unknown-name"),
        # a name released from an implicit binder is no unknown name, but
        # a name the user wrote is reported first
        ("def x : Vec Nat (ifun b : Nat => b) = nil[Nat]",
         "erased-occurrence"),
        ("assume p : Vec Nat (ifun b : Nat => cons b c)", "unknown-name"),
    ])
    def test_resolution_errors(self, src, code):
        with pytest.raises(ResolveError) as exc:
            resolve_defs(parse(src))
        assert exc.value.diagnostic.code == code

    def test_assume_gets_erased_bodies_inlined(self):
        src = """
        def id : Pi x : Nat. Nat = fun x : Nat => x
        assume p : id 0 = 0
        """
        resolved = resolve_defs(parse(src))
        assert resolved.assumptions.lookup("p") == \
            EqTy(App(Lam("x", BVar(0)), Zero()), Zero())

    def test_released_name_fails_at_its_def(self, tmp_path, capsys):
        # the erasure of `a` releases `z#`, which resolution leaves in
        # `c`'s type; checking stops at `a`, the ill-typed def itself
        src = "def a : Nat = ifun z : Nat => z\ndef c : Vec Nat a = nil[Nat]"
        resolved = resolve_defs(parse(src))
        assert resolved.defs[-1].ty == VecTy(NAT, FVar("z#"))
        path = tmp_path / "released.tvec"
        path.write_text(src)
        assert cli_main(["check", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)["defs"]
        assert [d["name"] for d in report] == ["a"]
        assert report[0]["diagnostic"]["code"] == "erased-occurrence"

    def test_released_name_is_never_a_def(self):
        # `a` is ill-typed: its erasure releases `b#`, which no identifier
        # spells, so the later def `b` cannot take it
        src = """
        def a : Nat = ifun b : Nat => b
        def b : Nat = 0
        def c : Vec Nat a = nil[Nat]
        """
        resolved = resolve_defs(parse(src))
        assert resolved.defs[-1].ty == VecTy(NAT, FVar("b#"))
        with pytest.raises(ParseError):
            parse("def b# : Nat = 0")

    def test_released_name_is_never_an_assumption(self):
        # `f` releases `b#`, not the assumed `b`, so `g` does not get the
        # type of `h` and fails to check instead
        resolved = resolve_defs(parse(BROKEN["released_meets_assumption"]))
        g = resolved.defs[-1]
        assert g.ty == VecTy(NAT, FVar("b#"))
        assert resolved.assumptions.lookup("h") == VecTy(NAT, FVar("b"))
        res = Checker(100, Mode.BASE).check_against(
            resolved.assumptions, g.body, g.ty)
        assert not isinstance(res, Inferred)

    def test_def_reached_twice_is_substituted_once(self, monkeypatch):
        # `g`'s type names `f` and `b`; `f`'s erasure releases `b#`, which
        # is not `b`, so each def is substituted once
        src = """
        def f : Nat = ifun b : Nat => b
        def b : Nat = 0
        def g : f = b = join 0 0
        """
        substituted = _record_inlining(monkeypatch)
        resolved = resolve_defs(parse(src))
        assert resolved.defs[-1].ty == EqTy(FVar("b#"), Zero())
        assert sorted(substituted) == ["b", "f"]

    @staticmethod
    def _resolution_work(monkeypatch, src, name=None):
        """Resolve `src` counting the frontend's `erase` calls, the names
        its walks replace (`inlined`, once per occurrence replaced), and
        the top-level `erase` calls; parsing, which erases the terms in
        types, is not counted."""
        source = parse(src)
        work = {"erase": 0, "top_level_erase": 0}

        def counted(fn, key):
            def wrapper(*args):
                work[key] += 1
                return fn(*args)
            return wrapper

        # `erase` calls itself through its module's global, so a call made
        # while the depth is 0 is a top-level one, whoever made it
        erase_module = importlib.import_module("tvec.erase")
        erase, depth = erase_module.erase, 0

        def erase_counted(*args):
            nonlocal depth
            work["top_level_erase"] += depth == 0
            depth += 1
            try:
                return erase(*args)
            finally:
                depth -= 1

        with monkeypatch.context() as m:
            m.setattr(erase_module, "erase", erase_counted)
            m.setattr(tvec.frontend, "erase", counted(erase_counted, "erase"))
            inlined = _record_inlining(m)
            resolved = resolve_defs(source, None, name)
        work["inlined"] = len(inlined)
        return resolved, work

    CHAIN = "def n0 : Nat = 0\n" + "".join(
        f"def n{i} : Nat = S n{i - 1}\n" for i in range(1, 200))

    def test_resolution_work_is_linear(self, monkeypatch):
        n = 200
        resolved, work = self._resolution_work(monkeypatch, self.CHAIN)
        assert resolved.defs[-1].body == parse_term(str(n - 1))
        # one erasure per def and one substitution per reference
        assert work["erase"] + work["inlined"] <= 2 * n
        assert work["top_level_erase"] == n

    @staticmethod
    def _walk_visits(monkeypatch, source, name, budget):
        """Resolve `source` (for `name`) counting the visits of the
        substitution walk, the annotated walker's and `map_vars`'s; fail
        as soon as they exceed `budget`, so an exponential walk stops."""
        erase_module = importlib.import_module("tvec.erase")
        visits = 0

        def counted(walk):
            def wrapper(*args):
                nonlocal visits
                visits += 1
                assert visits <= budget, "the walk is not linear"
                return walk(*args)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(erase_module, "_inline",
                      counted(erase_module._inline))
            walk = counted(tvec.syntax.map_vars)
            m.setattr(erase_module, "map_vars", walk)
            m.setattr(tvec.syntax, "map_vars", walk)
            resolved = resolve_defs(source, None, name)
        return resolved, visits

    @pytest.mark.parametrize("name", [None, "a99", "b50"])
    def test_two_name_chain_resolves_in_linear_work(self, monkeypatch,
                                                     name):
        # each def names both defs of the level below, so a walk that
        # entered inlined bodies would make 2**levels visits
        source = parse(two_name_chain(99))
        n = len(source.items)
        assert n == 200
        resolved, visits = self._walk_visits(monkeypatch, source, name,
                                             budget=10 * n)
        # (plain values only: printing a resolved body prints a tree)
        names = [d.name for d in resolved.defs]
        assert names[-1] == (name or "b99")
        # the type and the body as written, 7 nodes; `a0` and `b0` name no
        # def and are not walked
        assert visits == 7 * (len(names) - 2)

    def test_two_name_chain_checks_fast(self, tmp_path, capsys):
        path = tmp_path / "chain.tvec"
        path.write_text(two_name_chain(20))
        assert len(path.read_text().splitlines()) == 42
        start = time.perf_counter()
        status = cli_main(["check", str(path)])
        elapsed = time.perf_counter() - start
        assert status == 0
        assert capsys.readouterr().out.endswith("a20 : Nat\nb20 : Nat\n")
        assert elapsed < 0.5

    def test_resolving_one_def_does_only_its_work(self, monkeypatch):
        resolved, work = self._resolution_work(monkeypatch, self.CHAIN,
                                               "n0")
        assert [d.name for d in resolved.defs] == ["n0"]
        assert work["top_level_erase"] == 1
        assert work["inlined"] == 0
        # the last def needs every other one
        _, full = self._resolution_work(monkeypatch, self.CHAIN)
        _, last = self._resolution_work(monkeypatch, self.CHAIN, "n199")
        assert last == full

    def test_def_named_in_a_type_is_resolved_only_if_needed(self,
                                                           monkeypatch):
        # `e`'s type names `n5`, which `n0` does not need
        src = self.CHAIN + "def e : n5 = 5 = join n5 5\n"
        resolved, work = self._resolution_work(monkeypatch, src, "n0")
        assert [d.name for d in resolved.defs] == ["n0"]
        assert work["top_level_erase"] == 1

    def test_later_defs_may_not_be_referenced_early(self):
        src = "def x : Nat = y\ndef y : Nat = 0"
        with pytest.raises(ResolveError) as exc:
            resolve_defs(parse(src))
        assert exc.value.diagnostic.code == "unknown-name"

    @pytest.mark.parametrize("path", CARRIED,
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_each_def_keeps_its_erasure(self, path):
        for d in resolve_defs(parse(path.read_text())).defs:
            assert d.erased == erase(d.body)


def _record_inlining(monkeypatch) -> list[str]:
    """Make `resolve_defs` record each name that its walks replace, once
    per occurrence replaced, in the list returned."""
    replaced: list[str] = []
    inline = tvec.frontend.inline

    class Recorded(dict):
        # `erase.inline` looks each free name up with `get`
        def get(self, name, default=None):
            entry = super().get(name, default)
            if entry is not None:
                replaced.append(name)
            return entry

    monkeypatch.setattr(tvec.frontend, "inline",
                        lambda t, defs: inline(t, Recorded(defs)))
    return replaced


def _resolution(source, name, whole):
    """What resolving the whole file, or only for `name`, gives: the
    error, or the mode, the assumptions and def `name`."""
    try:
        resolved = resolve_defs(source, None, None if whole else name)
    except ResolveError as err:
        return err.diagnostic.to_json()
    picked = [d for d in resolved.defs if d.name == name]
    return resolved.mode, resolved.assumptions, picked


def _def_names(source) -> list[str]:
    return [item.name for item in source.items if isinstance(item, DefItem)]


class TestResolveOneDef:
    """Resolving for one def must agree with resolving the whole file."""

    @pytest.mark.parametrize("text", [
        *(path.read_text() for path in CARRIED),
        (EXAMPLES / "vec.tvec").read_text() + FAMILY,
    ], ids=[*(f"{path.parent.name}/{path.name}" for path in CARRIED),
            "family"])
    def test_each_def_as_in_the_whole_file(self, text):
        source = parse(text)
        whole = {d.name: d for d in resolve_defs(source).defs}
        for name in _def_names(source):
            # `ty`, `body` and `erased` included
            assert [d for d in resolve_defs(source, None, name).defs
                    if d.name == name] == [whole[name]]

    @pytest.mark.parametrize("label", sorted(set(BROKEN) - UNPARSED))
    def test_broken_files_fail_alike(self, label):
        source = parse(BROKEN[label])
        for name in [*_def_names(source), "noSuchDef"]:
            assert _resolution(source, name, whole=False) == \
                _resolution(source, name, whole=True)

    def test_stray_cascade_resolves_like_the_whole_file(self):
        source = parse(BROKEN["stray_cascade"])
        g = resolve_defs(source, None, "g").defs[-1]
        assert g == resolve_defs(source).defs[-1]
        assert g.ty == VecTy(NAT, FVar("b#"))

    def test_later_fault_is_reported(self):
        source = parse(BROKEN["later_unknown_in_type"])
        with pytest.raises(ResolveError) as exc:
            resolve_defs(source, None, "a")
        assert exc.value.diagnostic.message == \
            "def c mentions unknown names: zz"


# What the reference resolver and the names check run on: every carried
# file, the benchmark's family, and every broken file that parses.
RESOLVED_TEXTS = {
    **{f"{path.parent.name}/{path.name}": path.read_text()
       for path in CARRIED},
    "family": (EXAMPLES / "vec.tvec").read_text() + FAMILY,
    **{f"broken/{label}": BROKEN[label]
       for label in sorted(set(BROKEN) - UNPARSED)},
}


def _spelled(x) -> list:
    """Every field of `x`, binder hints and spans included, in preorder;
    a loop, as `repr` overflows the stack on a deep numeral."""
    out, todo = [], [x]
    while todo:
        x = todo.pop()
        if isinstance(x, tuple):
            out.append(len(x))
            todo.extend(reversed(x))
        elif is_dataclass(x):
            out.append(type(x).__name__)
            todo.extend(getattr(x, f.name) for f in reversed(fields(x)))
        else:
            out.append(x)
    return out


def _resolved_or_error(resolve, source):
    try:
        return resolve(source)
    except ResolveError as err:
        return err.diagnostic.to_json()


class TestReferenceResolver:
    @pytest.mark.parametrize("label", sorted(RESOLVED_TEXTS))
    def test_resolves_as_one_name_at_a_time(self, label):
        source = parse(RESOLVED_TEXTS[label])
        got = _resolved_or_error(resolve_defs, source)
        want = _resolved_or_error(reference_resolve.resolve_defs, source)
        assert got == want
        assert _spelled(got) == _spelled(want)
        if isinstance(got, dict) or label.startswith("broken/deep"):
            return
        assert repr(got) == repr(want)


class TestRecordedNames:
    @pytest.mark.parametrize("label", sorted(RESOLVED_TEXTS))
    def test_recorded_names_are_the_free_names(self, label):
        for item in parse(RESOLVED_TEXTS[label]).items:
            if isinstance(item, ModeItem):
                continue
            body = item.body if isinstance(item, DefItem) else NAT
            assert item.names == free_vars(item.ty) | free_vars(body)

    @pytest.mark.parametrize("src, names", [
        # an erased annotation drops its names, and erasure releases `b#`
        ("def v : Vec Nat (cast [w. Nat] typo 0) = nil [Nat]", set()),
        ("assume h : Pi b : Nat. Vec Nat (ifun b : Nat => b)", {"b#"}),
        # a failed `( type )` leaves no name behind
        ("def d : (cast [w. Nat] typo 0) = 0 = join 0 0", set()),
        ("def d : (f @[x] y) = z = join 0 0", {"f", "y", "z"}),
        ("def d : Nat = f @[x] (fun y : Vec Nat n => y)", {"f", "x", "n"}),
    ])
    def test_names_of_erased_terms_are_those_of_the_erasure(self, src,
                                                            names):
        assert parse(src).items[0].names == names


def free_vars_empty(t) -> bool:
    return not free_vars(t)


# --------------------------------------------------------------------------
# the parser against the reference parser


def tree(x):
    """`x` with every field spelled out, spans and binder hints included."""
    if isinstance(x, tuple):
        return tuple(map(tree, x))
    if is_dataclass(x):
        return (type(x).__name__,) + tuple(
            tree(getattr(x, f.name)) for f in fields(x))
    return x


def parsed(parser, text):
    try:
        return parser(text)
    except ParseError as err:
        return err.diagnostic.message, err.diagnostic.span


def assert_same_parse(new, ref, text):
    """The two parsers give `==` results with equal spans and hints, or the
    same error at the same span."""
    got, want = parsed(new, text), parsed(ref, text)
    assert got == want
    assert tree(got) == tree(want)


def _seq(*parts):
    """Concatenate token lists; a string part is one literal token."""
    parts = [st.just([p]) if isinstance(p, str) else p for p in parts]
    return st.tuples(*parts).map(_concat)


def _concat(lists):
    return [tok for toks in lists for tok in toks]


def _one(*tokens):
    return st.sampled_from(tokens).map(lambda tok: [tok])


@functools.cache
def _grammar(implicit: bool, depth: int):
    """Strategies for the token lists of a term and of a type that nest at
    most `depth` levels deep.

    With `implicit`, terms may bind with `ifun`/`qfun` but types embed no
    terms (no `Vec`, `ifzero` or `=`); without it, the reverse.  So no
    erasure at parse time ever releases a name, which keeps out the one
    case where the parsers differ on purpose (see
    `test_name_released_from_an_implicit_binder_stays_free`).
    """
    name = _one("x", "y", "b")
    if depth == 0:
        return st.one_of(name, _one("zero", "0", "2")), _one("Nat")
    term, ty = _grammar(implicit, depth - 1)
    tyatom = st.one_of(_one("Nat"), _seq("(", ty, ")"))
    atom = st.one_of(
        name, _one("zero", "0", "2"), _seq("nil", "[", ty, "]"),
        _seq("(", term, ")"))
    head = st.one_of(
        atom, _seq("S", atom), _seq(_one("cons", "join"), atom, atom),
        _seq("rnat", "[", name, ".", ty, "]", atom, atom, atom),
        _seq("rvec", "[", name, ".", name, ".", ty, "]", atom, atom, atom),
        _seq("cast", "[", name, ".", ty, "]", atom, atom),
        _seq("foldz", "[", ty, "]", atom), _seq("unfoldz", atom),
        _seq("folds", "[", term, "]", "[", ty, "]", atom),
        _seq("unfolds", "[", term, "]", atom))
    arg = st.one_of(atom, _seq(_one("@[", "@-["), term, "]"))
    apply = _seq(head, st.lists(arg, max_size=2).map(_concat))
    binder = _one("fun", "ifun", "qfun") if implicit else _one("fun")
    ty_forms = [_one("Nat"), _seq("(", ty, ")"),
                _seq(_one("Pi", "All"), name, ":", ty, ".", ty)]
    if not implicit:
        ty_forms += [_seq("Vec", tyatom, atom),
                     _seq("ifzero", atom, tyatom, tyatom),
                     _seq(apply, "=", apply)]
    return (st.one_of(apply, _seq(binder, name, ":", ty, "=>", term)),
            st.one_of(*ty_forms))


def _sources(implicit: bool):
    """(entry point, text) pairs from the grammar, each text mutated by at
    most two token insertions or deletions drawn from the same tokens."""
    term, ty = _grammar(implicit, 3)
    entries = [st.tuples(st.just("term"), term),
               st.tuples(st.just("type"), ty)]
    if not implicit:
        name = _one("x", "y", "b")
        item = st.one_of(
            _seq("mode", _one("base", "large-elim")),
            _seq("assume", name, ":", ty),
            _seq("def", name, ":", ty, "=", term))
        entries.append(st.tuples(
            st.just("file"), st.lists(item, max_size=3).map(_concat)))
    vocab = sorted(KEYWORDS - ({"Vec", "ifzero"} if implicit
                               else {"ifun", "qfun"}))
    vocab += ["x", "y", "b", "0", "(", ")", "[", "]", ":", ".", "=>",
              "@[", "@-["] + ([] if implicit else ["="])
    edits = st.lists(st.tuples(st.integers(0, 200),
                               st.one_of(st.none(), st.sampled_from(vocab))),
                     max_size=2)
    return st.tuples(st.one_of(*entries), edits).map(_edited)


def _edited(drawn):
    (entry, toks), edits = drawn
    toks = list(toks)
    for at, tok in edits:
        if tok is None:
            if toks:
                del toks[at % len(toks)]
        else:
            toks.insert(at % (len(toks) + 1), tok)
    return entry, " ".join(toks)


ENTRY_POINTS = {
    "term": (parse_term, reference_parser.parse_term),
    "type": (parse_type, reference_parser.parse_type),
    "file": (parse, reference_parser.parse),
}


# Chains of one keyword form, which the parser reads in a loop: arguments
# and brackets inside the parentheses, motives, mixed forms, and binders.
CHAINS = [
    "cons 1 (cons 2 nil[Nat] x)",
    "cons 1 (cons 2 (cons 3 v @[0]) @-[1] w) y",
    "S (S (S x) y @[zero]) z",
    "join 0 (join 1 (join 2 3) 4) 5",
    "rnat [x. Nat] 0 f (rnat [y. Vec Nat x] 0 f (rnat [z. Nat] 0 f n))",
    "rvec [l. v. Vec Nat l] nil[Nat] s (rvec [l. v. Nat] 0 s w)",
    "fun p : 1 = 1 => cast [x. Vec Nat x] p (cast [y. Nat] p (cast [z. Nat] "
    "p 0) y)",
    "folds [0] [Nat] (folds [1] [Nat] x)",
    "unfolds [0] (unfolds [1] (unfoldz (unfoldz x)))",
    "S (cons 1 (S (cons 2 (S (cons 3 nil[Nat])))))",
    "cons (S (S 0)) (cons (cons 1 v) (cons 2 (fun x : Nat => x)))",
    "fun v : Vec Nat 2 => fun v : Nat => cons v (cons v (cons 2 v))",
    "(cons 1 (cons 2 nil[Nat])) = ((cons 1 (cons 2 nil[Nat])))",
]


def _unclosed(text: str) -> list[str]:
    """`text`, and `text` cut short or missing one `)` at each of them."""
    cuts = [i for i, ch in enumerate(text) if ch == ")"]
    return [text, *(text[:i] for i in cuts),
            *(text[:i] + text[i + 1:] for i in cuts)]


class TestReferenceParser:
    @pytest.mark.parametrize("text", CHAINS)
    def test_chains(self, text):
        for variant in _unclosed(text):
            assert_same_parse(parse_term, reference_parser.parse_term,
                              variant)
            assert_same_parse(parse_type, reference_parser.parse_type,
                              variant)
            assert_same_parse(parse, reference_parser.parse,
                              f"def d : Nat = {variant}\ndef e : Nat = 0")

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("ctx", [
        Context(),
        Context().extend("a", NatTy()).extend("b", VecTy(NatTy(), Zero())),
    ], ids=["closed", "two-variables"])
    def test_enumerated_terms(self, mode, ctx):
        for t in enumerate_terms(6, mode, ctx):
            assert_same_parse(parse_term, reference_parser.parse_term,
                              pretty(t))

    @pytest.mark.parametrize("text", [
        *(path.read_text(encoding="utf-8") for path in CARRIED),
        *LARGE_FILES.values(),
    ], ids=[*(f"{path.parent.name}/{path.name}" for path in CARRIED),
            *LARGE_FILES])
    def test_program_files(self, text):
        assert len(parse(text).items) > 1
        assert_same_parse(parse, reference_parser.parse, text)

    @settings(max_examples=500)
    @given(st.booleans().flatmap(_sources))
    def test_grammar_token_strings(self, source):
        entry, text = source
        assert_same_parse(*ENTRY_POINTS[entry], text)


# --------------------------------------------------------------------------
# span shape

# The parts of a source item that hold nodes.
_ITEM_PARTS = {DefItem: ("ty", "body"), AssumeItem: ("ty",), ModeItem: ()}


def _span_faults(roots, text: str) -> tuple[int, list]:
    """How many nodes (and items) there are under `roots`, and those whose
    span is not a pair of ints with 0 <= start <= end <= len(text) inside
    the span of their parent; a loop, as numerals can be deep."""
    seen, faults = 0, []
    todo = [(root, (0, len(text))) for root in roots]
    while todo:
        x, (lo, hi) = todo.pop()
        cls, span = type(x), x.span
        seen += 1
        if not (type(span) is tuple and len(span) == 2
                and type(span[0]) is int and type(span[1]) is int
                and lo <= span[0] <= span[1] <= hi):
            faults.append((cls.__name__, span, (lo, hi)))
            continue
        parts = _ITEM_PARTS[cls] if cls in _ITEM_PARTS else cls.SCOPES
        todo += [(getattr(x, name), span) for name in parts]
    return seen, faults


class TestSpanShape:
    """Every node the parser builds carries its `(start, end)` offsets,
    inside those of its parent.  The span is the last positional argument
    of a node class, so an argument passed one place too far lands there
    and shows here."""

    @pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.tvec")),
                             ids=lambda p: p.name)
    def test_example_files(self, path):
        text = path.read_text(encoding="utf-8")
        seen, faults = _span_faults(parse(text).items, text)
        assert faults == [] and seen > 50

    @pytest.mark.parametrize("mode", list(Mode))
    def test_printed_enumeration(self, mode):
        scope = Context().extend("a", NAT).extend("b", VecTy(NAT, Zero()))
        total = 0
        for t in enumerate_terms(5, mode, scope):
            text = pretty(t)
            seen, faults = _span_faults([parse_term(text)], text)
            assert faults == [], text
            total += seen
        assert total > 5_000
