"""Surface syntax: lexer, parser, pretty-printer, definition resolution.

The file grammar (comments run `--` to end of line):

    file   := item*
    item   := "mode" ("base" | "large-elim")
            | "assume" IDENT ":" type
            | "def" IDENT ":" type "=" term

    type   := "Nat"
            | "Vec" tyatom atom
            | "Pi" IDENT ":" type "." type
            | "All" IDENT ":" type "." type
            | "ifzero" atom tyatom tyatom
            | "(" type ")"
            | apply "=" apply            -- non-associative, lowest
    tyatom := "Nat" | "(" type ")"

    term   := ("fun" | "ifun" | "qfun") IDENT ":" type "=>" term
            | apply
    apply  := head (atom | "@[" term "]" | "@-[" term "]")*
    head   := FORM piece* atom | atom
    piece  := atom | "[" term "]" | "[" (IDENT ".")* type "]"
    atom   := "zero" | NUMBER | IDENT | "nil" "[" type "]" | "(" term ")"

A FORM is the keyword of a row of `_FORMS` (`S`, `cons`, `join`, `rnat`,
`rvec`, `cast`, `foldz`, `unfoldz`, `folds`, `unfolds`), and its pieces
are those of the row.  A NUMBER is a run of decimal digits (what
`str.isdecimal` accepts) worth at most 100000.  An IDENT is a letter or
`_` followed by letters, digits, `_` and `'`, and is not a keyword.

The lexer is one `findall` pass of one pattern, whose every match is the
whitespace before a token and the token itself; a comment is a token,
which the lexer drops.  A token is a plain `(kind, text, start, end)`
tuple: one dict lookup gives the kind of a keyword or symbol, the first
character that of any other token, and the offsets are the running sum
of the match lengths.  The parser indexes that list itself; it makes no
call to look at a token.

Application is juxtaposition, left-associative; arguments are atoms, so
compound arguments take parentheses.  Numerals abbreviate towers of S over
zero and are pure sugar.  Terms embedded in types (vector lengths, ifzero
scrutinees, equation sides) are parsed as annotated terms and erased on
the spot, since types embed unannotated terms only.  Literals cost no
Python frame per level: a numeral is built in one loop (`syntax.tower`),
and a chain of one keyword form through its last atom, as in `cons a
(cons b ...)` or `S (S x)`, is read in one loop, as the printer lays it
out.  Other nesting, parentheses and binders, costs frames per level.

Names bind as they are parsed: the parser keeps the binder names in scope,
and an identifier becomes `BVar(k)`, k being the distance to the innermost
binder of that name, or an `FVar` if no binder in scope has that name.  No
finished body is walked again.  A name that erasure releases from an
ill-typed implicit binder (`b#`) is no identifier, so no binder takes it.
In a file, the parser also records each item's free names (`names`): the
`FVar`s it makes, and inside a term it erases those of the erasure.

Definitions are transparent, non-recursive abbreviations: resolution
substitutes each earlier def into later items, annotated bodies into term
positions and erased bodies into type positions, all of an item's defs in
one walk that never enters an inlined body, so it is linear in the text.
`assume` introduces a context binding for everything after it.  A
resolved item mentions only assumed names, its own binders and released
`#` names, which no def or assumption can take and which the checker
rejects.

The pretty-printer inverts the grammar with minimal parentheses and is the
source of the textual forms used in diagnostics and reports.  Binders,
applications, atoms and types each print by a table of classes.  It lays
out a keyword form by the row the parser reads, and a chain of one form
through its last atom (a vector literal) in a loop.  Erased terms print in
a display-only dialect (`fun x => t`, bare `nil`, `rnat b s n`,
`qfun => t`, `t @-[]`) that the parser does not accept.
"""

from __future__ import annotations

import re
from typing import get_args

from .erase import erase, inline
from .syntax import (
    AllTy, AnnTerm, App, BVar, Cons, Context, Diagnostic, EqTy, FVar,
    IfZeroTy, Join, Lam, Mode, NatTy, Nil, Node, PiTy, QApp, QLam, RNat,
    RVec, Span, Succ, TAppImp, TCast, TFoldS, TFoldZ, TJoin, TLam, TLamImp,
    TNil, TQApp, TQLam, TRNat, TRVec, TUnfoldS, TUnfoldZ, Ty, UnannTerm,
    VecTy, Zero, free_vars, fresh_name, frozen, numeral, tower,
)


class SourceError(Exception):
    """A diagnostic-carrying error from the frontend."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class ParseError(SourceError):
    pass


class ResolveError(SourceError):
    pass


# --------------------------------------------------------------------------
# keyword forms

# What follows the keyword of a form: an atom, or in brackets a term, a
# type, or a motive (a type after the variables it binds).  A motive is
# the tuple of the parse-error wordings of its variables, and a type the
# one that binds none; pieces compare by identity.  A form ends in an atom.
_ATOM, _TERM, _TYPE = "atom", "term", ()


def _form(keyword: str, cls: type, *pieces: object) -> tuple:
    """A row: the keyword, the class, `(piece, field, hint fields, space
    before)` for each piece but the last, and the field of the last."""
    assert pieces[-1] is _ATOM, keyword
    names, laid, prev = iter(cls.__match_args__), [], _ATOM
    for piece in pieces[:-1]:
        binds = piece if type(piece) is tuple else ()
        hints = tuple(next(names) for _ in binds)
        # a bracket that follows a bracket gets no space
        sep = "" if piece is not _ATOM and prev is not _ATOM else " "
        laid.append((piece, next(names), hints, sep))
        prev = piece
    return keyword, cls, tuple(laid), next(names)


# The keyword-headed forms.  `_Parser.head` reads the annotated ones and
# `_apply` prints them all; the erased `rnat` and `rvec` are printed only.
_FORMS = (
    _form("S", Succ, _ATOM),
    _form("cons", Cons, _ATOM, _ATOM),
    _form("join", TJoin, _ATOM, _ATOM),
    _form("rnat", TRNat, ("a motive variable",), _ATOM, _ATOM, _ATOM),
    _form("rvec", TRVec, ("the length motive variable",
                          "the vector motive variable"), _ATOM, _ATOM, _ATOM),
    _form("cast", TCast, ("a motive variable",), _ATOM, _ATOM),
    _form("foldz", TFoldZ, _TYPE, _ATOM),
    _form("unfoldz", TUnfoldZ, _ATOM),
    _form("folds", TFoldS, _TERM, _TYPE, _ATOM),
    _form("unfolds", TUnfoldS, _TERM, _ATOM),
    _form("rnat", RNat, _ATOM, _ATOM, _ATOM),
    _form("rvec", RVec, _ATOM, _ATOM, _ATOM),
)
_PARSED = {form[0]: form for form in _FORMS if form[1] in get_args(AnnTerm)}
_PRINTED = {form[1]: form for form in _FORMS}

_TYPE_KEYWORDS = frozenset({"Nat", "Vec", "Pi", "All", "ifzero"})
_BINDERS = {"fun": TLam, "ifun": TLamImp, "qfun": TQLam}
_KEYWORD = {Lam: "fun", **{cls: kw for kw, cls in _BINDERS.items()}}


# --------------------------------------------------------------------------
# lexer

KEYWORDS = frozenset(
    {"def", "mode", "assume", "zero", "nil", "large-elim"} | _TYPE_KEYWORDS
    | _BINDERS.keys() | {form[0] for form in _FORMS})

# Each match is the whitespace before a token, then the token; a comment
# is a token, which `tokenize` drops.  The token alternatives end in
# `\Z | .`, so one of them matches wherever the whitespace stops and the
# whitespace never gives back what it took: the matches cover the text
# without gaps, and the last one is the empty token at the end.  `\s`,
# `\w` and `\d` accept exactly the characters that `str.isspace`,
# `str.isalnum` (plus `_`) and `str.isdecimal` accept.
_TOKEN = re.compile(r"""
    ( \s* )
    ( --[^\n]* | large-elim(?![\w']) | @-\[ | @\[ | => | [()\[\]:.=]
    | \d+ | [^\W\d][\w']* | \Z | . )
""", re.VERBOSE | re.DOTALL)

# The kind of every token whose text fixes it: keywords, symbols, and the
# empty token at the end.
_KINDS = {word: word for word in KEYWORDS | {
    "@-[", "@[", "=>", "(", ")", "[", "]", ":", ".", "="}}
_KINDS[""] = "eof"

# A token is (kind, text, start, end); the kind is "ident", "number",
# "eof", or the keyword or symbol itself.
Tok = tuple[str, str, int, int]


def tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    end = 0
    for skip, word in _TOKEN.findall(text):
        start = end + len(skip)
        end = start + len(word)
        kind = _KINDS.get(word)
        if kind is None:
            # `[^\W\d]` also admits digits that are not decimal, such as
            # `²`; a word must start with a letter or `_`.
            first = word[0]
            if first.isdecimal():
                kind = "number"
            elif first.isalpha() or first == "_":
                kind = "ident"
            elif word[:2] == "--":
                continue
            else:
                raise ParseError(Diagnostic(
                    "lex", f"unexpected character {first!r}",
                    (start, start + 1), code="parse-error"))
        toks.append((kind, word, start, end))
    # After trailing whitespace the end matches once more.
    if len(toks) > 1 and toks[-2] == toks[-1]:
        toks.pop()
    return toks


# --------------------------------------------------------------------------
# source items


@frozen
class DefItem:
    name: str
    ty: Ty
    body: AnnTerm
    span: Span
    names: frozenset[str]   # the free names of `ty` and `body`


@frozen
class AssumeItem:
    name: str
    ty: Ty
    span: Span
    names: frozenset[str]   # the free names of `ty`


@frozen
class ModeItem:
    mode: Mode
    span: Span


Item = DefItem | AssumeItem | ModeItem


@frozen
class SourceFile:
    items: tuple[Item, ...]


# A numeral is a tower of one `S` node per unit, so a larger one is
# rejected before it is built.
MAX_NUMERAL = 100_000

_ATOM_STARTS = frozenset({"zero", "number", "ident", "nil", "("})


class _Parser:
    def __init__(self, toks: list[Tok]):
        self.toks = toks
        self.pos = 0
        # Names of the binders around the current token, innermost last.
        # Each binder pushes its names inline and pops them after its
        # scope, so that nesting costs no extra Python frame.
        self.scope: list[str] = []
        # Positions of a `(` where `( type )` failed.  Whether it fails
        # depends on the tokens alone (the scope only picks BVar or FVar),
        # so `type_` goes straight to the equation there on a retry; a
        # retry without it costs twice the work per level of nesting.
        self.not_a_type: set[int] = set()
        # The free names met in the current item, with repeats, or None
        # outside a file: only resolution reads them.
        self.names: list[str] | None = None

    def expect(self, kind: str, what: str | None = None) -> Tok:
        tok = self.toks[self.pos]
        if tok[0] != kind:
            shown = tok[1] or "end of input"
            self._err(f"expected {what or kind!r}, found {shown!r}", tok)
        self.pos += 1
        return tok

    def _err(self, message: str, tok: Tok):
        _, _, start, end = tok
        raise ParseError(Diagnostic("parse", message, (start, end),
                                    code="parse-error"))

    def _span(self, start: int) -> Span:
        """From `start` to the end of the last token taken."""
        return (start, self.toks[self.pos - 1][3])

    # -- items ---------------------------------------------------------

    def file(self) -> SourceFile:
        items: list[Item] = []
        while self.toks[self.pos][0] != "eof":
            items.append(self.item())
        return SourceFile(tuple(items))

    def item(self) -> Item:
        tok = self.toks[self.pos]
        kind, start = tok[0], tok[2]
        if kind == "mode":
            val = self.toks[self.pos + 1]
            self.pos += 2
            if val[0] == "large-elim":
                return ModeItem(Mode.LARGE_ELIM, self._span(start))
            if val[0] == "ident" and val[1] == "base":
                return ModeItem(Mode.BASE, self._span(start))
            self._err("mode must be 'base' or 'large-elim'", val)
        if kind == "assume" or kind == "def":
            self.pos += 1
            name = self.expect("ident", "a name")[1]
            self.expect(":")
            self.names = []
            ty = self.type_()
            if kind == "assume":
                return AssumeItem(name, ty, self._span(start),
                                  frozenset(self.names))
            self.expect("=")
            body = self.term()
            return DefItem(name, ty, body, self._span(start),
                           frozenset(self.names))
        self._err("expected 'def', 'assume', or 'mode'", tok)

    # -- types ---------------------------------------------------------

    def type_(self) -> Ty:
        kind = self.toks[self.pos][0]
        if kind in _TYPE_KEYWORDS:
            return self._type_keyword()
        if kind == "(" and self.pos not in self.not_a_type:
            save, depth = self.pos, len(self.scope)
            try:
                self.pos += 1
                inner = self.type_()
                self.expect(")")
                return inner
            except ParseError:  # may fail inside a binder's scope
                self.pos = save
                del self.scope[depth:]
                self.not_a_type.add(save)
        return self._equation()

    def _type_keyword(self) -> Ty:
        kind, _, start, end = self.toks[self.pos]
        self.pos += 1
        if kind == "Nat":
            return NatTy((start, end))
        if kind == "Vec":
            elem = self.tyatom()
            length = self._erased(self.atom)
            return VecTy(elem, length, self._span(start))
        if kind in ("Pi", "All"):
            name = self.expect("ident", "a bound variable")[1]
            self.expect(":")
            dom = self.type_()
            self.expect(".")
            self.scope.append(name)
            cod = self.type_()
            self.scope.pop()
            cls = PiTy if kind == "Pi" else AllTy
            return cls(name, dom, cod, self._span(start))
        if kind == "ifzero":
            scrut = self._erased(self.atom)
            on_zero = self.tyatom()
            on_succ = self.tyatom()
            return IfZeroTy(scrut, on_zero, on_succ, self._span(start))
        raise AssertionError(kind)

    def tyatom(self) -> Ty:
        tok = self.toks[self.pos]
        if tok[0] == "Nat":
            self.pos += 1
            return NatTy((tok[2], tok[3]))
        if tok[0] == "(":
            self.pos += 1
            ty = self.type_()
            self.expect(")")
            return ty
        self._err("expected a type", tok)

    def _equation(self) -> Ty:
        start = self.toks[self.pos][2]
        lhs = self._erased(self.apply)
        self.expect("=", "'=' (equation type)")
        rhs = self._erased(self.apply)
        return EqTy(lhs, rhs, self._span(start))

    def _erased(self, parse) -> UnannTerm:
        """The erasure of the term that `parse` reads.  In a file, the
        names recorded for it become those of the erasure, which differ
        only if erasure changed the term: it drops annotations, and may
        release a `#` name from an implicit binder."""
        names = self.names
        if names is None:
            return erase(parse())
        mark = len(names)
        t = parse()
        erased = erase(t)
        if erased is not t:
            del names[mark:]
            names += free_vars(erased)
        return erased

    # -- terms ---------------------------------------------------------

    def term(self) -> AnnTerm:
        kind, _, start, _ = self.toks[self.pos]
        cls = _BINDERS.get(kind)
        if cls is None:
            return self.apply()
        self.pos += 1
        name = self.expect("ident", "a bound variable")[1]
        self.expect(":")
        dom = self.type_()
        self.expect("=>")
        self.scope.append(name)
        body = self.term()
        self.scope.pop()
        return cls(name, dom, body, self._span(start))

    def apply(self) -> AnnTerm:
        start = self.toks[self.pos][2]
        return self._args(self.head(), start)

    def _args(self, t: AnnTerm, start: int) -> AnnTerm:
        """`t`, read from `start`, applied to the arguments that follow."""
        while True:
            kind = self.toks[self.pos][0]
            if kind in _ATOM_STARTS:
                arg = self.atom()
                t = App(t, arg, self._span(start))
            elif kind == "@[" or kind == "@-[":
                self.pos += 1
                arg = self.term()
                self.expect("]")
                cls = TAppImp if kind == "@[" else TQApp
                t = cls(t, arg, self._span(start))
            else:
                return t

    def head(self) -> AnnTerm:
        toks = self.toks
        kind, _, start, _ = toks[self.pos]
        # atoms, the common case, first; `atom` also reports a non-term
        if kind in _ATOM_STARTS or kind not in _PARSED:
            return self.atom()
        _, cls, pieces, _ = _PARSED[kind]
        # A chain of the form, as in `cons a (cons b ...)`: while the last
        # atom is `(` and the same keyword, the loop goes on into it, and
        # keeps the levels around in `outer`.  No Python frame per link.
        outer = None
        while True:
            self.pos += 1
            args: list = []
            for piece, _, _, _ in pieces:
                if piece is _ATOM:
                    args.append(self.atom())
                    continue
                self.expect("[")
                if piece is _TERM:
                    args.append(self.term())
                else:   # `x. y. type`, its variables in scope for the type
                    depth = len(self.scope)
                    for what in piece:
                        self.scope.append(self.expect("ident", what)[1])
                        self.expect(".")
                    args += self.scope[depth:]
                    args.append(self.type_())
                    del self.scope[depth:]
                self.expect("]")
            if toks[self.pos][0] != "(" or toks[self.pos + 1][0] != kind:
                break
            if outer is None:
                outer = []
            outer.append((args, start))
            self.pos += 1
            start = toks[self.pos][2]
        args.append(self.atom())
        t = cls(*args, self._span(start))
        if outer is None:
            return t
        # Each link closes as `( term )` does around the level within it.
        for args, outer_start in reversed(outer):
            t = self._args(t, start)
            self.expect(")")
            args.append(t)
            t, start = cls(*args, self._span(outer_start)), outer_start
        return t

    def atom(self) -> AnnTerm:
        tok = self.toks[self.pos]
        kind, text, start, end = tok
        if kind == "ident":
            self.pos += 1
            if text in self.scope:
                # the distance to the innermost binder of that name
                return BVar(self.scope[::-1].index(text), (start, end))
            names = self.names
            if names is not None:
                names.append(text)
            return FVar(text, (start, end))
        if kind == "(":
            self.pos += 1
            t = self.term()
            self.expect(")")
            return t
        if kind == "number":
            self.pos += 1
            try:
                n = int(text)
            except ValueError:  # more digits than `int` converts
                n = MAX_NUMERAL + 1
            if n > MAX_NUMERAL:
                self._err(f"numeral is larger than {MAX_NUMERAL}", tok)
            span = (start, end)
            t = Zero(span)
            return tower(n, t, span) if n else t    # most numerals are 0
        if kind == "zero":
            self.pos += 1
            return Zero((start, end))
        if kind == "nil":
            self.pos += 1
            self.expect("[")
            elem = self.type_()
            self.expect("]")
            return TNil(elem, self._span(start))
        self._err("expected a term", tok)


def parse(text: str) -> SourceFile:
    """Parse a .tvec source file."""
    return _Parser(tokenize(text)).file()


def parse_term(text: str) -> AnnTerm:
    """Parse a standalone annotated term."""
    p = _Parser(tokenize(text))
    t = p.term()
    p.expect("eof", "end of input")
    return t


def parse_type(text: str) -> Ty:
    """Parse a standalone type."""
    p = _Parser(tokenize(text))
    ty = p.type_()
    p.expect("eof", "end of input")
    return ty


# --------------------------------------------------------------------------
# pretty-printer


def pretty(node: Node) -> str:
    """Canonical text for a term or type, with minimal parentheses."""
    return (_ty if node.__class__ in _TY else _term)(node, ())


def _bind(hint: str, body: Node, env: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
    # Avoid every visible name, not just the body's free ones: the body may
    # reach an enclosing binder through an index, and capturing its printed
    # name would change the term on reparse.
    name = fresh_name(hint, free_vars(body) | set(env))
    return name, (name,) + env


# A class that a level's table lacks falls through to the level below;
# at the atoms, the rest take parentheses.

def _term(t: Node, env: tuple[str, ...]) -> str:
    return _BINDER.get(t.__class__, _apply)(t, env)


def _apply(t: Node, env: tuple[str, ...]) -> str:
    return _APPLY.get(t.__class__, _atom)(t, env)


def _atom(t: Node, env: tuple[str, ...]) -> str:
    printer = _ATOM_OF.get(t.__class__)
    return printer(t, env) if printer else f"({_term(t, env)})"


def _ty(ty: Node, env: tuple[str, ...]) -> str:
    printer = _TY.get(ty.__class__)
    if printer is None:
        raise TypeError(f"not a type: {ty!r}")
    return printer(ty, env)


def _binder(t: TLam | TLamImp | TQLam | Lam, env: tuple[str, ...]) -> str:
    name, inner = _bind(t.hint, t.body, env)
    dom = "" if t.__class__ is Lam else f" : {_ty(t.dom, env)}"
    return f"{_KEYWORD[t.__class__]} {name}{dom} => {_term(t.body, inner)}"


def _numeral(t: Succ | Zero, env: tuple[str, ...], laid: str = "{}") -> str:
    # decided once per tower: once per level is quadratic
    n, base = numeral(t)
    return str(n) if base.__class__ is Zero else laid.format(_laid(t, env))


def _laid(t: Node, env: tuple[str, ...]) -> str:
    # By its row.  While the last atom has the same form, as in `cons a
    # (cons b ...)`, the loop goes on into it: no Python frame per link.
    keyword, cls, pieces, last = _PRINTED[t.__class__]
    out, depth = [], 0
    while True:
        out.append(keyword)
        for piece, name, hints, sep in pieces:
            value = getattr(t, name)
            if piece is _ATOM:
                out.append(f"{sep}{_atom(value, env)}")
            elif piece is _TERM:
                out.append(f"{sep}[{_term(value, env)}]")
            else:   # a type, its variables named against it
                out.append(f"{sep}[")
                menv = env
                for hint in hints:
                    bound, menv = _bind(getattr(t, hint), value, menv)
                    out.append(f"{bound}. ")
                out.append(f"{_ty(value, menv)}]")
        t = getattr(t, last)
        if t.__class__ is not cls:
            out.append(f" {_atom(t, env)}")
            return "".join(out) + ")" * depth
        out.append(" (")
        depth += 1


def _product(ty: PiTy | AllTy, env: tuple[str, ...]) -> str:
    name, inner = _bind(ty.hint, ty.cod, env)
    kw = "Pi" if ty.__class__ is PiTy else "All"
    return f"{kw} {name} : {_ty(ty.dom, env)}. {_ty(ty.cod, inner)}"


_BINDER = {TLam: _binder, TLamImp: _binder, TQLam: _binder, Lam: _binder,
           QLam: lambda t, env: f"qfun => {_term(t.body, env)}"}
_APPLY = {
    **dict.fromkeys(_PRINTED, _laid), Succ: _numeral, Zero: _numeral,
    App: lambda t, env: f"{_apply(t.fn, env)} {_atom(t.arg, env)}",
    TAppImp: lambda t, env: f"{_apply(t.fn, env)} @[{_term(t.arg, env)}]",
    TQApp: lambda t, env: f"{_apply(t.fn, env)} @-[{_term(t.witness, env)}]",
    QApp: lambda t, env: f"{_apply(t.fn, env)} @-[]",
}
_ATOM_OF = {
    Succ: lambda t, env: _numeral(t, env, "({})"),
    Zero: _numeral, FVar: lambda t, env: t.name,
    BVar: lambda t, env: env[t.index] if t.index < len(env) else f"?{t.index}",
    TNil: lambda t, env: f"nil[{_ty(t.elem, env)}]",
    Nil: lambda t, env: "nil", Join: lambda t, env: "join",
}
_TY = {
    NatTy: lambda ty, env: "Nat", PiTy: _product, AllTy: _product,
    VecTy: lambda ty, env: f"Vec {_tyatom(ty.elem, env)} {_atom(ty.length, env)}",
    EqTy: lambda ty, env: f"{_apply(ty.lhs, env)} = {_apply(ty.rhs, env)}",
    IfZeroTy: lambda ty, env: (f"ifzero {_atom(ty.scrut, env)} "
                               f"{_tyatom(ty.on_zero, env)} "
                               f"{_tyatom(ty.on_succ, env)}"),
}


def _tyatom(ty: Node, env: tuple[str, ...]) -> str:
    return "Nat" if ty.__class__ is NatTy else f"({_ty(ty, env)})"


# --------------------------------------------------------------------------
# definition resolution


@frozen
class ResolvedDef:
    name: str
    ty: Ty              # declared type with earlier defs inlined
    body: AnnTerm       # body with earlier defs inlined
    erased: UnannTerm   # erase(body)
    declared: Ty        # the type as written, for reports
    span: Span


@frozen
class ResolvedFile:
    mode: Mode
    assumptions: Context
    defs: tuple[ResolvedDef, ...]


def _needed(source: SourceFile, name: str) -> set[str]:
    """The names that `name` and the assumed types reach through the
    items' free names, the defs to resolve among them.  In a file that
    resolves, items name only earlier items: one backward pass will do."""
    needed = {name}
    for item in reversed(source.items):
        if isinstance(item, AssumeItem) or (isinstance(item, DefItem)
                                            and item.name in needed):
            needed |= item.names
    return needed


def resolve_defs(source: SourceFile, mode_override: Mode | None = None,
                 name: str | None = None) -> ResolvedFile:
    """Inline definitions and collect assumptions.

    Each def or assume may reference only earlier defs, earlier assumes,
    and its own binders; any other free name of its type or body (the
    names the parser recorded) is an unknown reference, or a recursive one
    if it names the def itself.  A `#` name there was released from an
    implicit binder when the parser erased a term inside a type, and is
    reported as the checker reports it: a bound variable that survives
    erasure.

    A resolved item mentions only assumed names and the `#` names that
    erasure releases (see `tvec.erase`), which no def can take and which
    the checker rejects.  So every earlier def an item names is inlined in
    one walk of the item as written (`erase.inline`), and no inlined body
    is walked again: resolution is linear in the text.  Each body is
    erased once, when its def is resolved; that erasure fills the def's
    type positions, and goes into the table `erasures`, from the body's
    id, that the erasure of each later body is given.  So `erase` answers
    it wherever a later body inlines the body, which is walked once, and
    the erasures share it as the bodies do.

    With `name`, only the defs that `name` or an assumed type reaches are
    inlined and erased, and `defs` holds just those.  Every item has its
    names checked either way, so the errors are those of the whole file.
    """
    needed = None if name is None else _needed(source, name)
    mode: Mode | None = None
    assumptions: list[tuple[str, Ty]] = []
    bound: set[str] = set()     # the names of the earlier defs and assumes
    resolved: list[ResolvedDef] = []
    defs: dict[str, tuple[AnnTerm, UnannTerm]] = {}  # name -> body, erasure
    erasures: dict[int, UnannTerm] = {}     # id(body) -> its erasure

    def fail(message: str, span: Span, code: str):
        raise ResolveError(Diagnostic("resolve", message, span, code=code))

    for item in source.items:
        if isinstance(item, ModeItem):
            if mode is not None:
                fail("duplicate mode pragma", item.span, "duplicate-pragma")
            mode = item.mode
            continue
        item_name, span, names = item.name, item.span, item.names
        if item_name in bound:
            fail(f"duplicate name {item_name}", span, "duplicate-name")
        loose = names - bound
        kind = "def" if isinstance(item, DefItem) else "assume"
        if kind == "def" and item_name in loose:
            fail(f"def {item_name} refers to itself; definitions are "
                 "non-recursive", span, "recursive-definition")
        unknown = sorted(n for n in loose if "#" not in n)
        if unknown:
            fail(f"{kind} {item_name} mentions unknown names: "
                 f"{', '.join(unknown)}", span, "unknown-name")
        if loose:   # only erasure makes a `#` name, from the binder's hint
            fail(f"bound variable {min(loose).split('#')[0]} survives "
                 "erasure; it may only occur in annotations", span,
                 "erased-occurrence")
        bound.add(item_name)
        if needed is not None and kind == "def" and item_name not in needed:
            continue
        named = not defs.keys().isdisjoint(names)
        ty = inline(item.ty, defs) if named else item.ty
        if kind == "assume":
            assumptions.append((item_name, ty))
            continue
        body = inline(item.body, defs) if named else item.body
        erased = erasures[id(body)] = erase(body, erasures)
        defs[item_name] = body, erased
        resolved.append(
            ResolvedDef(item_name, ty, body, erased, item.ty, span))

    return ResolvedFile(mode_override or mode or Mode.BASE,
                        Context(tuple(assumptions)), tuple(resolved))
