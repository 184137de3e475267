"""Reference parser, kept independent of the scope list in `tvec.frontend`.

This is the parser `tvec.frontend` had before it bound names while
parsing: it builds each binder body with its bound names as `FVar`s and
then closes the binder by walking the whole body (`close1`/`close_at` of
`locally_nameless`, not a walker of `tvec`).  Terms inside types are
erased before the enclosing binder closes them, so a name that erasure
releases from an ill-typed implicit binder can be captured by an outer
binder of the same name; `tvec.frontend` leaves it free.  Apart from that
case, `test_frontend.py` checks that both parsers give equal terms, binder
hints and spans, and the same error at the same span.  It finds an
item's free names by walking the finished item (`free_names`), where
`tvec.frontend` records them while it parses.

It lexes with `reference_lexer`, not with `tvec.frontend.tokenize`, so the
pair checks the production lexer and parser together against code that
shares none of theirs.
"""

from __future__ import annotations

from typing import NamedTuple

from tvec.erase import erase
from tvec.frontend import (
    MAX_NUMERAL, ParseError, SourceFile, AssumeItem, DefItem, Item, ModeItem,
)
from tvec.syntax import (
    AllTy, AnnTerm, EqTy, FVar, IfZeroTy, NatTy, PiTy, Span, App, TAppImp,
    TCast, Cons, TFoldS, TFoldZ, TJoin, TLam, TLamImp, TNil, TQApp, TQLam,
    TRNat, TRVec, Succ, TUnfoldS, TUnfoldZ, Zero, Ty, VecTy,
)
from tvec.typecheck import Diagnostic, Mode

from locally_nameless import close1, close_at, free_names
from reference_lexer import tokenize

_ATOM_STARTS = frozenset({"zero", "number", "ident", "nil", "("})
_TYPE_KEYWORDS = frozenset({"Nat", "Vec", "Pi", "All", "ifzero"})


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int

    @property
    def span(self) -> Span:
        return (self.start, self.end)


class _Parser:
    def __init__(self, toks: list[tuple[str, str, int, int]]):
        self.toks = [Token(*tok) for tok in toks]
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            self._err(f"expected {what or kind!r}, found {shown!r}", tok)
        return self.next()

    def _err(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(Diagnostic("parse", message, tok.span,
                                    code="parse-error"))

    # -- items ---------------------------------------------------------

    def file(self) -> SourceFile:
        items: list[Item] = []
        while not self.at("eof"):
            items.append(self.item())
        return SourceFile(tuple(items))

    def item(self) -> Item:
        tok = self.peek()
        if tok.kind == "mode":
            self.next()
            val = self.next()
            if val.kind == "large-elim":
                return ModeItem(Mode.LARGE_ELIM, (tok.start, val.end))
            if val.kind == "ident" and val.text == "base":
                return ModeItem(Mode.BASE, (tok.start, val.end))
            self._err("mode must be 'base' or 'large-elim'", val)
        if tok.kind == "assume":
            self.next()
            name = self.expect("ident", "a name")
            self.expect(":")
            ty = self.type_()
            return AssumeItem(name.text, ty, (tok.start, self._prev_end()),
                              free_names(ty))
        if tok.kind == "def":
            self.next()
            name = self.expect("ident", "a name")
            self.expect(":")
            ty = self.type_()
            self.expect("=")
            body = self.term()
            return DefItem(name.text, ty, body,
                           (tok.start, self._prev_end()),
                           free_names(ty) | free_names(body))
        self._err("expected 'def', 'assume', or 'mode'", tok)

    def _prev_end(self) -> int:
        return self.toks[self.pos - 1].end

    # -- types ---------------------------------------------------------

    def type_(self) -> Ty:
        tok = self.peek()
        if tok.kind in _TYPE_KEYWORDS:
            return self._type_keyword()
        if tok.kind == "(":
            save = self.pos
            try:
                self.next()
                inner = self.type_()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = save
        return self._equation()

    def _type_keyword(self) -> Ty:
        tok = self.next()
        if tok.kind == "Nat":
            return NatTy(span=tok.span)
        if tok.kind == "Vec":
            elem = self.tyatom()
            length = self.atom()
            return VecTy(elem, erase(length),
                         span=(tok.start, self._prev_end()))
        if tok.kind in ("Pi", "All"):
            name = self.expect("ident", "a bound variable")
            self.expect(":")
            dom = self.type_()
            self.expect(".")
            cod = self.type_()
            cls = PiTy if tok.kind == "Pi" else AllTy
            return cls(name.text, dom, close1(cod, name.text),
                       span=(tok.start, self._prev_end()))
        if tok.kind == "ifzero":
            scrut = self.atom()
            on_zero = self.tyatom()
            on_succ = self.tyatom()
            return IfZeroTy(erase(scrut), on_zero, on_succ,
                            span=(tok.start, self._prev_end()))
        raise AssertionError(tok)

    def tyatom(self) -> Ty:
        tok = self.peek()
        if tok.kind == "Nat":
            self.next()
            return NatTy(span=tok.span)
        if tok.kind == "(":
            self.next()
            ty = self.type_()
            self.expect(")")
            return ty
        self._err("expected a type", tok)

    def _equation(self) -> Ty:
        start = self.peek().start
        lhs = self.apply()
        self.expect("=", "'=' (equation type)")
        rhs = self.apply()
        return EqTy(erase(lhs), erase(rhs), span=(start, self._prev_end()))

    # -- terms ---------------------------------------------------------

    def term(self) -> AnnTerm:
        tok = self.peek()
        if tok.kind in ("fun", "ifun", "qfun"):
            self.next()
            name = self.expect("ident", "a bound variable")
            self.expect(":")
            dom = self.type_()
            self.expect("=>")
            body = self.term()
            cls = {"fun": TLam, "ifun": TLamImp, "qfun": TQLam}[tok.kind]
            return cls(name.text, dom, close1(body, name.text),
                       span=(tok.start, self._prev_end()))
        return self.apply()

    def apply(self) -> AnnTerm:
        start = self.peek().start
        t = self.head()
        while True:
            tok = self.peek()
            if tok.kind in _ATOM_STARTS:
                arg = self.atom()
                t = App(t, arg, span=(start, self._prev_end()))
            elif tok.kind == "@[":
                self.next()
                arg = self.term()
                self.expect("]")
                t = TAppImp(t, arg, span=(start, self._prev_end()))
            elif tok.kind == "@-[":
                self.next()
                arg = self.term()
                self.expect("]")
                t = TQApp(t, arg, span=(start, self._prev_end()))
            else:
                return t

    def head(self) -> AnnTerm:
        tok = self.peek()
        kind = tok.kind
        if kind == "S":
            self.next()
            return Succ(self.atom(), span=(tok.start, self._prev_end()))
        if kind == "cons":
            self.next()
            head = self.atom()
            tail = self.atom()
            return Cons(head, tail, span=(tok.start, self._prev_end()))
        if kind == "join":
            self.next()
            lhs = self.atom()
            rhs = self.atom()
            return TJoin(lhs, rhs, span=(tok.start, self._prev_end()))
        if kind == "rnat":
            self.next()
            self.expect("[")
            var = self.expect("ident", "a motive variable")
            self.expect(".")
            motive = self.type_()
            self.expect("]")
            base = self.atom()
            step = self.atom()
            scrut = self.atom()
            return TRNat(var.text, close1(motive, var.text), base, step,
                         scrut, span=(tok.start, self._prev_end()))
        if kind == "rvec":
            self.next()
            self.expect("[")
            lvar = self.expect("ident", "the length motive variable")
            self.expect(".")
            vvar = self.expect("ident", "the vector motive variable")
            self.expect(".")
            motive = self.type_()
            self.expect("]")
            base = self.atom()
            step = self.atom()
            scrut = self.atom()
            closed = close_at(close_at(motive, 0, vvar.text), 1, lvar.text)
            return TRVec(lvar.text, vvar.text, closed, base, step, scrut,
                         span=(tok.start, self._prev_end()))
        if kind == "cast":
            self.next()
            self.expect("[")
            var = self.expect("ident", "a motive variable")
            self.expect(".")
            motive = self.type_()
            self.expect("]")
            proof = self.atom()
            body = self.atom()
            return TCast(var.text, close1(motive, var.text), proof, body,
                         span=(tok.start, self._prev_end()))
        if kind == "foldz":
            self.next()
            self.expect("[")
            other = self.type_()
            self.expect("]")
            body = self.atom()
            return TFoldZ(other, body, span=(tok.start, self._prev_end()))
        if kind == "unfoldz":
            self.next()
            body = self.atom()
            return TUnfoldZ(body, span=(tok.start, self._prev_end()))
        if kind == "folds":
            self.next()
            self.expect("[")
            witness = self.term()
            self.expect("]")
            self.expect("[")
            zero_ty = self.type_()
            self.expect("]")
            body = self.atom()
            return TFoldS(witness, zero_ty, body,
                          span=(tok.start, self._prev_end()))
        if kind == "unfolds":
            self.next()
            self.expect("[")
            witness = self.term()
            self.expect("]")
            body = self.atom()
            return TUnfoldS(witness, body,
                            span=(tok.start, self._prev_end()))
        return self.atom()

    def atom(self) -> AnnTerm:
        tok = self.peek()
        if tok.kind == "zero":
            self.next()
            return Zero(span=tok.span)
        if tok.kind == "number":
            self.next()
            try:
                n = int(tok.text)
            except ValueError:  # more digits than `int` converts
                n = MAX_NUMERAL + 1
            if n > MAX_NUMERAL:
                self._err(f"numeral is larger than {MAX_NUMERAL}", tok)
            span = tok.span
            t: AnnTerm = Zero(span=span)
            for _ in range(n):
                t = Succ(t, span=span)
            return t
        if tok.kind == "ident":
            self.next()
            return FVar(tok.text, span=tok.span)
        if tok.kind == "nil":
            self.next()
            self.expect("[")
            elem = self.type_()
            self.expect("]")
            return TNil(elem, span=(tok.start, self._prev_end()))
        if tok.kind == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
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
