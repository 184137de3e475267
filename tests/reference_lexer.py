"""Reference lexer, kept independent of the compiled pattern in `tvec.frontend`.

This is the character-at-a-time lexer that the single-regex `tokenize`
replaced: it tries whitespace, a comment, `large-elim`, each symbol, a
number and a word at every position, in that order.  `test_frontend.py`
checks that `tokenize` gives the same tokens, and the same error at the
same offset, on random text.  Like `tokenize`, it emits plain
`(kind, text, start, end)` tuples, and it keeps its own keyword list.
"""

from __future__ import annotations

from tvec.frontend import ParseError
from tvec.typecheck import Diagnostic

KEYWORDS = frozenset({
    "def", "mode", "assume", "Nat", "Vec", "Pi", "All", "ifzero", "fun",
    "ifun", "qfun", "zero", "S", "nil", "cons", "rnat", "rvec", "join",
    "cast", "foldz", "unfoldz", "folds", "unfolds",
})
_SYMBOLS = ("@-[", "@[", "=>", "(", ")", "[", "]", ":", ".", "=")


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_cont(ch: str) -> bool:
    return ch.isalnum() or ch in "_'"


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    toks: list[tuple[str, str, int, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("large-elim", i) and (
                i + 10 >= n or not _is_ident_cont(text[i + 10])):
            toks.append(("large-elim", "large-elim", i, i + 10))
            i += 10
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append((sym, sym, i, i + len(sym)))
                i += len(sym)
                break
        else:
            if ch.isdecimal():
                j = i
                while j < n and text[j].isdecimal():
                    j += 1
                toks.append(("number", text[i:j], i, j))
                i = j
            elif _is_ident_start(ch):
                j = i
                while j < n and _is_ident_cont(text[j]):
                    j += 1
                word = text[i:j]
                kind = word if word in KEYWORDS else "ident"
                toks.append((kind, word, i, j))
                i = j
            else:
                raise ParseError(Diagnostic(
                    "lex", f"unexpected character {ch!r}", (i, i + 1),
                    code="parse-error"))
    toks.append(("eof", "", n, n))
    return toks
