"""Seeded token-level mutants of the example files, run through the
command line and compared with the reference resolver and checker.

A mutant makes one or two token edits to `examples/vec.tvec` or
`examples/quodlibet.tvec`: it deletes, duplicates or swaps a token,
inserts one or puts one in its place, drawn from the tokens of both files
and the keywords or from the tokens like it.  Every mutant runs through
`cli.main` as `check`, `check --json`, `erase` and `eval` (call-by-value)
of one of the file's def names, and each must exit 0, 1 or 2 without a
traceback.  A seeded share of the mutants is also resolved by
`reference_resolve` and, where it resolves, checked def by def by
`reference_checker`: the verdicts and the types must be those of
`resolve_defs` and of one sharing checker for the file, as `tvec check`
makes it.  The counts keep the file under five seconds.
"""

import random

import pytest

import reference_checker
import reference_resolve
from conftest import QUODLIBET_PATH, VEC_PATH
from reference_lexer import KEYWORDS, tokenize
from test_frontend import _resolved_or_error
from tvec.cli import main
from tvec.frontend import DefItem, ParseError, parse, resolve_defs
from tvec.syntax import alpha_eq
from tvec.typecheck import Checker, Inferred

SEED = 26
MUTANTS = 200           # per file
COMPARED = 0.3          # the share of mutants compared with the references

TEXTS = {path.name: path.read_text(encoding="utf-8")
         for path in (VEC_PATH, QUODLIBET_PATH)}


def _pieces(text: str) -> list[tuple[str, str, str]]:
    """`text` as (the text before the token, kind, token) triples;
    comments stay in the text before the next token."""
    pieces, end = [], 0
    for kind, token, start, stop in tokenize(text)[:-1]:  # without `eof`
        pieces.append((text[end:start], kind, token))
        end = stop
    return pieces


# The tokens of both files and the keywords; and groups of tokens that
# can stand in for each other: the names, the numbers, and the keywords of
# one form.
POOL = sorted({token for text in TEXTS.values()
               for _, _, token in _pieces(text)} | KEYWORDS)
ALIKE = {token: group for group in [
    *(sorted({token for text in TEXTS.values()
              for _, k, token in _pieces(text) if k == kind})
      for kind in ("ident", "number")),
    ["Pi", "All"], ["fun", "ifun", "qfun"], ["@[", "@-["],
    ["foldz", "unfoldz"], ["folds", "unfolds"]] for token in group}


def _mutant(pieces: list[tuple[str, str, str]], rng: random.Random) -> str:
    """One or two token edits of a file's `pieces`.  Half the edits put a
    token in place of one like it (`ALIKE`), which keeps most mutants
    parsing, so that the checker sees them."""
    pieces = list(pieces)
    for _ in range(rng.randint(1, 2)):
        edit = rng.randrange(10)
        if edit >= 5:
            i = rng.choice([i for i, (_, _, token) in enumerate(pieces)
                            if token in ALIKE])
        else:
            i = rng.randrange(len(pieces))
        before, kind, token = pieces[i]
        if edit == 0:
            pieces[i] = before, kind, ""
        elif edit == 1:
            pieces.insert(i + 1, (" ", kind, token))
        elif edit == 2:
            pieces[i] = before, kind, rng.choice(POOL)
        elif edit == 3:
            pieces.insert(i, (" ", kind, rng.choice(POOL)))
        elif edit == 4:
            j = min(i + 1, len(pieces) - 1)
            pieces[i], pieces[j] = ((before, *pieces[j][1:]),
                                    (pieces[j][0], kind, token))
        else:
            pieces[i] = before, kind, rng.choice(ALIKE[token])
    return "".join(before + token for before, _, token in pieces) + "\n"


def _agree(text: str) -> int:
    """The references resolve and check `text` as tvec does; the number of
    defs checked."""
    try:
        source = parse(text)
    except ParseError:
        return 0
    got = _resolved_or_error(resolve_defs, source)
    want = _resolved_or_error(reference_resolve.resolve_defs, source)
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert got == want
        return 0
    assert [d.name for d in got.defs] == [d.name for d in want.defs]
    checker = Checker(mode=got.mode, defs=got.defs)
    reference = reference_checker.Checker(mode=want.mode)
    for mine, theirs in zip(got.defs, want.defs):
        res = checker.check_against(got.assumptions, mine.body, mine.ty)
        ref = reference.check_against(want.assumptions, theirs.body,
                                      theirs.ty)
        assert type(res) is type(ref), mine.name
        if isinstance(ref, Inferred):
            assert alpha_eq(res.type, ref.type), mine.name
    return len(got.defs)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_mutants(name, tmp_path, capsys):
    text = TEXTS[name]
    rng = random.Random(f"{SEED}/{name}")
    pieces = _pieces(text)
    defs = [item.name for item in parse(text).items
            if isinstance(item, DefItem)]
    path = tmp_path / name
    statuses, checked = set(), 0
    for _ in range(MUTANTS):
        mutant = _mutant(pieces, rng)
        path.write_text(mutant, encoding="utf-8")
        target = rng.choice(defs)
        for argv in (["check"], ["check", "--json"], ["erase", target],
                     ["eval", target]):
            argv = [argv[0], str(path), *argv[1:]]
            status = main(argv)
            err = capsys.readouterr().err
            assert status in (0, 1, 2), (argv, mutant)
            assert "Traceback" not in err, (argv, mutant)
            statuses.add(status)
        if rng.random() < COMPARED:
            checked += _agree(mutant)
    assert statuses == {0, 1, 2}
    assert checked >= MUTANTS // 4     # the references saw the checker
