"""Print a stable transcript of the `tvec` command line.

    python3 tests/cli_transcript.py > transcript.txt
    python3 tests/cli_transcript.py --update   # rewrite GOLDEN

Runs `tvec.cli.main` in one process on every example, every benchmark
program, a 200-cell vector literal and a set of broken files, and prints
for each invocation its command line, exit status, stdout and stderr.
The invocations are `check`, `eval` (cbv and full, each with and without
`--trace`) and `erase`, each
with and without `--json`, plus `selftest --size 6 --json` in each mode
with the timings removed, and last `check`, `eval` and `erase` of the last
def of a short chain of defs that each name two earlier ones.  The `tvec`
package is imported from the `src/` directory next to this script's
directory, so running the script of one checkout on another checkout means
copying it there.  Two checkouts whose command lines behave alike print the
same bytes, so a change that must not alter any output is checked with one
`diff`.

`GOLDEN`, `tests/golden/cli_transcript.txt`, holds the transcript that the
current command line must print; `tests/test_cli_transcript.py` compares the
two.  A change that alters output rewrites it with `--update`, and its diff
shows each changed invocation.

Pytest does not collect this file; `tests/test_frontend.py` imports
`BROKEN`, `FAMILY` and `two_name_chain` from it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_transcript.txt"

# Files that fail to load, or that load only in part of their defs, most
# with a def before the fault; `eval` and `erase` of that def must report
# the same error as `check`.  The last ones fail to check.
BROKEN = {
    "later_unknown_in_body": """
def a : Nat = 0
def b : Nat = a
def c : Nat = zz
""",
    "later_unknown_in_type": """
def a : Nat = 0
def c : Vec Nat zz = nil [Nat]
""",
    "later_duplicate": """
def a : Nat = 0
def b : Nat = 1
def a : Nat = 2
""",
    "later_recursive": """
def a : Nat = 0
def r : Nat = S r
""",
    "later_recursive_type": """
def a : Nat = 0
def v : Vec Nat v = nil [Nat]
""",
    "forward_reference": """
def a : Nat = 0
def x : Nat = y
def y : Nat = 0
""",
    "bad_assume_after": """
def a : Nat = 0
assume h : Vec Nat zz
""",
    "duplicate_assume_after": """
def a : Nat = 0
assume a : Nat
""",
    "duplicate_mode_after": """
mode base
def a : Nat = 0
mode base
""",
    "parse_error_after": """
def a : Nat = 0
def b : Nat = (
""",
    # `f` erases to the `b` that its ill-typed implicit body releases, and
    # `g`'s type then takes the later `b`
    "stray_cascade": """
def f : Nat = ifun b : Nat => b
def b : Nat = 0
def g : Vec Nat f = nil [Nat]
""",
    "stray_before_its_name": """
def b : Nat = 0
def f : Nat = ifun b : Nat => b
def g : Vec Nat f = nil [Nat]
""",
    "stray_unbound": """
def a : Nat = 0
def f : Nat = ifun b : Nat => b
def g : Vec Nat f = nil [Nat]
""",
    "stray_unbound_in_annotation": """
def a : Nat = 0
def f : Nat = ifun b : Nat => b
def g : Nat = (fun v : Vec Nat f => 0) (nil [Nat])
""",
    "stray_at_term_position": """
def f : Nat = ifun b : Nat => b
def h : Nat = f
def b : Nat = 0
def k : Nat = S h
""",
    "stray_in_annotation": """
def f : Nat = ifun b : Nat => b
def b : Nat = 0
def g : Nat = (fun v : Vec Nat f => 0) (nil [Nat])
""",
    # the README's edge case: the length's `b` is released, not the Pi's
    "released_in_pi": """
def a : Nat = 0
assume h : Pi b : Nat. Vec Nat (ifun b : Nat => b)
""",
    "released_in_def_type": """
def a : Nat = 0
def k : Pi b : Nat. Vec Nat (ifun b : Nat => b) = fun b : Nat => nil [Nat]
""",
    # `f` releases `b#`, not the assumed `b`, so `g` does not take `h`'s
    # type `Vec Nat b`
    "released_meets_assumption": """
def a : Nat = 0
assume b : Nat
assume h : Vec Nat b
def f : Nat = ifun b : Nat => b
def g : Vec Nat f = h
""",
    "ill_typed_later": """
def a : Nat = 0
def bad : Nat = nil [Nat]
""",
    # a numeral as deep as this once ran out of stack; it checks now
    "deep_numeral_later": """
def a : Nat = 0
def n : Nat = 1000
""",
    # parsing still spends frames per parenthesis: the stack runs out
    "deep_parens_later": """
def a : Nat = 0
def n : Nat = """ + "(" * 3000 + "0" + ")" * 3000 + "\n",
    # the notes of a join print both normal forms
    "join_distinct": """
def j : 0 = 1 = join 0 1
""",
    # ... under the binders, the inner `x` named `x'`
    "join_distinct_shadowed": """
def s : Pi x : Nat. Pi x : Nat. S x = x =
  fun x : Nat => fun x : Nat => join (S x) x
""",
}

# A file like the benchmark's families: vec.tvec and closed defs over it.
FAMILY = """
def sum3 : plus 3 3 = 6 = join (plus 3 3) 6
def sumVal3 : Nat = plus 3 3
def a3 : Vec Nat 3 = cons 1 (cons 0 (cons 3 (nil [Nat])))
def b3 : Vec Nat 3 = cons 2 (cons 2 (cons 0 (nil [Nat])))
def ab3 : Vec Nat (plus 3 3) = append @[3] @[3] a3 b3
def abLit3 : Vec Nat 6 =
  cons 1 (cons 0 (cons 3 (cons 2 (cons 2 (cons 0 (nil [Nat]))))))
def abEq3 : append a3 b3 = abLit3 = join (append @[3] @[3] a3 b3) abLit3
"""

# A written vector literal of 200 cells, a parenthesis per cell.
LITERAL = ("def v : Vec Nat 200 =\n  "
           + "".join(f"cons {i % 7} (" for i in range(200))
           + "nil [Nat]" + ")" * 200 + "\n")


def two_name_chain(levels: int) -> str:
    """`a0`, `b0`, then for each level i up to `levels` an `a<i>` and a
    `b<i>` that each name both defs of the level below.  Inlined, the last
    def is a tree of 2**levels leaves that shares its subtrees."""
    lines = ["def a0 : Nat = 0", "def b0 : Nat = 1"]
    for i in range(1, levels + 1):
        for x, y in ("ab", "ba"):
            lines.append(f"def {x}{i} : Nat = rnat [x. Nat] {x}{i - 1} "
                         f"(fun y : Nat => fun u : Nat => u) {y}{i - 1}")
    return "\n".join(lines) + "\n"


# Only the last def of the chain is run: its erasure prints a tree.
CHAIN_FILE, CHAIN_LAST = "programs/chain6.tvec", "a6"


def _files(workdir: Path) -> list[str]:
    """Write every input under `workdir`; their paths relative to it."""
    sources = {f"examples/{p.name}": p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "examples").glob("*.tvec"))}
    sources.update(
        (f"programs/{p.name}", p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "perfbench" / "programs").glob("*.tvec")))
    sources["programs/family3.tvec"] = sources["programs/vec.tvec"] + FAMILY
    sources["programs/literal200.tvec"] = LITERAL
    sources.update((f"broken/{label}.tvec", text)
                   for label, text in BROKEN.items())
    for rel, text in sources.items():
        (workdir / rel).parent.mkdir(parents=True, exist_ok=True)
        (workdir / rel).write_text(text, encoding="utf-8")
    (workdir / "broken/not_utf8.tvec").write_bytes(b"def n : Nat = \xff\n")
    (workdir / CHAIN_FILE).write_text(two_name_chain(6), encoding="utf-8")
    return [*sources, "broken/not_utf8.tvec", "broken/missing.tvec"]


def _def_names(path: Path) -> list[str]:
    """The names after `def` in a file, each once in the order of first
    declaration, and one that no file defines."""
    try:
        words = path.read_text(encoding="utf-8").split()
    except (OSError, UnicodeDecodeError):
        words = []
    names = [w for prev, w in zip(words, words[1:]) if prev == "def"]
    return list(dict.fromkeys(names)) + ["noSuchDef"]


def _invocations(files: list[str], workdir: Path) -> list[list[str]]:
    runs = []
    for rel in files:
        for json_flag in ([], ["--json"]):
            runs.append(["check", rel, *json_flag])
        for name in _def_names(workdir / rel):
            for json_flag in ([], ["--json"]):
                for strategy in ("cbv", "full"):
                    for trace in ([], ["--trace"]):
                        runs.append(["eval", rel, name, "--strategy",
                                     strategy, *trace, *json_flag])
                runs.append(["erase", rel, name, *json_flag])
    for mode in ("base", "large-elim"):
        runs.append(["selftest", "--size", "6", "--json", "--mode", mode])
    for json_flag in ([], ["--json"]):
        runs.append(["check", CHAIN_FILE, *json_flag])
        for strategy in ("cbv", "full"):
            runs.append(["eval", CHAIN_FILE, CHAIN_LAST, "--strategy",
                         strategy, *json_flag])
        runs.append(["erase", CHAIN_FILE, CHAIN_LAST, *json_flag])
    return runs


def _without_elapsed(out: str) -> str:
    payload = json.loads(out)
    for report in payload.get("reports", []):
        report.pop("elapsed", None)
    return json.dumps(payload, indent=2) + "\n"


def _run(main, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as stop:
            status = f"SystemExit({stop.code!r})"
    return status, out.getvalue(), err.getvalue()


def blocks() -> list[str]:
    """The transcript, one block of text per invocation, each starting
    with its `$ tvec` line.  The working directory and the environment
    are restored afterwards."""
    from tvec.cli import main as tvec_main

    out_blocks = []
    # argparse wraps its messages to COLUMNS
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, COLUMNS="80"):
        os.environ.pop("TVEC_FUEL", None)
        workdir = Path(tmp)
        files = _files(workdir)
        runs = _invocations(files, workdir)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for argv in runs:
                status, out, err = _run(tvec_main, argv)
                if argv[0] == "selftest":
                    out = _without_elapsed(out)
                out_blocks.append(f"$ tvec {' '.join(argv)}\nexit {status}\n"
                                  f"--- stdout\n{out}--- stderr\n{err}\n")
        finally:
            os.chdir(cwd)
    return out_blocks


def main() -> int:
    if sys.argv[1:] not in ([], ["--update"]):
        sys.exit(f"usage: {sys.argv[0]} [--update]")
    sys.path.insert(0, str(ROOT / "src"))
    text = "".join(blocks())
    if sys.argv[1:]:
        GOLDEN.write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
