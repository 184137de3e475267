"""Input families whose cost must grow linearly.

Each family is a generator indexed by n, run at n and its doublings.  The
work is counted as calls of Python functions defined in `src/tvec`,
through `sys.setprofile`: unlike time, the count is the same on every
machine and every run.  Each call is made once before it is counted, so
that caches filled on first use do not count.  A linear family grows by at
most `LINEAR` per doubling of n.  A family that is superlinear today is a
strict `xfail` that names the ROADMAP item that is to fix it, so the fix
flips it.  `pytest -s` prints the counts and the ratios.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import tvec
from tvec.cli import main
from tvec.frontend import parse_term, parse_type, pretty
from tvec.syntax import Context
from tvec.typecheck import Checker, Inferred

LINEAR = 2.3   # largest growth per doubling of n that counts as linear

SRC = str(Path(tvec.__file__).parent)


def calls(run) -> int:
    """The calls into `src/tvec` that `run()` makes, after a first run."""
    run()
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def assert_linear(label: str, counts: dict[int, int]) -> None:
    """`counts` maps each n to its count, n doubling from one to the
    next."""
    ns = sorted(counts)
    ratios = [counts[b] / counts[a] for a, b in zip(ns, ns[1:])]
    print(f"\n{label}: " + ", ".join(f"n={n} {counts[n]}" for n in ns)
          + "; per doubling " + ", ".join(f"{r:.2f}" for r in ratios))
    assert max(ratios) <= LINEAR, (label, counts)


PLUS = """def plus : Pi m : Nat. Pi n : Nat. Nat =
  fun m : Nat => fun n : Nat =>
    rnat [x. Nat] n (fun y : Nat => fun u : Nat => S u) m
"""


def def_chain(n: int, in_type: bool) -> str:
    """`a<i> = plus a<i-1> a<i-1>` for i up to n, each def naming the last
    one twice; with `in_type`, a last def whose type names `a<n>`."""
    lines = [PLUS, "def a0 : Nat = 1"]
    lines += [f"def a{i} : Nat = plus a{i - 1} a{i - 1}"
              for i in range(1, n + 1)]
    if in_type:
        vec = f"Vec Nat a{n}"
        lines.append(f"def g : Pi x : {vec}. {vec} = fun x : {vec} => x")
    return "\n".join(lines) + "\n"


def check_counts(tmp_path: Path, in_type: bool) -> dict[int, int]:
    counts = {}
    for n in (6, 12):
        path = tmp_path / f"chain{n}.tvec"
        path.write_text(def_chain(n, in_type), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            counts[n] = calls(lambda: main(["check", str(path)]))
        assert out.getvalue().endswith(
            f"g : Pi x : Vec Nat a{n}. Vec Nat a{n}\n" if in_type
            else f"a{n} : Nat\n")
    return counts


def nested_binders(n: int):
    """fun x0 : Nat => fun x1 : Vec Nat x0 => ... => 0, and its type
    Pi x0 : Nat. Pi x1 : Vec Nat x0. ... Nat: n binders, each but the
    first with a domain that names the binder before it."""
    domains = ["Nat"] + [f"Vec Nat x{i - 1}" for i in range(1, n)]
    body = "".join(f"fun x{i} : {d} => " for i, d in enumerate(domains))
    ty = "".join(f"Pi x{i} : {d}. " for i, d in enumerate(domains))
    return parse_term(body + "0"), parse_type(ty + "Nat")


BINDER_NS = (50, 100, 200)


def test_def_chain_checks_in_linear_work(tmp_path):
    assert_linear("check, def chain", check_counts(tmp_path, False))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the walkers treat "
                   "a chain named in a type as a tree, not as a DAG")
def test_def_chain_named_in_a_type_checks_in_linear_work(tmp_path):
    assert_linear("check, def chain in a type", check_counts(tmp_path, True))


def test_nested_binders_check_in_linear_work():
    counts = {}
    for n in BINDER_NS:
        body, ty = nested_binders(n)

        def run():
            return Checker().check_against(Context(), body, ty)
        assert isinstance(run(), Inferred)
        counts[n] = calls(run)
    assert_linear("check_against, nested binders", counts)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: `pretty` walks the "
                   "body of each binder for its free names")
def test_nested_binders_print_in_linear_work():
    counts = {}
    for n in BINDER_NS:
        _, ty = nested_binders(n)
        counts[n] = calls(lambda: pretty(ty))
    assert_linear("pretty, nested binders", counts)
