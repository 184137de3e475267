"""End-to-end tests for the `tvec` command line.

Most tests call main() in process and capture the streams.  The three
TestConsoleScript tests run the installed `tvec` console script, so they
need the package installed (`pip install -e .`) and fail without it, on
purpose: installing the script is a guarantee of its own.  The exit
code contract: 0 success, 1 failed check/eval/selftest, 2 usage or
unreadable/unparseable input or exhausted resources.  Every --json
invocation that argparse accepts must put one JSON object on stdout no
matter what went wrong.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tvec
from tvec import cli
from tvec.cli import main
from tvec.frontend import MAX_NUMERAL
from tvec.oracle import ENUM_CAP
from tvec.reduce import DEFAULT_FUEL, Stuck

from conftest import QUODLIBET_PATH, VEC_PATH

VEC = str(VEC_PATH)
QUOD = str(QUODLIBET_PATH)


def run_cli(capsys, *argv):
    """Exit status, stdout and stderr of one `main` call; an exit that
    argparse makes is reported as its `SystemExit`."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = f"SystemExit({stop.code!r})"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports the tvec
    package imported here rather than any `tvec` on PATH."""
    src = str(Path(tvec.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))


# --------------------------------------------------------------------------
# check


class TestCheck:
    def test_vec_file_lists_every_definition(self, capsys):
        code, out, err = run_cli(capsys, "check", VEC)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[0] == "plus : Pi m : Nat. Pi n : Nat. Nat"
        assert ("append : All l1 : Nat. All l2 : Nat. "
                "Pi v1 : Vec Nat l1. Pi v2 : Vec Nat l2. "
                "Vec Nat (plus l1 l2)") in lines

    def test_quodlibet_file(self, capsys):
        code, out, err = run_cli(capsys, "check", QUOD)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert "quodAll : All q : 1 = 0. Nat" in lines

    def test_json_report_shape(self, capsys):
        code, out, err = run_cli(capsys, "check", VEC, "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["mode"] == "base"
        assert blob["fuel"] == DEFAULT_FUEL
        assert len(blob["defs"]) == 10
        assert all(d["status"] == "ok" and d["diagnostic"] is None
                   for d in blob["defs"])

    def test_failing_definition(self, tmp_path, capsys):
        src = tmp_path / "bad.tvec"
        src.write_text("mode base\n\ndef bad : 0 = 1 = join 0 1\n")
        code, out, err = run_cli(capsys, "check", str(src))
        assert code == 1
        assert "bad failed to check" in err
        assert "distinct normal forms" in err

    def test_failing_definition_json(self, tmp_path, capsys):
        src = tmp_path / "bad.tvec"
        src.write_text("mode base\n\ndef bad : 0 = 1 = join 0 1\n")
        code, out, err = run_cli(capsys, "check", str(src), "--json")
        assert code == 1
        blob = json.loads(out)
        assert blob["defs"][-1]["status"] == "error"
        assert blob["defs"][-1]["diagnostic"]["code"] == "join-distinct"

    def test_name_released_in_a_type_is_not_captured(self, tmp_path,
                                                      capsys):
        # The length erases to the `b#` that the ill-typed `ifun` releases,
        # which is a free name and not the `b` that the `Pi` binds; it is
        # reported by the binder's name, as the checker reports it.
        src = tmp_path / "released.tvec"
        src.write_text("assume v : Pi b : Nat. Vec Nat (ifun b : Nat => b)\n"
                       "def w : Vec Nat 0 = v 0\n")
        message = ("bound variable b survives erasure; it may only occur "
                   "in annotations")
        code, out, err = run_cli(capsys, "check", str(src))
        assert code == 1
        assert f": error[resolve]: {message}\n" in err
        code, out, err = run_cli(capsys, "check", str(src), "--json")
        assert code == 1
        assert json.loads(out)["error"]["code"] == "erased-occurrence"
        assert json.loads(out)["error"]["message"] == message

    def test_diagnostic_at_a_bound_variable_has_its_span(self, tmp_path,
                                                         capsys):
        src = tmp_path / "bound.tvec"
        text = "def f : Pi x : Vec Nat 0. Nat = fun x : Vec Nat 0 => S x\n"
        src.write_text(text)
        assert text[55:56] == "x"
        code, out, err = run_cli(capsys, "check", str(src))
        assert code == 1
        assert "successor argument has the wrong type\n    at 55..56\n" \
            in err
        code, out, err = run_cli(capsys, "check", str(src), "--json")
        assert code == 1
        diag = json.loads(out)["defs"][0]["diagnostic"]
        assert diag["span"] == {"start": 55, "end": 56}
        assert (diag["expected"], diag["actual"]) == ("Nat", "Vec Nat 0")

    def test_mode_override_rejects_implicits(self, capsys):
        code, out, err = run_cli(capsys, "check", VEC,
                                 "--mode", "large-elim")
        assert code == 1
        assert "P1 failed to check" in err
        assert "large-elim mode" in err


# --------------------------------------------------------------------------
# eval


class TestEval:
    def test_four_call_by_value(self, capsys):
        code, out, err = run_cli(capsys, "eval", VEC, "four")
        assert code == 0
        assert out == "4, Value, 21 steps\n"

    def test_four_full_normalization(self, capsys):
        code, out, err = run_cli(capsys, "eval", VEC, "four",
                                 "--strategy", "full")
        assert code == 0
        assert out == "4, NormalForm, 21 steps\n"

    def test_append_demo(self, capsys):
        code, out, err = run_cli(capsys, "eval", VEC, "appendDemo")
        assert code == 0
        assert out == ("cons 1 (cons 2 (cons 3 (cons 4 (cons 5 nil)))), "
                       "Value, 11 steps\n")

    def test_stuck_open_term_is_reported_not_fatal(self, capsys):
        code, out, err = run_cli(capsys, "eval", QUOD, "stuckApp")
        assert code == 0
        assert out == "0 0, Stuck, 0 steps\n"
        assert "expected" in err

    def test_suspended_shell_is_a_value(self, capsys):
        code, out, err = run_cli(capsys, "eval", QUOD, "quodAll")
        assert code == 0
        assert out == "qfun => 0 0, Value, 0 steps\n"

    def test_witness_application_steps_once_then_sticks(self, capsys):
        code, out, err = run_cli(capsys, "eval", QUOD, "viaWitness")
        assert code == 0
        assert out == "0 0, Stuck, 1 steps\n"
        assert "application head is not an abstraction" in err

    @pytest.mark.parametrize("json_flag", [False, True])
    def test_stuck_closed_definition_is_a_kernel_bug(self, capsys,
                                                     monkeypatch, json_flag):
        # a closed well-typed definition cannot get stuck; if the evaluator
        # says it did, the command fails and blames the kernel
        monkeypatch.setattr(cli, "eval_cbv", lambda t, fuel, on_step=None:
                            Stuck(t, "stuck on purpose", 0))
        argv = ["eval", VEC, "four"] + ["--json"] * json_flag
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        note = ("stuck closed term: evaluation of a well-typed closed "
                "definition must not get stuck, so either the definition "
                "or the kernel is wrong")
        assert err == f"tvec: {note}\n"
        if json_flag:
            report = json.loads(out)
            assert report["note"] == note
            assert report["closed"] is True and report["kind"] == "Stuck"
        else:
            assert out.endswith(", Stuck, 0 steps\n")

    def test_fuel_exhaustion_fails_loudly(self, capsys):
        code, out, err = run_cli(capsys, "eval", VEC, "four", "--fuel", "3")
        assert code == 1
        assert "FuelExhausted, 3 steps" in out
        assert "out of fuel" in err

    def test_trace_prints_every_step(self, capsys):
        code, out, err = run_cli(capsys, "eval", VEC, "four",
                                 "--strategy", "full", "--trace")
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 22
        assert lines[0].strip().startswith("0")
        assert lines[-1].split() == ["21", "4"]

    # An outer variable under a dropped implicit binder used to erase to a
    # dangling index: base mode printed `S nil, Value`, large-elim got
    # stuck on `S ?1`.
    @pytest.mark.parametrize("strategy, kind", [("cbv", "Value"),
                                                ("full", "NormalForm")])
    @pytest.mark.parametrize("mode, binder, app, steps", [
        ("base", "ifun y : Nat", "f (nil [Nat]) 0 @[0]", 2),
        ("large-elim", "qfun y : Nat", "f (nil [Nat]) 0 @-[0]", 3),
    ])
    def test_erasure_keeps_outer_variables(self, capsys, tmp_path, mode,
                                           binder, app, steps, strategy,
                                           kind):
        path = tmp_path / "r.tvec"
        path.write_text(
            f"mode {mode}\n\n"
            "def f : Pi a : Vec Nat 0. Pi x : Nat. All y : Nat. Nat =\n"
            f"  fun a : Vec Nat 0 => fun x : Nat => {binder} => S x\n\n"
            f"def r : Nat = {app}\n")
        code, out, err = run_cli(capsys, "eval", str(path), "r",
                                 "--strategy", strategy)
        assert code == 0
        assert out == f"1, {kind}, {steps} steps\n"

    def test_unknown_definition(self, capsys):
        code, out, err = run_cli(capsys, "eval", VEC, "nosuch")
        assert code == 1
        assert "no definition named nosuch" in err

    def test_json_payload(self, capsys):
        code, out, err = run_cli(capsys, "eval", QUOD, "stuckApp", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["kind"] == "Stuck"
        assert blob["term"] == "0 0"
        assert blob["closed"] is False
        assert blob["note"]


# --------------------------------------------------------------------------
# erase


class TestErase:
    def test_append_erasure(self, capsys):
        code, out, err = run_cli(capsys, "erase", VEC, "append")
        assert code == 0
        assert out == ("fun v1 => fun v2 => rvec v2 "
                       "(fun x => fun v1' => fun r => cons x r) v1\n")

    def test_quod_all_erasure(self, capsys):
        code, out, err = run_cli(capsys, "erase", QUOD, "quodAll")
        assert code == 0
        assert out == "qfun => 0 0\n"

    def test_json(self, capsys):
        # two is defined as plus 1 1, so the erasure is an application
        code, out, err = run_cli(capsys, "erase", VEC, "two", "--json")
        assert code == 0
        assert json.loads(out) == {
            "def": "two", "mode": "base",
            "erasure": "(fun m => fun n => rnat n (fun y => fun u => S u) m)"
                       " 1 1"}


# --------------------------------------------------------------------------
# selftest


class TestSelftest:
    def test_small_base_run_is_green(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--size", "3",
                                 "--mode", "base")
        assert code == 0
        assert "result: ok" in out

    def test_default_size_is_7(self, capsys):
        assert cli._build_parser().parse_args(["selftest"]).size == 7
        code, out, err = run_cli(capsys, "selftest", "--help")
        text = " ".join(out.split())    # as argparse wraps it
        assert code == "SystemExit(0)" and "(default 7)" in text

    def test_rule_gap_fails_the_run(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--size", "4",
                                 "--mode", "large-elim")
        assert code == 1
        assert "MISSING" in out

    def test_json_report(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--size", "3",
                                 "--mode", "base", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["ok"] is True
        assert len(blob["reports"]) == 1
        assert blob["reports"][0]["undecided"] == 0

    def test_size_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--size", "0")
        assert code == 2
        assert out == ""
        assert err == f"tvec: --size must be between 1 and {ENUM_CAP}\n"
        code, out, json_err = run_cli(capsys, "selftest", "--size", "99",
                                      "--json")
        assert (code, json_err) == (2, err)
        assert json.loads(out) == {
            "defs": [], "mode": None, "fuel": DEFAULT_FUEL,
            "error": {"code": "usage-error",
                      "message": f"--size must be between 1 and {ENUM_CAP}"}}


# --------------------------------------------------------------------------
# errors, exit codes, fuel plumbing


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "check", "/nonexistent.tvec")
        assert code == 2
        assert err.startswith("tvec:")

    def test_missing_file_json_is_well_formed(self, capsys):
        code, out, err = run_cli(capsys, "check", "/nonexistent.tvec",
                                 "--json")
        assert code == 2
        blob = json.loads(out)
        assert blob["defs"] == []
        assert blob["error"]["code"] == "io-error"

    def test_non_utf8_file_is_an_io_error(self, tmp_path, capsys):
        src = tmp_path / "latin1.tvec"
        src.write_bytes(b"def n : Nat = \xff")
        code, out, err = run_cli(capsys, "check", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith(f"tvec: {src}: 'utf-8' codec can't decode")
        code, out, err = run_cli(capsys, "check", str(src), "--json")
        assert code == 2
        blob = json.loads(out)
        assert blob["defs"] == []
        assert blob["error"]["code"] == "io-error"
        assert str(src) in blob["error"]["message"]

    @pytest.mark.parametrize("json_flag", [(), ("--json",)],
                             ids=["text", "json"])
    @pytest.mark.parametrize("source", [
        VEC_PATH.read_text(encoding="utf-8"),
        "def n : Nat = 0\ndef m : Nat = ~\n",
        "def n : Vec Nat 1 = nil [Nat]\n",
    ], ids=["vec", "parse-error", "check-error"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, source,
                                        json_flag):
        """A file that starts with a UTF-8 byte-order mark reads as the
        same file without it: the same report, spans included."""
        src = tmp_path / "file.tvec"
        src.write_text(source, encoding="utf-8")
        plain = run_cli(capsys, "check", str(src), *json_flag)
        src.write_text(source, encoding="utf-8-sig")
        assert src.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run_cli(capsys, "check", str(src), *json_flag) == plain

    def test_parse_error(self, tmp_path, capsys):
        src = tmp_path / "syntax.tvec"
        src.write_text("def ~\n")
        code, out, err = run_cli(capsys, "check", str(src))
        assert code == 2

    def test_parse_error_json(self, tmp_path, capsys):
        src = tmp_path / "syntax.tvec"
        src.write_text("def ~\n")
        code, out, err = run_cli(capsys, "check", str(src), "--json")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "parse-error"

    def test_non_decimal_digit_is_a_parse_error(self, tmp_path, capsys):
        src = tmp_path / "digit.tvec"
        src.write_text("def n : Nat = \u00b2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "check", str(src))
        assert code == 2
        assert "unexpected character" in err
        code, out, err = run_cli(capsys, "check", str(src), "--json")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "parse-error"

    def test_unknown_name_is_a_failure_not_usage(self, tmp_path, capsys):
        src = tmp_path / "free.tvec"
        src.write_text("def a : Nat = mystery\n")
        code, out, err = run_cli(capsys, "check", str(src))
        assert code == 1
        assert "mystery" in err

    def test_duplicate_definition(self, tmp_path, capsys):
        src = tmp_path / "dup.tvec"
        src.write_text("def a : Nat = 0\ndef a : Nat = 0\n")
        code, out, err = run_cli(capsys, "check", str(src))
        assert code == 1

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["eval", "only.tvec"]])
    def test_usage_errors_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["check"], "the following arguments are required: path"),
        (["check", VEC, "--fuel", "abc"],
         "argument --fuel: invalid int value: 'abc'"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ], ids=["missing-path", "fuel-not-an-int", "unknown-command"])
    def test_argparse_errors_under_json(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        plain = capsys.readouterr()
        assert plain.out == ""
        assert plain.err.startswith("usage: tvec")
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 2
        assert err == plain.err
        blob = json.loads(out)
        assert (blob["defs"], blob["mode"], blob["fuel"]) == ([], None, None)
        assert blob["error"]["code"] == "usage-error"
        assert blob["error"]["message"].startswith(message)
        assert err.endswith(f"error: {blob['error']['message']}\n")

    def test_help_is_unchanged_by_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help", "--json"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tvec check")

    def test_fuel_env_var_is_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("TVEC_FUEL", "3")
        code, out, err = run_cli(capsys, "eval", VEC, "four")
        assert code == 1
        assert "FuelExhausted, 3 steps" in out

    @pytest.mark.parametrize("value", ["abc", "-5", "0"])
    def test_bad_fuel_env_var(self, value, capsys, monkeypatch):
        monkeypatch.setenv("TVEC_FUEL", value)
        code, out, err = run_cli(capsys, "check", VEC)
        assert code == 2
        assert "TVEC_FUEL" in err or "fuel" in err
        code, out, json_err = run_cli(capsys, "check", VEC, "--json",
                                      "--mode", "base")
        assert (code, json_err) == (2, err)
        blob = json.loads(out)
        assert blob["error"] == {"code": "usage-error",
                                 "message": err[len("tvec: "):-1]}
        assert (blob["defs"], blob["mode"], blob["fuel"]) == ([], "base", None)

    def test_flag_overrides_broken_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("TVEC_FUEL", "not-a-number")
        code, out, err = run_cli(capsys, "check", VEC, "--fuel", "1000")
        assert code == 0

    def test_negative_fuel_flag(self, capsys):
        code, out, err = run_cli(capsys, "check", VEC, "--fuel", "-1")
        assert code == 2
        assert err == "tvec: fuel must be positive\n"
        code, out, json_err = run_cli(capsys, "check", VEC, "--fuel", "0",
                                      "--json")
        assert (code, json_err) == (2, err)
        assert json.loads(out) == {
            "defs": [], "mode": None, "fuel": None,
            "error": {"code": "usage-error",
                      "message": "fuel must be positive"}}

    # Every failure above, and the two that only `eval` has, under --json.
    # `{f}` is a file holding `source`.
    @pytest.mark.parametrize("source, argv, env, code, error", [
        (None, ["check", "/nonexistent.tvec"], None, 2, "io-error"),
        (b"def n : Nat = \xff", ["check", "{f}"], None, 2, "io-error"),
        (b"def ~\n", ["check", "{f}"], None, 2, "parse-error"),
        ("def n : Nat = \u00b2\n".encode(), ["check", "{f}"], None, 2,
         "parse-error"),
        (b"def a : Nat = mystery\n", ["check", "{f}"], None, 1,
         "unknown-name"),
        (b"def a : Nat = 0\ndef a : Nat = 0\n", ["check", "{f}"], None, 1,
         "duplicate-name"),
        (None, ["check", VEC], "abc", 2, "usage-error"),
        (None, ["check", VEC, "--fuel", "-1"], None, 2, "usage-error"),
        (None, ["selftest", "--size", "0"], None, 2, "usage-error"),
        (None, ["eval", VEC, "nosuch"], None, 1, "unknown-def"),
        (b"def bad : 0 = 1 = join 0 1\n", ["eval", "{f}", "bad"], None, 1,
         "join-distinct"),
    ], ids=["missing-file", "non-utf8", "parse-error", "non-decimal-digit",
            "unknown-name", "duplicate-definition", "bad-fuel-env-var",
            "negative-fuel-flag", "size-out-of-range", "eval-unknown-def",
            "eval-check-fails"])
    def test_every_failure_is_one_json_object(self, source, argv, env, code,
                                              error, tmp_path, capsys,
                                              monkeypatch):
        path = tmp_path / "f.tvec"
        if source is not None:
            path.write_bytes(source)
        if env is not None:
            monkeypatch.setenv("TVEC_FUEL", env)
        argv = [a.format(f=path) for a in argv]
        got, out, err = run_cli(capsys, *argv, "--json")
        assert got == code
        blob = json.loads(out)
        assert blob["defs"] == []
        assert blob["error"]["code"] == error
        assert err.startswith("tvec: ")

    def test_exhausted_stack_is_a_diagnostic(self):
        # The recursion limit is set after the imports, so only the command
        # runs short of stack.
        script = ("import sys\n"
                  "from tvec.cli import main\n"
                  "sys.setrecursionlimit(50)\n"
                  f"sys.exit(main(['check', {VEC!r}, '--json']))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=package_env())
        assert proc.returncode == 2, proc.stderr
        blob = json.loads(proc.stdout)
        assert blob["defs"] == []
        assert blob["error"]["code"] == "resource-exhausted"
        assert proc.stderr.startswith("tvec: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("last, code", [("0", 0), ("nil [Nat]", 1)],
                             ids=["checks", "fails"])
    def test_a_reader_that_stops_early(self, tmp_path, last, code):
        """`tvec check --json FILE | head -1`: the reader takes one line
        and closes the pipe while the report, larger than a pipe holds,
        is being written.  No traceback follows, and the exit code is the
        command's."""
        path = tmp_path / "many.tvec"
        path.write_text("".join(f"def d{i} : Nat = 0\n" for i in range(3000))
                        + f"def last : Nat = {last}\n", encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "tvec.cli", "check", "--json", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=package_env())
        try:
            assert proc.stdout.readline() == "{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == code, err
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert "Traceback" not in err and "Exception ignored" not in err
        # stderr holds the failed check's note, and nothing else
        assert err.startswith("tvec: ") if code else err == ""

    @staticmethod
    def run_with_stderr_closed(*argv):
        """Exit status and stdout of `python -m tvec.cli ARGV` whose stderr
        is a pipe with its read end closed before the command starts, so
        that every write there fails."""
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tvec.cli", *argv], stderr=write,
                stdout=subprocess.PIPE, text=True, env=package_env(),
                timeout=60)
        finally:
            os.close(write)
        return proc.returncode, proc.stdout

    @pytest.mark.parametrize("strategy", ["cbv", "full"])
    def test_a_trace_reader_that_has_gone(self, capsys, strategy):
        """`tvec eval --trace FILE NAME 2>&1 >/dev/null | head -1`: the
        steps have no reader.  The evaluation runs on to the result and
        step count it reports without `--trace`, and the exit code is
        still the command's."""
        want = run_cli(capsys, "eval", VEC, "appendDemo",
                       "--strategy", strategy)
        assert want[0] == 0
        assert self.run_with_stderr_closed(
            "eval", "--trace", VEC, "appendDemo",
            "--strategy", strategy) == want[:2]

    @pytest.mark.parametrize("json_flag", [(), ("--json",)],
                             ids=["text", "json"])
    def test_a_note_reader_that_has_gone(self, capsys, json_flag):
        """`tvec check MISSING 2>&1 >/dev/null | true`: the note has no
        reader, and the command still exits 2 with its report on stdout."""
        argv = ("check", "/nonexistent.tvec", *json_flag)
        want = run_cli(capsys, *argv)
        assert want[0] == 2
        assert self.run_with_stderr_closed(*argv) == want[:2]


class TestDeepNumerals:
    """The largest numeral, a written 2,000-deep `S` tower, and a join of
    two 1,201-deep numerals check and evaluate at the default recursion
    limit: the parser and the walkers cross a numeral in a loop."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(old)

    def test_largest_numeral(self, tmp_path, capsys):
        src = tmp_path / "n.tvec"
        src.write_text(f"def n : Nat = {MAX_NUMERAL}\n")
        assert run_cli(capsys, "check", str(src)) == (0, "n : Nat\n", "")
        for strategy, kind in (("cbv", "Value"), ("full", "NormalForm")):
            assert run_cli(capsys, "eval", str(src), "n", "--strategy",
                           strategy) == (0, f"{MAX_NUMERAL}, {kind}, 0 steps\n", "")

    def test_written_tower(self, tmp_path, capsys):
        """`S (S (... 0))` written out 2,000 deep: the parser reads the
        chain in a loop."""
        src = tmp_path / "s.tvec"
        src.write_text("def n : Nat = " + "S (" * 2000 + "0" + ")" * 2000)
        assert run_cli(capsys, "check", str(src)) == (0, "n : Nat\n", "")
        for strategy, kind in (("cbv", "Value"), ("full", "NormalForm")):
            assert run_cli(capsys, "eval", str(src), "n", "--strategy",
                           strategy) == (0, f"2000, {kind}, 0 steps\n", "")

    def test_join_of_deep_numerals(self, tmp_path, capsys, vec_source):
        src = tmp_path / "j.tvec"
        src.write_text(vec_source + "\ndef j : plus 1200 1 = 1201 = "
                       "join (plus 1200 1) 1201\n")
        code, out, err = run_cli(capsys, "check", str(src))
        assert (code, err) == (0, "")
        assert out.endswith("\nj : plus 1200 1 = 1201\n")
        assert run_cli(capsys, "eval", str(src), "j") == \
            (0, "join, Value, 0 steps\n", "")


class TestDeepVectors:
    """A 600-cell vector that evaluation builds prints, an equation
    between two such vectors checks, and a written 2,000-cell literal
    checks and evaluates, at the default recursion limit: the parser,
    `pretty` and `==` cross a `cons` spine in a loop."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(old)

    @pytest.fixture
    def src(self, tmp_path, vec_source):
        lit = "nil [Nat]"
        for i in reversed(range(150)):
            lit = f"cons {i % 7} ({lit})"
        path = tmp_path / "v.tvec"
        path.write_text(vec_source + f"""
def a : Vec Nat 150 = {lit}
def ab : Vec Nat (plus 150 150) = append @[150] @[150] a a
def abab : Vec Nat (plus (plus 150 150) (plus 150 150)) =
  append @[plus 150 150] @[plus 150 150] ab ab
def e : abab = abab = join abab abab
""")
        return str(path)

    def test_eval_prints_the_long_vector(self, capsys, src):
        code, out, err = run_cli(capsys, "eval", src, "abab")
        assert (code, err) == (0, "")
        cells = [f"cons {i % 150 % 7}" for i in range(600)]
        assert out == (" (".join(cells) + " nil" + ")" * 599
                       + ", Value, 2409 steps\n")

    def test_check_compares_the_long_vectors(self, capsys, src):
        code, out, err = run_cli(capsys, "check", src)
        assert (code, err) == (0, "")
        assert out.endswith("\nabab : Vec Nat (plus (plus 150 150) "
                            "(plus 150 150))\ne : abab = abab\n")

    def test_long_literal(self, tmp_path, capsys):
        """A written vector literal of 2,000 cells checks and evaluates:
        the parser reads the chain in a loop."""
        cells = [f"cons {i % 7}" for i in range(2000)]
        path = tmp_path / "lit.tvec"
        path.write_text("def v : Vec Nat 2000 =\n  "
                        + " (".join(cells) + " (nil [Nat])" + ")" * 1999)
        assert run_cli(capsys, "check", str(path)) == \
            (0, "v : Vec Nat 2000\n", "")
        printed = " (".join(cells) + " nil" + ")" * 1999
        for strategy, kind in (("cbv", "Value"), ("full", "NormalForm")):
            assert run_cli(capsys, "eval", str(path), "v", "--strategy",
                           strategy) == (0, f"{printed}, {kind}, 0 steps\n", "")


# --------------------------------------------------------------------------
# one argument parser per process


class TestParserReuse:
    """`main` builds its argument parser once per process, so no call may
    depend on what an earlier one parsed."""

    @pytest.mark.parametrize("before, after", [
        (["eval", VEC, "four", "--trace"], ["eval", VEC, "four"]),
        (["eval", VEC, "four", "--json"], ["eval", VEC, "four"]),
        (["check", QUOD, "--json"], ["check", QUOD]),
        (["check"], ["check", VEC]),
        (["check", "--json"], ["erase", VEC, "append", "--json"]),
        (["eval", VEC, "four", "--fuel", "abc"], ["eval", VEC, "four"]),
        (["--help"], ["check", VEC]),
        (["eval", "--help"], ["eval", VEC, "appendDemo", "--trace"]),
    ], ids=["trace", "json", "check-json", "rejected", "rejected-json",
            "rejected-fuel", "help", "subcommand-help"])
    def test_a_call_is_as_if_made_first(self, before, after, capsys):
        firsts = []
        for argv in (before, after):
            cli._build_parser.cache_clear()
            firsts.append(run_cli(capsys, *argv))
        cli._build_parser.cache_clear()
        assert [run_cli(capsys, *before), run_cli(capsys, *after)] == firsts
        assert cli._build_parser.cache_info().misses == 1

    def test_a_trace_is_not_carried_over(self, capsys):
        run_cli(capsys, "eval", VEC, "four", "--trace")
        assert run_cli(capsys, "eval", VEC, "four") == \
            (0, "4, Value, 21 steps\n", "")


# --------------------------------------------------------------------------
# the installed entry point


class TestConsoleScript:
    def test_script_is_installed(self):
        assert shutil.which("tvec") is not None

    def test_help_lists_subcommands(self):
        proc = subprocess.run(["tvec", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        for sub in ("check", "eval", "erase", "selftest"):
            assert sub in proc.stdout

    def test_check_through_subprocess(self):
        proc = subprocess.run(["tvec", "check", VEC], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == \
            "plus : Pi m : Nat. Pi n : Nat. Nat"
