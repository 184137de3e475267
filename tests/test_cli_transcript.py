"""The command line's output, byte for byte: every invocation of
`cli_transcript.py` against the golden transcript that is checked in.

A change that alters output on purpose rewrites the file with
`python3 tests/cli_transcript.py --update`, and its diff shows the
invocations whose output changed."""

import difflib
import re

import cli_transcript

SHOWN = 3   # differing invocations printed on a mismatch


def _split(text: str) -> list[str]:
    return re.split(r"(?m)^(?=\$ tvec )", text)[1:]


def _mismatch(got: list[str], want: list[str]) -> str:
    """The first few invocations whose output differs, each as a unified
    diff, and a note if the two transcripts differ in length."""
    report = []
    differing = [(g, w) for g, w in zip(got, want) if g != w]
    for g, w in differing[:SHOWN]:
        report.append(w.partition("\n")[0] + "\n" + "".join(
            difflib.unified_diff(w.splitlines(True), g.splitlines(True),
                                 "golden", "now")))
    if len(differing) > SHOWN:
        report.append(f"... and {len(differing) - SHOWN} more invocations")
    if len(got) != len(want):
        report.append(f"{len(got)} invocations now, {len(want)} golden")
    return "\n".join(report)


def test_the_transcript_matches_the_golden_file():
    got = cli_transcript.blocks()
    want = cli_transcript.GOLDEN.read_bytes().decode("utf-8")
    if "".join(got) != want:
        raise AssertionError(
            "the command line's output changed; if on purpose, run "
            "`python3 tests/cli_transcript.py --update`\n"
            + _mismatch(got, _split(want)))
