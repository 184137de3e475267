"""tvec benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports tvec from `src/` there and
from nowhere else.  The workloads, their metrics and the reasons for both
are described in `perfbench/README.md`.

Each round of a workload runs in a fresh interpreter (`round.py`), one at a
time, and rounds repeat for about S seconds.  End-to-end metrics
are medians over the untraced rounds.  Times are in reference seconds:
each round measures the interpreter's speed while it runs (`calib.py`) and
scales its raw times to a fixed reference speed, so that the host's drift
in speed does not show as a change in the program.  With `--trace 1`
untraced and traced rounds alternate: the traced ones give the per-layer
metrics, and the two together give the tracing overhead.

The last line of standard output is the result as one JSON object; the
line before it records the environment, the seed and the workload's own
figures.  If a round cannot run at all (for instance, tvec is missing), the
script prints no result and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_ROUNDS = 3
# A round takes seconds.  With these two limits a run ends within three
# minutes, whatever --seconds asks for.
ROUND_TIMEOUT_S = 60
HARD_STOP_S = 100


class RoundFailed(Exception):
    pass


def _round(workload: str, seed: int, traced: bool, workdir: Path) -> dict:
    pre = calib.measure()
    spawned_at = calib.clock()
    proc = subprocess.run(
        [sys.executable, str(HERE / "round.py"), workload, str(seed),
         "1" if traced else "0", repr(spawned_at), *map(repr, pre),
         str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundFailed(f"round exited with status {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as err:
        raise RoundFailed(f"round printed no result: {err}")


def _environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def _median_of(rounds: list[dict], pick) -> float:
    return statistics.median(pick(r) for r in rounds)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            trace_this = bool(args.trace) and len(plain) > len(traced)
            began = time.monotonic()
            record = _round(args.workload, args.seed, trace_this, workdir)
            (traced if trace_this else plain).append(record)
            now = time.monotonic()
            # Start another round only if one as long as this one still fits.
            time_up = now - start + (now - began) >= args.seconds
            enough = len(plain) >= MIN_ROUNDS and (traced or not args.trace)
            if (time_up and enough) or now - start >= HARD_STOP_S:
                break
    except (RoundFailed, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    detail = {key: _median_of(plain, lambda r: r["detail"][key])
              for key in plain[0]["detail"]}
    print(json.dumps({
        "workload": args.workload, "env": _environment(args.seed),
        "rounds": len(plain), "traced_rounds": len(traced),
        "round_wall_ref_s": [r["wall_ref_s"] for r in plain],
        "round_wall_s": [r["wall_s"] for r in plain],
        "round_setup_s": [r["setup_s"] for r in plain],
        "speed": calib.KERNEL_REF_S / _median_of(
            plain, lambda r: r["kernel_s"]),
        "fail_ratio": failed / attempted,
        "failures": [f for r in rounds for f in r["failures"]][:10],
        "detail": detail,
    }))

    if args.trace:
        values = {name: _median_of(traced, lambda r: r["layers"][name])
                  for name in traced[0]["layers"]}
        for strategy in ("lo", "ri", "cbv"):
            values[f"reduce.{strategy}.step_growth"] = detail.get(
                f"{strategy}_step_growth", 0.0)
        values["trace.overhead_ratio"] = (
            _median_of(traced, lambda r: r["wall_ref_s"])
            / _median_of(plain, lambda r: r["wall_ref_s"]))
        declared = SPEC["per_layer"]
    else:
        values = {
            "setup_s": _median_of(plain, lambda r: r["setup_ref_s"]),
            "wall_ref_s": _median_of(plain, lambda r: r["wall_ref_s"]),
            "peak_rss_mb": _median_of(plain, lambda r: r["rss_mb"]),
        }
        declared = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
