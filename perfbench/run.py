"""moritalab benchmark: end-to-end verdict times, checked verdicts, per-layer traces.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--sum-seed N]

Run from the root of a source checkout; moritalab is imported from its
`src/`.  Every interpreter is fresh and single-threaded.  A run first times
SETUP_SAMPLES interpreters that only import moritalab and parse the
workspaces, then runs whole rounds of the workload, each in its own
interpreter, until another round would end after --seconds (at least one
round).  It reports medians over rounds (verdict_s, peak_rss_mb) and over
every set-up (setup_s).

With --trace 1 a run makes one untraced round and one traced round instead,
checks that both give the same verdicts, and reports the per-layer metrics
of the traced round with the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs the three workloads one
after another and prefixes each metric with its workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("transfer-e1", "enumerate-e1-d3", "session-gf3")
SETUP_SAMPLES = 7
DEFAULT_SUM_SEED = 2203
# Every run, including the traced one, must end within this many seconds.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # The default isomorphism budget is part of the workload; one fixed hash
    # seed keeps dict and set orders the same in every interpreter.
    env.pop("MORITA_ENUM_BUDGET", None)
    env.pop("PYTHONPATH", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _child(workload: str, mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--results", str(RESULTS), "--workload", workload, "--mode", mode,
           "--seed", str(args.seed), "--sum-seed", str(args.sum_seed)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} round passed the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = time.monotonic() - spawned
    return result


def _summary(workload: str, rounds: list[dict]) -> dict:
    problems = [p for r in rounds for p in r["problems"]]
    if len({r.get("digest") for r in rounds}) != 1:
        problems.append("rounds gave different verdicts")
    for p in problems:
        print(f"{workload}: CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }


def measure(workload: str, args) -> dict:
    """Untraced run: set-up samples, then whole rounds for --seconds."""
    deadline = time.monotonic() + RUN_LIMIT_S
    _child(workload, "setup", args, deadline)      # writes bytecode caches
    setups = [_child(workload, "setup", args, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    rounds: list[dict] = []
    started = time.monotonic()
    while True:
        rounds.append(_child(workload, "round", args, deadline))
        if time.monotonic() - started + rounds[-1]["wall_s"] > args.seconds:
            break
    setups += [r["setup_s"] for r in rounds]
    out = _summary(workload, rounds)
    out["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "verdict_s": {"value": statistics.median(r["verdict_s"] for r in rounds),
                      "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
    }
    return out


def measure_traced(workload: str, args) -> dict:
    """One untraced and one traced round; per-layer metrics of the traced one."""
    deadline = time.monotonic() + RUN_LIMIT_S
    _child(workload, "setup", args, deadline)
    plain = _child(workload, "round", args, deadline)
    traced = _child(workload, "traced", args, deadline)
    out = _summary(workload, [plain, traced])
    metrics = dict(traced.get("metrics", {}))
    metrics["trace.verdict_s"] = traced.get("verdict_s", 0.0)
    metrics["trace.overhead_ratio"] = (traced.get("verdict_s", 0.0)
                                       / plain.get("verdict_s", float("inf")))
    out["metrics"] = {name: {"value": value, "unit": _layer_unit(name)}
                      for name, value in metrics.items()}
    return out


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the session's queries")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sum-seed", type=int, default=DEFAULT_SUM_SEED,
                        help="picks the session's direct sums")
    args = parser.parse_args()

    if not (SRC / "moritalab" / "__init__.py").is_file():
        print(f"no moritalab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = measure_traced if args.trace else measure
    lines = {}
    try:
        for name in names:
            lines[name] = run(name, args)
            metrics = lines[name]["metrics"]
            print(f"{name}: attempted {lines[name]['attempted']}, failed "
                  f"{lines[name]['failed']}, correct {lines[name]['correct']}")
            for metric, entry in metrics.items():
                print(f"  {metric:<48} {entry['value']:.6g} {entry['unit']}")
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{metric}": entry for name, line in lines.items()
                        for metric, entry in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
