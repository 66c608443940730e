"""One round of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --src SRC --results DIR --workload NAME
        --mode setup|round|traced --seed N --sum-seed N

Imports moritalab from SRC and sets the workload up; `setup` mode stops
there.  `round` mode then asks for the workload's verdicts (the timed
interval), reads the peak resident set, and checks the verdicts.  `traced`
mode is a round with the span recorder installed before the workspaces are
parsed; it writes the spans to DIR and adds the per-layer metrics.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--results", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "round", "traced"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sum-seed", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(args.src))
    import moritalab
    import moritalab.cli  # noqa: F401  (the CLI workloads and the tracer need it)
    if Path(moritalab.__file__).resolve().parent != (args.src / "moritalab").resolve():
        print(f"imported moritalab from {moritalab.__file__}, not {args.src}",
              file=sys.stderr)
        return 3

    recorder = None
    if args.mode == "traced":
        import spans
        recorder = spans.SpanRecorder()
        recorder.install()

    import workloads
    report = args.results / f"{args.workload}-report.json"
    workload = workloads.make(args.workload, report, args.seed, args.sum_seed)
    workload.setup()
    ready = time.monotonic()
    out: dict = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    start = time.perf_counter()
    try:
        workload.run()
        out["verdict_s"] = time.perf_counter() - start
        recorded = recorder.size() if recorder is not None else 0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["problems"] = workload.check()
        out["digest"] = workload.digest()
    except Exception:
        traceback.print_exc()
        out["problems"] = ["the workload raised: " + traceback.format_exc(limit=1)]
    out["attempted"], out["failed"] = workload.attempted, workload.failed
    if recorder is not None and "verdict_s" in out:
        # Spans recorded by the checks are left out.
        recorder.save(args.results / f"{args.workload}-spans.npz", recorded)
        out["metrics"] = spans.metrics(recorder.names, recorder.arrays(recorded))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
