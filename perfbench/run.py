#!/usr/bin/env python3
"""The qni benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qni checkout. It builds the commit's `qni` binary
(into `$CARGO_TARGET_DIR`, default `.bench_build`), generates the
workload's JSONL inputs from `--seed` with `qni simulate`, runs the
workload, checks every output, and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` runs the gated measurement through the binary alone and
reports the end-to-end metrics. `--trace 1` runs the same inputs through
the traced runner (`perfbench/tracer`), which calls the library's layers
directly, and reports the per-layer metrics. A `# provenance` line before
the result records the host's thread count, steal time, generator
lateness and each input's digest and size. Workloads and metrics are
described in `perfbench/README.md`.
"""

import argparse
import json
import math
import os
import shutil
import sys

import procs
import traced
import workloads
from harness import BenchError

WORKLOADS = ["infer-tandem", "infer-forkjoin-sharded", "watch-live"]


def gated(name, qni, seed, seconds, workdir):
    if name == "watch-live":
        return workloads.run_watch(qni, seed, seconds, workdir)
    return workloads.run_infer(name, qni, seed, seconds, workdir)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    workdir = procs.ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        qni, tracer = procs.build(tracer_needed=bool(args.trace))
        workdir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            attempted, failed, metrics, prov = traced.run(
                args.workload, qni, tracer, args.seed, args.seconds, workdir
            )
        else:
            attempted, failed, metrics, prov = gated(
                args.workload, qni, args.seed, args.seconds, workdir
            )
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    expected = traced.PER_LAYER if args.trace else workloads.END_TO_END
    bad = [n for n, _ in expected if not math.isfinite(metrics.get(n, math.nan))]
    if bad or len(metrics) != len(expected):
        print(f"error: no value for {bad or sorted(metrics)}", file=sys.stderr)
        return 1
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
