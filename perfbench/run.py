"""The repository's benchmark: solve and serving paths, checked answers.

    python3 perfbench/run.py --workload traffic|hard|gateway|all \\
        --seed N [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every answer is checked for feasibility,
against its own re-evaluated objective and against an independent MILP
optimum (``perfbench/oracle.py``).  The report is a table per workload
followed by one JSON line: the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``) or its per-layer metrics (``--trace 1``).  The exit code is
1 when any answer fails a check, 2 when the program is missing.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("traffic", "hard", "gateway")


def _declared(section: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    from perfbench import common, gateway_load, inprocess

    clock = common.HostClock()
    clock.sample(20)
    if workload == "gateway":
        report = gateway_load.run(seed, seconds, trace, ROOT, clock)
    else:
        report = inprocess.run(workload, seed, seconds, trace, ROOT, clock)
    clock.sample(20)

    print(f"# workload {workload}, seed {seed}, {seconds:g}s timed"
          + (", traced" if trace else ""))
    for key, value in report["notes"].items():
        print(f"#   {key}: {value}")
    common.print_table(f"{workload}: end to end"
                       + (" (untraced solves)"
                          if report.get("overhead_pct") is not None else ""),
                       report["metrics"])
    print(f"  calibration chunk {clock.chunk_ms:.4f} ms over "
          f"{len(clock.samples_ms)} samples, swing {clock.swing:.0%}")
    if clock.swing > 0.5:
        print("  WARNING: the host's speed swung by more than half "
              "during this run (noisy neighbour)")
    layers = dict(report.get("layers", {}))
    layers["host.calibration_ms"] = (clock.chunk_ms, "ms")
    absent = dict(report.get("absent", {}))
    for name, unit in _declared("per_layer"):
        if name not in layers:
            layers[name] = (0.0, unit)
            absent[name] = "not on this workload's path"
    if trace:
        common.print_table(
            f"{workload}: layers (per solve or fresh request)", layers,
            absent)
        overhead = report.get("overhead_pct")
        if overhead is None:
            print("  tracing overhead: none (the split is read from the "
                  "spool's own event log, written in both runs)")
        else:
            print(f"  tracing overhead: {overhead:+.1f}% solve time against "
                  f"the untraced solves of the same instances")
    for reason in report["failures"][:10]:
        print(f"  FAILED: {reason}")
    return report, layers


def _result_line(report, layers, trace: bool) -> dict:
    section = "per_layer" if trace else "end_to_end"
    source = layers if trace else report["metrics"]
    metrics = {}
    for name, unit in _declared(section):
        value = source[name][0]
        metrics[name] = {"value": value if math.isfinite(value) else 0.0,
                         "unit": unit}
    failed = len(report["failures"])
    return {"correct": failed == 0, "attempted": report["attempted"],
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to benchmark: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # a shell starts background jobs with SIGINT ignored, and children
    # inherit that; with a handler installed here they start with the
    # default, so the gateway's SIGINT shutdown (perfbench/gateway_load.py)
    # works however the benchmark was launched
    signal.signal(signal.SIGINT, signal.default_int_handler)

    lines = []
    for workload in (WORKLOADS if args.workload == "all"
                     else (args.workload,)):
        report, layers = run_workload(workload, args.seed, args.seconds,
                                      bool(args.trace))
        lines.append((workload, _result_line(report, layers,
                                             bool(args.trace))))
    if len(lines) == 1:
        result = lines[0][1]
    else:
        result = {
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{workload}.{name}": metric
                        for workload, line in lines
                        for name, metric in line["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
