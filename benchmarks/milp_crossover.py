#!/usr/bin/env python
"""Crossover table: forward label sweep vs HiGHS MILP on scattered trees.

For each size ``n`` and seed, builds ``random_problem(n_processing=n,
n_satellites=4 + seed % 3, seed=seed, sensor_scatter=1.0, max_children=2)``
(the binary scattered trees of the ``hard`` workload) and times:

* ``forward`` — ``colored-ssb-labels`` in a child process, cut after
  ``--forward-cap`` seconds (reported as ``>cap``);
* ``milp warm`` — :func:`repro.baselines.milp.milp_assignment` with scipy
  already imported;
* ``milp cold`` — the same solve as the first call in a fresh
  interpreter, so it includes the scipy import (what the first routed
  solve of a process pays).

Prints one markdown row per size: the median and max over the seeds.  The
portfolio's ``_MILP_MIN_N`` cites the table this prints.

``--by-scatter`` prints a second table instead, which ``_MILP_MIN_N``
also cites: instances of the sizes and seeds given, with ``max_children``
2 and 3 (``--max-children``) and ``sensor_scatter`` 0.0, 0.5, 0.75 and
1.0, grouped by the portfolio's scatter-ratio feature into bands, forward
sweep vs warm MILP.

Usage::

    PYTHONPATH=src python benchmarks/milp_crossover.py [--sizes 44 48 ...]
        [--seeds 6] [--forward-cap 20] [--memory-mb 2500] [--by-scatter]

Each forward solve runs in its own process under an address-space cap
(``--memory-mb``), because the forward sweep's label population reaches
gigabytes on the larger sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = """
import json, sys, time
from repro.workloads import random_problem
problem = random_problem(**json.loads(sys.argv[1]))
method = sys.argv[2]
if method == "milp":
    from repro.baselines.milp import milp_assignment
    started = time.perf_counter()
    assignment, _ = milp_assignment(problem)
    objective = assignment.end_to_end_delay()
else:
    from repro.core.solver import solve
    started = time.perf_counter()
    objective = solve(problem, method="colored-ssb-labels").objective
print(json.dumps({"solve_s": time.perf_counter() - started,
                  "objective": objective}))
"""


#: Scatter-ratio bands of the ``--by-scatter`` table; the middle one sits
#: just under the portfolio's cut.
SCATTER_BANDS = ((0.0, 0.6), (0.6, 0.75), (0.75, 1.01))


def instance(n: int, seed: int, sensor_scatter: float = 1.0,
             max_children: int = 2) -> dict:
    return dict(n_processing=n, n_satellites=4 + seed % 3, seed=seed,
                sensor_scatter=sensor_scatter, max_children=max_children)


def run_child(kwargs: dict, method: str, cap_s: float, memory_mb: int):
    """(seconds, objective) of one solve in a fresh process, ``None`` when
    cut or out of memory.  A ``milp`` solve there includes the scipy
    import, which :func:`milp_assignment` does on its first call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if p)

    def limit() -> None:
        import resource

        cap = memory_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    try:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, json.dumps(kwargs), method],
            env=env, capture_output=True, text=True, timeout=cap_s,
            preexec_fn=limit)
    except subprocess.TimeoutExpired:
        return None, None
    if proc.returncode != 0:
        return None, None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["solve_s"], out["objective"]


def fmt(values, cap_s: float) -> str:
    if any(v is None for v in values):
        done = [v for v in values if v is not None]
        cut = len(values) - len(done)
        med = statistics.median(done) if done else None
        head = f"{med:.3f}" if med is not None else "-"
        return f"{head} / >{cap_s:.0f} ({cut} cut)"
    return f"{statistics.median(values):.3f} / {max(values):.3f}"


def timed_pair(kwargs: dict, args):
    """(forward seconds or ``None``, warm MILP seconds); exits on a
    disagreement between the two optima."""
    from repro.baselines.milp import milp_assignment
    from repro.workloads import random_problem

    started = time.perf_counter()
    assignment, _ = milp_assignment(random_problem(**kwargs))
    warm = time.perf_counter() - started
    seconds, objective = run_child(kwargs, "forward", args.forward_cap,
                                   args.memory_mb)
    if objective is not None:
        milp_objective = assignment.end_to_end_delay()
        if abs(objective - milp_objective) > 1e-9 * objective:
            sys.exit(f"MISMATCH {kwargs}: forward {objective!r} vs MILP "
                     f"{milp_objective!r}")
    return seconds, warm


def by_scatter(args) -> int:
    from repro.core.portfolio import instance_features
    from repro.workloads import random_problem

    print(f"n in {args.sizes}, seeds 0..{args.seeds - 1}, n_satellites = "
          f"4 + seed % 3, sensor_scatter in 0/0.5/0.75/1.0; seconds as "
          f"median / max")
    print("| max_children | scatter ratio | instances | forward | "
          "MILP warm |")
    print("|---|---|---|---|---|")
    for max_children in args.max_children:
        bands = {band: ([], []) for band in SCATTER_BANDS}
        for n in args.sizes:
            for sensor_scatter in (0.0, 0.5, 0.75, 1.0):
                for seed in range(args.seeds):
                    kwargs = instance(n, seed, sensor_scatter, max_children)
                    ratio = instance_features(
                        random_problem(**kwargs))["scatter_ratio"]
                    band = next(b for b in SCATTER_BANDS
                                if b[0] <= ratio < b[1])
                    forward, warm = timed_pair(kwargs, args)
                    bands[band][0].append(forward)
                    bands[band][1].append(warm)
        for (low, high), (forward, warm) in bands.items():
            if forward:
                print(f"| {max_children} | [{low:.2f}, {min(high, 1.0):.2f}"
                      f"{']' if high > 1.0 else ')'} | {len(forward)} | "
                      f"{fmt(forward, args.forward_cap)} | {fmt(warm, 0)} |",
                      flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[44, 48, 52, 56, 60, 64, 70])
    parser.add_argument("--seeds", type=int, default=6)
    parser.add_argument("--forward-cap", type=float, default=20.0)
    parser.add_argument("--memory-mb", type=int, default=2500)
    parser.add_argument("--by-scatter", action="store_true",
                        help="time by scatter-ratio band instead")
    parser.add_argument("--max-children", type=int, nargs="+",
                        default=[2, 3], help="tree shapes of --by-scatter")
    args = parser.parse_args(argv)

    from repro.baselines.milp import milp_assignment
    from repro.workloads import random_problem

    milp_assignment(random_problem(**instance(10, 0)))  # warm the import
    if args.by_scatter:
        return by_scatter(args)
    print(f"seeds 0..{args.seeds - 1}, n_satellites = 4 + seed % 3, "
          f"binary trees, sensor_scatter=1.0; seconds as median / max")
    print("| n | forward | MILP warm | MILP cold |")
    print("|---|---|---|---|")
    for n in args.sizes:
        forward, warm, cold = [], [], []
        for seed in range(args.seeds):
            kwargs = instance(n, seed)
            seconds, seconds_warm = timed_pair(kwargs, args)
            forward.append(seconds)
            warm.append(seconds_warm)
            cold.append(run_child(kwargs, "milp", 120.0, args.memory_mb)[0])
        print(f"| {n} | {fmt(forward, args.forward_cap)} | "
              f"{fmt(warm, 0)} | {fmt(cold, 0)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
