"""The in-process workloads: ``traffic`` and ``hard``.

One caller, closed loop: build an instance (untimed), solve it with
``solve(problem, method="portfolio")`` (timed), keep the answer.  The run
ends once the timed solves add up to ``--seconds``.  Only then are the
oracle optima computed and every answer checked, so neither is timed.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench import workloads
from perfbench.common import HostClock, Tally, end_to_end, judge
from perfbench.oracle import optima, spec_key
from perfbench.tracing import LAYERS, Tracer

#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Workloads whose every timed second is CPU time, reported in
#: reference-host time (see HostClock).  ``hard`` is not one: its solves
#: are bounded by a wall-clock deadline, which does not scale with the host.
CPU_BOUND = ("traffic",)


def _solve(problem, deadline_s: Optional[float]):
    from repro import solve

    return solve(problem, method="portfolio", deadline_s=deadline_s)


class Answer:
    """One solve as the benchmark saw it; judged after the timed loop."""

    __slots__ = ("spec", "latency_s", "objective", "placement", "status",
                 "error", "chunk_ms", "reported_s")

    def __init__(self, spec, latency_s, objective=None, placement=None,
                 status=None, error=None):
        self.spec = spec
        self.latency_s = latency_s
        self.objective = objective
        self.placement = placement
        self.status = status
        self.error = error
        self.chunk_ms = 0.0           #: calibration chunk timed right after
        self.reported_s = latency_s   #: the latency the metrics use

    def add_to(self, tally: Tally, optimum: float,
               deadline_s: Optional[float] = None) -> None:
        key = spec_key(self.spec)
        if self.error is not None:
            tally.add_failure(self.reported_s, self.error, key)
            return
        tally.add(self.reported_s,
                  judge(workloads.build(self.spec), self.placement,
                        self.objective, self.status, optimum), deadline_s,
                  key)


def _timed_solve(spec, deadline_s: Optional[float],
                 tracer: Optional[Tracer], traced: bool, request: int):
    """Solve a fresh copy of ``spec``; ``(answer, result or None)``."""
    problem = workloads.build(spec)
    if tracer is not None:
        tracer.active = traced
        tracer.request = request
    started = time.perf_counter()
    try:
        if traced:
            result = tracer.span("solve", _solve, problem, deadline_s)
        else:
            result = _solve(problem, deadline_s)
    except Exception as exc:         # noqa: BLE001 — counted as a failure
        return Answer(spec, time.perf_counter() - started,
                      error=f"raised {exc!r}"), None
    finally:
        if tracer is not None:
            tracer.active = False
    latency = time.perf_counter() - started
    placement = (dict(result.assignment.placement)
                 if result.assignment is not None else None)
    return Answer(spec, latency, result.objective, placement,
                  result.status), result


def cold_start(root: str, spec: workloads.Spec,
               deadline_s: Optional[float]) -> Answer:
    """Spawn a fresh interpreter; time it until it prints its answer."""
    from repro.model.serialization import problem_to_dict

    request = json.dumps({"problem": problem_to_dict(workloads.build(spec)),
                          "deadline_s": deadline_s})
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(root, "perfbench", "coldstart.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env,
        text=True)
    try:
        out, _ = proc.communicate(request, timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    latency = time.perf_counter() - started
    if proc.returncode != 0:
        return Answer(spec, latency,
                      error=f"cold start exited with {proc.returncode}")
    answer = json.loads(out.strip().splitlines()[-1])
    return Answer(spec, latency, answer["objective"], answer["placement"],
                  answer["status"])


def _specs(workload: str, seed: int) -> Iterator[workloads.Spec]:
    if workload == "traffic":
        return itertools.cycle(workloads.traffic_pool(seed))
    return workloads.hard_specs(seed)


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: str, clock: HostClock) -> Dict[str, Any]:
    deadline_s = workloads.HARD_DEADLINE_S if workload == "hard" else None
    specs = _specs(workload, seed)

    setup = []
    for _ in range(SETUP_REPEATS):
        setup.append(cold_start(root, next(specs), deadline_s))
        clock.sample(5)
    for answer in setup:                      # warm-up, untimed
        _solve(workloads.build(answer.spec), deadline_s)

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    untraced: List[Answer] = []
    traced: List[Answer] = []
    ordered: List[Answer] = []
    overshoot_ms: List[float] = []
    elapsed = 0.0
    gc.collect()
    gc.freeze()
    try:
        for i, spec in enumerate(specs):
            if elapsed >= seconds:
                break
            # the traced run solves each instance twice, traced and not,
            # alternating which goes first: the pairs give the overhead
            modes = (False,) if tracer is None else (
                (True, False) if i % 2 == 0 else (False, True))
            for mode in modes:
                answer, result = _timed_solve(spec, deadline_s, tracer,
                                              mode, i)
                elapsed += answer.latency_s
                answer.chunk_ms = clock.sample()
                ordered.append(answer)
                (traced if mode else untraced).append(answer)
                if mode and result is not None and result.interrupted:
                    overshoot_ms.append(
                        (answer.latency_s - deadline_s) * 1e3)
                del result
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.uninstall()

    measured = (len(untraced) / sum(a.latency_s for a in untraced),
                statistics.median(a.latency_s for a in setup))
    if workload in CPU_BOUND:
        reference = HostClock.to_reference(
            [a.latency_s for a in ordered], [a.chunk_ms for a in ordered])
        for answer, scaled in zip(ordered, reference):
            answer.reported_s = scaled
    # a cold start is interpreter start-up, imports and one solve, CPU
    # time on every workload: set-up is in reference-host time everywhere
    for answer in setup:
        answer.reported_s = clock.reference_s(answer.latency_s)
    optimum = optima(a.spec for a in setup + untraced + traced)
    tally, traced_tally, setup_tally = Tally(), Tally(), Tally()
    for answers, into in ((untraced, tally), (traced, traced_tally),
                          (setup, setup_tally)):
        for answer in answers:
            answer.add_to(into, optimum[spec_key(answer.spec)], deadline_s)

    # one caller, closed loop: throughput is the inverse mean latency,
    # taken per instance like the latency percentiles
    typical = tally.typical()
    report: Dict[str, Any] = {
        "metrics": end_to_end(
            tally, tally.correct / tally.attempted * len(typical)
            / sum(typical),
            statistics.median(a.reported_s for a in setup), deadline_s),
        "attempted": (tally.attempted + traced_tally.attempted
                      + setup_tally.attempted),
        "failures": (setup_tally.failures + tally.failures
                     + traced_tally.failures),
        "notes": {"solves": tally.attempted,
                  "unique instances": len(optimum),
                  "deadline_s": deadline_s,
                  "times": (("reference-host" if workload in CPU_BOUND
                             else "as measured, setup_s reference-host")
                            + f" (see README); as measured: "
                            f"{measured[0]:.4g} solves/s, setup "
                            f"{measured[1]:.4g} s")},
    }
    if tracer is not None:
        report["layers"], report["absent"] = _layer_metrics(
            tracer, len(traced), overshoot_ms, deadline_s)
        report["overhead_pct"] = (
            sum(a.latency_s for a in traced)
            / sum(a.latency_s for a in untraced) - 1.0) * 100.0
        os.makedirs(os.path.join(root, ".perfbench-run"), exist_ok=True)
        tracer.write(os.path.join(root, ".perfbench-run",
                                  f"spans-{workload}-{seed}.jsonl"))
    return report


def _layer_metrics(tracer: Tracer, solves: int, overshoot_ms: List[float],
                   deadline_s: Optional[float]
                   ) -> Tuple[Dict[str, Any], Dict[str, str]]:
    self_s = tracer.self_times()
    calls = tracer.calls()
    counters = tracer.counters
    per_solve = max(solves, 1)
    layers: Dict[str, Any] = {}
    absent: Dict[str, str] = dict(tracer.absent)
    for layer in LAYERS:
        layers[f"{layer}.self_ms"] = (self_s.get(layer, 0.0) * 1e3
                                      / per_solve, "ms")
        if layer not in calls and layer not in absent:
            absent[layer] = "not called on this workload"
    layers["core.assignment_graph.edges"] = (
        counters["core.assignment_graph.edges"]
        / max(counters["core.assignment_graph.graphs"], 1), "count")
    layers["baselines.pareto_dp.calls"] = (
        calls.get("baselines.pareto_dp", 0) / per_solve, "count")
    layers["core.label_search.labels_created"] = (
        counters["core.label_search.labels_created"] / per_solve, "count")
    generated = counters["core.label_search.labels_generated"]
    layers["core.label_search.useful_ratio"] = (
        counters["core.label_search.labels_useful"] / generated
        if generated else 0.0, "share")
    layers["core.context.overshoot_max_ms"] = (
        max(overshoot_ms) if overshoot_ms else 0.0, "ms")
    if deadline_s is None:
        absent["core.context"] = "no deadline on this workload"
    elif not overshoot_ms:
        absent["core.context"] = "no solve was cut by its deadline"
    return layers, absent
