"""Checks of the benchmark's own parts: inputs, oracle, answer checks, spans.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import itertools
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro import solve  # noqa: E402
from repro.runtime.cache import problem_fingerprint  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.common import judge  # noqa: E402
from perfbench.oracle import (objectives_agree, optima, solve_optimum,  # noqa: E402
                              spec_key)
from perfbench.tracing import LAYERS, Tracer  # noqa: E402


def _fingerprints(specs):
    return [problem_fingerprint(workloads.build(spec)) for spec in specs]


def _hard(seed, count):
    return list(itertools.islice(workloads.hard_specs(seed), count))


def _gateway(seed, count):
    return [workloads.gateway_spec(seed, workloads.gateway_request(seed, i))
            for i in range(count)]


@pytest.mark.parametrize("make", [
    lambda seed: workloads.traffic_pool(seed)[:12],
    lambda seed: _hard(seed, 6),
    lambda seed: _gateway(seed, 12),
], ids=["traffic", "hard", "gateway"])
def test_instances_are_deterministic_per_seed(make):
    assert _fingerprints(make(3)) == _fingerprints(make(3))
    assert _fingerprints(make(3)) != _fingerprints(make(4))


def test_gateway_repeats_one_request_in_five_of_an_earlier_instance():
    carried = [workloads.gateway_request(7, i) for i in range(100)]
    for index, unique in enumerate(carried):
        if index % 5 == 4:
            assert unique in carried[:index]
        else:
            assert unique not in carried[:index]


@pytest.mark.parametrize("seed", range(12))
def test_oracle_agrees_with_brute_force(seed):
    problem = workloads.build(dict(
        n_processing=5 + seed, n_satellites=2 + seed % 3,
        sensor_scatter=(0.0, 0.3, 1.0)[seed % 3],
        max_children=(2, 3, 64)[seed % 3], seed=seed))
    oracle = solve_optimum(problem)
    reference = solve(problem, method="brute-force")
    assert objectives_agree(oracle.objective, reference.objective)
    assert judge(problem, oracle.placement, oracle.objective, "optimal",
                 reference.objective).failed is None


def test_oracle_workers_match_in_process_optima():
    specs = workloads.traffic_pool(5)[:5]
    values = optima(specs + specs[:2])
    assert set(values) == {spec_key(spec) for spec in specs}
    for spec in specs:
        assert objectives_agree(values[spec_key(spec)],
                                solve_optimum(workloads.build(spec)).objective)


def test_judge_fails_wrong_answers():
    problem = workloads.build(workloads.traffic_pool(0)[5])
    result = solve(problem, method="portfolio")
    placement = dict(result.assignment.placement)
    optimum = solve_optimum(problem).objective

    good = judge(problem, placement, result.objective, result.status,
                 optimum)
    assert good.failed is None and good.optimal

    assert judge(problem, placement, result.objective + 1e-3, "feasible",
                 optimum).failed
    assert judge(problem, placement, result.objective, "optimal",
                 optimum - 1e-3).failed
    sensor = problem.tree.sensor_ids()[0]
    moved = dict(placement, **{sensor: "host"})
    assert judge(problem, moved, result.objective, "feasible",
                 optimum).failed
    assert judge(problem, None, float("inf"), "timeout", optimum).failed


def test_traced_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    tracer.install()
    try:
        for request, spec in enumerate(workloads.traffic_pool(1)[:6]):
            tracer.active = True
            tracer.request = request
            tracer.span("solve", solve, workloads.build(spec),
                        method="portfolio")
            tracer.active = False
    finally:
        tracer.uninstall()
    assert not tracer.absent
    assert {"runtime.registry", "core.portfolio", "core.label_search",
            "core.assignment.eval"} <= set(tracer.calls())
    roots = [i for i, parent in enumerate(tracer.parents) if parent < 0]
    assert len(roots) == 6
    for index, parent in enumerate(tracer.parents):
        if parent < 0:
            continue
        assert tracer.requests[index] == tracer.requests[parent]
        assert tracer.starts[parent] <= tracer.starts[index]
        assert tracer.ends[index] <= tracer.ends[parent]
    self_times = tracer.self_times()
    assert all(value >= 0 for value in self_times.values())
    total = sum(tracer.ends[i] - tracer.starts[i] for i in roots)
    assert sum(self_times.values()) == pytest.approx(total, rel=1e-9)
    assert set(self_times) <= set(LAYERS) | {"solve"}


def test_uninstall_restores_the_program():
    from repro.core import portfolio

    original = portfolio.PortfolioSolver.solve
    tracer = Tracer()
    tracer.install()
    assert portfolio.PortfolioSolver.solve is not original
    tracer.uninstall()
    assert portfolio.PortfolioSolver.solve is original
