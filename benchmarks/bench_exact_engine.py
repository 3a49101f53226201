"""Exact-engine benchmark: the portfolio's exact stages and the streamed DP.

Tracks the two regimes the exact engines were sized for:

* **deep scattered trees** (``sensor_scatter=1.0``) — the portfolio runs
  the forward label sweep below n=50 and the HiGHS MILP from n=50 (see
  the crossover table in the README).  The forward sweep's tail walls out
  between n=50 and n=60 on these instances (seed 3: 0.24s at n=50 but
  >60s at n=60), while the MILP stays near 0.1s;
* **wide stars** (``max_children=64``) — home turf of the streamed pruned
  DP with per-colour completion floors, which used to grind near n=40.

The fast lane feeds ``BENCH_bench_exact_engine.json`` (nightly artifact +
perf-regression gate) and holds the forward engine's existing 0.4s wall
at scattered n=50.  The slow lane asserts the acceptance walls: the
portfolio proves scattered n=70 optimal under 5s, and the pruned DP
solves the wide-star n=40 under 1s.
"""

import time

import pytest

from repro.analysis.smoke import smoke_scaled
from repro.core.solver import solve
from repro.workloads.generators import random_problem

SCATTER_SEED = 3
PORTFOLIO_SIZES = smoke_scaled((45, 50), (12, 14))
STAR_SIZES = smoke_scaled((28, 36), (10, 12))
FORWARD_WALL_N = smoke_scaled(50, 20)
FORWARD_WALL_S = 0.4
N70_WALL_S = 5.0
STAR_WALL_S = 1.0


def scattered_problem(n_processing, n_satellites=4, seed=SCATTER_SEED):
    return random_problem(n_processing=n_processing, n_satellites=n_satellites,
                          seed=seed, sensor_scatter=1.0)


def wide_star_problem(n_processing, seed=7):
    # max_children=64 yields bushy depth-~5 trees with very wide layers; the
    # moderate scatter keeps offloads attractive enough that the DP frontier
    # is load-diverse (the regime that used to explode before streaming)
    return random_problem(n_processing=n_processing, n_satellites=4,
                          seed=seed, sensor_scatter=0.5, max_children=64)


def test_engines_agree_on_a_scattered_instance():
    problem = scattered_problem(smoke_scaled(16, 10))
    forward = solve(problem, method="colored-ssb-labels")
    portfolio = solve(problem, method="portfolio")
    assert portfolio.objective == forward.objective
    assert portfolio.status == "optimal"


@pytest.mark.parametrize("n_crus", PORTFOLIO_SIZES)
def test_bench_portfolio_scattered(benchmark, n_crus):
    # binary trees: at full size n=45 runs the forward sweep and n=50 the
    # MILP stage, so the two cells straddle the routing threshold
    problem = random_problem(n_processing=n_crus, n_satellites=4,
                             seed=SCATTER_SEED, sensor_scatter=1.0,
                             max_children=2)
    result = benchmark(lambda: solve(problem, method="portfolio"))
    assert result.status == "optimal"


@pytest.mark.parametrize("n_crus", STAR_SIZES)
def test_bench_pruned_dp_wide_star(benchmark, n_crus):
    problem = wide_star_problem(n_crus)
    result = benchmark(lambda: solve(problem, method="pareto-dp-pruned"))
    assert result.status == "optimal"


def test_scattered_n50_forward_sweep_holds_the_wall():
    # the pre-existing 0.4s wall at n=50 guards the sweep kernels
    # (pareto_block_mask, bucketed frontier); measured 0.24s on the bench
    # box
    problem = scattered_problem(FORWARD_WALL_N)
    started = time.perf_counter()
    result = solve(problem, method="colored-ssb-labels")
    elapsed = time.perf_counter() - started
    assert result.status == "optimal"
    assert result.assignment.is_feasible()
    assert elapsed < FORWARD_WALL_S, (
        f"scattered n={FORWARD_WALL_N} forward sweep took {elapsed:.2f}s "
        f"(wall {FORWARD_WALL_S}s)")


@pytest.mark.slow
def test_scattered_n70_portfolio_exact_under_five_seconds():
    # the portfolio routes this instance to the MILP stage (the forward
    # sweep takes seconds here and the pruned DP explodes); measured 0.15s
    # warm and ~1s with the cold scipy import on a 2-vCPU box
    problem = scattered_problem(70, n_satellites=6, seed=10)
    started = time.perf_counter()
    result = solve(problem, method="portfolio")
    elapsed = time.perf_counter() - started
    assert result.status == "optimal"
    assert result.details["winner"] == "milp"
    assert result.assignment.is_feasible()
    assert result.objective == pytest.approx(
        result.assignment.end_to_end_delay())
    assert elapsed < N70_WALL_S, (
        f"scattered n=70 portfolio solve took {elapsed:.2f}s "
        f"(wall {N70_WALL_S}s)")


@pytest.mark.slow
def test_wide_star_n40_pruned_dp_under_one_second():
    # worst of the committed seeds (3/7/11: 0.06s/0.57s/0.03s); the label
    # engine cross-checks the optimum from an independent search trajectory
    problem = wide_star_problem(40)
    started = time.perf_counter()
    result = solve(problem, method="pareto-dp-pruned")
    elapsed = time.perf_counter() - started
    assert result.status == "optimal"
    assert elapsed < STAR_WALL_S, (
        f"wide-star n=40 pruned DP took {elapsed:.2f}s (wall {STAR_WALL_S}s)")
    reference = solve(problem, method="colored-ssb-labels")
    assert result.objective == reference.objective
