"""The HiGHS MILP engine: exactness, deadline and cancel handling, stdout
hygiene and the lazy scipy import."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.baselines.milp as milp_module
from repro.baselines.milp import milp_assignment
from repro.core.context import SolveCancelled, SolveContext, SolveInterrupted
from repro.core.solver import solve
from repro.workloads import random_problem

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

SHAPES = {
    "chain": dict(max_children=1, sensor_scatter=0.5),
    "star": dict(max_children=64, sensor_scatter=0.5),
    "scattered": dict(max_children=3, sensor_scatter=1.0),
}


def routed_instance():
    """Scattered n=50: the portfolio's MILP regime.  On the HiGHS shipped
    with scipy 1.17 this instance makes HiGHS print a stray line to fd 1."""
    return random_problem(n_processing=50, n_satellites=6, seed=13,
                          sensor_scatter=1.0, max_children=2)


class TestExactness:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("seed", range(2))
    def test_agrees_with_brute_force(self, shape, n, seed):
        problem = random_problem(n_processing=n, n_satellites=3,
                                 seed=seed * 100 + n, **SHAPES[shape])
        reference = solve(problem, method="brute-force").objective
        assignment, details = milp_assignment(problem)
        assert assignment.is_feasible()
        assert details["optimal_proven"]
        assert assignment.end_to_end_delay() == pytest.approx(reference,
                                                              rel=1e-9)

    def test_paper_example(self, paper_problem):
        assignment, details = milp_assignment(paper_problem)
        assert assignment.end_to_end_delay() == pytest.approx(7.6)
        assert details["objective"] == assignment.end_to_end_delay()


class TestDeadline:
    def test_tiny_deadline_returns_feasible_or_timeout(self):
        # the fake clock never advances, so HiGHS gets the whole 1 ms as
        # its own time limit — far too little for an n=200 tree
        problem = random_problem(n_processing=200, n_satellites=8, seed=3,
                                 sensor_scatter=1.0, max_children=2)
        context = SolveContext(deadline_s=0.001, clock=lambda: 0.0)
        try:
            assignment, details = milp_assignment(problem, context=context)
        except SolveInterrupted as exc:
            assert exc.kind == "deadline"
        else:
            assert assignment.is_feasible()
            assert details["interrupted"] == "deadline"
            assert not details["optimal_proven"]

    def test_portfolio_keeps_an_answer_under_a_tiny_deadline(self):
        result = solve(routed_instance(), method="portfolio",
                       context=SolveContext(deadline_s=0.001,
                                            clock=lambda: 0.0))
        assert result.status == "feasible"
        assert result.interrupted == "deadline"
        assert result.assignment.is_feasible()

    def test_preset_cancel_returns_before_highs_runs(self, monkeypatch):
        import scipy.optimize

        def highs_must_not_run(*args, **kwargs):
            raise AssertionError("HiGHS ran under a cancelled context")

        monkeypatch.setattr(scipy.optimize, "milp", highs_must_not_run)
        context = SolveContext()
        context.cancel()
        with pytest.raises(SolveCancelled):
            milp_assignment(routed_instance(), context=context)


class TestStdout:
    def test_silencer_drops_fd1_writes_and_restores_it(self, capfd):
        with milp_module._stdout_silenced():
            os.write(1, b"dropped\n")
        os.write(1, b"kept\n")
        assert capfd.readouterr().out == "kept\n"

    def test_other_threads_fd1_writes_are_dropped_while_silenced(self,
                                                                capfd):
        # the redirect is process-wide: this is the accepted cost
        writer = threading.Thread(target=os.write, args=(1, b"lost\n"))
        with milp_module._stdout_silenced():
            writer.start()
            writer.join()
        os.write(1, b"kept\n")
        assert capfd.readouterr().out == "kept\n"

    def test_threaded_solves_run_one_at_a_time_and_agree(self, capfd,
                                                         monkeypatch):
        import scipy.optimize

        active, peak, lock = [0], [0], threading.Lock()
        real_milp = scipy.optimize.milp

        def counting_milp(*args, **kwargs):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                return real_milp(*args, **kwargs)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(scipy.optimize, "milp", counting_milp)
        problem = routed_instance()
        serial = milp_assignment(problem)[1]["objective"]
        objectives = []
        threads = [threading.Thread(target=lambda: objectives.append(
            milp_assignment(problem)[1]["objective"])) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert objectives == [serial] * 3
        assert peak[0] == 1
        os.write(1, b"kept\n")
        assert capfd.readouterr().out == "kept\n"

    def test_routed_portfolio_solve_writes_nothing_to_fd1(self, capfd):
        result = solve(routed_instance(), method="portfolio")
        assert result.details["winner"] in ("milp", "greedy")
        assert [s["stage"] for s in result.details["stages"]][1] == "milp"
        assert capfd.readouterr().out == ""

    def test_warning_about_mip_abs_gap_is_silenced(self, recwarn):
        milp_assignment(random_problem(n_processing=8, n_satellites=3,
                                       seed=1, sensor_scatter=1.0))
        assert not [w for w in recwarn if "mip_abs_gap" in str(w.message)]


class TestLazyImport:
    def test_small_portfolio_solve_never_imports_scipy(self):
        code = (
            "import sys\n"
            "import repro\n"
            "from repro.core.solver import solve\n"
            "from repro.workloads import random_problem\n"
            "problem = random_problem(n_processing=10, n_satellites=3,\n"
            "                         seed=1, sensor_scatter=1.0)\n"
            "assert solve(problem, method='portfolio').status == 'optimal'\n"
            "print('scipy' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

