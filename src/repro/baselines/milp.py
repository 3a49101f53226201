"""Exact solve as a mixed-integer linear program (HiGHS via scipy).

The paper's problem is a tree cut: every processing CRU that has a
correspondent satellite either stays on the host or moves, with its whole
subtree, to that one satellite.  That makes a small MILP:

* one binary ``y_i`` per non-root processing CRU with a correspondent
  satellite (``y_i = 1``: ``i`` runs on it); every other processing CRU,
  the root included, stays on the host;
* precedence ``y_parent <= y_child``: an offloaded CRU takes its children
  along;
* the load of satellite ``q`` is linear in ``y``: the satellite time of its
  offloaded CRUs plus the link cost of every edge whose child runs on ``q``
  while the parent stays on the host (``y_child - y_parent`` below an
  offloadable parent, ``y_child`` below a host-bound one, ``1 - y_parent``
  for a sensor child);
* minimise ``λ_S·host + λ_B·B`` subject to ``B >= load_q`` for every ``q``.

The instance is read only through the model API, so the formulation shares
no code with the label engines or the tree DP it is checked against.  The
answer is rebuilt as an :class:`~repro.core.assignment.Assignment`, checked
feasible, and re-evaluated: a disagreement beyond ``1e-9`` relative
(absolute below 1) between that value and the model objective raises.

scipy is imported inside :func:`milp_assignment`: the import costs more
than ``import repro`` itself, and only the instances routed here pay it.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.assignment import HOST_DEVICE, Assignment
from repro.core.context import (
    INTERRUPT_DEADLINE,
    DeadlineExpired,
    SolveContext,
)
from repro.core.dwg import SSBWeighting
from repro.model.problem import AssignmentProblem

#: The re-evaluated objective must match the model's to this relative
#: precision, absolute below 1 (the two sum the same terms in different
#: orders).
_OBJECTIVE_RTOL = 1e-9

#: HiGHS statuses as scipy reports them: 0 is a proven optimum, 1 a time
#: or iteration limit (``x`` set when a solution was found by then).
_OPTIMAL, _LIMIT = 0, 1

#: Serialises the fd-1 redirect: two threads swapping fd 1 at once could
#: leave it pointing at ``/dev/null`` for good.
_STDOUT_LOCK = threading.Lock()


@contextmanager
def _stdout_silenced() -> Iterator[None]:
    """Point file descriptor 1 at ``/dev/null`` for the duration.

    HiGHS prints stray progress lines straight to fd 1 whatever its display
    options say, which would corrupt JSON written to stdout.  Other threads'
    writes to fd 1 are dropped while the redirect holds.
    """
    with _STDOUT_LOCK:
        sys.stdout.flush()
        saved = os.dup(1)
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, 1)
            yield
        finally:
            os.dup2(saved, 1)
            os.close(saved)
            os.close(devnull)


def _model(problem: AssignmentProblem, weighting: SSBWeighting):
    """Columns ``y`` then ``B``; rows: bottleneck, then precedence.

    Returns ``(free, corr, c, rows, lower, upper, load_const, load_coef)``
    where ``load_q = load_const[q] + load_coef[q] @ y``.
    """
    tree = problem.tree
    root = tree.root_id
    corr = problem.correspondent_satellites()
    free: List[str] = [i for i in tree.processing_ids()
                       if i != root and corr[i] is not None]
    column = {cru_id: k for k, cru_id in enumerate(free)}
    satellites = list(problem.system.satellite_ids())
    sat_row = {sid: r for r, sid in enumerate(satellites)}
    n = len(free)

    load_coef = np.zeros((len(satellites), n))
    load_const = np.zeros(len(satellites))
    c = np.zeros(n + 1)
    c[n] = weighting.lambda_b
    for cru_id in free:
        c[column[cru_id]] = -weighting.lambda_s * problem.host_time(cru_id)
        load_coef[sat_row[corr[cru_id]], column[cru_id]] += \
            problem.satellite_time(cru_id)
    precedence: List[Tuple[int, int]] = []
    for parent, child in tree.edges():
        cost = problem.comm_cost(child, parent)
        parent_col = column.get(parent)
        if tree.cru(child).is_sensor:
            row = sat_row[problem.sensor_attachment[child]]
            load_const[row] += cost
            if parent_col is not None:
                load_coef[row, parent_col] -= cost
            continue
        child_col = column.get(child)
        if child_col is None:
            continue                                # host-host edge
        row = sat_row[corr[child]]
        load_coef[row, child_col] += cost
        if parent_col is not None:
            load_coef[row, parent_col] -= cost
            precedence.append((parent_col, child_col))

    # B - load_coef_q @ y >= load_const_q, then y_parent - y_child <= 0
    bottleneck = np.hstack([-load_coef, np.ones((len(satellites), 1))])
    prec = np.zeros((len(precedence), n + 1))
    for r, (p, ch) in enumerate(precedence):
        prec[r, p] = 1.0
        prec[r, ch] = -1.0
    rows = np.vstack([bottleneck, prec])
    lower = np.concatenate([load_const, np.full(len(precedence), -np.inf)])
    upper = np.concatenate([np.full(len(satellites), np.inf),
                            np.zeros(len(precedence))])
    return free, corr, c, rows, lower, upper, load_const, load_coef


def milp_assignment(problem: AssignmentProblem,
                    weighting: Optional[SSBWeighting] = None,
                    context: Optional[SolveContext] = None
                    ) -> Tuple[Assignment, Dict[str, Any]]:
    """The optimal assignment, solved as a MILP by HiGHS.

    ``context`` is checked before the model is built and again after the
    scipy import, and its remaining time becomes HiGHS' ``time_limit``.
    HiGHS cannot see a cancel token mid-solve, so a cancellation is only
    observed at those checks.  When the limit stops HiGHS holding a
    solution, that solution comes back with ``details["interrupted"] =
    "deadline"``; holding none, the context's checkpoint raises.
    """
    weighting = weighting or SSBWeighting()
    if context is not None:
        context.checkpoint()
    from scipy.optimize import Bounds, LinearConstraint, milp

    if context is not None:
        context.checkpoint()
    free, corr, c, rows, lower, upper, load_const, load_coef = \
        _model(problem, weighting)
    n = len(free)
    constraints = LinearConstraint(rows, lower, upper)
    integrality = np.r_[np.ones(n), 0.0]
    bounds = Bounds(0.0, np.r_[np.ones(n), np.inf])
    # HiGHS' presolve is slower on these models and, on rare instances,
    # ends in "optimal, but with primal infeasibilities" (status 4); it
    # is only the fallback
    for presolve in (False, True):
        options: Dict[str, Any] = {"mip_rel_gap": 0.0, "mip_abs_gap": 0.0,
                                   "presolve": presolve}
        if context is not None and context.deadline is not None:
            remaining = context.remaining()
            if remaining <= 0.0:
                context.checkpoint()
            options["time_limit"] = remaining
        with warnings.catch_warnings(), _stdout_silenced():
            # scipy forwards mip_abs_gap to HiGHS but warns it is unknown
            warnings.filterwarnings("ignore", category=RuntimeWarning,
                                    message=".*mip_abs_gap.*")
            res = milp(c, constraints=constraints, integrality=integrality,
                       bounds=bounds, options=options)
        if res.status in (_OPTIMAL, _LIMIT):
            break
    interrupted: Optional[str] = None
    if res.status != _OPTIMAL:
        if res.status != _LIMIT or context is None:
            raise RuntimeError(f"HiGHS did not solve the assignment MILP: "
                               f"{res.message}")
        if res.x is None:
            context.checkpoint()
            raise DeadlineExpired()
        interrupted = context.interrupted() or INTERRUPT_DEADLINE

    y = np.round(res.x[:n])
    placement: Dict[str, str] = {}
    for cru_id in problem.tree.cru_ids():
        if problem.tree.cru(cru_id).is_sensor:
            placement[cru_id] = problem.sensor_attachment[cru_id]
        else:
            placement[cru_id] = HOST_DEVICE
    for k, cru_id in enumerate(free):
        if y[k]:
            placement[cru_id] = corr[cru_id]
    assignment = Assignment(problem, placement)
    if not assignment.is_feasible():
        raise RuntimeError("the MILP solution is not a feasible placement: "
                           f"{assignment.feasibility_errors()}")
    objective = weighting.combine(assignment.host_load(),
                                  assignment.max_satellite_load())
    host = sum(problem.host_time(i) for i in problem.tree.processing_ids())
    loads = load_const + load_coef @ y
    model_objective = (float(c[:n] @ y) + weighting.lambda_s * host
                       + weighting.lambda_b * float(loads.max(initial=0.0)))
    if abs(objective - model_objective) > \
            _OBJECTIVE_RTOL * max(1.0, abs(objective)):
        raise RuntimeError(f"MILP objective {model_objective!r} disagrees "
                           f"with its re-evaluation {objective!r}")
    if context is not None:
        context.report_incumbent(objective, source="milp")
    details: Dict[str, Any] = {"objective": objective,
                               "optimal_proven": res.status == _OPTIMAL}
    if interrupted is not None:
        details["interrupted"] = interrupted
    return assignment, details
