"""Independent optimality oracle: the paper's problem as a HiGHS MILP.

The oracle reads an instance only through the model API (tree shape,
sensor wiring, execution times, link costs) and derives everything else
itself, so it shares no code with the solvers it checks.

Model (one binary ``y_i`` per processing CRU that may leave the host):

* ``y_i = 1`` runs CRU ``i`` and its whole subtree on the one satellite
  all of the subtree's sensors are wired to; CRUs whose sensors span
  several satellites, and the root, stay on the host;
* precedence: ``y_parent <= y_child`` (an offloaded CRU takes its
  children along);
* the load of satellite ``q`` is linear in ``y``: the satellite time of
  its offloaded CRUs, plus the link cost of every edge whose child runs on
  ``q`` while the parent runs on the host (``y_child - y_parent`` for an
  offloadable parent, ``y_child`` for a host-bound one, ``1 - y_parent``
  for a sensor child);
* minimise host load + ``B`` subject to ``B >= load_q`` for every ``q``.

HiGHS runs with ``mip_rel_gap=0``; its absolute gap stays at the HiGHS
default of 1e-6, which is why :data:`OBJECTIVE_TOLERANCE` is absolute.
The returned objective is the rounded solution re-evaluated through
:class:`repro.core.assignment.Assignment`, the same arithmetic every
solver's answer is scored with.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

#: Two objectives agree when they differ by at most this much.  HiGHS
#: proves optimality up to an absolute gap of 1e-6; objectives in this
#: benchmark are O(1..100), so this is far below any real difference.
OBJECTIVE_TOLERANCE = 2e-6


@dataclass(frozen=True)
class OracleResult:
    objective: float
    placement: Dict[str, str]


def objectives_agree(a: float, b: float) -> bool:
    return abs(a - b) <= OBJECTIVE_TOLERANCE


def _correspondents(problem) -> Dict[str, Optional[str]]:
    """CRU id -> the single satellite its subtree's sensors use, or None."""
    tree = problem.tree
    satellites: Dict[str, set] = {}
    out: Dict[str, Optional[str]] = {}
    for cru_id in tree.postorder():
        if tree.cru(cru_id).is_sensor:
            sats = {problem.sensor_attachment[cru_id]}
        else:
            sats = set()
            for child in tree.children_ids(cru_id):
                sats |= satellites[child]
        satellites[cru_id] = sats
        out[cru_id] = next(iter(sats)) if len(sats) == 1 else None
    return out


@dataclass
class _Model:
    """One instance's MILP: columns ``y`` then ``B``; bottleneck rows,
    then precedence rows."""

    problem: object
    free: List[str]
    corr: Dict[str, Optional[str]]
    c: np.ndarray
    rows: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    host_const: float


def _model(problem) -> _Model:
    tree = problem.tree
    root = tree.root_id
    corr = _correspondents(problem)
    free: List[str] = [i for i in tree.processing_ids()
                       if i != root and corr[i] is not None]
    index = {cru_id: k for k, cru_id in enumerate(free)}
    sat_ids = list(problem.system.satellite_ids())
    sat_row = {sid: r for r, sid in enumerate(sat_ids)}
    n = len(free)
    b_var = n                                  # the bottleneck variable B

    # load_q = const[q] + coef[q] @ y
    coef = np.zeros((len(sat_ids), n + 1))
    const = np.zeros(len(sat_ids))
    host_const = 0.0
    c = np.zeros(n + 1)
    c[b_var] = 1.0
    for cru_id in tree.processing_ids():
        h = problem.host_time(cru_id)
        host_const += h
        if cru_id in index:
            k = index[cru_id]
            c[k] -= h                           # leaving the host saves h
            coef[sat_row[corr[cru_id]], k] += problem.satellite_time(cru_id)
    precedence = []
    for parent, child in tree.edges():
        cost = problem.comm_cost(child, parent)
        parent_var = index.get(parent)
        if tree.cru(child).is_sensor:
            row = sat_row[problem.sensor_attachment[child]]
            const[row] += cost
            if parent_var is not None:
                coef[row, parent_var] -= cost
            continue
        child_var = index.get(child)
        if child_var is None:
            continue                             # host-host edge
        row = sat_row[corr[child]]
        coef[row, child_var] += cost
        if parent_var is not None:
            coef[row, parent_var] -= cost
            precedence.append((parent_var, child_var))

    # B - coef_q @ y >= const_q, then y_parent - y_child <= 0
    bottleneck = -coef
    bottleneck[:, b_var] = 1.0
    prec = np.zeros((len(precedence), n + 1))
    for r, (p, ch) in enumerate(precedence):
        prec[r, p] = 1.0
        prec[r, ch] = -1.0
    return _Model(problem, free, corr, c, np.vstack([bottleneck, prec]),
                  np.concatenate([const, np.full(len(precedence), -np.inf)]),
                  np.concatenate([np.full(len(sat_ids), np.inf),
                                  np.zeros(len(precedence))]),
                  host_const)


def solve_optimum(problem, time_limit_s: float = 60.0) -> OracleResult:
    """Proven optimum of ``problem``; raises ``RuntimeError`` otherwise."""
    m = _model(problem)
    # HiGHS' presolve is slower on these models and, on rare instances,
    # ends in "claims optimality, but with primal infeasibilities" (status
    # 4); it is only the fallback
    for presolve in (False, True):
        res = milp(m.c, constraints=LinearConstraint(m.rows, m.lower,
                                                     m.upper),
                   integrality=np.r_[np.ones(len(m.free)), 0.0],
                   bounds=Bounds(0.0, np.r_[np.ones(len(m.free)), np.inf]),
                   options={"mip_rel_gap": 0.0, "presolve": presolve,
                            "time_limit": time_limit_s})
        if res.status == 0 and res.x is not None:
            return _result(m, res.x)
    raise RuntimeError(f"oracle MILP did not prove an optimum: "
                       f"{res.message}")


def spec_key(spec) -> str:
    return json.dumps(spec, sort_keys=True)


def optima(specs: Iterable, workers: int = 2) -> Dict[str, float]:
    """Optimum per instance spec (keyed by :func:`spec_key`).

    Runs after the timed part of a run, in ``workers`` child interpreters
    (``python3 perfbench/oracle.py``), so the oracle's cost is never timed
    and its wall time halves.  Plain subprocesses rather than a
    ``multiprocessing`` pool: the pool's resource-tracker process outlives
    the pool, and every child here is waited for before this returns.
    """
    unique = {spec_key(spec): spec for spec in specs}
    keys = list(unique)
    shares = [keys[w::workers] for w in range(workers)]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    procs = [subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, cwd=root, env=env, text=True)
        for share in shares if share]
    outputs: List[Optional[str]] = [None] * len(procs)

    def talk(k: int) -> None:
        request = json.dumps([unique[key] for key in shares[k]])
        outputs[k] = procs[k].communicate(request, timeout=150)[0]

    threads = [threading.Thread(target=talk, args=(k,))
               for k in range(len(procs))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    out: Dict[str, float] = {}
    for k, proc in enumerate(procs):
        if proc.returncode != 0 or not outputs[k]:
            raise RuntimeError(f"oracle worker exited with "
                               f"{proc.returncode}")
        out.update(zip(shares[k], json.loads(outputs[k])))
    return out


def _worker() -> int:
    """Reads a JSON list of specs on stdin; prints their optima as one
    JSON list.  HiGHS prints stray lines on fd 1, so fd 1 goes to
    ``/dev/null`` and the answer to a duplicate of the original."""
    from perfbench.workloads import build

    specs = json.load(sys.stdin)
    answer = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    values = [solve_optimum(build(spec)).objective for spec in specs]
    answer.write(json.dumps(values) + "\n")
    answer.close()
    return 0


def _result(m: _Model, x: np.ndarray) -> OracleResult:
    from repro.core.assignment import HOST_DEVICE, Assignment

    tree = m.problem.tree
    offloaded = {m.free[k] for k in range(len(m.free)) if x[k] > 0.5}
    placement: Dict[str, str] = {}
    for cru_id in tree.preorder():
        if tree.cru(cru_id).is_sensor:
            placement[cru_id] = m.problem.sensor_attachment[cru_id]
            continue
        parent = tree.parent_id(cru_id)
        if cru_id in offloaded or (parent is not None
                                   and placement[parent] != HOST_DEVICE):
            placement[cru_id] = m.corr[cru_id]
        else:
            placement[cru_id] = HOST_DEVICE
    assignment = Assignment(m.problem, placement)
    if not assignment.is_feasible():
        raise RuntimeError("oracle MILP produced an infeasible placement")
    objective = assignment.end_to_end_delay()
    milp_objective = float(m.c @ x) + m.host_const
    if not objectives_agree(objective, milp_objective):
        raise RuntimeError(
            f"oracle objective {milp_objective!r} disagrees with its "
            f"re-evaluation {objective!r}")
    return OracleResult(objective=objective, placement=placement)


if __name__ == "__main__":
    sys.exit(_worker())
