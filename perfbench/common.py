"""Answer checks, statistics, calibration and report printing."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from perfbench.oracle import OBJECTIVE_TOLERANCE, objectives_agree

#: A solve "missed" its deadline when it returned later than the deadline
#: plus this tolerance (the cooperative polls are per swept node, so some
#: lateness is by design; ROADMAP aim 3 asks for a stated tolerance).
DEADLINE_TOLERANCE_S = 0.05


@dataclass
class Verdict:
    failed: Optional[str] = None     #: why the answer fails, None if it passes
    optimal: bool = False            #: proven optimal and equal to the oracle
    gap_pct: float = 0.0


def judge(problem, placement: Optional[Mapping[str, str]],
          objective: Optional[float], status: Optional[str],
          optimum: float) -> Verdict:
    """Re-check one answer: feasibility, its own objective, the oracle."""
    from repro.core.assignment import Assignment

    if placement is None or objective is None:
        return Verdict(failed=f"no assignment (status {status!r})")
    try:
        assignment = Assignment(problem, placement)
    except ValueError as exc:
        return Verdict(failed=f"bad placement: {exc}")
    if not assignment.is_feasible():
        return Verdict(failed="infeasible assignment")
    delay = assignment.end_to_end_delay()
    if not objectives_agree(delay, objective):
        return Verdict(failed=f"objective {objective!r} != re-evaluated "
                              f"{delay!r}")
    if objective < optimum - OBJECTIVE_TOLERANCE:
        return Verdict(failed=f"objective {objective!r} beats the oracle "
                              f"optimum {optimum!r}")
    if status == "optimal" and not objectives_agree(objective, optimum):
        return Verdict(failed=f"claims optimal at {objective!r}, oracle "
                              f"says {optimum!r}")
    gap = max(0.0, (objective - optimum) / optimum * 100.0) if optimum else 0.0
    return Verdict(optimal=status == "optimal", gap_pct=gap)


@dataclass
class Tally:
    """Per-answer outcomes of one run, folded into end-to-end metrics.

    ``keys`` names the instance behind each latency: an instance solved
    several times counts once, at its median solve (see :meth:`typical`).
    """

    latencies_s: List[float] = field(default_factory=list)
    keys: List[Any] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    optimal: int = 0
    gaps: List[float] = field(default_factory=list)
    deadline_misses: int = 0

    def add(self, latency_s: float, verdict: Verdict,
            deadline_s: Optional[float] = None, key: Any = None) -> None:
        self.attempted += 1
        self.latencies_s.append(latency_s)
        self.keys.append(key if key is not None else len(self.keys))
        if verdict.failed is not None:
            self.failures.append(verdict.failed)
            return
        self.optimal += verdict.optimal
        self.gaps.append(verdict.gap_pct)
        if (deadline_s is not None
                and latency_s > deadline_s + DEADLINE_TOLERANCE_S):
            self.deadline_misses += 1

    def add_failure(self, latency_s: float, reason: str,
                    key: Any = None) -> None:
        self.attempted += 1
        self.latencies_s.append(latency_s)
        self.keys.append(key if key is not None else len(self.keys))
        self.failures.append(reason)

    @property
    def correct(self) -> int:
        return self.attempted - len(self.failures)

    def typical(self) -> List[float]:
        """Each instance's median latency."""
        by_key: Dict[Any, List[float]] = {}
        for key, latency in zip(self.keys, self.latencies_s):
            by_key.setdefault(key, []).append(latency)
        return [statistics.median(values) for values in by_key.values()]


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (statistics' exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(tally: Tally, solves_per_s: float, setup_s: float,
               deadline_s: Optional[float] = None) -> Dict[str, Any]:
    """Every end-to-end metric of one run, as ``name -> (value, unit)``.

    Latency percentiles are over instances, at each one's median solve.
    """
    ms = [t * 1e3 for t in tally.typical()]
    out: Dict[str, Any] = {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (solves_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (percentile(ms, 90), "ms"),
        "optimal_share": (tally.optimal / tally.attempted, "share"),
        "gap_mean_pct": (statistics.fmean(tally.gaps) if tally.gaps
                         else 0.0, "%"),
        "error_share": (len(tally.failures) / tally.attempted, "share"),
    }
    if deadline_s is not None:
        out["deadline_miss_share"] = (tally.deadline_misses
                                      / tally.attempted, "share")
    return out


#: Records in one calibration chunk: about a millisecond of pure-python
#: work (dict updates, tuple building, a keyed sort) that touches no
#: repository code.  Its mix resembles the solvers' more than a bare
#: arithmetic loop does, so it slows down with them when a neighbour
#: contends for the core's caches.
CHUNK_RECORDS = 500

#: The reference host runs one chunk in exactly this long.  Host-normalised
#: times are the times that reference host would have measured.
REFERENCE_CHUNK_MS = 1.0


def _chunk() -> None:
    table: Dict[int, float] = {}
    rows = []
    for i in range(CHUNK_RECORDS):
        key = (i * 7919) % 337
        table[key] = table.get(key, 0.0) + i * 0.5
        rows.append((key, float(i), str(key)))
    rows.sort(key=lambda row: (row[2], -row[1]))
    best = 0.0
    for key, value, _ in rows:
        best = max(best, table[key] * value)


class HostClock:
    """Times a fixed pure-python chunk between the benchmark's timed calls.

    The chunk's time tracks only the interpreter and the machine, so other
    figures can be read as multiples of it across machines, and its swing
    flags a noisy neighbour.  On a shared host it swings by a third within
    seconds and drifts with the neighbours' load over minutes; a CPU-bound
    time divided by the chunk times sampled around it
    (:meth:`to_reference`) is the time the reference host would have
    measured.
    """

    def __init__(self) -> None:
        self.samples_ms: List[float] = []

    def sample(self, repeats: int = 1) -> float:
        """Time the chunk ``repeats`` times; returns the last time (ms)."""
        for _ in range(repeats):
            started = time.perf_counter()
            _chunk()
            self.samples_ms.append((time.perf_counter() - started) * 1e3)
        return self.samples_ms[-1]

    @property
    def chunk_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def swing(self) -> float:
        """Inter-quartile range of the samples over their median."""
        q = statistics.quantiles(self.samples_ms, n=4)
        return (q[2] - q[0]) / q[1]

    def reference_s(self, seconds: float) -> float:
        """``seconds`` as the reference host would have measured them,
        scaled by the run's median chunk."""
        return seconds * REFERENCE_CHUNK_MS / self.chunk_ms

    @staticmethod
    def to_reference(times_s: List[float], chunks_ms: List[float],
                     window: int = 10) -> List[float]:
        """Reference-host times of consecutive timed calls.

        ``chunks_ms[i]`` is the chunk timed right after call ``i``; each
        call is scaled by the median chunk of the ``window`` calls on
        either side, which follows the host's speed at that moment.
        """
        out = []
        for i, seconds in enumerate(times_s):
            local = statistics.median(
                chunks_ms[max(0, i - window):i + window + 1])
            out.append(seconds * REFERENCE_CHUNK_MS / local)
        return out


def print_table(title: str, rows: Mapping[str, Any],
                absent: Optional[Mapping[str, str]] = None) -> None:
    print(f"== {title}")
    absent = absent or {}
    for name, (value, unit) in rows.items():
        reason = next((why for layer, why in absent.items()
                       if name == layer or name.startswith(layer + ".")),
                      None)
        if reason is not None:
            print(f"  {name:<40} {'absent':>14}  ({reason})")
        elif isinstance(value, float) and math.isfinite(value):
            print(f"  {name:<40} {value:>14.6g}  {unit}")
        else:
            print(f"  {name:<40} {value!s:>14}  {unit}")
