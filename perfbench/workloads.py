"""Seeded instance streams of the three workloads.

A spec is the keyword set of :func:`repro.workloads.generators.random_problem`;
building it twice gives two equal but separate problem objects, so no solve
ever sees an object a previous solve has warmed.  The size and satellite
count of the ``i``-th instance cycle through their ranges, and only the
instance seeds come from ``--seed``: every run sees the same size mix, so
runs with different seeds differ only in the instances themselves.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

Spec = Dict[str, Any]

#: Unique instances behind ``traffic``; the timed loop cycles over them.
TRAFFIC_POOL = 300

#: Per-solve wall budget of ``hard``.  Short enough that well over half
#: the solves are cut by it (about 57% on a shared 2-vCPU VM), so the
#: median latency sits in the cut mode, just past the deadline, where it
#: is steady and shows the overshoot.  At 70 ms about 45% were cut: the
#: median fell on the steep edge between finished and cut solves and
#: moved by 6-10% (inter-quartile range over median) between seeds.
HARD_DEADLINE_S = 0.045


def _seeds(tag: str, seed: int):
    rng = random.Random(f"{tag}-{seed}")
    while True:
        yield rng.randrange(2 ** 31)


def traffic_pool(seed: int) -> List[Spec]:
    """n = 6..20, 2..5 satellites, sensor scatter 0.3."""
    seeds = _seeds("traffic", seed)
    return [dict(n_processing=6 + i % 15, n_satellites=2 + (i // 15) % 4,
                 sensor_scatter=0.3, seed=next(seeds))
            for i in range(TRAFFIC_POOL)]


def hard_specs(seed: int):
    """Endless: three deep scattered trees (binary, n = 40..56, scatter 1.0)
    for every wide star (n = 30..44, fan-out up to 64); 4..6 satellites."""
    seeds = _seeds("hard", seed)
    i = 0
    while True:
        satellites = 4 + i % 3
        if i % 4 == 3:
            yield dict(n_processing=30 + (i // 4 * 7) % 15,
                       n_satellites=satellites, max_children=64,
                       sensor_scatter=1.0, seed=next(seeds))
        else:
            yield dict(n_processing=40 + (i * 7) % 17,
                       n_satellites=satellites, max_children=2,
                       sensor_scatter=1.0, seed=next(seeds))
        i += 1


def gateway_spec(seed: int, index: int) -> Spec:
    """The ``index``-th unique gateway instance: n = 6..12, 2..4 satellites."""
    rng = random.Random(f"gateway-{seed}-{index}")
    return dict(n_processing=6 + index % 7, n_satellites=2 + index % 3,
                sensor_scatter=0.3, seed=rng.randrange(2 ** 31))


def gateway_request(seed: int, index: int) -> int:
    """Which unique instance request ``index`` carries.

    Every fifth request repeats an instance an earlier request carried, so
    it is served from the result cache (or coalesced with the in-flight
    original); the rest carry fresh instances.
    """
    unique_before = index - index // 5
    if index % 5 == 4:
        return random.Random(f"repeat-{seed}-{index}").randrange(unique_before)
    return unique_before


def build(spec: Spec):
    from repro.workloads.generators import random_problem

    return random_problem(**spec)
