"""Label-dominance search for the optimal coloured-SSB path on a DAG.

The adapted SSB search of §5.4 needs an *exact finisher* whenever the paper's
Figure-9 expansion is inapplicable — scattered-sensor instances, where a
satellite's edges are not consecutive along the current path.  The original
finisher enumerated simple paths in non-decreasing σ order (Yen/Lawler),
whose cost grows with the number of feasible cuts and therefore explodes
around ``n_processing ≈ 20``.

The assignment graph, however, is a DAG whose edges strictly advance the face
index, which admits the classic multi-criteria labelling technique (used for
cost/complexity bounds in multi-context systems, Novák & Witteveen,
arXiv:1405.7295; combined with search-side bounding as in HS-CAI,
arXiv:1911.12716): sweep the nodes in topological order and propagate
*labels* ``(σ-so-far, per-colour load vector, predecessor)``.  Three
mechanisms keep the label sets small:

* **Bound pruning** — admissible completion bounds, each one backward DAG
  pass, prune any label whose cheapest possible completion reaches the
  incumbent SSB candidate.  The primary bound is the **per-colour joint
  potential** ``potJc_c[v] = min_p (λ_S·σ(p) + λ_B·β_c(p))`` over ``v → T``
  paths ``p``: a label ``(s, loads)`` at ``v`` completes for at least
  ``λ_S·s + max_c(λ_B·loads_c + potJc_c[v])``.  Because the min of a sum
  dominates the sum of the mins, this is always at least as tight as the
  older σ + per-colour-load floor bound ``λ_S·(s + pot[v]) +
  λ_B·max_c(loads_c + potβ_c[v])`` it replaces (``pot``/``potβ_c`` are kept
  for callers).  The incomparable **joint average bound**
  ``λ_S·s + λ_B·Σloads/n_colors + potJ[v]`` with
  ``potJ[v] = min_p (λ_S·σ(p) + λ_B·β_total(p)/n_colors)`` stays as a second
  check (the final bottleneck is at least the average colour load).  A cheap
  *beam* pre-pass (same sweep, buckets truncated to the ``beam_width`` most
  promising labels) finds a strong feasible path first, so the exact pass
  starts with a tight incumbent — on scattered instances this cuts the
  surviving labels by an order of magnitude.
* **Pareto dominance** — a label whose σ and *every* per-colour load are
  simultaneously ``>=`` another label's at the same node can never complete
  into a better path (suffixes add the same increments to both, and
  ``SSB = λ_S·S + λ_B·max_c load_c`` is monotone in each component), so it is
  dropped.  Colours are interned to indices and load vectors packed into
  plain tuples so the componentwise comparisons are cheap.  Two frontier
  backends implement the filter, selected by ``frontier=``:

  - ``"bucketed"`` (default) — numpy array buckets: each node's labels are
    settled in one pass, re-checked against the tightened incumbent and
    filtered by the windowed block kernel
    :func:`~repro.core.frontier.pareto_block_mask`, then extended along
    every out-edge with one vectorised operation per edge.  This is what
    keeps fully scattered ``n = 50`` tractable.
  - ``"linear"`` — the legacy capped scans over tuple labels with
    **adaptive capping**: comparisons are capped per insert and switched off
    entirely when they stop paying.  Exactness-preserving (a kept dominated
    label only costs time), kept as the reference backend of the
    differential tests; on large scattered instances its buckets outgrow
    the cap and the label population explodes.

The sweep is a single pass: when node ``v`` is processed every label it will
ever receive is already present (all in-edges come from earlier nodes), so
each surviving label is extended along each out-edge exactly once.  The
result is the exact optimum — bit-identical to brute force — without ever
enumerating paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import add as _add
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.context import SolveContext
from repro.core.dwg import (
    DoublyWeightedGraph,
    PathMeasures,
    SSBWeighting,
    SIGMA_ATTR,
)
from repro.core.frontier import pareto_block_mask
from repro.graphs.dag import DagIndex, NotADagError
from repro.graphs.digraph import Edge, Node
from repro.graphs.paths import Path

# A label is (sigma_so_far, loads_tuple, edge_into_node, parent_label,
# sum_of_loads).  Plain tuples (not dataclasses) keep allocation and
# comparison cheap in the hot sweep; the predecessor chain doubles as the
# path reconstruction, and the running load sum feeds the average-load bound.
_Label = Tuple[float, Tuple[float, ...], Optional[Edge], Optional[tuple], float]

#: Per-insert cap on dominance comparisons; beyond it a label is appended
#: unchecked (exactness-preserving — see the module docstring).
_DOM_SCAN_CAP = 128
#: Buckets beyond this size stop evicting newly dominated members (the
#: rebuild is the expensive half of an insert).
_EVICT_CAP = 256
#: The adaptive dominance switch is re-evaluated every this many created
#: labels: once the observed hit-rate drops under the threshold the checks
#: are switched off for the rest of the run.
_ADAPTIVE_CHECK_EVERY = 1024
_ADAPTIVE_MIN_HIT_RATE = 1.0 / 32.0
#: The block sweep's windowed Pareto filter disables itself once this many
#: labels were inspected at a hit-rate below the threshold: on random-weight
#: scattered instances (~10% of labels dominated) the filter costs more than
#: the surviving-label extensions it saves, while structured instances
#: (clustered sensors, ties — 20-50% dominated) keep it for the rest of the
#: sweep and collapse their label populations by orders of magnitude.
_BLOCK_DOM_CHECK_AFTER = 2048
_BLOCK_DOM_MIN_HIT_RATE = 1.0 / 6.0
#: Dominator-set cap of the block kernels' per-node Pareto filter (see
#: :func:`repro.core.frontier.pareto_block_mask`).
_DOMINANCE_WINDOW = 128

@dataclass(frozen=True)
class LabelSearchStats:
    """Counters describing one label sweep (exposed via solver details).

    ``labels_bound_pruned`` is split by *which* completion bound fired:
    ``pruned_colour`` (the per-colour joint σ/β_c bound at extension time —
    the tightened replacement of the legacy floor bound), ``pruned_joint``
    (the joint σ/average-load bound at extension time), ``pruned_settle``
    (the forward block kernel's re-check of a node's bucket against the
    incumbent as tightened since its labels were created).  ``pruned_meet``
    is always 0; trace consumers still read it.  ``pruned_floor`` remains for
    engines that still prune with the floor-type bound (the tree DP); the
    sweep itself no longer fires it.  ``frontier_peak`` is the largest
    bucket a block kernel settled, counted before the settle's bound and
    dominance filters (the linear reference reports its largest bucket),
    and ``settle_batches`` the number of buckets the block kernels settled
    — together the bound-effectiveness profile the tracing layer surfaces.
    """

    labels_created: int = 0
    labels_dominated: int = 0
    labels_bound_pruned: int = 0
    nodes_swept: int = 0
    colors: int = 0
    beam_ssb: float = float("inf")   #: incumbent produced by the beam pre-pass
    pruned_floor: int = 0            #: σ + colour-load floor bound rejections
    pruned_colour: int = 0           #: per-colour joint σ/β_c bound rejections
    pruned_joint: int = 0            #: joint average-load bound rejections
    pruned_settle: int = 0           #: settle-time incumbent re-check rejections
    pruned_meet: int = 0             #: always 0; trace consumers read it
    frontier_peak: int = 0           #: largest bucket before its settle
    settle_batches: int = 0          #: buckets settled by a block kernel


@dataclass
class LabelSearchResult:
    """Outcome of a label-dominance search.

    ``interrupted`` is ``None`` for a completed (exact) sweep, or the
    :class:`~repro.core.context.SolveContext` interruption kind
    (``"deadline"``/``"cancelled"``) when the sweep stopped early — the path
    is then the best incumbent held at that moment, not a proven optimum.
    """

    path: Optional[Path]
    ssb_weight: float
    s_weight: float
    b_weight: float
    stats: LabelSearchStats = LabelSearchStats()
    interrupted: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.path is not None


def _not_found(stats: LabelSearchStats,
               interrupted: Optional[str] = None) -> LabelSearchResult:
    return LabelSearchResult(path=None, ssb_weight=float("inf"),
                             s_weight=float("inf"), b_weight=float("inf"),
                             stats=stats, interrupted=interrupted)


@dataclass
class CompletionPotentials:
    """The backward-DAG completion bounds of one weighted graph.

    One backward pass each over the same DAG: ``pot`` (min σ to the target),
    ``potc`` (per-colour load floors), ``potj`` (joint σ/average-load
    potential) and ``potjc`` (per-colour *joint* σ/β_c potentials — the
    per-colour completion DAG bound ``min_p (λ_S·σ(p) + λ_B·β_c(p))``, at
    least as tight as ``λ_S·pot + λ_B·potc_c`` componentwise).  Valid only
    for the exact (graph contents, target, weighting) they were computed
    from — callers that cache them (the incremental solver keys on structure
    *and* cost fingerprints) are responsible for that;
    ``lambda_s``/``lambda_b`` are kept so a mismatched weighting is at least
    detected and recomputed.
    """

    colors: Tuple[Any, ...]
    pot: Dict[Node, float]
    potc: Dict[Node, Tuple[float, ...]]
    potj: Dict[Node, float]
    lambda_s: float
    lambda_b: float
    potjc: Dict[Node, Tuple[float, ...]] = None  # type: ignore[assignment]


def completion_potentials(dwg: DoublyWeightedGraph,
                          weighting: Optional[SSBWeighting] = None,
                          index: Optional[DagIndex] = None
                          ) -> CompletionPotentials:
    """Compute the completion bounds the label sweep prunes with."""
    weighting = weighting or SSBWeighting()
    index = index or DagIndex(dwg.graph)
    target = dwg.target
    lam_s, lam_b = weighting.lambda_s, weighting.lambda_b
    pot = index.potentials_to(target, SIGMA_ATTR)
    colors = tuple(dwg.all_colors())
    n_colors = len(colors)
    # per-colour load floors: the colour-c β any completion must still add
    potc_maps = [index.potentials_to(
        target, lambda e, c=c: DoublyWeightedGraph.beta_map(e).get(c, 0.0))
        for c in colors]
    potc: Dict[Node, Tuple[float, ...]] = {
        node: tuple(pm[node] for pm in potc_maps) for node in pot}
    # per-colour joint potentials: one completion DAG per colour, minimising
    # the *combined* λ_S·σ + λ_B·β_c along a single path — the min of the
    # sum dominates the sum of the mins, so these floors are never looser
    # than λ_S·pot + λ_B·potc_c
    potjc_maps = [index.potentials_to(
        target, lambda e, c=c: lam_s * DoublyWeightedGraph.sigma(e) +
        lam_b * DoublyWeightedGraph.beta_map(e).get(c, 0.0))
        for c in colors]
    potjc: Dict[Node, Tuple[float, ...]] = {
        node: tuple(pm[node] for pm in potjc_maps) for node in pot}
    # joint σ/average-load potential: the final bottleneck is at least the
    # average colour load, and β_total/n_colors is additive per edge
    if n_colors:
        inv_colors = 1.0 / n_colors
        potj: Dict[Node, float] = index.potentials_to(
            target, lambda e: lam_s * DoublyWeightedGraph.sigma(e) +
            lam_b * DoublyWeightedGraph.beta(e) * inv_colors)
    else:
        potj = {node: 0.0 for node in pot}
    return CompletionPotentials(colors=colors, pot=pot, potc=potc, potj=potj,
                                lambda_s=lam_s, lambda_b=lam_b, potjc=potjc)


class LabelDominanceSearch:
    """Exact coloured-SSB optimiser for DAG-shaped doubly weighted graphs.

    ``search`` accepts an optional ``incumbent`` bound (the adapted SSB
    search passes its current candidate's SSB weight): labels that provably
    cannot beat it are pruned, and the result's path is ``None`` when no
    path beats the incumbent strictly — the caller keeps its candidate.
    Without a caller incumbent the min-σ path and the beam pre-pass seed the
    bound, so a connected graph always yields a path.
    """

    def __init__(self, weighting: Optional[SSBWeighting] = None,
                 beam_width: int = 128,
                 frontier: str = "bucketed") -> None:
        if beam_width < 0:
            raise ValueError("beam_width must be non-negative (0 disables the pre-pass)")
        if frontier not in ("bucketed", "linear"):
            raise ValueError("frontier must be 'bucketed' or 'linear'")
        self.weighting = weighting or SSBWeighting()
        self.measures = PathMeasures(self.weighting)
        self.beam_width = beam_width
        self.frontier = frontier

    # ------------------------------------------------------------------ main
    def search(self, dwg: DoublyWeightedGraph,
               incumbent: float = float("inf"),
               index: Optional[DagIndex] = None,
               context: Optional[SolveContext] = None,
               potentials: Optional[CompletionPotentials] = None
               ) -> LabelSearchResult:
        """Run the sweep; raises :class:`NotADagError` on cyclic graphs.

        ``context`` (optional) is polled once per swept node in both the
        beam pre-pass and the exact pass, and per out-edge in the bucketed
        exact pass; when it fires the sweep stops and
        the best incumbent held at that moment is returned with
        ``interrupted`` set — a feasible path always exists once the
        min-σ seed path is computed, so an interrupted search still answers.
        ``potentials`` short-circuits the three backward completion-bound
        passes with precomputed ones (see :func:`completion_potentials`);
        they must match this graph's current weights and weighting — the
        incremental solver caches them per structure+cost fingerprint.
        """
        graph = dwg.graph
        source, target = dwg.source, dwg.target
        index = index or DagIndex(graph)
        if not index.is_dag():
            raise NotADagError(
                "label-dominance search requires a DAG; use the enumeration "
                "finisher for cyclic doubly weighted graphs")
        order = index.order()
        lam_s, lam_b = self.weighting.lambda_s, self.weighting.lambda_b
        if potentials is None or potentials.lambda_s != lam_s \
                or potentials.lambda_b != lam_b or potentials.potjc is None:
            potentials = completion_potentials(dwg, self.weighting, index)
        colors = potentials.colors
        pot, potj, potjc = potentials.pot, potentials.potj, potentials.potjc
        if source not in pot:
            return _not_found(LabelSearchStats())

        # ---- colour interning and per-edge packing
        color_index = {c: i for i, c in enumerate(colors)}
        n_colors = len(colors)
        zero_loads: Tuple[float, ...] = (0.0,) * n_colors
        inv_colors = 1.0 / n_colors if n_colors else 0.0
        out_edge_data: Dict[Node, List[tuple]] = {}
        for node in order:
            packed = []
            for edge in graph.out_edges(node):
                head = edge.head
                if head not in pot:
                    continue  # dead end: the target is unreachable from here
                betas = tuple((color_index[c], float(v))
                              for c, v in DoublyWeightedGraph.beta_map(edge).items()
                              if v != 0.0)
                packed.append((edge, DoublyWeightedGraph.sigma(edge), betas,
                               sum(v for _, v in betas), head,
                               pot[head], potjc[head], potj[head]))
            if packed:
                out_edge_data[node] = packed

        # ---- fallback candidates: the min-σ path is always a real path, and
        # the beam pre-pass usually finds a much better one, giving the exact
        # pass a tight incumbent to prune against
        seed_path = index.shortest_path(source, target, weight=SIGMA_ATTR)
        assert seed_path is not None  # source in pot implies reachability
        fallback_path = seed_path
        fallback_ssb = self.measures.ssb_colored(seed_path)
        if context is not None:
            context.report_incumbent(fallback_ssb, source="labels-seed")
        beam_ssb = float("inf")
        interrupted = context.interrupted() if context is not None else None
        if self.beam_width and interrupted is None:
            beam_label, beam_ssb, _, interrupted = self._sweep(
                order, out_edge_data, inv_colors, source, target,
                zero_loads, min(incumbent, fallback_ssb),
                beam_width=self.beam_width, context=context)
            if beam_label is not None and beam_ssb < fallback_ssb:
                fallback_path = _reconstruct(beam_label)
                fallback_ssb = beam_ssb
                if context is not None:
                    context.report_incumbent(beam_ssb, source="labels-beam")
        bound = min(incumbent, fallback_ssb)

        # ---- exact pass: the block kernel, or the linear reference sweep —
        # identical semantics, identical optimum
        profile = None
        if context is not None:
            span = getattr(context, "span", None)
            if span is not None:
                # traced solve: the exact pass records per-node sweep rows
                # into the active span's profile accumulator
                profile = span.ensure_profile("label-search")
        if interrupted is not None:
            best_path, best_s, best_b = None, float("inf"), float("inf")
            best_ssb = float("inf")
            sweep_stats = LabelSearchStats()
        elif self.frontier == "bucketed":
            (best_path, best_ssb, best_s, best_b,
             sweep_stats, interrupted) = self._sweep_blocks(
                graph, order, out_edge_data, pot, potjc, potj, inv_colors,
                source, target, zero_loads, bound, context=context,
                profile=profile)
        else:
            best_label, best_ssb, sweep_stats, interrupted = self._sweep(
                order, out_edge_data, inv_colors, source, target,
                zero_loads, bound, context=context, profile=profile)
            if best_label is not None:
                best_path = _reconstruct(best_label)
                best_s = best_label[0]
                best_b = max(best_label[1]) if best_label[1] else 0.0
            else:
                best_path = None
                best_s = best_b = float("inf")
        stats = replace(
            sweep_stats,
            labels_bound_pruned=(sweep_stats.pruned_colour
                                 + sweep_stats.pruned_joint
                                 + sweep_stats.pruned_settle),
            nodes_swept=len(order), colors=n_colors, beam_ssb=beam_ssb)

        if best_path is not None:
            return LabelSearchResult(
                path=best_path,
                ssb_weight=best_ssb,
                s_weight=best_s,
                b_weight=best_b,
                stats=stats,
                interrupted=interrupted)
        if fallback_ssb < incumbent:
            # nothing beat the fallback path, but it beats the caller's incumbent
            return LabelSearchResult(
                path=fallback_path,
                ssb_weight=fallback_ssb,
                s_weight=self.measures.s_weight(fallback_path),
                b_weight=self.measures.b_weight_colored(fallback_path),
                stats=stats,
                interrupted=interrupted)
        return _not_found(stats, interrupted)

    # ------------------------------------------------------------------ sweep
    def _sweep(self, order, out_edge_data, inv_colors, source, target,
               zero_loads, bound, beam_width: Optional[int] = None,
               context: Optional[SolveContext] = None, profile=None
               ) -> Tuple[Optional[_Label], float, LabelSearchStats,
                          Optional[str]]:
        """One topological sweep over tuple labels: beam pre-pass or linear.

        With ``beam_width`` the sweep is the heuristic pre-pass: buckets are
        truncated to the ``beam_width`` labels of smallest SSB-so-far before
        extension and dominance is skipped.  ``beam_width=None`` is the
        ``frontier="linear"`` exact reference: buckets keep their full label
        sets, filtered by the legacy capped linear scans.  Any target label
        either mode returns is a real path, so its SSB weight is a valid
        incumbent.

        ``context`` is polled once per swept node; on interruption the
        sweep stops immediately (the last return element is the kind) and
        the caller falls back to the best incumbent found so far.  An inert
        context leaves the sweep bit-identical to no context at all.
        """
        lam_s, lam_b = self.weighting.lambda_s, self.weighting.lambda_b
        created = dominated = 0
        pruned_colour = pruned_joint = 0
        peak = 0
        interrupted: Optional[str] = None
        check_dominance = beam_width is None
        labels: Dict[Node, List[_Label]] = {
            source: [(0.0, zero_loads, None, None, 0.0)]}
        best_label: Optional[_Label] = None
        best_ssb = float("inf")
        for node in order:
            if context is not None:
                interrupted = context.interrupted()
                if interrupted is not None:
                    break
            bucket = labels.pop(node, None)
            if not bucket:
                continue
            extensions = out_edge_data.get(node)
            if not extensions:
                continue
            if profile is not None:
                node_base = (created, dominated, pruned_colour, pruned_joint)
            if beam_width is not None and len(bucket) > beam_width:
                # all labels in this bucket share pot[node], so ranking by
                # λ_S·σ + λ_B·max(loads) orders them by completion bound
                bucket.sort(key=lambda lab: lam_s * lab[0] +
                            (lam_b * max(lab[1]) if lab[1] else 0.0))
                del bucket[beam_width:]
            if len(bucket) > peak:
                peak = len(bucket)
            for label in bucket:
                s, loads, lsum = label[0], label[1], label[4]
                for edge, sigma, betas, btotal, head, pot_h, potjc_h, potj_h \
                        in extensions:
                    ns = s + sigma
                    if betas:
                        new_loads = list(loads)
                        for ci, bv in betas:
                            new_loads[ci] += bv
                        nloads = tuple(new_loads)
                    else:
                        nloads = loads
                    # per-colour joint bound (all-zero potentials at the
                    # target, where the expression is the true SSB weight)
                    if nloads:
                        lower = lam_s * ns + max(map(
                            _add, map(lam_b.__mul__, nloads), potjc_h))
                    else:
                        lower = lam_s * (ns + pot_h)
                    if lower >= bound:
                        pruned_colour += 1
                        continue
                    nsum = lsum + btotal
                    if lam_s * ns + lam_b * nsum * inv_colors + potj_h >= bound:
                        pruned_joint += 1
                        continue
                    new_label: _Label = (ns, nloads, edge, label, nsum)
                    created += 1
                    if head == target:
                        ssb = lower
                        if ssb < best_ssb and ssb < bound:
                            best_label, best_ssb = new_label, ssb
                            bound = ssb
                            if context is not None:
                                context.report_incumbent(ssb, source="labels")
                        continue
                    if check_dominance:
                        if not _insert(labels.setdefault(head, []), new_label):
                            dominated += 1
                        if created % _ADAPTIVE_CHECK_EVERY == 0 and \
                                dominated < created * _ADAPTIVE_MIN_HIT_RATE:
                            check_dominance = False
                    else:
                        labels.setdefault(head, []).append(new_label)
            if profile is not None:
                profile.record_node(
                    node, created - node_base[0], dominated - node_base[1],
                    pruned_colour=pruned_colour - node_base[2],
                    pruned_joint=pruned_joint - node_base[3],
                    frontier=len(bucket))
        stats = LabelSearchStats(
            labels_created=created, labels_dominated=dominated,
            pruned_colour=pruned_colour, pruned_joint=pruned_joint,
            frontier_peak=peak)
        return best_label, best_ssb, stats, interrupted

    # ------------------------------------------------------------ block sweep
    def _sweep_blocks(self, graph, order, out_edge_data, pot, potjc, potj,
                      inv_colors, source, target, zero_loads, bound,
                      context: Optional[SolveContext] = None, profile=None):
        """The forward exact pass over *array buckets* (``"bucketed"``).

        Labels never exist as Python objects here: a node's bucket is a set
        of numpy blocks ``(σ, loads, Σloads, parent row, edge key)`` and
        every step — the completion-bound checks, the settle-time re-check
        against the tightened incumbent, the Pareto filter
        (:func:`~repro.core.frontier.pareto_block_mask`, dominator set
        capped at ``_DOMINANCE_WINDOW``) and the per-edge extension — is one
        vectorised operation per (node, edge) instead of per label.  Settled
        buckets are retained so the best target label's predecessor chain
        can be walked back into a :class:`~repro.graphs.paths.Path`.

        Matches the ``frontier="linear"`` reference sweep: the same bounds,
        the same dominance relation (the window only lets some dominated
        labels survive, which costs time, never correctness), the same
        arithmetic on the same IEEE floats — the returned optimum is
        bit-identical.
        """
        lam_s, lam_b = self.weighting.lambda_s, self.weighting.lambda_b
        dim = len(zero_loads)
        filter_dominance = True
        created = dominated = inspected = 0
        pruned_colour = pruned_joint = pruned_settle = 0
        peak = settles = 0
        potjc_arr = {node: np.asarray(t, dtype=np.float64)
                     for node, t in potjc.items()}
        beta_rows = {}
        for packed in out_edge_data.values():
            for ext in packed:
                edge, betas = ext[0], ext[2]
                row = np.zeros(dim, dtype=np.float64)
                for ci, bv in betas:
                    row[ci] = bv
                beta_rows[edge.key] = row
        # node -> list of (σ, loads, Σloads, parent_rows, edge_key) blocks
        chunks: Dict[Node, List[tuple]] = {source: [(
            np.zeros(1), np.zeros((1, dim)), np.zeros(1),
            np.full(1, -1, dtype=np.int64), -1)]}
        settled: Dict[Node, Tuple[Any, Any]] = {}
        best = None                     # (edge_key, parent_row)
        best_ssb = best_s = best_b = float("inf")
        interrupted: Optional[str] = None
        for node in order:
            if context is not None:
                interrupted = context.interrupted()
                if interrupted is not None:
                    break
            node_chunks = chunks.pop(node, None)
            if not node_chunks:
                continue
            extensions = out_edge_data.get(node)
            if not extensions:
                continue
            if len(node_chunks) == 1:
                sig, lds, sums, parents, ekey = node_chunks[0]
                ekeys = np.full(len(sig), ekey, dtype=np.int64)
            else:
                sig = np.concatenate([c[0] for c in node_chunks])
                lds = np.concatenate([c[1] for c in node_chunks])
                sums = np.concatenate([c[2] for c in node_chunks])
                parents = np.concatenate([c[3] for c in node_chunks])
                ekeys = np.concatenate([
                    np.full(len(c[0]), c[4], dtype=np.int64)
                    for c in node_chunks])
            if profile is not None:
                node_base = (created, dominated, pruned_colour, pruned_joint,
                             pruned_settle)
            bucket_size = len(sig)
            if bucket_size > peak:
                peak = bucket_size
            settles += 1
            # settle: re-check both completion bounds with the *current*
            # incumbent (tighter than when these labels were queued) ...
            if dim:
                keep = lam_s * sig + \
                    (lam_b * lds + potjc_arr[node]).max(axis=1) < bound
            else:
                keep = lam_s * (sig + pot[node]) < bound
            keep &= lam_s * sig + lam_b * sums * inv_colors + potj[node] < bound
            stale = len(sig) - int(keep.sum())
            if stale:
                pruned_settle += stale
                sig, lds, sums = sig[keep], lds[keep], sums[keep]
                parents, ekeys = parents[keep], ekeys[keep]
            if not len(sig):
                if profile is not None:
                    profile.record_node(
                        node, pruned_settle=stale, frontier=bucket_size,
                        settle_batches=1)
                continue
            # ... then drop dominated labels (windowed Pareto filter, switched
            # off for good once the observed hit-rate stops paying)
            if filter_dominance and len(sig) > 1:
                mask = pareto_block_mask(sig, lds, window=_DOMINANCE_WINDOW)
                drop = len(sig) - int(mask.sum())
                inspected += len(sig)
                if drop:
                    dominated += drop
                    sig, lds, sums = sig[mask], lds[mask], sums[mask]
                    parents, ekeys = parents[mask], ekeys[mask]
                if inspected >= _BLOCK_DOM_CHECK_AFTER and \
                        dominated < inspected * _BLOCK_DOM_MIN_HIT_RATE:
                    filter_dominance = False
            settled[node] = (parents, ekeys)
            for edge, sigma, betas, btotal, head, pot_h, potjc_h, potj_h \
                    in extensions:
                # one node's extensions can run for seconds on a large
                # bucket, so the context is polled per out-edge as well
                if context is not None:
                    interrupted = context.interrupted()
                    if interrupted is not None:
                        break
                ns = sig + sigma
                nl = lds + beta_rows[edge.key] if betas else lds
                if dim:
                    lower = lam_s * ns + \
                        (lam_b * nl + potjc_arr[head]).max(axis=1)
                else:
                    lower = lam_s * (ns + pot_h)
                keep_e = lower < bound
                colour_kept = int(keep_e.sum())
                pruned_colour += len(ns) - colour_kept
                nsum = sums + btotal
                keep_e &= lam_s * ns + lam_b * nsum * inv_colors + potj_h < bound
                count = int(keep_e.sum())
                pruned_joint += colour_kept - count
                if not count:
                    continue
                created += count
                rows = np.nonzero(keep_e)[0]
                if head == target:
                    # potjc at the target is all-zero: the colour bound is
                    # the true SSB weight λ_S·σ + max_c(λ_B·load_c)
                    ssb = lower[rows]
                    i = int(ssb.argmin())
                    if ssb[i] < bound:
                        best = (edge.key, int(rows[i]))
                        best_ssb = float(ssb[i])
                        best_s = float(ns[rows[i]])
                        best_b = float(nl[rows[i]].max()) if dim else 0.0
                        bound = best_ssb
                        if context is not None:
                            context.report_incumbent(best_ssb, source="labels")
                    continue
                chunks.setdefault(head, []).append(
                    (ns[rows], nl[rows], nsum[rows],
                     rows.astype(np.int64), edge.key))
            if profile is not None:
                profile.record_node(
                    node, created - node_base[0], dominated - node_base[1],
                    pruned_colour=pruned_colour - node_base[2],
                    pruned_joint=pruned_joint - node_base[3],
                    pruned_settle=pruned_settle - node_base[4],
                    frontier=bucket_size,
                    settle_batches=1)
            if interrupted is not None:
                break
        sweep_stats = LabelSearchStats(
            labels_created=created, labels_dominated=dominated,
            pruned_colour=pruned_colour, pruned_joint=pruned_joint,
            pruned_settle=pruned_settle, frontier_peak=peak,
            settle_batches=settles)
        if best is None:
            return None, float("inf"), float("inf"), float("inf"), \
                sweep_stats, interrupted
        edges: List[Edge] = []
        edge_key, row = best
        while edge_key != -1:
            edge = graph.edge(edge_key)
            edges.append(edge)
            parents, ekeys = settled[edge.tail]
            edge_key = int(ekeys[row])
            row = int(parents[row])
        edges.reverse()
        return (Path.from_edges(edges), best_ssb, best_s, best_b,
                sweep_stats, interrupted)


def _insert(bucket: List[_Label], label: _Label,
            scan_cap: int = _DOM_SCAN_CAP, evict_cap: int = _EVICT_CAP) -> bool:
    """Insert ``label`` into a node's Pareto set; False when dominated.

    Dominance is componentwise ``<=`` on (σ, per-colour loads); an exact tie
    counts as dominated, so duplicates never accumulate.  Both scans are
    capped: a label appended past the cap merely survives undeleted, which
    costs time, never correctness.
    """
    s, loads = label[0], label[1]
    for i in range(min(len(bucket), scan_cap)):
        existing = bucket[i]
        if existing[0] <= s:
            for a, b in zip(existing[1], loads):
                if a > b:
                    break
            else:
                return False
    if len(bucket) <= evict_cap:
        kept = []
        for existing in bucket:
            if s <= existing[0]:
                for a, b in zip(loads, existing[1]):
                    if a > b:
                        kept.append(existing)
                        break
                # fully dominated by the new label: dropped
            else:
                kept.append(existing)
        if len(kept) != len(bucket):
            bucket[:] = kept
    bucket.append(label)
    return True


def _reconstruct(label: _Label) -> Path:
    """Rebuild the path from a target label's predecessor chain."""
    edges: List[Edge] = []
    cursor: Optional[tuple] = label
    while cursor is not None and cursor[2] is not None:
        edges.append(cursor[2])
        cursor = cursor[3]
    edges.reverse()
    return Path.from_edges(edges)


def find_optimal_colored_ssb_path_labels(
        dwg: DoublyWeightedGraph,
        weighting: Optional[SSBWeighting] = None) -> LabelSearchResult:
    """Convenience wrapper: run :class:`LabelDominanceSearch` with defaults."""
    return LabelDominanceSearch(weighting=weighting).search(dwg)
