"""VF3-Light subgraph isomorphism (paper section 6.4 / appendix A).

VF3-Light (Carletti et al.) keeps VF3's node-classification and ordering
machinery but drops the expensive lookahead sets ("doing less is more
effective").  This implementation reproduces those two ingredients:

* **classification** — target vertices are bucketed by (label, degree); a
  query vertex can only map into buckets with compatible label and degree
  at least its own;
* **ordering** — query vertices are visited rarest-candidate-domain first
  (breaking ties by descending degree), subject to connectivity;

plus the light feasibility rule set (the same consistency checks as VF2,
without lookahead).  The optional *precompute* flag materializes the
candidate domains once up front — the GMS "precompute scheme" optimization
— and *simd* evaluates the label/degree filters with vectorized numpy masks,
standing in for the SIMD binary-search vectorization of section 8.5.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from ..graph.csr import CSRGraph
from .state import MatchState

__all__ = ["vf3light_embeddings", "vf3light_count", "rarity_order"]


def _domains(
    target: CSRGraph,
    query: CSRGraph,
    target_labels: Optional[np.ndarray],
    query_labels: Optional[np.ndarray],
    simd: bool,
) -> List[np.ndarray]:
    """Candidate domain of each query vertex (label + degree filtered)."""
    t_deg = target.degrees()
    q_deg = query.degrees()
    domains: List[np.ndarray] = []
    if simd:
        # Vectorized: one boolean mask per query vertex.
        for q in range(query.num_nodes):
            mask = t_deg >= q_deg[q]
            if target_labels is not None and query_labels is not None:
                mask &= np.asarray(target_labels) == query_labels[q]
            domains.append(np.nonzero(mask)[0].astype(np.int64))
    else:
        for q in range(query.num_nodes):
            dom = [
                t
                for t in range(target.num_nodes)
                if t_deg[t] >= q_deg[q]
                and (
                    target_labels is None
                    or query_labels is None
                    or target_labels[t] == query_labels[q]
                )
            ]
            domains.append(np.asarray(dom, dtype=np.int64))
    return domains


def rarity_order(query: CSRGraph, domain_sizes: Sequence[int]) -> List[int]:
    """Visit rarest-domain query vertices first, keeping connectivity."""
    n = query.num_nodes
    if n == 0:
        return []
    chosen: List[int] = []
    in_order = [False] * n
    # Seed: globally rarest domain, ties by max degree.
    degrees = query.degrees()
    seed = min(range(n), key=lambda v: (domain_sizes[v], -degrees[v]))
    chosen.append(seed)
    in_order[seed] = True
    while len(chosen) < n:
        frontier = [
            v
            for v in range(n)
            if not in_order[v]
            and any(in_order[u] for u in query.out_neigh(v).tolist())
        ]
        pool = frontier if frontier else [v for v in range(n) if not in_order[v]]
        nxt = min(pool, key=lambda v: (domain_sizes[v], -degrees[v]))
        chosen.append(nxt)
        in_order[nxt] = True
    return chosen


def vf3light_embeddings(
    target: CSRGraph,
    query: CSRGraph,
    *,
    induced: bool = True,
    target_labels: Optional[np.ndarray] = None,
    query_labels: Optional[np.ndarray] = None,
    limit: Optional[int] = None,
    roots: Optional[Sequence[int]] = None,
    precompute: Union[bool, Sequence[np.ndarray]] = True,
    simd: bool = False,
) -> Iterator[List[int]]:
    """Yield embeddings with the VF3-Light strategy.

    ``roots`` restricts the first query vertex's images (work splitting);
    ``precompute``/``simd`` toggle the GMS optimizations of section 8.5.
    ``precompute`` may also be the candidate domains a caller already
    computed for this target and query, so that the per-root tasks of
    one query share one computation.
    """
    if query.num_nodes == 0:
        yield []
        return
    if not isinstance(precompute, bool):
        domains = precompute
    elif precompute:
        domains = _domains(target, query, target_labels, query_labels, simd)
    else:
        # Domains computed lazily per extension — the unoptimized baseline.
        domains = None
    if domains is not None:
        order = rarity_order(query, [len(d) for d in domains])
    else:
        order = rarity_order(query, [target.num_nodes] * query.num_nodes)
    state = MatchState(query, target)
    t_deg = target.degrees()
    q_deg = query.degrees()
    tl = np.asarray(target_labels) if target_labels is not None else None
    ql = np.asarray(query_labels) if query_labels is not None else None
    emitted = 0

    def candidate_pool(idx: int) -> Sequence[int]:
        q = order[idx]
        if idx == 0:
            if roots is not None:
                return roots
            if domains is not None:
                return domains[q].tolist()
            return range(target.num_nodes)
        # Anchor on a mapped neighbor when one exists.
        for qn in query.out_neigh(q).tolist():
            tn = state.core_q[qn]
            if tn >= 0:
                neigh = target.out_neigh(tn)
                return neigh[~state.used_t[neigh]].tolist()
        if domains is not None:
            dom = domains[q]
            return dom[~state.used_t[dom]].tolist()
        return np.nonzero(~state.used_t)[0].tolist()

    def ok(q: int, t: int) -> bool:
        if t_deg[t] < q_deg[q]:
            return False
        if tl is not None and ql is not None and tl[t] != ql[q]:
            return False
        return True

    def extend(idx: int) -> Iterator[List[int]]:
        if idx == len(order):
            yield state.mapping()
            return
        q = order[idx]
        for t in candidate_pool(idx):
            if state.used_t[t] or not ok(q, t):
                continue
            if not state.feasible(q, t, induced=induced):
                continue
            state.assign(q, t)
            yield from extend(idx + 1)
            state.unassign(q, t)

    for mapping in extend(0):
        yield mapping
        emitted += 1
        if limit is not None and emitted >= limit:
            return


def vf3light_count(target: CSRGraph, query: CSRGraph, **kwargs) -> int:
    """Number of embeddings found by VF3-Light."""
    return sum(1 for _ in vf3light_embeddings(target, query, **kwargs))
