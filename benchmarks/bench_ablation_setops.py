"""Ablation benches for the paper's set-algebra design choices.

* **abl1 — set representation in BK** (section 6.2's "roaring brings >9×"):
  the same BK engine over BitSet / HashSet / SortedSet / RoaringSet.  In
  this Python port the big-int bitvector plays roaring's role: ``bitset``
  ANDs and counts whole neighborhoods in C, while the pure-Python
  RoaringSet and numpy SortedSet pay per-call overheads at miniature set
  sizes.
* **abl2 — merge vs galloping intersection** (section 6.5): galloping wins
  when one operand is much smaller; merge is competitive at similar sizes.
* **abl3 — subgraph H at every level vs outermost-only** (section 6.2):
  the paper found per-level construction overheads outweigh the gains.
* **abl4 — the section 6.3 instruction-count experiment**: the redesigned
  reordering kernel executes fewer (byte-code) instructions than the
  pointer-chasing original (the paper reports 22 vs 31 x86 movs).
"""

from __future__ import annotations

import dis
import time
from typing import Dict

import numpy as np
import pytest

from repro.core import (
    BitSet,
    HashSet,
    RoaringSet,
    SortedSet,
    intersect_count_galloping,
    intersect_count_merge,
)
from repro.graph import load_dataset
from repro.graph.transforms import rank_split
from repro.mining import bron_kerbosch
from repro.platform import write_artifact
from repro.preprocess import compute_ordering


# ---------------------------------------------------------------------------
# abl1 — set representation in Bron–Kerbosch
# ---------------------------------------------------------------------------
def run_abl1():
    out = {}
    for name in ("gearbox-mini", "movierec-mini"):
        graph = load_dataset(name)
        per_cls = {}
        for cls in (BitSet, HashSet, SortedSet, RoaringSet):
            res = bron_kerbosch(graph, "ADG", cls)
            per_cls[cls.__name__] = {
                "seconds": res.mine_seconds,
                "cliques": res.num_cliques,
            }
        out[name] = per_cls
    return out


@pytest.mark.benchmark(group="ablation")
def test_abl1_set_representation(benchmark, show_table):
    data = benchmark.pedantic(run_abl1, rounds=1, iterations=1)
    show_table(
        "Ablation 1 — BK-GMS-ADG mining time by set representation",
        ["graph", "set class", "time [ms]", "cliques"],
        [
            [g, cls, f"{1000 * rec['seconds']:.1f}", rec["cliques"]]
            for g, per in data.items()
            for cls, rec in per.items()
        ],
    )
    write_artifact("ablation1_set_representation", data)
    for g, per in data.items():
        assert len({rec["cliques"] for rec in per.values()}) == 1
        # The bitvector (roaring's stand-in) beats the array/pure-Python
        # representations by a clear factor — the paper's headline lever.
        assert per["BitSet"]["seconds"] < per["SortedSet"]["seconds"]
        assert per["BitSet"]["seconds"] < per["RoaringSet"]["seconds"]


# ---------------------------------------------------------------------------
# abl2 — merge vs galloping intersection
# ---------------------------------------------------------------------------
def run_abl2():
    rng = np.random.default_rng(5)
    large = np.unique(rng.integers(0, 4_000_000, size=400_000))
    small = np.sort(rng.choice(large, size=64, replace=False))
    similar = np.unique(rng.integers(0, 4_000_000, size=400_000))

    def timed(fn, a, b, repeats=20):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn(a, b)
        return (time.perf_counter() - t0) / repeats

    return {
        "skewed_merge": timed(intersect_count_merge, small, large),
        "skewed_galloping": timed(intersect_count_galloping, small, large),
        "similar_merge": timed(intersect_count_merge, similar, large),
        "similar_galloping": timed(intersect_count_galloping, similar, large),
    }


@pytest.mark.benchmark(group="ablation")
def test_abl2_merge_vs_galloping(benchmark, show_table):
    data = benchmark.pedantic(run_abl2, rounds=1, iterations=1)
    show_table(
        "Ablation 2 — intersection kernels (|A|=64 vs |A|≈|B|≈400k)",
        ["case", "merge [us]", "galloping [us]", "winner"],
        [
            ["skewed", f"{1e6 * data['skewed_merge']:.1f}",
             f"{1e6 * data['skewed_galloping']:.1f}",
             "galloping" if data["skewed_galloping"] < data["skewed_merge"]
             else "merge"],
            ["similar", f"{1e6 * data['similar_merge']:.1f}",
             f"{1e6 * data['similar_galloping']:.1f}",
             "galloping" if data["similar_galloping"] < data["similar_merge"]
             else "merge"],
        ],
    )
    write_artifact("ablation2_merge_galloping", data)
    # Galloping wins decisively on skewed sizes (the section 6.5 trade-off).
    assert data["skewed_galloping"] < data["skewed_merge"] / 2
    # At similar sizes merge is at least competitive (within 3x).
    assert data["similar_merge"] < 3 * data["similar_galloping"]


# ---------------------------------------------------------------------------
# abl3 — subgraph H: outermost-only vs every recursion level vs none
# ---------------------------------------------------------------------------
def _bk_subgraph_every_level(graph) -> Dict[str, float]:
    """BK-ADG rebuilding H at *every* recursion level (the [92] design)."""
    order_res = compute_ordering(graph, "ADG", eps=0.1)
    neighborhoods = {
        v: graph.neighborhood_set(v, BitSet) for v in graph.vertices()
    }
    cliques = 0

    def expand(adj, P, R, X):
        nonlocal cliques
        if P.is_empty() and X.is_empty():
            cliques += 1
            return
        # Rebuild the induced adjacency for this subtree — the overhead
        # the outermost-only design removes.
        base = np.concatenate([P.to_array(), X.to_array()])
        base.sort()
        base_set = BitSet.from_sorted_array(base)
        local = {int(w): adj[int(w)].intersect(base_set)
                 for w in base.tolist()}
        pivot, best = -1, -1
        for u in base.tolist():
            c = P.intersect_count(local[int(u)])
            if c > best:
                best, pivot = c, int(u)
        for v in P.diff(local[pivot]).members():
            nv = local[v]
            expand(local, P.intersect(nv), R + [v], X.intersect(nv))
            P.remove(v)
            X.add(v)

    t0 = time.perf_counter()
    (p_off, p_arcs), (x_off, x_arcs) = rank_split(graph, order_res.rank)
    initial = zip(BitSet.from_csr(p_off, p_arcs),
                  BitSet.from_csr(x_off, x_arcs))
    for v, (P, X) in zip(order_res.order.tolist(), initial):
        expand(neighborhoods, P, [v], X)
    return {"seconds": time.perf_counter() - t0, "cliques": cliques}


def run_abl3():
    graph = load_dataset("antcolony5-mini")
    none = bron_kerbosch(graph, "ADG", BitSet, subgraph_opt=False)
    outer = bron_kerbosch(graph, "ADG", BitSet, subgraph_opt=True)
    every = _bk_subgraph_every_level(graph)
    assert none.num_cliques == outer.num_cliques == every["cliques"]
    return {
        "none": none.mine_seconds,
        "outermost": outer.mine_seconds,
        "every-level": every["seconds"],
    }


@pytest.mark.benchmark(group="ablation")
def test_abl3_subgraph_levels(benchmark, show_table):
    data = benchmark.pedantic(run_abl3, rounds=1, iterations=1)
    show_table(
        "Ablation 3 — subgraph (H) construction policy, antcolony5-mini",
        ["policy", "time [ms]"],
        [[k, f"{1000 * v:.1f}"] for k, v in data.items()],
    )
    write_artifact("ablation3_subgraph_levels", data)
    # The paper's finding: per-level construction overheads outweigh gains
    # (a clear factor on this deep-recursion graph, not mere noise).
    assert data["every-level"] > 1.3 * data["outermost"]


# ---------------------------------------------------------------------------
# abl4 — instruction counts of the redesigned reordering kernel (§6.3)
# ---------------------------------------------------------------------------
def _kernel_pointer_chasing(order, positions, out):
    # Original: per-element pointer chasing through two indirections.
    for i in range(len(order)):
        v = order[i]
        p = positions[v]
        out[p] = v
    return out


def _kernel_redesigned(order, positions, out):
    # GMS redesign: one gather + one scatter, no per-element Python loop.
    out[positions[order]] = order
    return out


def run_abl4():
    count = lambda fn: sum(1 for _ in dis.get_instructions(fn))
    n = 200_000
    rng = np.random.default_rng(3)
    order = rng.permutation(n)
    positions = rng.permutation(n)
    out = np.zeros(n, dtype=np.int64)
    t0 = time.perf_counter()
    a = _kernel_pointer_chasing(order.tolist(), positions.tolist(),
                                out.copy().tolist())
    chasing_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    b = _kernel_redesigned(order, positions, out.copy())
    redesigned_s = time.perf_counter() - t0
    assert np.array_equal(np.asarray(a), b)
    return {
        "chasing_instructions": count(_kernel_pointer_chasing),
        "redesigned_instructions": count(_kernel_redesigned),
        "chasing_seconds": chasing_s,
        "redesigned_seconds": redesigned_s,
    }


@pytest.mark.benchmark(group="ablation")
def test_abl4_instruction_count(benchmark, show_table):
    data = benchmark.pedantic(run_abl4, rounds=1, iterations=1)
    show_table(
        "Ablation 4 — reordering-kernel instruction counts (§6.3)",
        ["kernel", "bytecode instructions", "runtime [ms]"],
        [
            ["pointer-chasing", data["chasing_instructions"],
             f"{1000 * data['chasing_seconds']:.1f}"],
            ["redesigned", data["redesigned_instructions"],
             f"{1000 * data['redesigned_seconds']:.1f}"],
        ],
    )
    write_artifact("ablation4_instruction_count", data)
    # Fewer instructions and a faster kernel (paper: 22 vs 31 movs).
    assert data["redesigned_instructions"] < data["chasing_instructions"]
    assert data["redesigned_seconds"] < data["chasing_seconds"]
