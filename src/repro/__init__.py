"""repro — a from-scratch Python reproduction of GraphMineSuite (GMS).

GraphMineSuite (Besta et al., VLDB 2021) is a benchmarking suite for
high-performance graph mining built on *set algebra*: graph mining
algorithms are decomposed into set operations (∩, ∪, \\, |·|, ∈) whose
implementations — and the underlying set representations — can be swapped
independently of algorithm code.

Subpackages
-----------
``repro.core``          set-algebra interface + 4 representations (§5)
``repro.graph``         CSR / set-centric graphs, generators, datasets (§2, §5.3)
``repro.compress``      Log(Graph), k²-trees, varint/gap/RLE, relabelings (§6.8)
``repro.preprocess``    DEG / DGR / ADG vertex orderings (§6.1)
``repro.runtime``       work–depth model, scheduler simulation, PAPI facade (§7)
``repro.mining``        Bron–Kerbosch, k-cliques, k-cores, FSM, … (§6)
``repro.isomorphism``   VF2, VF3-Light, Glasgow, parallel SI (§6.4)
``repro.learning``      similarity, link prediction, clustering (§6.5, §6.7)
``repro.optimization``  coloring, MST, min-cut (§4.1.4)
``repro.platform``      CLI, benchmark harness, suite, session (§5.4)
``repro.theory``        closed-form bounds of Tables 5/6/8 (§7)
"""

from . import (
    compress,
    core,
    graph,
    isomorphism,
    learning,
    mining,
    optimization,
    platform,
    preprocess,
    runtime,
    theory,
)
from .core import BitSet, HashSet, RoaringSet, SetBase, SortedSet
from .graph import CSRGraph, build_undirected, load_dataset
from .mining import bron_kerbosch, kclique_count

__version__ = "1.0.0"

__all__ = [
    "core",
    "graph",
    "compress",
    "preprocess",
    "runtime",
    "mining",
    "isomorphism",
    "learning",
    "optimization",
    "platform",
    "theory",
    "SetBase",
    "SortedSet",
    "BitSet",
    "RoaringSet",
    "HashSet",
    "CSRGraph",
    "build_undirected",
    "load_dataset",
    "bron_kerbosch",
    "kclique_count",
    "__version__",
]
