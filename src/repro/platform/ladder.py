"""The synthetic scale ladder: ``python -m repro ladder``.

Every committed measurement of the suite used graphs of at most ~16k
edges.  The ladder measures how each layer and each exact backend scales
on generated graphs of ~10⁴, 10⁵ and 5·10⁵ edges from three generators
of :mod:`repro.graph.generators` (Holme–Kim, Barabási–Albert and the
paper's Kronecker), and writes ``BENCH_ladder.json`` (``gms-ladder/v1``).

Per rung (one graph, labelled by generator, parameters and seed) it
records the seconds to generate it, to load it (edge list → CSR), to
order it (DGR, which ``4clique`` and ``bk`` read, and DEG, which
``tc-merge`` reads) and to materialize it per backend (one
:func:`~repro.graph.set_graph.build_set_graph`), with the
``storage_bytes`` that build holds.  It also records one reference
timing: a fixed triangle count in plain Python, timed the way the
service benchmark times its reference (median of 3 timings, garbage
collection held off), so runs on different hosts compare after scaling
by it.

Per cell (backend × kernel, one :func:`~repro.platform.suite.run_cell`
on a fresh cache) it records the kernel seconds (best of
:data:`REPEATS` passes, builds excluded), the value, ``set_ops``, the
``storage_bytes`` of what the cell materialized and the tracemalloc
peak of those builds.  A cell is recorded as ``skipped``, not run, when
its estimated bytes exceed :data:`MAX_BYTES` (``bitset``'s dense rows
grow as n²) or its estimated seconds exceed :data:`MAX_SECONDS` (its
time on the generator's previous rung times the edge ratio to the 1.5,
the ``O(m^{3/2})`` bound of triangle counting).

``--check FILE`` reruns the rungs of *FILE* up to :data:`CHECK_EDGES`
edges and exits 1 when a value, ``set_ops`` or ``storage_bytes``
differs, or a reference-scaled kernel time exceeds :data:`CHECK_FACTOR`
times the committed one.  ``--oracle`` runs the relabelling oracle:
``tc`` and ``tc-merge`` must give one value on every exact backend,
unchanged under a seeded vertex permutation.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import tracemalloc
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..core.registry import get_set_class, set_class_names
from ..graph import generators
from ..graph.builder import build_undirected
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache, build_set_graph
from ..graph.transforms import permute
from ..preprocess.ordering import compute_ordering
from ..runtime.metrics import Span
from .suite import SUITE_KERNELS, ExperimentPlan, run_cell

__all__ = ["RUNGS", "run_ladder", "check_ladder", "relabel_oracle", "main"]

SCHEMA = "gms-ladder/v1"
DEFAULT_PATH = "BENCH_ladder.json"

#: (generator, parameters), smallest rungs first; seeds are parameters.
RUNGS = (
    ("holme_kim", {"n": 2000, "m_attach": 5, "p_triangle": 0.5, "seed": 1}),
    ("barabasi_albert", {"n": 2000, "m_attach": 5, "seed": 1}),
    ("kronecker", {"scale": 11, "edge_factor": 6, "seed": 1}),
    ("holme_kim", {"n": 20000, "m_attach": 5, "p_triangle": 0.5, "seed": 1}),
    ("barabasi_albert", {"n": 20000, "m_attach": 5, "seed": 1}),
    ("kronecker", {"scale": 14, "edge_factor": 8, "seed": 1}),
    ("holme_kim", {"n": 100000, "m_attach": 5, "p_triangle": 0.5,
                   "seed": 1}),
    ("barabasi_albert", {"n": 100000, "m_attach": 5, "seed": 1}),
    ("kronecker", {"scale": 15, "edge_factor": 18, "seed": 1}),
)
BACKENDS = ("sorted", "bitset", "hash")
KERNELS = ("tc", "tc-merge", "4clique", "bk")
#: Cells estimated to materialize more bytes than this are skipped.
MAX_BYTES = 256 << 20
#: Cells estimated to take more seconds per pass than this are skipped.
MAX_SECONDS = 20.0
#: Passes per cell (best of), or one when the estimate exceeds a second.
REPEATS = 3
#: Ordering of the ordered kernels (4clique, bk).
ORDERING = "DGR"
#: ``--check`` reruns the rungs of at most this many edges (one per
#: generator), and fails a cell whose reference-scaled kernel time is
#: above this factor times the committed one.
CHECK_EDGES = 20000
CHECK_FACTOR = 5.0
#: The relabelling oracle's graph and permutation seed.
ORACLE_GRAPH = ("holme_kim", {"n": 20000, "m_attach": 5, "p_triangle": 0.5,
                              "seed": 1})
ORACLE_SEED = 1
#: The unit of reference-scaled seconds: a time ``t`` measured while the
#: reference took ``r`` scales to ``t * REFERENCE_SECONDS / r``.  The
#: reference took 0.010-0.018 s on the 2 vCPU x86-64 VM (CPython 3.11)
#: that wrote the committed ladder.
REFERENCE_SECONDS = 0.016


def label(generator: str, params: Dict[str, object]) -> str:
    """``generator(k=v, ...)``: a rung's name."""
    args = ", ".join(f"{key}={value}" for key, value in params.items())
    return f"{generator}({args})"


def _reference_adjacency() -> List[set]:
    """300 vertices, 1500 random edges and 16 planted 7-cliques, fixed,
    oriented from lower to higher ID."""
    rng = np.random.default_rng([0, 0, 0])
    pairs = rng.integers(0, 300, size=(1500, 2)).tolist()
    for _ in range(16):
        members = rng.choice(300, size=7, replace=False).tolist()
        pairs += [(a, b) for i, a in enumerate(members)
                  for b in members[i + 1:]]
    forward: List[set] = [set() for _ in range(300)]
    for a, b in pairs:
        if a != b:
            forward[min(a, b)].add(max(a, b))
    return forward


def reference_seconds() -> float:
    """Median of 3 timings of 24 plain-Python triangle counts of the
    reference graph, garbage collection held off; shares no code with
    the mining kernels."""
    forward = _reference_adjacency()

    def triangles() -> int:
        return sum(len(forward[u] & forward[v])
                   for u in range(300) for v in forward[u])

    gc.collect()
    gc.disable()
    try:
        runs = []
        for _ in range(3):
            with Span() as span:
                for _ in range(24):
                    triangles()
            runs.append(span.seconds)
        return statistics.median(runs)
    finally:
        gc.enable()


class _TracedCache(MaterializationCache):
    """A cache whose builds also meter their tracemalloc peak: the
    highest bytes any one build (ordering or ``SetGraph``) allocated
    above what was live when it began.  Kernel passes run untraced."""

    def __init__(self) -> None:
        super().__init__()
        self.peak_bytes = 0

    @contextmanager
    def _metered_build(self) -> Iterator[None]:
        tracemalloc.start()
        try:
            with super()._metered_build():
                yield
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.peak_bytes = max(self.peak_bytes, peak)


def _timed(call):
    with Span() as span:
        result = call()
    return result, span.seconds


def estimated_bytes(graph: CSRGraph, backend: str) -> int:
    """Bytes *backend*'s ``SetGraph`` of *graph* is expected to hold.

    ``bitset`` keeps one big int per vertex as wide as its largest
    neighbor, so n²/8 bytes on a graph with scattered IDs; the sparse
    backends keep ~32 bytes per arc (``hash``'s measured tracemalloc
    size, the largest of them, rounded up)."""
    if backend != "bitset":
        return 32 * len(graph.adjacency)
    degrees = graph.degrees()
    last = graph.adjacency[graph.offsets[1:][degrees > 0] - 1]
    return int(((last >> 3) + 1 + 32).sum())


def run_rung(generator: str, params: Dict[str, object],
             previous: Optional[Dict[str, object]] = None,
             cells: Optional[Sequence[tuple]] = None) -> Dict[str, object]:
    """Measure one rung; *previous* is the generator's smaller rung (its
    cell times set the cost estimates); *cells* limits the (backend,
    kernel) cells run."""
    graph, generate = _timed(
        lambda: getattr(generators, generator)(**params))
    edges = graph.edge_array()
    _, load = _timed(lambda: build_undirected(graph.num_nodes, edges))
    order = {name: _timed(lambda: compute_ordering(graph, name))[1]
             for name in (ORDERING, "DEG")}
    rung: Dict[str, object] = {
        "label": label(generator, params),
        "generator": generator,
        "params": dict(params),
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "reference_seconds": reference_seconds(),
        "generate_seconds": generate,
        "load_seconds": load,
        "order_seconds": order,
        "materialize": {},
        "cells": [],
    }
    before = {(c["set_class"], c["kernel"]): c
              for c in (previous or {}).get("cells", [])}
    growth = (graph.num_edges / previous["num_edges"]) ** 1.5 \
        if previous else None
    for backend in BACKENDS:
        cls = get_set_class(backend)
        nbytes = estimated_bytes(graph, backend)
        if nbytes > MAX_BYTES:
            rung["materialize"][backend] = {
                "skipped": f"estimated {nbytes} bytes > {MAX_BYTES}"}
        else:
            sg, seconds = _timed(lambda: build_set_graph(graph, cls))
            rung["materialize"][backend] = {
                "seconds": seconds, "storage_bytes": sg.storage_bytes()}
            del sg
        for kernel in KERNELS:
            if cells is not None and (backend, kernel) not in cells:
                continue
            cell = {"set_class": backend, "kernel": kernel}
            old = before.get((backend, kernel), {})
            estimate = (None if growth is None else
                        old["seconds"] * growth if "seconds" in old
                        else float("inf"))
            if nbytes > MAX_BYTES:
                cell["skipped"] = f"estimated {nbytes} bytes > {MAX_BYTES}"
            elif estimate is not None and estimate > MAX_SECONDS:
                cell["skipped"] = (f"estimated {estimate:.1f} s > "
                                   f"{MAX_SECONDS:g} s")
            else:
                cell.update(_run_cell(graph, cls, backend, kernel,
                                      estimate))
            rung["cells"].append(cell)
    return rung


def _run_cell(graph, cls, backend, kernel, estimate) -> Dict[str, object]:
    suite_kernel = SUITE_KERNELS[kernel]
    repeats = REPEATS if estimate is None or estimate <= 1.0 else 1
    cache = _TracedCache()
    cell = run_cell(graph, cls, suite_kernel, backend,
                    ORDERING if suite_kernel.uses_ordering else "-",
                    ExperimentPlan(repeats=repeats), cache)
    return {"value": cell["value"], "seconds": cell["seconds"],
            "set_ops": cell["set_ops"],
            "storage_bytes": cache.resident_bytes,
            "peak_bytes": cache.peak_bytes, "repeats": repeats}


def run_ladder() -> Dict[str, object]:
    """Every rung of :data:`RUNGS`, as the ``gms-ladder/v1`` payload;
    prints each rung's summary as it finishes."""
    rungs: List[Dict[str, object]] = []
    last: Dict[str, Dict[str, object]] = {}
    for generator, params in RUNGS:
        rung = run_rung(generator, params, last.get(generator))
        last[generator] = rung
        rungs.append(rung)
        print(_summary(rung), flush=True)
    return {"schema": SCHEMA, "backends": list(BACKENDS),
            "kernels": list(KERNELS), "ordering": ORDERING,
            "max_bytes": MAX_BYTES, "max_seconds": MAX_SECONDS,
            "reference_seconds": REFERENCE_SECONDS, "rungs": rungs}


def _scaled(seconds: float, rung: Dict[str, object]) -> float:
    return seconds * REFERENCE_SECONDS / rung["reference_seconds"]


def _summary(rung: Dict[str, object]) -> str:
    lines = [f"{rung['label']}: n={rung['num_nodes']} "
             f"m={rung['num_edges']} generate {rung['generate_seconds']:.2f}"
             f" s, load {rung['load_seconds']:.3f} s"]
    for cell in rung["cells"]:
        what = (f"skipped ({cell['skipped']})" if "skipped" in cell else
                f"{cell['value']} in {1000 * cell['seconds']:.1f} ms, "
                f"set_ops {cell['set_ops']}, "
                f"{cell['storage_bytes']} B, peak {cell['peak_bytes']} B")
        lines.append(f"  {cell['set_class']:<9} {cell['kernel']:<9} {what}")
    return "\n".join(lines)


#: Fields of a cell a rerun must reproduce exactly.
EXACT_FIELDS = ("value", "set_ops", "storage_bytes")


def check_ladder(committed: Dict[str, object]) -> List[str]:
    """Rerun *committed*'s rungs of at most :data:`CHECK_EDGES` edges,
    printing each; return one line per cell whose exact fields differ or
    whose reference-scaled kernel time exceeds :data:`CHECK_FACTOR`
    times the committed one."""
    failures: List[str] = []
    for old in committed["rungs"]:
        if old["num_edges"] > CHECK_EDGES:
            continue
        ran = [(c["set_class"], c["kernel"]) for c in old["cells"]
               if "skipped" not in c]
        new = run_rung(old["generator"], old["params"], cells=ran)
        print(_summary(new), flush=True)
        fresh = {(c["set_class"], c["kernel"]): c for c in new["cells"]}
        for cell in old["cells"]:
            if "skipped" in cell:
                continue
            key = (cell["set_class"], cell["kernel"])
            now = fresh[key]
            where = f"{old['label']} {key[0]} {key[1]}"
            for field in EXACT_FIELDS:
                if now.get(field) != cell[field]:
                    failures.append(f"{where}: {field} {now.get(field)} != "
                                    f"committed {cell[field]}")
            then = _scaled(cell["seconds"], old)
            if _scaled(now["seconds"], new) > CHECK_FACTOR * then:
                failures.append(
                    f"{where}: {_scaled(now['seconds'], new):.4f} s scaled "
                    f"> {CHECK_FACTOR:g} x committed {then:.4f} s")
    return failures


def exact_backends() -> List[str]:
    """The registered exact backends' names, sorted."""
    return [name for name in set_class_names()
            if get_set_class(name).IS_EXACT]


def relabel_oracle(graph: CSRGraph) -> Dict[str, Dict[str, List[int]]]:
    """``{kernel: {backend: [value, value after relabelling]}}`` of
    ``tc`` and ``tc-merge`` over every exact backend.

    The relabelling is :func:`~repro.graph.transforms.permute` by a
    permutation seeded with :data:`ORACLE_SEED`; a count of the graph
    cannot depend on it, or on the backend."""
    perm = np.random.default_rng(ORACLE_SEED).permutation(graph.num_nodes)
    graphs = (graph, permute(graph, perm))
    plan = ExperimentPlan()
    values: Dict[str, Dict[str, List[int]]] = {"tc": {}, "tc-merge": {}}
    for backend in exact_backends():
        cls = get_set_class(backend)
        for kernel in values:
            suite_kernel = SUITE_KERNELS[kernel]
            ordering = ORDERING if suite_kernel.uses_ordering else "-"
            values[kernel][backend] = [
                run_cell(g, cls, suite_kernel, backend, ordering, plan,
                         MaterializationCache())["value"] for g in graphs]
    return values


def oracle_failures(values: Dict[str, Dict[str, List[int]]]) -> List[str]:
    """One line per kernel whose :func:`relabel_oracle` values differ."""
    return [f"{kernel}: {by_backend}"
            for kernel, by_backend in values.items()
            if len({v for pair in by_backend.values() for v in pair}) != 1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro ladder", allow_abbrev=False,
        description="synthetic scale ladder: per rung and exact backend, "
                    "layer seconds, kernel seconds, values, set_ops and "
                    "bytes (gms-ladder/v1)")
    parser.add_argument("--out", default=DEFAULT_PATH,
                        help="where to write the ladder (default: "
                             "%(default)s)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", metavar="FILE", default=None,
                      help=f"rerun FILE's rungs of at most {CHECK_EDGES} "
                           f"edges instead and compare; exit 1 on a "
                           f"changed value, set_ops or storage_bytes, or "
                           f"a reference-scaled kernel time above "
                           f"{CHECK_FACTOR:g}x the committed one")
    mode.add_argument("--oracle", action="store_true",
                      help=f"run the relabelling oracle on "
                           f"{label(*ORACLE_GRAPH)} instead")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.oracle:
        generator, params = ORACLE_GRAPH
        graph = getattr(generators, generator)(**params)
        values, seconds = _timed(lambda: relabel_oracle(graph))
        for kernel, by_backend in values.items():
            print(f"{kernel}: {by_backend}")
        failures = oracle_failures(values)
        print(f"relabelling oracle on {graph.num_edges} edges: "
              f"{'FAIL' if failures else 'ok'} in {seconds:.1f} s")
        return 1 if failures else 0
    if args.check:
        with open(args.check) as fh:
            committed = json.load(fh)
        failures = check_ladder(committed)
        for line in failures:
            print(f"FAIL {line}")
        print(f"ladder check: {len(failures)} failure(s)")
        return 1 if failures else 0
    payload = run_ladder()
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0
