"""Dataset registry: seeded miniature analogs of the Table 7 graphs.

The paper deliberately refrains from prescribing fixed datasets (section
4.2) and instead characterizes *which structural parameters* make a graph a
useful stressor: sparsity ``m/n``, degree skew, triangle count ``T``,
triangle skew ``T̂``, diameter, and graph *origin* (section 8.6 shows origin
drives higher-order structure).  Because this reproduction runs offline, we
follow that guidance and provide generated stand-ins that hit the same
parameter regimes at laptop scale — one per graph the evaluation uses.

Every entry records the paper graph it mirrors and why it was selected, and
``bench_table7`` recomputes the full statistics table over the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .csr import CSRGraph
from . import generators as gen

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "load_dataset",
    "dataset_names",
    "suite",
]


@dataclass(frozen=True)
class DatasetSpec:
    """A named synthetic dataset standing in for a Table 7 graph."""

    name: str
    category: str  # so/wb/st/sc/re/bi/co/ec/ro, as in Table 7
    mirrors: str  # the paper graph this is an analog of
    why: str  # the "Why selected/special?" column
    loader: Callable[[], CSRGraph]

    def load(self) -> CSRGraph:
        """Generate the graph (deterministic: fixed seed inside loader)."""
        return self.loader()


def _spec(name, category, mirrors, why, loader) -> DatasetSpec:
    return DatasetSpec(name, category, mirrors, why, loader)


DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        # ----- social networks ------------------------------------------------
        _spec(
            "orkut-mini",
            "so",
            "Orkut (K)",
            "common, relatively large; heavy-tailed with many triangles",
            lambda: gen.holme_kim(1200, 12, 0.55, seed=11),
        ),
        _spec(
            "flickr-mini",
            "so",
            "Flickr (K)",
            "large T but low m/n",
            lambda: gen.planted_cliques(
                1500, 3000, [(12, 12), (8, 30)], seed=12
            ),
        ),
        _spec(
            "libimseti-mini",
            "so",
            "Libimseti (K)",
            "large m/n (dense social graph)",
            lambda: gen.erdos_renyi_nm(500, 12000, seed=13),
        ),
        _spec(
            "youtube-mini",
            "so",
            "Youtube (K)",
            "very low m/n and T; high diameter + degree skew",
            lambda: gen.barabasi_albert(2500, 2, seed=14),
        ),
        _spec(
            "flixster-mini",
            "so",
            "Flixster (K)",
            "very low m/n and T",
            lambda: gen.barabasi_albert(2000, 3, seed=15),
        ),
        _spec(
            "livemocha-mini",
            "so",
            "Livemocha (K)",
            "similar bulk stats to flickr-photos-mini but far fewer 4-cliques",
            lambda: gen.holme_kim(1000, 10, 0.35, seed=16),
        ),
        _spec(
            "ep-trust-mini",
            "so",
            "Epinions trust (N)",
            "huge T-skew concentrated at few vertices",
            lambda: gen.planted_cliques(1300, 2600, [(22, 2), (8, 10)], seed=17),
        ),
        _spec(
            "fb-comm-mini",
            "so",
            "FB communication (N)",
            "large T-skew, dense ego-nets",
            lambda: gen.planted_cliques(800, 4000, [(14, 6), (6, 25)], seed=18),
        ),
        _spec(
            "dblp-mini",
            "so",
            "DBLP co-authorship (S)",
            "moderate clustering collaboration network (Figure 8b panel)",
            lambda: gen.holme_kim(1100, 5, 0.65, seed=91),
        ),
        _spec(
            "citations-mini",
            "so",
            "Citation network (S)",
            "sparse, moderately clustered DAG-like network (Figure 8b panel)",
            lambda: gen.holme_kim(1400, 4, 0.3, seed=92),
        ),
        _spec(
            "pokec-mini",
            "so",
            "Pokec (S)",
            "large sparse social network, few dense cores (Figure 8b panel)",
            lambda: gen.barabasi_albert(1800, 4, seed=93),
        ),
        # ----- web graphs -----------------------------------------------------
        _spec(
            "wikipedia-mini",
            "wb",
            "Wikipedia (K)",
            "common, very sparse, power-law",
            lambda: gen.kronecker(11, 6, seed=21),
        ),
        _spec(
            "baidu-mini",
            "wb",
            "Baidu (K)",
            "very sparse, skewed",
            lambda: gen.kronecker(11, 4, seed=22),
        ),
        _spec(
            "dbpedia-mini",
            "wb",
            "DBpedia (K)",
            "rather low m/n but high T",
            lambda: gen.planted_cliques(1400, 5600, [(10, 20)], seed=23),
        ),
        _spec(
            "wikiedit-mini",
            "wb",
            "WikiEdit (N)",
            "large T-skew (few hub pages on which everyone collaborates)",
            lambda: gen.bipartite_projection(700, 260, 4, item_skew=1.6, seed=24, max_raters=20),
        ),
        # ----- structural / scientific ---------------------------------------
        _spec(
            "chebyshev4-mini",
            "st",
            "Chebyshev4 (N)",
            "very large T, T/n and T-skew",
            lambda: gen.planted_cliques(700, 2100, [(20, 3), (10, 12)], seed=31),
        ),
        _spec(
            "gearbox-mini",
            "st",
            "Gearbox (N)",
            "low max degree but large T; low T-skew (mesh-like)",
            lambda: gen.watts_strogatz(1200, 14, 0.05, seed=32),
        ),
        _spec(
            "nemeth25-mini",
            "st",
            "Nemeth25 (N)",
            "huge T but low per-vertex max (uniform quasi-clique bands)",
            lambda: gen.watts_strogatz(600, 26, 0.02, seed=33),
        ),
        _spec(
            "f2-mini",
            "st",
            "F2 (N)",
            "medium T-skew structural problem",
            lambda: gen.planted_cliques(900, 5400, [(9, 18)], seed=34),
        ),
        _spec(
            "gupta3-mini",
            "sc",
            "Gupta3 (N)",
            "huge T-skew: one dense core inside a sparse matrix graph",
            lambda: gen.planted_cliques(900, 3600, [(26, 1), (12, 4)], seed=35),
        ),
        _spec(
            "ldoor-mini",
            "sc",
            "ldoor (N)",
            "very low T-skew FEM mesh",
            lambda: gen.watts_strogatz(1600, 10, 0.02, seed=36),
        ),
        # ----- recommendation -------------------------------------------------
        _spec(
            "movierec-mini",
            "re",
            "MovieRec (N)",
            "huge T and T̂ from popular-item co-rating cliques",
            lambda: gen.bipartite_projection(600, 180, 5, item_skew=1.3, seed=41, max_raters=24),
        ),
        _spec(
            "recdate-mini",
            "re",
            "RecDate (N)",
            "enormous T-skew",
            lambda: gen.bipartite_projection(800, 320, 4, item_skew=1.7, seed=42, max_raters=18),
        ),
        # ----- biological ------------------------------------------------------
        _spec(
            "sc-ht-mini",
            "bi",
            "sc-ht genes (N)",
            "small, dense, large T-skew",
            lambda: gen.planted_cliques(300, 1500, [(15, 2), (8, 6)], seed=51),
        ),
        _spec(
            "antcolony6-mini",
            "bi",
            "AntColony6 (N)",
            "tiny, near-complete contact network, very low T-skew",
            lambda: gen.erdos_renyi_nm(164, 3300, seed=52),
        ),
        _spec(
            "antcolony5-mini",
            "bi",
            "AntColony5 (N)",
            "tiny, near-complete contact network, very low T-skew",
            lambda: gen.erdos_renyi_nm(152, 2800, seed=53),
        ),
        # ----- communication ---------------------------------------------------
        _spec(
            "jester2-mini",
            "co",
            "Jester2 (N)",
            "enormous T-skew (every user rates the same few jokes)",
            lambda: gen.bipartite_projection(650, 150, 3, item_skew=1.9, seed=61, max_raters=26),
        ),
        _spec(
            "flickr-photos-mini",
            "co",
            "Flickr photo relations (K)",
            "bulk stats similar to livemocha-mini but many more 4-cliques",
            lambda: gen.planted_cliques(1000, 6000, [(13, 14)], seed=62),
        ),
        # ----- economics --------------------------------------------------------
        _spec(
            "mbeacxc-mini",
            "ec",
            "mbeacxc (N)",
            "small dense input-output matrix graph, large T",
            lambda: gen.erdos_renyi_nm(492, 8000, seed=71),
        ),
        _spec(
            "orani678-mini",
            "ec",
            "orani678 (N)",
            "large T, low T̂",
            lambda: gen.planted_cliques(1200, 9000, [(8, 24)], seed=72),
        ),
        # ----- road -------------------------------------------------------------
        _spec(
            "usa-roads-mini",
            "ro",
            "USA roads (D)",
            "extremely low m/n and T; huge diameter",
            lambda: gen.road_grid(50, 50, extra_p=0.02, seed=81),
        ),
        # ----- SNAP-scale graphs -------------------------------------------------
        _spec(
            "ca-grqc",
            "so",
            "ca-GrQc (SNAP)",
            "collaboration network: small, clique-rich (co-authorship "
            "cliques), the classic non-toy mining input",
            # Triadic-closure preferential attachment lands in the same
            # sparsity/clustering regime as co-authorship.
            lambda: gen.holme_kim(5242, 3, 0.55, seed=101),
        ),
        _spec(
            "email-eu-core",
            "co",
            "email-Eu-core (SNAP)",
            "dense institutional e-mail core: high m/n and triangle "
            "count concentrated in departments",
            # Department structure = planted dense groups over a sparse
            # background of cross-department mail.
            lambda: gen.planted_cliques(
                1005, 9000, [(22, 4), (12, 18)], seed=102
            ),
        ),
    ]
}


def load_dataset(name: str) -> CSRGraph:
    """Load a registry dataset by name."""
    try:
        spec = DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None
    return spec.load()


def dataset_names(category: str | None = None) -> List[str]:
    """All dataset names, optionally restricted to a Table 7 category."""
    return [
        name
        for name, spec in DATASETS.items()
        if category is None or spec.category == category
    ]


def suite(kind: str = "default") -> List[str]:
    """Curated dataset suites for the benchmarks.

    ``"quick"`` — a 4-graph cross-category subset (Figure 1's layout);
    ``"default"`` — the broad Figure 4 sweep; ``"all"`` — everything.
    """
    if kind == "quick":
        return ["gearbox-mini", "jester2-mini", "antcolony5-mini", "orani678-mini"]
    if kind == "default":
        return [
            "chebyshev4-mini",
            "gearbox-mini",
            "gupta3-mini",
            "ep-trust-mini",
            "fb-comm-mini",
            "f2-mini",
            "sc-ht-mini",
            "mbeacxc-mini",
            "orani678-mini",
            "movierec-mini",
            "recdate-mini",
            "jester2-mini",
            "antcolony6-mini",
            "antcolony5-mini",
            "ldoor-mini",
            "usa-roads-mini",
            "youtube-mini",
            "flixster-mini",
            "libimseti-mini",
            "wikipedia-mini",
            "baidu-mini",
        ]
    if kind == "all":
        return sorted(DATASETS)
    raise ValueError(f"unknown suite {kind!r}")
