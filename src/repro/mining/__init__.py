"""Reference graph-mining algorithms (paper section 6)."""

from .approx import kclique_count_sets
from .baselines import (
    danisch_kclique_count,
    framework_kclique_count,
    gbbs_kclique_count,
)
from .bronkerbosch import BK_VARIANTS, BKResult, bk_das, bron_kerbosch, run_bk_variant
from .densest import densest_subgraph
from .fsm import FrequentPattern, canonical_form, frequent_subgraphs, mni_support
from .kclique import KCliqueResult, kclique_count, kclique_list
from .kcliquestar import kclique_star_count, kclique_stars
from .kcore import approx_core_numbers, core_histogram, core_numbers, k_core
from .triangles import triangle_count_node_iterator, triangle_count_rank_merge

__all__ = [
    "kclique_count_sets",
    "BKResult",
    "bron_kerbosch",
    "bk_das",
    "run_bk_variant",
    "BK_VARIANTS",
    "KCliqueResult",
    "kclique_count",
    "kclique_list",
    "kclique_stars",
    "kclique_star_count",
    "core_numbers",
    "approx_core_numbers",
    "k_core",
    "core_histogram",
    "densest_subgraph",
    "triangle_count_node_iterator",
    "triangle_count_rank_merge",
    "FrequentPattern",
    "frequent_subgraphs",
    "mni_support",
    "canonical_form",
    "gbbs_kclique_count",
    "danisch_kclique_count",
    "framework_kclique_count",
]
