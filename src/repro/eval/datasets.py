"""Laptop-scale stand-ins for the paper's seven datasets (Table 3).

Each entry mirrors one paper network's *regime* — relative size,
density, label count, community tightness — at 1/100-1/1000 scale,
using the authors' own synthetic-label recipe (communities split into
label groups, ~10% planted cross edges, ~10% global noise cross edges).
See DESIGN.md section 3 for the substitution argument.

Paper reference values for Table 3 are kept in ``PAPER_TABLE3`` so
EXPERIMENTS.md can print paper-vs-ours side by side.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict

from ..synth_graphs import PlantedGraph, planted_bcc_graph

# generator parameters per dataset stand-in (ordered as the paper's Table 3)
DATASET_PARAMS: Dict[str, dict] = {
    # Baidu-1/2: many labels, dense, small diameter
    "baidu1_lite": dict(
        n_communities=10, group_size=(8, 13), n_labels=2, label_pool=24,
        p_intra=0.65, cross_frac=0.16, noise_frac=0.10, homo_noise_frac=0.015, n_leaders=3,
        n_background=140, bg_avg_deg=1.5, seed=11,
    ),
    "baidu2_lite": dict(
        n_communities=14, group_size=(10, 16), n_labels=2, label_pool=20,
        p_intra=0.70, cross_frac=0.16, noise_frac=0.10, homo_noise_frac=0.015, n_leaders=3,
        n_background=160, bg_avg_deg=2.0, seed=12,
    ),
    # Amazon: sparse, small communities, tiny k_max
    "amazon_lite": dict(
        n_communities=40, group_size=(5, 9), n_labels=2,
        p_intra=0.55, cross_frac=0.15, noise_frac=0.10, homo_noise_frac=0.010, n_leaders=3,
        n_background=280, bg_avg_deg=1.0, seed=13,
    ),
    # DBLP: medium density communities, same-label noise chains cores so
    # G0 is non-trivial and the greedy peeling runs several iterations
    "dblp_lite": dict(
        n_communities=44, group_size=(8, 13), n_labels=2,
        p_intra=0.65, cross_frac=0.15, noise_frac=0.10, homo_noise_frac=0.040, n_leaders=3,
        n_background=280, bg_avg_deg=1.2, seed=14,
    ),
    # Youtube: weak community structure (every method scores low F1)
    "youtube_lite": dict(
        n_communities=36, group_size=(6, 12), n_labels=2,
        p_intra=0.25, cross_frac=0.10, noise_frac=0.30, homo_noise_frac=0.08, n_leaders=2,
        n_background=560, bg_avg_deg=2.0, seed=15,
    ),
    # LiveJournal: larger, tight communities
    "livejournal_lite": dict(
        n_communities=40, group_size=(9, 15), n_labels=2,
        p_intra=0.65, cross_frac=0.15, noise_frac=0.10, homo_noise_frac=0.015, n_leaders=3,
        n_background=380, bg_avg_deg=1.2, seed=16,
    ),
    # Orkut: biggest and densest; heavy same-label noise chains many
    # community cores together so Online/LP-BCC's G0 blows up exactly as
    # in the paper's Figure 5
    "orkut_lite": dict(
        n_communities=56, group_size=(11, 19), n_labels=2,
        p_intra=0.65, cross_frac=0.15, noise_frac=0.15, homo_noise_frac=0.200, n_leaders=3,
        n_background=380, bg_avg_deg=2.5, seed=17,
    ),
}

# Table-4 breakdown instance: the paper measures Table 4 on full DBLP
# (~1M edges), where per-iteration butterfly counting dominates
# Online-BCC. This larger DBLP-like instance restores that regime —
# candidate graphs of a few thousand vertices with dense cross edges.
BREAKDOWN_PARAMS: Dict[str, dict] = {
    "dblp_bd_lite": dict(
        n_communities=170, group_size=(9, 15), n_labels=2,
        p_intra=0.65, cross_frac=0.40, noise_frac=0.12, homo_noise_frac=0.012,
        n_leaders=3, n_background=600, bg_avg_deg=1.2, seed=24,
    ),
}

# multi-label variants for Exp-9/10 (Baidu ground truth, DBLP-M etc.)
MLABEL_PARAMS: Dict[str, dict] = {}
for m in (2, 3, 4):
    MLABEL_PARAMS[f"baidu1_m{m}_lite"] = dict(
        DATASET_PARAMS["baidu1_lite"], n_labels=m, label_pool=24, seed=110 + m
    )
    MLABEL_PARAMS[f"baidu2_m{m}_lite"] = dict(
        DATASET_PARAMS["baidu2_lite"], n_labels=m, label_pool=20, seed=120 + m
    )
for m in (2, 3, 4):
    MLABEL_PARAMS[f"dblp_m{m}_lite"] = dict(
        DATASET_PARAMS["dblp_lite"], n_labels=m, label_pool=6, seed=140 + m
    )

ALL_PARAMS = {**DATASET_PARAMS, **BREAKDOWN_PARAMS, **MLABEL_PARAMS}

#: Table 3 as printed in the paper (K=1e3, M=1e6).
PAPER_TABLE3 = [
    ("Baidu-1", "30K", "508K", 383, 43, 12),
    ("Baidu-2", "41K", "2M", 346, 189, 13),
    ("Amazon", "335K", "926K", 2, 6, 549),
    ("DBLP", "317K", "1M", 2, 113, 342),
    ("Youtube", "1.1M", "3M", 2, 51, 28754),
    ("LiveJournal", "4M", "35M", 2, 360, 14815),
    ("Orkut", "3.1M", "117M", 2, 253, 33313),
]

#: paper network name per stand-in (for side-by-side tables)
PAPER_NAME = {
    "baidu1_lite": "Baidu-1",
    "baidu2_lite": "Baidu-2",
    "amazon_lite": "Amazon",
    "dblp_lite": "DBLP",
    "youtube_lite": "Youtube",
    "livejournal_lite": "LiveJournal",
    "orkut_lite": "Orkut",
}


@lru_cache(maxsize=None)
def load(name: str) -> PlantedGraph:
    """Generate (and cache) a dataset stand-in by name."""
    if name not in ALL_PARAMS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(ALL_PARAMS)}")
    return planted_bcc_graph(**ALL_PARAMS[name])
