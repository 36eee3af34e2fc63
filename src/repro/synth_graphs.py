"""Synthetic labeled graphs for the BCC reproduction.

Two families, and their conversions:

1. **Paper fixtures** — deterministic reconstructions of the worked
   examples: ``figure2_graph`` (the (4,3,1)-BCC of Figures 1-2) and
   ``figure3_graph`` (Section 6's running example, consistent with
   Table 2 and Examples 4-6 — butterfly degrees, leader pair, distance
   updates after deletions are all asserted in tests).

2. **Planted cross-group community graphs** — the substitution for the
   paper's seven datasets. Follows the authors' own labeling recipe for
   the SNAP graphs: each ground-truth community is split into two (or m)
   label groups, ~10% cross edges are planted inside each community,
   plus leader cliques that guarantee butterflies, plus ~10% global
   noise cross edges and a sparse random background graph.

3. ``PlantedGraph.to_local`` / ``to_spark`` convert a planted graph to a
   ``LocalGraph`` or to Spark frames.

All generators are deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .local.graph import LocalGraph, canon


# ---------------------------------------------------------------------------
# Paper fixtures
# ---------------------------------------------------------------------------

def figure2_graph() -> LocalGraph:
    """A labeled graph whose (4,3,1)-BCC matches Figure 2 of the paper.

    * ``L`` = {0 (q_l), 1..5 (v1..v5)} with label "SE": K6 minus a
      perfect matching — a 4-regular 4-core.
    * ``R`` = {10 (q_r), 11..13 (u1..u3)} with label "UI": K4, a 3-core.
    * ``B``: the butterfly {q_l, v5} x {q_r, u3} (4 cross edges).
    * Periphery: SE tail 6..9, UI tail 14..15, one "PM" vertex 20 —
      attached loosely so they are pruned by the core/diameter steps.

    Vertex ids: q_l=0, v1..v5=1..5, tail=6..9; q_r=10, u1..u3=11..13,
    tail=14..15; z1=20.
    """
    labels: Dict[int, str] = {}
    for v in range(0, 10):
        labels[v] = "SE"
    for v in range(10, 16):
        labels[v] = "UI"
    labels[20] = "PM"
    edges: List[Tuple[int, int]] = []
    # L: K6 on {0..5} minus matching {(0,3),(1,4),(2,5)} -> 4-regular
    six = list(range(6))
    matching = {(0, 3), (1, 4), (2, 5)}
    for i in six:
        for j in six:
            if i < j and (i, j) not in matching:
                edges.append((i, j))
    # R: K4 on {10..13}
    for i in range(10, 14):
        for j in range(i + 1, 14):
            edges.append((i, j))
    # B: butterfly {q_l=0, v5=5} x {q_r=10, u3=13}
    edges += [(0, 10), (0, 13), (5, 10), (5, 13)]
    # periphery: SE path 5-6-7-8-9, UI path 13-14-15, PM vertex 20
    edges += [(5, 6), (6, 7), (7, 8), (8, 9)]
    edges += [(13, 14), (14, 15)]
    edges += [(20, 0), (20, 10)]
    return LocalGraph.from_edges(edges, labels, vertices=labels.keys())


#: Named vertices of the Figure 3 running example (Section 6).
FIG3_IDS = {
    "q_l": 0, "v1": 1, "v2": 2, "v3": 3,
    "q_r": 10, "u1": 11, "u2": 12, "u3": 13, "u4": 14,
    "u5": 15, "u6": 16, "u7": 17, "u9": 19,
}


def figure3_graph() -> LocalGraph:
    """The Section-6 running example graph (Figure 3).

    Reconstructed to satisfy, verbatim: the distance table (Table 2,
    both before and after deleting u9), the butterfly degrees of
    Example 5 (chi(v1)=chi(v3)=6, chi(u2)=chi(u3)=chi(u5)=chi(u6)=3),
    the leader pair {v1, u2}, and the Example-6 updates after deleting
    u6 (chi(u2): 3 -> 2, chi(v1): 6 -> 3).
    """
    I = FIG3_IDS
    labels = {v: ("A" if v < 10 else "B") for v in I.values()}
    edges = [
        # homogeneous, left (label A)
        (I["q_l"], I["v1"]), (I["q_l"], I["v2"]), (I["q_l"], I["v3"]),
        (I["v2"], I["v1"]), (I["v2"], I["v3"]),
        # homogeneous, right (label B)
        (I["q_r"], I["u1"]), (I["q_r"], I["u2"]), (I["q_r"], I["u3"]),
        (I["q_r"], I["u9"]),
        (I["u1"], I["u2"]),
        (I["u5"], I["u2"]),
        (I["u4"], I["u5"]), (I["u7"], I["u5"]),
        (I["u4"], I["u9"]), (I["u7"], I["u9"]),
        # cross (bipartite B): v1 and v3 each to {u2, u3, u5, u6}
        (I["v1"], I["u2"]), (I["v1"], I["u3"]), (I["v1"], I["u5"]), (I["v1"], I["u6"]),
        (I["v3"], I["u2"]), (I["v3"], I["u3"]), (I["v3"], I["u5"]), (I["v3"], I["u6"]),
    ]
    return LocalGraph.from_edges(edges, labels, vertices=labels.keys())


# ---------------------------------------------------------------------------
# Planted cross-group community graphs
# ---------------------------------------------------------------------------

@dataclass
class PlantedGraph:
    """A generated labeled graph plus its planted ground truth.

    ``vertices``: pandas frame (id, label); ``edges``: (src, dst) with
    src < dst; ``communities``: community id -> vertex id set;
    ``queries``: per community, the designated leader vertices per label
    group (in label order) — natural high-quality query endpoints.
    """

    vertices: pd.DataFrame
    edges: pd.DataFrame
    communities: Dict[int, Set[int]] = field(default_factory=dict)
    leaders: Dict[int, List[List[int]]] = field(default_factory=dict)

    def to_local(self) -> LocalGraph:
        return LocalGraph.from_pandas(self.vertices, self.edges)

    def to_spark(self, spark: SparkSession) -> Tuple[DataFrame, DataFrame]:
        return (
            spark.createDataFrame(self.vertices),
            spark.createDataFrame(self.edges),
        )


def _dense_group(rng: np.random.Generator, ids: Sequence[int], p: float) -> List[Tuple[int, int]]:
    """G(n, p) on ``ids`` plus a ring, so the group is always connected."""
    ids = list(ids)
    n = len(ids)
    edges = {canon(ids[i], ids[(i + 1) % n]) for i in range(n)} if n > 1 else set()
    if n > 2:
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < p
        for a, b in zip(iu[mask], ju[mask]):
            edges.add(canon(ids[a], ids[b]))
    return sorted(edges)


def planted_bcc_graph(
    *,
    n_communities: int = 8,
    group_size: Tuple[int, int] = (6, 10),
    n_labels: int = 2,
    p_intra: float = 0.6,
    cross_frac: float = 0.10,
    noise_frac: float = 0.10,
    homo_noise_frac: float = 0.05,
    n_background: int = 50,
    bg_avg_deg: float = 1.5,
    n_leaders: int = 2,
    label_pool: int | None = None,
    seed: int = 0,
) -> PlantedGraph:
    """Generate a labeled graph with planted cross-group communities.

    Each community consists of ``n_labels`` dense label groups (sizes
    uniform in ``group_size``, Erdos-Renyi ``p_intra`` + ring). Between
    consecutive label groups we plant a complete ``n_leaders x
    n_leaders`` bipartite leader clique (guaranteeing butterflies with
    chi >= 1 for n_leaders=2) plus ``cross_frac * intra_edges`` random
    cross edges — the paper's in-community 10% cross-edge recipe.

    Noise, following the paper's dataset construction plus a knob that
    controls candidate-graph (G0) size:

    * ``noise_frac`` — global random *cross-label* edges (paper: 10%);
      these never enter the homogeneous cores but distort butterflies;
    * ``homo_noise_frac`` — global random *same-label* edges; these
      chain the per-community cores into larger connected k-core
      components, which is what makes Online-BCC's G0 big and the
      iterative peeling non-trivial (cf. the paper's Orkut blow-up);
    * ``n_background`` vertices with random labels and ``bg_avg_deg``
      average degree embed everything loosely in one connected graph.

    ``label_pool``: if given (> n_labels), each community draws its
    ``n_labels`` labels from a pool of that many labels (the Baidu-like
    many-label regime); otherwise all communities share labels
    ``L0..L{n_labels-1}``.
    """
    rng = np.random.default_rng(seed)
    labels: Dict[int, str] = {}
    edges: Set[Tuple[int, int]] = set()
    communities: Dict[int, Set[int]] = {}
    leaders: Dict[int, List[List[int]]] = {}
    next_id = 0

    pool = label_pool if label_pool and label_pool > n_labels else n_labels

    for cid in range(n_communities):
        if pool > n_labels:
            labs = [f"L{j}" for j in rng.choice(pool, size=n_labels, replace=False)]
        else:
            labs = [f"L{j}" for j in range(n_labels)]
        groups: List[List[int]] = []
        for lab in labs:
            size = int(rng.integers(group_size[0], group_size[1] + 1))
            ids = list(range(next_id, next_id + size))
            next_id += size
            for v in ids:
                labels[v] = lab
            edges.update(_dense_group(rng, ids, p_intra))
            # leaders are intra-group hubs: adjacent to every member of
            # their own group, so core peeling never removes a leader
            # before the group itself dissolves (leaders must survive to
            # witness the butterfly condition, as in the paper's model)
            for u in ids[: min(n_leaders, len(ids))]:
                for v in ids:
                    if u != v:
                        edges.add(canon(u, v))
            groups.append(ids)
        comm_vs: Set[int] = set()
        comm_leaders: List[List[int]] = []
        for g in groups:
            comm_vs.update(g)
            comm_leaders.append(g[: min(n_leaders, len(g))])
        # leader bicliques + random cross edges between consecutive groups
        intra_edges = sum(
            1 for e in edges if e[0] in comm_vs and e[1] in comm_vs
        )
        for gi in range(len(groups) - 1):
            a, b = groups[gi], groups[gi + 1]
            for u in comm_leaders[gi]:
                for v in comm_leaders[gi + 1]:
                    edges.add(canon(u, v))
            n_cross = max(1, int(cross_frac * intra_edges / max(1, len(groups) - 1)))
            us = rng.choice(a, size=n_cross)
            vs = rng.choice(b, size=n_cross)
            for u, v in zip(us, vs):
                edges.add(canon(int(u), int(v)))
        communities[cid] = comm_vs
        leaders[cid] = comm_leaders

    # background vertices with random labels from the used label set
    used_labels = sorted(set(labels.values()))
    bg_ids = list(range(next_id, next_id + n_background))
    next_id += n_background
    for v in bg_ids:
        labels[v] = used_labels[int(rng.integers(len(used_labels)))]
    all_ids = np.array(sorted(labels), dtype=np.int64)
    # background attachment: every background edge is incident to a
    # background vertex, so the loose periphery never inflates the
    # coreness of community members (a community vertex gains at most a
    # few neighbours of coreness ~1-2, which cannot raise its own
    # coreness) and never chains two community cores directly.
    if n_background > 0:
        n_bg_edges = int(bg_avg_deg * n_background)
        us = rng.choice(np.array(bg_ids, dtype=np.int64), size=n_bg_edges)
        vs = rng.choice(all_ids, size=n_bg_edges)
        for u, v in zip(us, vs):
            if u != v:
                edges.add(canon(int(u), int(v)))
    planted = len(edges)
    # global noise cross edges (paper: 10% noise cross edges)
    n_noise = max(1, int(noise_frac * planted))
    us = rng.choice(all_ids, size=4 * n_noise)
    vs = rng.choice(all_ids, size=4 * n_noise)
    added = 0
    for u, v in zip(us, vs):
        if added >= n_noise:
            break
        if u != v and labels[int(u)] != labels[int(v)]:
            edges.add(canon(int(u), int(v)))
            added += 1
    # same-label chaining edges between *different* communities: a single
    # such edge merges two internally-k-core groups into one connected
    # k-core component (both endpoints already have coreness >= k from
    # their own group), which is what makes G0 span several communities
    # and gives the greedy peeling its multi-iteration shape. The volume
    # is kept sparse: dense same-label noise would inflate vertex
    # coreness past the community-internal value, making k = coreness(q)
    # infeasible for q's own community.
    comm_of = {v: cid for cid, vs in communities.items() for v in vs}
    comm_ids = np.array(sorted(comm_of), dtype=np.int64)
    n_chain = int(homo_noise_frac * planted)
    if len(comm_ids) > 1 and n_chain > 0:
        us = rng.choice(comm_ids, size=8 * n_chain)
        vs = rng.choice(comm_ids, size=8 * n_chain)
        added = 0
        for u, v in zip(us, vs):
            if added >= n_chain:
                break
            u, v = int(u), int(v)
            if u != v and labels[u] == labels[v] and comm_of[u] != comm_of[v]:
                edges.add(canon(u, v))
                added += 1

    vdf = pd.DataFrame(
        sorted((int(v), labels[v]) for v in labels), columns=["id", "label"]
    )
    edf = pd.DataFrame(sorted(edges), columns=["src", "dst"])
    return PlantedGraph(vdf, edf, communities, leaders)

