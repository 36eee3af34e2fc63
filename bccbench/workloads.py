"""The three benchmark workloads.

The seed always changes the queries. With m = 2 the query sampler draws
each community's pair with the seed, so those workloads keep the
registered graph: regenerating it too made the per-graph cost, not the
program, the largest source of spread (LP-BCC p90 over seeds). With
m = 3 the sampler takes each group's top-degree vertex and uses the seed
only for the order, so ``l2p_mbcc`` regenerates its graph from the
registered generator parameters with the seed.

``setup`` is the deployment set-up a server pays before its first
query; it runs several times in one run and each call replaces the
deployment. ``query`` is what one client request runs.

The program is always reached through module attributes (``search.lp_bcc``,
not a name imported here), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.core import bcindex, l2p, search
from repro.eval.datasets import ALL_PARAMS, load
from repro.eval.queries import community_query_pairs
from repro.graphlib import SparkLabeledGraph
from repro.synth_graphs import planted_bcc_graph

B = 1  # butterfly threshold b, the paper's default


class Workload:
    dataset: str
    m: int
    #: set-up repetitions at each set-up point of a run
    setup_reps: int
    #: an untraced run serves at least this many queries: a shared
    #: host's speed drifts by tens of percent over seconds, and more
    #: work per run is what keeps the figures steady
    min_queries: int
    #: the first queries, whose counts and answer quality are reported
    #: so that those figures repeat exactly for a seed
    count_prefix: int
    regenerate_graph = False
    #: the untimed warm-up query counts as deployment set-up
    warmup_in_setup = False
    #: the query's work runs in this Python process, so its times are
    #: expressed at the host-speed probe's reference speed (``probe.py``)
    probe_scaled = True
    #: ``(q, ks) -> answer`` that ``query`` must return, or None
    reference = None
    spark_context = None

    def __init__(self, seed: int):
        if self.regenerate_graph:
            self.pg = planted_bcc_graph(**dict(ALL_PARAMS[self.dataset], seed=seed))
        else:
            self.pg = load(self.dataset)
        self.g = self.pg.to_local()
        self.queries: List[Tuple[int, Tuple[int, ...]]] = community_query_pairs(
            self.pg, self.g, n=len(self.pg.communities), m=self.m, seed=seed
        )

    def setup(self) -> Dict[str, float]:
        raise NotImplementedError

    def query(self, q: Sequence[int]):
        """(answer, ks the answer must satisfy)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class LpGlobal(Workload):
    """LP-BCC with default ks on the Table-4 graph: whole-graph phases."""

    dataset, m, setup_reps = "dblp_bd_lite", 2, 3
    min_queries = count_prefix = 100

    def setup(self) -> Dict[str, float]:
        t = time.perf_counter()
        self.g = self.pg.to_local()
        return {"setup_s": time.perf_counter() - t}

    def query(self, q):
        ks = search.default_ks(self.g, q)
        return search.lp_bcc(self.g, q, ks, B), ks

    def reference(self, q, ks):
        return search.online_bcc(self.g, q, ks, B)


class L2pMbcc(Workload):
    """L²P-BCC, m = 3, on a warm BCindex (the paper's Exp-10 setting)."""

    dataset, m, setup_reps, regenerate_graph = "dblp_m3_lite", 3, 3, True
    min_queries, count_prefix = 20 * 44, 44  # 20 passes; one pass

    def setup(self) -> Dict[str, float]:
        t0 = time.perf_counter()
        g = self.pg.to_local()
        t1 = time.perf_counter()
        idx = bcindex.build_bcindex_local(g)
        t2 = time.perf_counter()
        for _, q in self.queries:
            labs = [g.label(v) for v in q]
            for i in range(len(labs)):
                for j in range(i + 1, len(labs)):
                    idx.chi_for_pair(labs[i], labs[j])
        t3 = time.perf_counter()
        self.g, self.index = g, idx
        return {
            "setup_s": t3 - t0,
            "bcindex.build_ms": (t2 - t1) * 1e3,
            "bcindex.chi_warm_ms": (t3 - t2) * 1e3,
        }

    def query(self, q):
        res = l2p.l2p_bcc(self.g, q, None, B, index=self.index)
        return res, (res.stats.get("eff_ks") if res is not None else None)


class SparkG0(Workload):
    """The ``jobs/bcc_query.py`` call sequence: Spark G0, driver refinement.

    One query per community, 10 per pass. The JVM starts in ``__init__``,
    outside set-up; the warm-up query is part of set-up.
    """

    dataset, m, setup_reps, warmup_in_setup = "baidu1_lite", 2, 1, True
    min_queries = count_prefix = 1
    # the time goes to Spark job scheduling in the JVM, which the Python
    # probe does not track
    probe_scaled = False

    def __init__(self, seed: int):
        super().__init__(seed)
        root = Path(__file__).resolve().parent.parent
        sys.path.insert(0, str(root / "jobs"))
        from _common import get_spark  # noqa: PLC0415

        self.spark = get_spark("bccbench")
        self.spark_context = self.spark.sparkContext
        self.sg = None

    def setup(self) -> Dict[str, float]:
        t = time.perf_counter()
        sg = SparkLabeledGraph(*self.pg.to_spark(self.spark)).cache()
        sg.vertices.count()
        sg.edges.count()
        dt = time.perf_counter() - t
        if self.sg is not None:
            self.sg.vertices.unpersist()
            self.sg.edges.unpersist()
        self.sg = sg
        return {"setup_s": dt, "graphlib.ingest_s": dt}

    def query(self, q):
        ks = search.default_ks(self.g, q)
        return search.lp_bcc(self.sg, q, ks, B), ks

    def reference(self, q, ks):
        return search.lp_bcc(self.g, q, ks, B)

    def close(self) -> None:
        """Stop Spark and wait until its JVM has exited."""
        from pyspark import SparkContext  # noqa: PLC0415

        gateway = SparkContext._gateway
        self.spark.stop()
        if gateway is None:
            return
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


WORKLOADS = {"lp_global": LpGlobal, "l2p_mbcc": L2pMbcc, "spark_g0": SparkG0}

