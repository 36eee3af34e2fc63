"""Metric catalogue and the derivation of every reported figure.

End-to-end metrics come from the untraced run; per-layer metrics from
the traced run. Per-layer figures are per-query means unless they are
ratios. A layer that a workload never calls reports 0. Counts and
ratios are taken over the workload's fixed query prefix, so they
repeat exactly for a seed; times are taken over every traced query.
"""
from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from typing import Dict, List, Sequence

from .trace import Tracer, self_times, under

END_TO_END = {
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "f1_mean": "ratio",
    "qdist_mean": "hops",
}

PER_LAYER = {
    "search.default_ks_ms": "ms",
    "g0.find_g0_local_ms": "ms",
    "g0.size": "vertices",
    "g0.answer_ratio": "ratio",
    "g0.find_g0_spark_self_ms": "ms",
    "g0.spark_jobs": "count",
    "engine.init_ms": "ms",
    "engine.run_ms": "ms",
    "engine.iterations": "count",
    "engine.butterfly_counting": "count",
    "engine.recounts_per_iteration": "ratio",
    "engine.qdist_ms": "ms",
    "engine.leader_ms": "ms",
    "leader.identify_ms": "ms",
    "leader.identify_calls": "count",
    "leader.update_calls": "count",
    "fastdist.update_ms": "ms",
    "fastdist.update_calls": "count",
    "local.coreness_ms": "ms",
    "local.coreness_calls": "count",
    "local.kcore_vertices_ms": "ms",
    "local.butterfly_ms": "ms",
    "local.butterfly_calls": "count",
    "local.bfs_ms": "ms",
    "local.bfs_calls": "count",
    "bcindex.build_ms": "ms",
    "bcindex.chi_warm_ms": "ms",
    "bcindex.chi_calls": "count",
    "bcindex.chi_hit_ratio": "ratio",
    "l2p.path_ms": "ms",
    "l2p.expand_ms": "ms",
    "l2p.self_ms": "ms",
    "l2p.candidate_size": "vertices",
    "l2p.candidate_yield": "ratio",
    "graphlib.kcore_ms": "ms",
    "graphlib.kcore_jobs": "count",
    "graphlib.component_of_ms": "ms",
    "graphlib.component_of_jobs": "count",
    "graphlib.to_local_ms": "ms",
    "graphlib.ingest_s": "s",
    "query.self_ms": "ms",
    "query.spark_jobs": "count",
    "trace.query_ms_p50": "ms",
    "trace.overhead_ms": "ms",
    "trace.span_sum_err": "ratio",
    "trace.missing_targets": "count",
}

# span name -> (time metric, calls metric, jobs metric); None = not reported
SPAN_METRICS = {
    "search.default_ks": ("search.default_ks_ms", None, None),
    "g0.find_g0_local": ("g0.find_g0_local_ms", None, None),
    "g0.find_g0_spark": (None, None, "g0.spark_jobs"),
    "engine.init": ("engine.init_ms", None, None),
    "engine.run": ("engine.run_ms", None, None),
    "leader.identify": ("leader.identify_ms", "leader.identify_calls", None),
    "fastdist.update": ("fastdist.update_ms", "fastdist.update_calls", None),
    "local.coreness": ("local.coreness_ms", "local.coreness_calls", None),
    "local.kcore_vertices": ("local.kcore_vertices_ms", None, None),
    "local.butterfly": ("local.butterfly_ms", "local.butterfly_calls", None),
    "local.bfs": ("local.bfs_ms", "local.bfs_calls", None),
    "l2p.path": ("l2p.path_ms", None, None),
    "l2p.expand": ("l2p.expand_ms", None, None),
    "graphlib.kcore": ("graphlib.kcore_ms", None, "graphlib.kcore_jobs"),
    "graphlib.component_of": (
        "graphlib.component_of_ms", None, "graphlib.component_of_jobs"
    ),
    "graphlib.to_local": ("graphlib.to_local_ms", None, None),
    "query": (None, None, "query.spark_jobs"),
}

# span name -> metric of its self time
SELF_METRICS = {
    "g0.find_g0_spark": "g0.find_g0_spark_self_ms",
    "l2p.l2p_bcc": "l2p.self_ms",
    "query": "query.self_ms",
}


def p90(xs: Sequence[float]) -> float:
    """Nearest-rank 90th percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(0.9 * len(s)) - 1)]


def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    tracer: Tracer,
    answers: Dict[int, object],
    prefix: List[int],
    setups: List[Dict[str, float]],
    traced_ms: List[float],
    untraced_ms: List[float],
) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    ``answers`` maps a traced query id to its answer; ``prefix`` is the
    ids of the workload's count prefix.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    incl_jobs = [s[5] for s in spans]
    for i in range(len(spans) - 1, -1, -1):
        if spans[i][3] is not None:
            incl_jobs[spans[i][3]] += incl_jobs[i]

    by_q_time: Dict[int, Counter] = defaultdict(Counter)
    by_q_count: Dict[int, Counter] = defaultdict(Counter)
    span_err = 0.0
    roots: Dict[int, int] = {}
    self_sum: Counter = Counter()
    for i, (name, start, end, parent, qid, _) in enumerate(spans):
        if parent is None:
            roots[qid] = i
        self_sum[qid] += selfs[i]
        tm, calls, jobs = SPAN_METRICS.get(name, (None, None, None))
        if tm:
            by_q_time[qid][tm] += (end - start) * 1e3
        if calls:
            by_q_count[qid][calls] += 1
        if jobs:
            by_q_count[qid][jobs] += incl_jobs[i]
        if name in SELF_METRICS:
            by_q_time[qid][SELF_METRICS[name]] += selfs[i] * 1e3
        if name == "local.butterfly" and under(spans, i, "engine.run"):
            by_q_count[qid]["engine.recounts"] += 1
    for qid, i in roots.items():
        dur = spans[i][2] - spans[i][1]
        span_err = max(span_err, abs(self_sum[qid] - dur) / dur if dur else 0.0)

    qids = list(answers)
    out = {name: 0.0 for name in PER_LAYER}
    for name in {n for c in by_q_time.values() for n in c}:
        out[name] = mean(by_q_time[q][name] for q in qids)
    for name in {n for c in by_q_count.values() for n in c}:
        out[name] = mean(by_q_count[q][name] for q in prefix)
    for name in ("leader.update_calls", "bcindex.chi_calls"):
        out[name] = mean(tracer.counts[q][name] for q in prefix)
    out["bcindex.chi_hit_ratio"] = _ratio(
        sum(tracer.counts[q]["bcindex.chi_hits"] for q in prefix),
        sum(tracer.counts[q]["bcindex.chi_calls"] for q in prefix),
    )

    answered = [answers[q] for q in prefix if answers[q] is not None]
    stats = [r.stats for r in answered]
    out["engine.iterations"] = mean(s.get("iterations", 0) for s in stats)
    out["engine.butterfly_counting"] = mean(s.get("butterfly_counting", 0) for s in stats)
    out["engine.recounts_per_iteration"] = _ratio(
        sum(by_q_count[q]["engine.recounts"] for q in prefix),
        sum(s.get("iterations", 0) for s in stats),
    )
    out["g0.size"] = mean(s.get("g0_size", 0) for s in stats)
    out["g0.answer_ratio"] = mean(
        _ratio(len(r.vertices), r.stats.get("g0_size", 0)) for r in answered
    )
    if any("candidate_size" in s for s in stats):
        out["l2p.candidate_size"] = mean(s.get("candidate_size", 0) for s in stats)
        out["l2p.candidate_yield"] = mean(
            _ratio(len(r.vertices), r.stats.get("candidate_size", 0)) for r in answered
        )
    timed = [answers[q].stats for q in qids if answers[q] is not None]
    out["engine.qdist_ms"] = mean(s.get("qdist_time", 0.0) * 1e3 for s in timed)
    out["engine.leader_ms"] = mean(s.get("leader_time", 0.0) * 1e3 for s in timed)

    for name in ("bcindex.build_ms", "bcindex.chi_warm_ms", "graphlib.ingest_s"):
        vals = [s[name] for s in setups if name in s]
        if vals:
            out[name] = statistics.median(vals)

    out["trace.query_ms_p50"] = statistics.median(traced_ms)
    out["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(untraced_ms)
    out["trace.span_sum_err"] = span_err
    out["trace.missing_targets"] = float(len(tracer.missing))
    return {name: out[name] for name in PER_LAYER}
