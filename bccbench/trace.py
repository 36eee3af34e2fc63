"""In-memory span tracer for the benchmark's traced run.

Spans are attached from outside the program: each target below is a
function or method at the name its callers look up (``module:attr`` or
``module:Class.attr``), and the tracer swaps in a wrapper while it is
installed. A target that does not exist is recorded as missing, not
fatal, so the traced run survives renames in the program.

A span is ``[name, start, end, parent, qid, jobs]``. Spans are recorded
only while a query is open (``qid`` set). With a SparkContext, every
span runs under its own Spark job group, and ``close_query`` reads the
number of jobs each group ran right after the query, before the status
tracker (which keeps about 1,000 jobs) forgets them.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

# (target, span name). Several targets may share a span name when the
# same layer function is looked up from several call sites.
SPAN_TARGETS: List[Tuple[str, str]] = [
    ("repro.core.search:default_ks", "search.default_ks"),
    ("repro.core.search:lp_bcc", "search.lp_bcc"),
    ("repro.core.search:find_g0_local", "g0.find_g0_local"),
    ("repro.core.search:find_g0_spark", "g0.find_g0_spark"),
    ("repro.core.search:local_coreness", "local.coreness"),
    ("repro.core.engine:RefinementEngine.__init__", "engine.init"),
    ("repro.core.engine:RefinementEngine.run", "engine.run"),
    ("repro.core.engine:butterfly_degrees", "local.butterfly"),
    ("repro.core.engine:bfs_distances", "local.bfs"),
    ("repro.core.engine:identify_leader", "leader.identify"),
    ("repro.core.engine:fast_update", "fastdist.update"),
    ("repro.core.g0:kcore_vertices", "local.kcore_vertices"),
    ("repro.core.g0:butterfly_degrees", "local.butterfly"),
    ("repro.core.g0:spark_kcore", "graphlib.kcore"),
    ("repro.core.g0:component_of", "graphlib.component_of"),
    ("repro.graphlib.labeled:SparkLabeledGraph.to_local", "graphlib.to_local"),
    ("repro.core.l2p:l2p_bcc", "l2p.l2p_bcc"),
    ("repro.core.l2p:butterfly_core_path", "l2p.path"),
    ("repro.core.l2p:expand_candidate", "l2p.expand"),
    ("repro.core.l2p:local_coreness", "local.coreness"),
    ("repro.core.l2p:find_g0_local", "g0.find_g0_local"),
]

# Called once per deleted vertex and leader: counted, not timed.
COUNT_TARGETS: List[Tuple[str, str]] = [
    ("repro.core.engine:update_leader_on_delete", "leader.update_calls"),
]

CHI_TARGET = "repro.core.bcindex:BCIndex.chi_for_pair"


def _resolve(target: str):
    """(owner, attr) for ``module:attr`` or ``module:Class.attr``."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(target)
    return owner, attr


class Tracer:
    """Records spans and counts per query; see the module docstring."""

    def __init__(self, spark_context=None):
        self.spans: List[list] = []
        self.counts: Dict[int, Counter] = {}
        self.qid: Optional[int] = None
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._sc = spark_context
        self._root = 0

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.qid, 0])
        self._stack.append(idx)
        if self._sc is not None:
            self._sc.setJobGroup(f"bccbench-{idx}", name)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        if self._sc is not None:
            parent = self.spans[idx][3]
            self._sc.setJobGroup(
                f"bccbench-{parent}" if parent is not None else "bccbench-idle", ""
            )

    def open_query(self, qid: int) -> int:
        """Open the root span of query ``qid``; returns its index."""
        self.qid = qid
        self.counts[qid] = Counter()
        self._root = self._enter("query")
        return self._root

    def close_query(self) -> None:
        self._exit(self._root)
        if self._sc is not None:
            tracker = self._sc.statusTracker()
            for idx in range(self._root, len(self.spans)):
                self.spans[idx][5] = len(tracker.getJobIdsForGroup(f"bccbench-{idx}"))
        self.qid = None

    def count(self, name: str, n: int = 1) -> None:
        if self.qid is not None:
            self.counts[self.qid][name] += n

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.qid is None:
                return fn(*args, **kwargs)
            idx = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _chi_wrapper(self, fn):
        """``chi_for_pair``: a call that leaves the cache size unchanged is a hit."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(index, *args, **kwargs):
            before = len(index.chi)
            out = fn(index, *args, **kwargs)
            tracer.count("bcindex.chi_calls")
            tracer.count("bcindex.chi_hits", int(len(index.chi) == before))
            return out

        return wrapper

    def install(self) -> None:
        """Swap every wrapper in; missing targets are recorded."""
        plan = [(t, functools.partial(self._span_wrapper, name=n)) for t, n in SPAN_TARGETS]
        plan += [(t, functools.partial(self._count_wrapper, name=n)) for t, n in COUNT_TARGETS]
        plan.append((CHI_TARGET, self._chi_wrapper))
        for target, make in plan:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                if target not in self.missing:
                    self.missing.append(target)
                continue
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- analysis -----------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[int]] = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in children.get(i, ()):  # appended in start order
            cs, ce = max(spans[c][1], reach), min(spans[c][2], end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def under(spans: List[list], idx: int, ancestor_name: str) -> bool:
    """True when span ``idx`` has an ancestor named ``ancestor_name``."""
    p = spans[idx][3]
    while p is not None:
        if spans[p][0] == ancestor_name:
            return True
        p = spans[p][3]
    return False
