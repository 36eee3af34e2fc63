"""Host-speed probe: a fixed breadth-first search on a benchmark-owned graph.

On a shared host the CPU speed drifts by tens of percent over seconds to
minutes, and a whole run can sit in a slow spell. The probe is the same
kind of work as the program (dict-and-set graph traversal in Python), it
never changes with the program, and the run times it between queries.
``run.py`` expresses end-to-end times at the reference speed ``REF_MS``:
a time ``t`` measured while the probe took ``p`` ms reads ``t * REF_MS / p``.
"""
from __future__ import annotations

import gc
import random
import time
from typing import Dict, Set

#: probe time (ms) at the reference speed, about its median on one core
#: of a 2.1 GHz shared VM
REF_MS = 2.0


class Probe:
    def __init__(self, n: int = 20_000, degree: int = 8, visit: int = 3_000):
        rng = random.Random(7)
        self.adj: Dict[int, Set[int]] = {v: set() for v in range(n)}
        for _ in range(n * degree // 2):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                self.adj[a].add(b)
                self.adj[b].add(a)
        self.visit = visit

    def __call__(self) -> float:
        """One probe; returns its time in ms. The collector stays off
        during it, so the program's heap does not leak into the figure."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            seen = {0: 0}
            frontier = [0]
            while frontier and len(seen) < self.visit:
                nxt = []
                for u in frontier:
                    for w in self.adj[u]:
                        if w not in seen:
                            seen[w] = seen[u] + 1
                            nxt.append(w)
                frontier = nxt
            return (time.perf_counter() - t) * 1e3
        finally:
            if enabled:
                gc.enable()
