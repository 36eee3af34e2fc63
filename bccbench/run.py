"""Closed-loop BCC query benchmark.

    python3 bccbench/run.py --workload lp_global --seed 1 --seconds 10 --trace 0

One client in one process serves queries back to back (a closed loop:
the next query starts when the previous answer returns) for
``--seconds`` of serving time, and never fewer queries than the
workload's floor. Set-up runs before the loop, at a quarter, half and
three quarters of the run and at the end; ``setup_s`` is the median.
Every answer is checked as it arrives, outside the timed queries.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` wraps the
program's layer functions, runs every query once traced and once
untraced (alternating which goes first), prints the per-layer metrics
and writes the spans to ``.bench_out/`` in the checkout. The last line
of standard output is the result object; the line before it records
the seed and the sample counts.

Must run from a repository checkout (``src/repro`` beside this
directory): the process re-executes itself once with a fixed
``PYTHONHASHSEED``, because labels are strings and set order follows
their hashes.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_POINTS = (0.25, 0.5, 0.75)
PROBE_GAP_S = 0.05  # serving time between two host-speed probes
PROBES_PER_POINT = 5


def spark_submit_args() -> str:
    """Master local[4], a fixed 1g driver heap, no UI, scratch under OUT."""
    return " ".join(
        [
            "--master local[4]",
            "--driver-memory 1g",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={OUT / 'spark'}"),
            "--driver-java-options " + shlex.quote(f"-Djava.io.tmpdir={OUT / 'tmp'}"),
            "pyspark-shell",
        ]
    )


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["lp_global", "l2p_mbcc", "spark_g0"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def serve(w, seconds, tracer, checks, probe):
    """The closed loop.

    Returns (executions, set-up timings, warm-up seconds, serving
    seconds, probe ms). An execution is ``(query index, answer, ms,
    qid, ok)``; ``qid`` is the trace query id of a traced execution,
    else None. Serving time is the sum of query times: set-up, checks
    and probes run between queries and are excluded.
    """
    probes = [probe() for _ in range(PROBES_PER_POINT)]
    setups = [w.setup() for _ in range(w.setup_reps)]
    n = len(w.queries)
    t = time.perf_counter()
    warm, ks = w.query(w.queries[-1][1])
    warm_s = time.perf_counter() - t
    runs = [(n - 1, warm, None, None, checks(n - 1, warm, ks))]
    points = list(SETUP_POINTS)
    floor = w.min_queries if tracer is None else w.count_prefix
    serving, i, last_probe = 0.0, 0, 0.0
    while i < floor or serving < seconds:
        qi, q = i % n, w.queries[i % n][1]
        order = (i % 2 == 0, i % 2 == 1) if tracer is not None else (False,)
        for traced in order:
            if traced:
                tracer.install()
                root = tracer.open_query(i)
                try:
                    res, ks = w.query(q)
                finally:
                    tracer.close_query()
                    tracer.uninstall()
                ms = (tracer.spans[root][2] - tracer.spans[root][1]) * 1e3
            else:
                t = time.perf_counter()
                res, ks = w.query(q)
                ms = (time.perf_counter() - t) * 1e3
            serving += ms / 1e3
            runs.append((qi, res, ms, i if traced else None, checks(qi, res, ks)))
        i += 1
        if serving - last_probe >= PROBE_GAP_S:
            probes.append(probe())
            last_probe = serving
        while points and min(serving / seconds, i / floor) >= points[0]:
            points.pop(0)
            probes += [probe() for _ in range(PROBES_PER_POINT)]
            setups += [w.setup() for _ in range(w.setup_reps)]
    for _ in range(len(points) + 1):
        probes += [probe() for _ in range(PROBES_PER_POINT)]
        setups += [w.setup() for _ in range(w.setup_reps)]
    return runs, setups, warm_s, serving, probes


def main(argv) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bccbench: {ROOT / 'src' / 'repro'} not found; run from a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        env = dict(
            os.environ,
            PYTHONHASHSEED="0",
            TMPDIR=str(OUT / "tmp"),
            PYSPARK_SUBMIT_ARGS=spark_submit_args(),
        )
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from bccbench import metrics  # noqa: PLC0415
    from bccbench.check import Checks, corruptions_caught  # noqa: PLC0415
    from bccbench.probe import REF_MS, Probe  # noqa: PLC0415
    from bccbench.trace import Tracer  # noqa: PLC0415
    from bccbench.workloads import B, WORKLOADS  # noqa: PLC0415
    from repro.eval.metrics import f1_score  # noqa: PLC0415

    w = WORKLOADS[args.workload](args.seed)
    checks = Checks(w, B)
    try:
        tracer = Tracer(w.spark_context) if args.trace else None
        runs, setups, warm_s, serving, probes = serve(w, args.seconds, tracer, checks, Probe())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if checks.good is None or not corruptions_caught(*checks.good, B, w.g):
            checks.problems.append("checker let a corrupted answer through")
    finally:
        w.close()
    problems = checks.problems
    failed = sum(1 for r in runs if not r[4])

    untraced = [r for r in runs[1:] if r[3] is None]
    raw = None
    if args.trace:
        traced = [r for r in runs if r[3] is not None]
        values = metrics.per_layer(
            tracer,
            {r[3]: r[1] for r in traced},
            [r[3] for r in traced][: w.count_prefix],
            setups,
            [r[2] for r in traced],
            [r[2] for r in untraced],
        )
        units = metrics.PER_LAYER
        if values["trace.span_sum_err"] > 0.10:
            problems.append(f"span self times miss the root by {values['trace.span_sum_err']:.1%}")
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        keys = ("name", "start", "end", "parent", "qid", "jobs")
        spans_file.write_text(json.dumps([dict(zip(keys, s)) for s in tracer.spans]))
    else:
        lat = [r[2] for r in untraced]
        judged = runs[:1] + untraced[: w.count_prefix]  # warm-up + count prefix
        truth = {i: w.pg.communities[cid] for i, (cid, _) in enumerate(w.queries)}
        raw = {
            "query_ms_p50": statistics.median(lat),
            "query_ms_p90": metrics.p90(lat),
            "queries_per_s": len(lat) / serving,
            "setup_s": statistics.median(s["setup_s"] for s in setups)
            + (warm_s if w.warmup_in_setup else 0.0),
        }
        # < 1 during a slow spell
        scale = REF_MS / statistics.median(probes) if w.probe_scaled else 1.0
        values = {
            "query_ms_p50": raw["query_ms_p50"] * scale,
            "query_ms_p90": raw["query_ms_p90"] * scale,
            "queries_per_s": raw["queries_per_s"] / scale,
            "setup_s": raw["setup_s"] * scale,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (len(runs) - failed) / len(runs),
            "f1_mean": metrics.mean(
                f1_score(r[1].vertices, truth[r[0]]) if r[4] else 0.0 for r in judged
            ),
            "qdist_mean": metrics.mean(r[1].qdist for r in judged if r[4]),
        }
        units = metrics.END_TO_END

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "executions": len(runs) - 1,
        "distinct_queries": len({r[0] for r in runs}),
        "count_prefix": w.count_prefix,
        "setup_s_samples": [round(x["setup_s"], 4) for x in setups],
        "probe_ms_median": statistics.median(probes),
        "probes": len(probes),
        "raw": raw,
        "missing_targets": tracer.missing if tracer else [],
        "problems": problems[:5],
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
