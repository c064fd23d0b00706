"""Benchmark of the hybridgames pipeline, end to end and per layer.

    python3 perfbench/run.py --workload certify|control|regions \\
        --seed N --seconds S --trace 0|1

One process runs one workload: a single-thread closed loop that starts the
next game when the previous one is done.  It makes whole passes over the
workload's games, in an order drawn from --seed, until a pass ends after
--seconds seconds.  Every output is checked against perfbench/expected.json
and every play against its objective.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the lines before
it give each metric by name with its unit, the failure ratio, and a stamp
with the Python version and the number of usable cores.

Workloads:
  certify  "thirds" source games through verify_chain at the check-bisim
           defaults (samples 25, depth 6, seed 0); one latency sample is a
           verdict.
  control  "pipeline" source games from JSON bytes through parse, validate,
           build_chain, scale, region graph, one reach and one safety
           objective with their strategy files, then every winning
           objective's pulled-back strategy against seeded random opponents;
           one latency sample is a pulled-back decision.
  regions  dense "ladder" timed games: region graph plus both attractors;
           one latency sample is a verdict on both objectives.

With --trace 0 the metrics are the end-to-end ones: setup_s (import in a
fresh interpreter plus input generation, median of several set-ups),
games_per_s, latency_ms_p50, latency_ms_tail (the highest percentile, at
most p99, with at least ten samples beyond it) and peak_rss_mb.  Each
operation's latency is the median of its visits.  Times are scaled by the
speed of a reference loop run before every game (see REF_SECONDS).

With --trace 1 the run measures half its time untraced and half traced,
over the same game order.  It reports per-layer metrics per completed game
from the traced half, in unscaled seconds, and the tracing overhead in
games per second.  The spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 11
# Reported times are scaled to a machine on which reference_loop() takes
# REF_SECONDS.  Shared hosts lose a third or more of their speed to other
# tenants for tens of seconds at a time; the reference loop, run before
# every game, slows down by the same factor, so the scaled times follow the
# code and not the neighbours.
REF_TERMS, REF_SECONDS, REF_WINDOW = 1500, 0.005, 5

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import hybridgames; "
                "print(time.perf_counter() - t)")

# What one latency sample is, per workload: (name, unit scale, unit)
LATENCY = {"certify": ("verdict", 1e3, "ms"), "control": ("decision", 1e6, "us"),
           "regions": ("verdict", 1e3, "ms")}

# Per-layer metrics from the traced half.  Times are seconds per completed
# game: span totals, or self time (span minus the spans opened inside it)
# for `_self_s`.  `_calls` count spans; the rest are counters.
SPAN_TOTALS = {
    "bisim.verify_chain_s": "bisim.verify_chain",
    "chain.build_chain_s": "chain.build_chain",
    "cli.parse_game_s": "cli.parse_game",
    "cli.strategy_file_s": "cli.strategy_file",
    "core.validate_game_s": "core.validate_game",
    "core.scale_to_integers_s": "core.scale_to_integers",
    "solver.build_region_graph_s": "solver.build_region_graph",
    "solver.solve_reachability_s": "solver.solve_reachability",
    "solver.solve_safety_s": "solver.solve_safety",
    "solver.decide_s": "solver.decide",
    "strategy.random_s": "strategy.random",
}
SPAN_SELF = {
    "strategy.pull_back_self_s": "strategy.pull_back",
    "semantics.play_self_s": "semantics.play",
}
SPAN_CALLS = {
    "strategy.pull_back_calls": "strategy.pull_back",
    "solver.decide_calls": "solver.decide",
    "strategy.random_calls": "strategy.random",
}
COUNTERS = {"bisim.pairs": "count/game", "bisim.moves_checked": "count/game",
            "cli.strategy_bytes": "B/game", "semantics.plies": "count/game",
            "solver.nodes": "count/game", "solver.moves": "count/game",
            "solver.winning_nodes": "count/game",
            "solver.strategy_entries": "count/game",
            "strategy.history_plies": "count/game"}


def stamp(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def setup(workload: str) -> tuple[list, float]:
    """Inputs for the run, and the median set-up time of several set-ups,
    each scaled by the reference loops run just before and after it."""
    import workloads

    times = []
    ref = reference_loop()
    for _ in range(SETUPS):
        t_import = import_seconds()
        t0 = perf_counter()
        cases = workloads.prepare(workload)
        t_setup = t_import + perf_counter() - t0
        ref_after = reference_loop()
        times.append(t_setup * 2 * REF_SECONDS / (ref + ref_after))
        ref = ref_after
    return cases, statistics.median(times)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python Fraction workload that shares
    no code with the package."""
    t0 = perf_counter()
    total = Fraction(0)
    for k in range(1, REF_TERMS):
        total += Fraction(1, k % 97 + 1)
    return perf_counter() - t0


def measure(workload: str, cases: list, order: list, expected: dict, tr,
            seconds: float) -> dict:
    """Closed loop of whole passes over the cases in `order`, until a pass
    ends after `seconds`, with one reference loop before each game.  Every
    operation is visited equally often, so runs with different seeds do the
    same work.  An operation's latency is the median of its visits, each
    scaled by the median of the REF_WINDOW reference loops around its game."""
    import workloads

    run_game = workloads.RUN[workload]
    samples: dict = {}
    games = 0

    def record(key, seconds: float) -> None:
        samples.setdefault(key, []).append((games, seconds))

    refs: list[float] = []
    busy = 0.0
    attempted = failed = 0
    start = perf_counter()
    while games == 0 or perf_counter() - start < seconds:
        for index in order:
            gc.collect()
            refs.append(reference_loop())
            t0 = perf_counter()
            try:
                a, f = run_game(cases[index], tr, expected, record)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc(file=sys.stderr)
                a, f = 1, 1
            busy += perf_counter() - t0
            attempted += a
            failed += f
            games += 1
    refs.append(reference_loop())
    half = REF_WINDOW // 2
    scale = [REF_SECONDS / statistics.median(refs[max(0, g - half):g + half + 1])
             for g in range(games)]
    return {"games": games, "passes": games // len(order), "busy": busy,
            "attempted": attempted, "failed": failed,
            "latencies": [statistics.median(t * scale[g] for g, t in v)
                          for v in samples.values()],
            "scale": REF_SECONDS / statistics.mean(refs)}


def games_per_s(res: dict) -> float:
    return res["games"] / (res["busy"] * res["scale"])


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, at most p99, with at
    least ten samples beyond it (nearest rank); the maximum of a sample too
    small to have one."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = min(99.0, 100.0 * (n - 10) / n) if n > 10 else 100.0
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, ordered[rank - 1]


def end_to_end(args, res: dict, setup_s: float) -> dict:
    what, scale, unit = LATENCY[args.workload]
    lat = res["latencies"]
    n = len(lat)
    p50 = statistics.median(lat) if lat else float("nan")
    pct, high = tail(lat) if lat else (0.0, float("nan"))
    gps = games_per_s(res)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    w = args.workload
    pname = "p99" if pct == 99.0 else "tail"
    print(f"{w} setup_s = {setup_s:.4f} s (median of {SETUPS} set-ups)")
    print(f"{w} games_per_s = {gps:.4f} 1/s ({res['games']} games in {res['passes']} passes,"
          f" {res['busy']:.2f} s, times scaled by {res['scale']:.4f})")
    print(f"{w} {what}_{unit}_p50 = {p50 * scale:.2f} {unit} ({n} {what}s)")
    print(f"{w} {what}_{unit}_{pname} = {high * scale:.2f} {unit} "
          f"(p{pct:.1f} of {n} {what}s)")
    print(f"{w} peak_rss_mb = {rss:.1f} MB")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "games_per_s": {"value": gps, "unit": "1/s"},
        "latency_ms_p50": {"value": p50 * 1e3, "unit": "ms"},
        "latency_ms_tail": {"value": high * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(args, tr, plain: dict, traced: dict) -> dict:
    from workloads import STAGES

    games = traced["games"]
    total, own = tr.totals()
    calls = Counter(name for name, *_ in tr.spans)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for metric, span in SPAN_TOTALS.items():
        put(metric, total.get(span, 0.0) / games, "s/game")
    for metric, span in SPAN_SELF.items():
        put(metric, own.get(span, 0.0) / games, "s/game")
    for metric, span in SPAN_CALLS.items():
        put(metric, calls.get(span, 0) / games, "count/game")
    for name, unit in COUNTERS.items():
        put(name, tr.counts[name] / games, unit)
    for stage in STAGES:
        put(f"chain.locs.{stage}", tr.counts[f"chain.locs.{stage}"] / games, "count/game")
        put(f"chain.edges.{stage}", tr.counts[f"chain.edges.{stage}"] / games, "count/game")
    moves = tr.counts["solver.moves"]
    put("solver.distinct_succ_ratio",
        tr.counts["solver.distinct_succ"] / moves if moves else 0.0, "ratio")
    chain_s = total.get("bisim.verify_chain", 0.0)
    put("bisim.moves_per_s", tr.counts["bisim.moves_checked"] / chain_s if chain_s else 0.0,
        "1/s")
    plain_gps = games_per_s(plain)
    traced_gps = games_per_s(traced)
    put("trace.games", games, "count")
    put("trace.untraced_games_per_s", plain_gps, "1/s")
    put("trace.traced_games_per_s", traced_gps, "1/s")
    put("trace.overhead_games_per_s", plain_gps - traced_gps, "1/s")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} tracing overhead: {plain_gps - traced_gps:.4f} games/s "
          f"({plain_gps:.4f} untraced, {traced_gps:.4f} traced, "
          f"{len(tr.spans)} spans)")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(LATENCY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "hybridgames" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import NullTracer, Tracer

    info = stamp(args)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    cases, setup_s = setup(args.workload)
    gc.collect()
    gc.freeze()
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))[args.workload]
    order = list(range(len(cases)))
    random.Random(args.seed).shuffle(order)

    if not args.trace:
        res = measure(args.workload, cases, order, expected, NullTracer(), args.seconds)
        metrics = end_to_end(args, res, setup_s)
    else:
        plain = measure(args.workload, cases, order, expected, NullTracer(),
                        args.seconds / 2)
        tr = Tracer()
        traced = measure(args.workload, cases, order, expected, tr, args.seconds / 2)
        metrics = per_layer(args, tr, plain, traced)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tr.dump(out / f"spans-{args.workload}-{args.seed}.jsonl", info)
        res = {k: plain[k] + traced[k] for k in ("attempted", "failed")}

    print(f"{args.workload} fail_ratio = {res['failed']}/{res['attempted']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
