"""Smoke run of the benchmark; not part of the package's test suite.

    python3 perfbench/smoke.py

Runs every workload once at its smallest size (its first game), untraced
and traced, checks the outputs and that the metrics match BENCHMARK.json.
It also re-runs the half-grid oracle on the first `regions` game, checks
that the expected answers cover every game, runs the command line once for
one whole pass, and checks that the benchmark refuses to run
without the package source.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"smoke: FAIL {what}")
        sys.exit(1)


def check_metrics(metrics: dict, spec: list, what: str) -> None:
    check({k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in spec},
          f"{what}: metrics differ from BENCHMARK.json")
    check(all(isinstance(v["value"], (int, float)) for v in metrics.values()),
          f"{what}: non-numeric metric")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import hybridgames as hg
    from hybridgames import cli

    import run
    import workloads
    from spans import NullTracer, Tracer

    print(f"smoke: python {platform.python_version()}, "
          f"nproc {len(os.sched_getaffinity(0))}")
    for w in spec["workloads"]:
        name = w["name"]
        check(sorted(expected[name]) == sorted(map(str, range(workloads.GAMES[name]))),
              f"{name}: expected answers cover every game")
        cases = workloads.prepare(name, count=1)
        args = SimpleNamespace(workload=name)
        plain = run.measure(name, cases, [0], expected[name], NullTracer(), 0)
        tr = Tracer()
        traced = run.measure(name, cases, [0], expected[name], tr, 0)
        for res in (plain, traced):
            check(res["failed"] == 0 and res["attempted"] >= 1 and res["latencies"],
                  f"{name}: {res['failed']}/{res['attempted']} operations failed")
        check_metrics(run.end_to_end(args, plain, 0.0), spec["end_to_end"], name)
        check_metrics(run.per_layer(args, tr, plain, traced), spec["per_layer"], name)
        print(f"smoke: {name} ok, {plain['attempted']} operations per game")

    index, g, (reach, safe) = workloads.prepare("regions", count=1)[0]
    oracle = {"reach": hg.granular_reach_winner(g, cli.parse_objective(reach).obs),
              "safe": hg.granular_safe_winner(g, cli.parse_objective(safe).obs)}
    answer = expected["regions"][str(index)]
    check(oracle == {"reach": answer["reach"], "safe": answer["safe"]},
          f"regions game {index}: oracle {oracle}, expected {answer}")
    print(f"smoke: regions game {index} agrees with the half-grid oracle")

    out = bench("--workload", "regions", "--seed", "0", "--seconds", "0", "--trace", "0")
    check(out.returncode == 0, f"command line exit {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0, "command line run failed")
    check_metrics(result["metrics"], spec["end_to_end"], "command line")
    print(f"smoke: command line ok, {result['attempted']} operations in one pass")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=bare)
    shutil.rmtree(bare)
    check(out.returncode != 0 and '"metrics"' not in out.stdout,
          "benchmark must refuse to run without the package source")
    print("smoke: refuses to run without the package source")


if __name__ == "__main__":
    main()
