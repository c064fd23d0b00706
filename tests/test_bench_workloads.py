"""Benchmark workloads, run as the benchmark runs them.

`test_bench_surface.py` binds the benchmark's calls but cannot see what it
reads off the results (`chain.games()`, `rg.successor`, `report.stages`).
Running the first game of every workload against `perfbench/expected.json`
catches a change that breaks those reads or an expected answer in tier-1
time; the `regions` workload, all solver work, runs whole.  The benchmark
files are imported, never edited.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.RUN))
def test_first_game_of_each_workload_has_no_failures(name):
    case = workloads.prepare(name, count=1)[0]
    samples = []
    attempted, failed = workloads.RUN[name](
        case, NullTracer(), EXPECTED[name], lambda key, seconds: samples.append(key))
    assert attempted > 0 and samples
    assert failed == 0


def test_every_regions_game_has_no_failures():
    # the whole solver workload, where the test above runs only game 0
    cases = workloads.prepare("regions")
    samples = []
    attempted = failed = 0
    for case in cases:
        a, f = workloads.run_regions(case, NullTracer(), EXPECTED["regions"],
                                     lambda key, seconds: samples.append(key))
        attempted, failed = attempted + a, failed + f
    assert samples == sorted(int(k) for k in EXPECTED["regions"])
    assert attempted == 2 * len(cases)
    assert failed == 0
