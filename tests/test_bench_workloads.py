"""One game of each benchmark workload, run as the benchmark runs it.

`test_bench_surface.py` binds the benchmark's calls but cannot see what it
reads off the results (`chain.games()`, `rg.successor`, `report.stages`).
Running the first game of every workload against `perfbench/expected.json`
catches a change that breaks those reads or an expected answer in tier-1
time.  The benchmark files are imported, never edited.
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
