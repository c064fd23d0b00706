"""Work counts on fixed games: the number of calls each layer makes, which
host load cannot move where wall time moves by a few percent.

Each count wraps one module-level function with `monkeypatch` and counts
the calls that look it up through that module at call time; `src/` is not
changed.  The counted call sites:

- `solver.region_satisfies`, called by `solver._build` once per (location,
  region, edge) it fires, while `build_region_graph` builds a `regions`
  ladder game;
- `chain.lift_step`, called by `chain.lift_run` once per source step of
  every history a pulled-back strategy is asked about, while the `control`
  workload plays a game (`bisim` binds its own `lift_step` at import, so
  the sampler's lifts are not seen); a decision is one latency sample the
  workload records, one call of the pulled-back strategy;
- `bisim.step`, called by `bisim._Memo.step` on a memo miss, while
  `verify_chain` checks a `certify` game (`_match`'s default `step`
  argument is bound at definition time and is not seen).

The committed figures are in `work_counts.json`.  A change that moves one
updates the file and states the before and after.
"""

import json
import sys
from pathlib import Path

import pytest

import hybridgames as hg
from hybridgames import bisim, chain, solver

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402  (the benchmark's game families, imported read-only)
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

COUNTS = json.loads((Path(__file__).resolve().parent / "work_counts.json")
                    .read_text(encoding="utf-8"))
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def _count(monkeypatch, module, name: str) -> list:
    """Wrap `module.name` so that every call appends its arguments to the
    returned list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("index", sorted(COUNTS["regions"], key=int))
def test_region_satisfies_calls_per_ladder_build(monkeypatch, index):
    g = gen.ladder_case(int(index))[0]
    calls = _count(monkeypatch, solver, "region_satisfies")
    hg.build_region_graph(g)
    assert {"region_satisfies": len(calls)} == COUNTS["regions"][index]


@pytest.mark.parametrize("index", sorted(COUNTS["control"], key=int))
def test_lifts_and_decisions_per_control_game(monkeypatch, index):
    case = workloads.prepare("control", int(index) + 1)[int(index)]
    lifts = _count(monkeypatch, chain, "lift_step")
    decisions = []
    _, failed = workloads.run_control(
        case, NullTracer(), EXPECTED["control"],
        lambda key, seconds: decisions.append(key))
    assert failed == 0
    got = {"lift_step": len(lifts), "decisions": len(decisions)}
    assert got == COUNTS["control"][index]


@pytest.mark.parametrize("index", sorted(COUNTS["certify"], key=int))
def test_memo_missed_steps_per_certify_game(monkeypatch, index):
    g = gen.thirds_game(int(index))
    calls = _count(monkeypatch, bisim, "step")
    report = hg.verify_chain(g, samples=workloads.SAMPLES, depth=workloads.DEPTH,
                             seed=workloads.BISIM_SEED)
    assert report.passed
    assert {"memo_missed_step": len(calls)} == COUNTS["certify"][index]
    # the memo steps each (game, configuration, move) at most once
    assert len({(id(g), q, move) for g, q, move in calls}) == len(calls)
