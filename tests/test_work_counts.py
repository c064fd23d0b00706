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
  argument is bound at definition time and is not seen);
- `bisim._match`, called by `bisim._Memo.match` once per matching clause
  it decides, in the same `verify_chain` call (a clause whose mirror
  passed is answered without one).

The committed figures are in `work_counts.json`.  A change that moves one
rewrites the file with `PYTHONPATH=src python tests/test_work_counts.py`,
reviews its diff and states the before and after.
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

FILE = Path(__file__).resolve().parent / "work_counts.json"
COUNTS = json.loads(FILE.read_text(encoding="utf-8"))
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


def count_regions(monkeypatch, index: str) -> tuple[dict, None]:
    g = gen.ladder_case(int(index))[0]
    calls = _count(monkeypatch, solver, "region_satisfies")
    hg.build_region_graph(g)
    return {"region_satisfies": len(calls)}, None


def count_control(monkeypatch, index: str) -> tuple[dict, int]:
    """The counts, and the number of failed checks of the game's outputs."""
    case = workloads.prepare("control", int(index) + 1)[int(index)]
    lifts = _count(monkeypatch, chain, "lift_step")
    decisions = []
    _, failed = workloads.run_control(
        case, NullTracer(), EXPECTED["control"],
        lambda key, seconds: decisions.append(key))
    return {"lift_step": len(lifts), "decisions": len(decisions)}, failed


def count_certify(monkeypatch, index: str) -> tuple[dict, tuple]:
    """The counts, and the report with the arguments of every counted
    `step` and `_match` call."""
    g = gen.thirds_game(int(index))
    steps = _count(monkeypatch, bisim, "step")
    matches = _count(monkeypatch, bisim, "_match")
    report = hg.verify_chain(g, samples=workloads.SAMPLES, depth=workloads.DEPTH,
                             seed=workloads.BISIM_SEED)
    counts = {"memo_missed_step": len(steps), "match": len(matches)}
    return counts, (report, steps, matches)


COUNTERS = {"certify": count_certify, "control": count_control,
            "regions": count_regions}


@pytest.mark.parametrize("index", sorted(COUNTS["regions"], key=int))
def test_region_satisfies_calls_per_ladder_build(monkeypatch, index):
    got, _ = count_regions(monkeypatch, index)
    assert got == COUNTS["regions"][index]


@pytest.mark.parametrize("index", sorted(COUNTS["control"], key=int))
def test_lifts_and_decisions_per_control_game(monkeypatch, index):
    got, failed = count_control(monkeypatch, index)
    assert failed == 0
    assert got == COUNTS["control"][index]


def exact_mirror(w, q2, move, forward):
    """The opposite clause's move when `move` and its counterpart are each
    other's counterparts, else None."""
    other = w.move_forward(q2, move) if forward else w.move_backward(move)
    if other is None:
        return None
    back = w.move_backward(other) if forward else w.move_forward(q2, other)
    return other if back == move else None


@pytest.mark.parametrize("index", sorted(COUNTS["certify"], key=int))
def test_memo_missed_steps_per_certify_game(monkeypatch, index):
    unwrapped = bisim._match
    got, (report, steps, matches) = count_certify(monkeypatch, index)
    assert report.passed
    assert got == COUNTS["certify"][index]
    # the memo steps each (game, configuration, move) at most once
    assert len({(id(g), q, move) for g, q, move in steps}) == len(steps)
    # each clause is decided at most once, and never after its mirror passed
    decided, answered = set(), set()
    for w, q1, q2, move, forward, _ in matches:
        clause = (id(w), q1, q2, move, forward)
        assert clause not in decided and clause not in answered
        decided.add(clause)
        mirror = exact_mirror(w, q2, move, forward)
        if mirror is not None and unwrapped(w, q1, q2, move, forward) is None:
            answered.add((id(w), q1, q2, mirror, not forward))


def measure() -> dict:
    """Every count of the committed file, measured afresh."""
    out = {}
    for workload, counter in COUNTERS.items():
        out[workload] = {}
        for index in sorted(COUNTS[workload], key=int):
            with pytest.MonkeyPatch.context() as mp:
                out[workload][index] = counter(mp, index)[0]
    return out


def render(counts: dict) -> str:
    """The file's layout: one line per game, keys sorted."""
    blocks = []
    for workload in sorted(counts):
        lines = [f'    "{index}": {json.dumps(c, sort_keys=True)}'
                 for index, c in counts[workload].items()]
        blocks.append(f'  "{workload}": {{\n' + ",\n".join(lines) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    FILE.write_text(render(measure()), encoding="utf-8")
    sys.exit(0)
