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
- `bisim.advance`, the integer-delay step core, called by
  `bisim._Memo.step` on a memo miss, while `verify_chain` checks a
  `certify` game;
- `bisim._match`, called by `bisim.check_local_bisim` once per clause key
  it decides, in the same `verify_chain` call (a clause whose g1 edge, g2
  edge and delay the opposite direction's clause already stepped is
  answered without one);
- `bisim.Move`, the moves `bisim` builds in the same call: one per
  counterexample and per sampled source move, and those of
  `BisimWitness.move_forward`, which `chain.lift_step` calls while the
  sampler lifts its plays (a clause is decided, and a memo miss stepped,
  on edge ids and delay integers, with no `Move`);
- `bisim._prologue`, called by `bisim.check_local_bisim` for a pair that
  has no clause table yet, in the same call (a pair whose relation, owners
  and labels passed once is not checked again);
- the arithmetic dunders of the `Fraction` class (`FRACTION_OPS`), in the
  same call, once per `+`, `-`, `*` or `/` with a `Fraction` operand on
  either side.  `semantics.advance`, `semantics.delay_window`,
  `DelayWindow.probes` and `bisim.Affine.apply` build their sums and
  quotients through the two-int constructor, and `delay_window` and
  `BisimWitness.contains` compare by cross-multiplying, so none is seen;
  what is left is the chain's construction (`lowering`, `core`) and the
  witnesses' maps (`bisim`).  A class attribute is patched, so every
  module's operators are counted;
- `Fraction.__new__`, patched on the class, in the same call: every
  `Fraction` built by a call from outside the `fractions` module, the
  two-int constructor included (`fractions_built`).  Those the operators
  build inside it are left out: they are counted above, and Python 3.12
  builds them without `__new__`, so leaving them out keeps the figure
  the same on every release;
- the same dunders while the `control` workload plays a game.
  `solver.region_of`, `RegionGame.node_of` and
  `RegionGame.concretize_move` read valuations as integers over one
  denominator and are not seen; what is left is the chain's construction
  (`lowering`'s guard maps through `core.Interval`, the composed
  witnesses' scales in `bisim`) and `core.scale_to_integers`' guards.

The committed figures are in `work_counts.json`.  A change that moves one
rewrites the file with `PYTHONPATH=src python tests/test_work_counts.py`,
reviews its diff and states the before and after.
"""

import json
import math
import sys
from fractions import Fraction
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


FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


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


def _count_fractions(monkeypatch) -> list:
    """Wrap `Fraction.__new__` so that every construction called from
    outside the `fractions` module appends its arguments to the returned
    list."""
    calls = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") != "fractions":
            calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
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
    ops = [_count(monkeypatch, Fraction, name) for name in FRACTION_OPS]
    decisions = []
    _, failed = workloads.run_control(
        case, NullTracer(), EXPECTED["control"],
        lambda key, seconds: decisions.append(key))
    return {"decisions": len(decisions), "fraction_ops": sum(map(len, ops)),
            "lift_step": len(lifts)}, failed


def count_certify(monkeypatch, index: str) -> tuple[dict, tuple]:
    """The counts, and the report with the arguments of every counted
    `advance`, `_match` and `_prologue` call."""
    g = gen.thirds_game(int(index))
    moves = _count(monkeypatch, bisim, "Move")
    steps = _count(monkeypatch, bisim, "advance")
    matches = _count(monkeypatch, bisim, "_match")
    prologues = _count(monkeypatch, bisim, "_prologue")
    ops = [_count(monkeypatch, Fraction, name) for name in FRACTION_OPS]
    built = _count_fractions(monkeypatch)
    report = hg.verify_chain(g, samples=workloads.SAMPLES, depth=workloads.DEPTH,
                             seed=workloads.BISIM_SEED)
    counts = {"fraction_ops": sum(map(len, ops)), "fractions_built": len(built),
              "memo_missed_step": len(steps),
              "match": len(matches), "moves_built": len(moves),
              "prologue": len(prologues)}
    return counts, (report, steps, matches, prologues)


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
    got, (report, steps, matches, prologues) = count_certify(monkeypatch, index)
    assert report.passed
    assert got == COUNTS["certify"][index]
    # the memo steps each (game, configuration, edge, delay) at most once
    assert len({(id(g), q, edge, n, d) for g, q, edge, n, d in steps}) == len(steps)
    # each related pair's relation, owners and labels are checked at most once
    assert len({(id(w), q1, q2) for w, q1, q2 in prologues}) == len(prologues)
    # each clause is decided at most once, and never after its mirror passed;
    # a clause's counterpart edge is the witness's own, and its delay is in
    # lowest terms, so a move is named by one key
    decided, answered = set(), set()
    for w, q1, q2, e1, e2, n, d, forward, step in matches:
        assert d > 0 and math.gcd(n, d) == 1
        mover = hg.Move(e1 if forward else e2, Fraction(n, d))
        other = w.move_forward(q2, mover) if forward else w.move_backward(mover)
        assert (e2 if forward else e1) == (other and other.edge)
        clause = (id(w), q1, q2, mover, forward)
        assert clause not in decided and clause not in answered
        decided.add(clause)
        mirror = exact_mirror(w, q2, mover, forward)
        if mirror is not None and unwrapped(w, q1, q2, e1, e2, n, d, forward,
                                            step) is None:
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
