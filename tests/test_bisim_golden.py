"""Golden digests of the sampled bisimulation checker.

Two things are pinned.  For the first twenty "thirds" games, the sha256 of
the rendered `verify_chain` report at samples=25, depth=6, seed=0: it
covers every stage's pair count, matched-move count and failures.  For
each of the fifty mutants of acceptance check 5, the repr of the first
failing `Verdict` (its counterexample names the direction and the step
that failed), or the class of the exception the check raised.  A rewrite
of `check_local_bisim` that keeps the sampling order, the step order in
each direction and the early return keeps every digest.

After an intended change, rewrite the digest file with
`PYTHONPATH=src python tests/test_bisim_golden.py` and review its diff.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import hybridgames as hg

from fixtures import STAGE_NAME
from gamegen import gen_isr_game, mutate_game, probe_runs, visited_components

DIGESTS = Path(__file__).resolve().parent / "bisim_golden.json"


def _report_digests() -> dict:
    return {
        str(s): hashlib.sha256(
            hg.verify_chain(gen_isr_game(s, profile="thirds"),
                            samples=25, depth=6, seed=0).render().encode()
        ).hexdigest()
        for s in range(20)
    }


def _first_failure(i: int) -> str:
    """The check-5 loop on mutant `i`, stopped at its first failure."""
    g = gen_isr_game(900 + i, profile="pipeline")
    runs = probe_runs(g, 900 + i, count=4, depth=6)
    ve, vl = visited_components(runs)
    ref = [hg.rescale_config(g, q) for r in runs for q in r.configs()]
    _, bad = mutate_game(hg.to_stopwatch(g), 900 + i, ve, vl, ref_configs=ref)
    w = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, bad)
    sampler = hg.MoveSampler(random.Random(900 + i), extra=2)
    try:
        for r in runs:
            for q in r.configs():
                v = hg.check_local_bisim(w, q, hg.rescale_config(g, q), sampler)
                if not v.passed:
                    return repr(v)
    except (hg.OwnershipMismatch, hg.GameError) as e:
        return type(e).__name__
    return "passed"


def _digests() -> dict:
    return {"reports": _report_digests(),
            "mutants": {str(i): _first_failure(i) for i in range(50)}}


def test_checker_outputs_match_golden_digests():
    assert _digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_digests(), indent=2, sort_keys=True) + "\n")
    sys.exit(0)
