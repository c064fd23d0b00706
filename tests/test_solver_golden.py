"""Golden digests of the region solver's verdicts and strategy files.

The pool is the one acceptance check 6 compares against the grid
oracle: `gen_timed_game(500 + i)` for i < 50, with one reach and one safety
objective drawn the same way.  For each objective the digest file pins the
winner from the initial node and the sha256 of the timed-stage strategy
file the command line would write.  A rewrite of the attractor that keeps
winners and strategies identical, insertion order included, keeps every
digest.

After an intended change, rewrite the digest file with
`PYTHONPATH=src python tests/test_solver_golden.py` and review its diff.
"""

import hashlib
import json
import sys
from pathlib import Path

import hybridgames as hg
from hybridgames import cli

from gamegen import oracle_pool

DIGESTS = Path(__file__).resolve().parent / "solver_golden.json"


def _digests() -> dict:
    got = {}
    for seed, g, target, safe in oracle_pool():
        rg = hg.build_region_graph(g)
        cases = {}
        for objective, solve in ((cli.Objective("reach", target), hg.solve_reachability),
                                 (cli.Objective("safe", safe), hg.solve_safety)):
            result = solve(rg, objective.obs)
            sf = cli.strategy_file_for_timed(g, rg, result, objective)
            cases[objective.text] = {
                "wins": result.wins_from_init(rg),
                "sha256": hashlib.sha256(cli.strategy_to_bytes(sf)).hexdigest(),
            }
        got[str(seed)] = cases
    return got


def test_solver_outputs_match_golden_digests():
    assert _digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_digests(), indent=2, sort_keys=True) + "\n")
    sys.exit(0)
