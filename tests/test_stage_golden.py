"""Golden digests of every lowering stage's bytes.

For each generated game (`thirds` seeds 0-199 and `pipeline` seeds 0-99),
one sha256 over `cli.game_to_bytes` of the five games of its chain, in chain
order.  A rewrite of a lowering that keeps every stage's locations, edges,
ids, guards and resets keeps every digest.

After an intended change, rewrite the digest file with
`PYTHONPATH=src python tests/test_stage_golden.py` and review its diff.
"""

import hashlib
import json
import sys
from pathlib import Path

import hybridgames as hg
from hybridgames.cli import game_to_bytes

from gamegen import gen_isr_game

DIGESTS = Path(__file__).resolve().parent / "stage_golden.json"

SEEDS = {"thirds": 200, "pipeline": 100}


def _digest(g) -> str:
    h = hashlib.sha256()
    for stage in hg.build_chain(g).games():
        h.update(game_to_bytes(stage))
    return h.hexdigest()


def _digests() -> dict:
    return {f"{profile}/{s}": _digest(gen_isr_game(s, profile=profile))
            for profile, count in SEEDS.items() for s in range(count)}


def test_stage_bytes_match_golden_digests():
    assert _digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_digests(), indent=2, sort_keys=True) + "\n")
    sys.exit(0)
