"""Golden digests of every stage relation of the lowering chain.

For each generated game (`thirds` seeds 0-199 and `pipeline` seeds 0-99),
one sha256 over a canonical rendering of the six `stage_witnesses` of its
chain: each witness's name, its `loc_back` pairs sorted by rendered g2 id,
each `affine` entry's scale and shift as canonical rationals, and its
sorted `edge_back`.  A rewrite of how the relations are built that keeps
every location map, valuation map and edge map keeps every digest.

After an intended change, rewrite the digest file with
`PYTHONPATH=src python tests/test_stage_relation_golden.py` and review its
diff.
"""

import hashlib
import json
import sys
from pathlib import Path

import hybridgames as hg
from hybridgames.core import format_rational

from gamegen import gen_isr_game

DIGESTS = Path(__file__).resolve().parent / "stage_relation_golden.json"

SEEDS = {"thirds": 200, "pipeline": 100}


def _rationals(values) -> str:
    return ",".join(format_rational(v) for v in values)


def _render(w) -> str:
    lines = [w.name]
    for l2 in sorted(w.loc_back, key=hg.LocId.render):
        line = f"loc {l2.render()} -> {w.loc_back[l2].render()}"
        a = w.affine.get(l2)
        if a is not None:
            line += f" scale {_rationals(a.scale)} shift {_rationals(a.shift)}"
        lines.append(line)
    lines.extend(f"edge {e2} -> {e1}" for e2, e1 in sorted(w.edge_back.items()))
    return "\n".join(lines) + "\n"


def _digest(g) -> str:
    h = hashlib.sha256()
    for w, _, _ in hg.stage_witnesses(hg.build_chain(g)):
        h.update(_render(w).encode())
    return h.hexdigest()


def _digests() -> dict:
    return {f"{profile}/{s}": _digest(gen_isr_game(s, profile=profile))
            for profile, count in SEEDS.items() for s in range(count)}


def test_stage_relations_match_golden_digests():
    assert _digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_digests(), indent=2, sort_keys=True) + "\n")
    sys.exit(0)
