"""Recompute the committed expected answers, perfbench/expected.json.

    python3 perfbench/regen.py

Run it only when a generator in gen.py changes on purpose.  A change to
the package must reproduce the committed answers instead: the check-bisim
report text of every `certify` game, the winner and strategy-file digest of
both objectives of every `control` game, and both winners of every `regions`
game.  `regions` winners are cross-checked against the half-grid oracle,
which never runs inside a timed measurement; the script refuses to write
answers the oracle contradicts, and records the games where the oracle ran
out of budget.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hybridgames as hg  # noqa: E402
from hybridgames import cli  # noqa: E402

import workloads  # noqa: E402

ORACLE_BUDGET = 100_000  # half-grid configurations


def certify_answers() -> dict:
    out = {}
    for index, g in workloads.prepare("certify"):
        report = hg.verify_chain(g, samples=workloads.SAMPLES, depth=workloads.DEPTH,
                                 seed=workloads.BISIM_SEED)
        if not report.passed:
            raise SystemExit(f"certify game {index} fails its own chain check")
        out[str(index)] = report.render()
    return out


def control_answers() -> dict:
    out = {}
    for index, data, objectives in workloads.prepare("control"):
        g = cli.parse_game(json.loads(data))
        chain = hg.build_chain(g)
        scaled, factor = hg.scale_to_integers(chain.timed)
        rg = hg.build_region_graph(scaled, scale=factor)
        answer = {}
        for text in objectives:
            objective = cli.parse_objective(text)
            solve = hg.solve_reachability if objective.kind == "reach" else hg.solve_safety
            answer[objective.kind], _ = workloads.control_answer(
                g, chain, rg, objective, solve(rg, objective.obs))
        out[str(index)] = answer
    return out


def regions_answers() -> dict:
    out = {}
    for index, g, (reach, safe) in workloads.prepare("regions"):
        rg = hg.build_region_graph(g)
        target = cli.parse_objective(reach).obs
        safe_obs = cli.parse_objective(safe).obs
        answer = {"reach": hg.solve_reachability(rg, target).wins_from_init(rg),
                  "safe": hg.solve_safety(rg, safe_obs).wins_from_init(rg)}
        try:
            oracle = {"reach": hg.granular_reach_winner(g, target, max_configs=ORACLE_BUDGET),
                      "safe": hg.granular_safe_winner(g, safe_obs, max_configs=ORACLE_BUDGET)}
        except hg.GameError:
            answer["oracle"] = "over budget"
        else:
            if oracle != answer:
                raise SystemExit(f"regions game {index}: solver {answer} but oracle {oracle}")
            answer["oracle"] = "agrees"
        out[str(index)] = answer
    return out


def main() -> None:
    answers = {"certify": certify_answers(), "control": control_answers(),
               "regions": regions_answers()}
    path = HERE / "expected.json"
    path.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
