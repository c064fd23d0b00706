"""The three workloads: how each game is generated, driven through the
package and checked against the committed expected answers.

Every call into the package goes through a name ``hybridgames`` exports or a
file-format function of ``hybridgames.cli``.  Each ``run_*`` function plays
one game, hands each latency sample to ``record(key, seconds)`` and returns
(attempted, failed) operation counts.  A key names the same operation on
every visit of the game.

The inputs of a game, opponents included, depend only on its index: the
expected answers are committed per index, and a run's seed only draws the
order in which games are visited, so runs with different seeds do the same
work and differ only in what precedes each game.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

import hybridgames as hg
from hybridgames import cli

import gen

# Games per workload: one pass over them takes five to nine seconds on a
# 2-core x86 machine under Python 3.11, so a run visits every game more than
# once.
GAMES = {"certify": 40, "control": 30, "regions": 32}

# check-bisim defaults of the CLI
SAMPLES, DEPTH, BISIM_SEED = 25, 6, 0
# plies per play and seeded opponents per winning objective on `control`
PLIES, OPPONENTS = 40, 3

STAGES = ("isr", "stopwatch", "annotated", "updatable", "timed")


def prepare(workload: str, count: int | None = None) -> list[tuple]:
    """The workload's inputs, as the program will receive them."""
    indices = range(GAMES[workload] if count is None else count)
    if workload == "certify":
        return [(i, gen.thirds_game(i)) for i in indices]
    if workload == "control":
        out = []
        for i in indices:
            g, reach, safe = gen.pipeline_case(i)
            out.append((i, cli.game_to_bytes(g), (reach, safe)))
        return out
    out = []
    for i in indices:
        g, reach, safe = gen.ladder_case(i)
        out.append((i, g, (reach, safe)))
    return out


def run_certify(case, tr, expected: dict, record) -> tuple[int, int]:
    index, g = case
    t0 = perf_counter()
    with tr.span("bisim.verify_chain"):
        report = hg.verify_chain(g, samples=SAMPLES, depth=DEPTH, seed=BISIM_SEED)
    record(index, perf_counter() - t0)
    tr.count("bisim.pairs", sum(s.pairs for s in report.stages))
    tr.count("bisim.moves_checked", sum(s.moves_checked for s in report.stages))
    return 1, int(not report.passed or report.render() != expected[str(index)])


def _graph_counts(tr, rg: hg.RegionGame) -> None:
    if not tr.enabled:
        return
    moves = sum(len(m) for m in rg.moves.values())
    distinct = sum(len({rg.successor[(node, mv)] for mv in rg.moves[node]})
                   for node in rg.nodes)
    tr.count("solver.nodes", len(rg.nodes))
    tr.count("solver.moves", moves)
    tr.count("solver.distinct_succ", distinct)


def _solve(tr, rg: hg.RegionGame, objective: cli.Objective) -> hg.SolveResult:
    solve = hg.solve_reachability if objective.kind == "reach" else hg.solve_safety
    with tr.span(f"solver.{solve.__name__}"):
        result = solve(rg, objective.obs)
    tr.count("solver.winning_nodes", len(result.winning))
    tr.count("solver.strategy_entries", len(result.strategy))
    return result


def control_answer(g: hg.Game, chain: hg.Chain, rg: hg.RegionGame,
                   objective: cli.Objective, result: hg.SolveResult) -> tuple[dict, bytes]:
    """Winner and the digest of the strategy file `solve --out` writes."""
    data = cli.strategy_to_bytes(
        cli.strategy_file_for_source(g, chain, rg, result, objective))
    return {"wins": result.wins_from_init(rg), "digest": hashlib.sha256(data).hexdigest()}, data


def meets(objective: cli.Objective, observations) -> bool:
    """Whether a play's observation sequence meets the objective."""
    if objective.kind == "reach":
        return any(o in objective.obs for o in observations)
    return all(o in objective.obs for o in observations)


def _decider(tr, sigma, record, key: tuple):
    """The pulled-back strategy, timed per decision."""

    def decide(run):
        t0 = perf_counter()
        with tr.span("strategy.pull_back"):
            move = sigma(run)
        record(key + (len(run),), perf_counter() - t0)
        tr.count("strategy.history_plies", len(run))
        return move

    return decide


def run_control(case, tr, expected: dict, record) -> tuple[int, int]:
    index, data, objectives = case
    with tr.span("cli.parse_game"):
        g = cli.parse_game(json.loads(data))
    with tr.span("core.validate_game"):
        problems = hg.validate_game(g)
    if problems:
        return 1, 1
    with tr.span("chain.build_chain"):
        chain = hg.build_chain(g)
    for stage, game in zip(STAGES, chain.games()):
        tr.count(f"chain.locs.{stage}", len(game.locations))
        tr.count(f"chain.edges.{stage}", len(game.edges))
    with tr.span("core.scale_to_integers"):
        scaled, factor = hg.scale_to_integers(chain.timed)
    with tr.span("solver.build_region_graph"):
        rg = hg.build_region_graph(scaled, scale=factor)
    _graph_counts(tr, rg)

    attempted = failed = 0
    for k, text in enumerate(objectives):
        objective = cli.parse_objective(text)
        result = _solve(tr, rg, objective)
        with tr.span("cli.strategy_file"):
            answer, sf_bytes = control_answer(g, chain, rg, objective, result)
        tr.count("cli.strategy_bytes", len(sf_bytes))
        attempted += 1
        failed += answer != expected[str(index)][objective.kind]
        if not answer["wins"]:
            continue

        sigma = hg.pull_back_strategy(
            chain, tr.wrap("solver.decide", hg.positional_strategy(rg, result)))
        for o in range(OPPONENTS):
            opponent = tr.wrap("strategy.random", hg.random_strategy(
                g, (index * 2 + k) * OPPONENTS + o))
            decide = _decider(tr, sigma, record, (index, k, o))
            with tr.span("semantics.play"):
                run = hg.play(g, decide, opponent, PLIES)
            tr.count("semantics.plies", len(run))
            attempted += 1
            failed += not meets(objective, (g.locations[q.loc].obs for q in run.configs()))
    return attempted, failed


def run_regions(case, tr, expected: dict, record) -> tuple[int, int]:
    index, g, objectives = case
    t0 = perf_counter()
    with tr.span("solver.build_region_graph"):
        rg = hg.build_region_graph(g)
    results = [_solve(tr, rg, cli.parse_objective(text)) for text in objectives]
    record(index, perf_counter() - t0)
    _graph_counts(tr, rg)
    wins = [r.wins_from_init(rg) for r in results]
    want = expected[str(index)]
    return 2, (wins[0] != want["reach"]) + (wins[1] != want["safe"])


RUN = {"certify": run_certify, "control": run_control, "regions": run_regions}
