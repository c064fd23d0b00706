"""The grid oracle decides a game of any flavor without the lowering chain.

The paper's claim is that a source game and the timed endpoint of its chain
have the same winner for every objective.  Here the oracle, which explores
the game itself on its clamped 1/(2D) delay grid, must give the winner the
region solver finds on `build_chain(game).timed`, for reachability and for
safety.
"""

import random

import pytest

import hybridgames as hg
from hybridgames import granular
from hybridgames.samples import worked_example
from hybridgames.semantics import enabled_edges

from gamegen import gen_isr_game

# Oracle budget for the thirds pool: games whose grid outgrows it are
# skipped (GameError), and at least MIN_DECIDED of the forty must fit.
THIRDS_BUDGET = 200
MIN_DECIDED = 20


def objectives(g: hg.Game, seed: int) -> tuple[frozenset, frozenset]:
    """One reach target and a safe set of all observations but one, drawn
    from the game's observations as acceptance check 7 draws its target."""
    obs_list = sorted({loc.obs for loc in g.locations.values()})
    rng = random.Random(seed)
    return (frozenset({rng.choice(obs_list)}),
            frozenset(obs_list) - {rng.choice(obs_list)})


def solver_winners(timed: hg.Game, target, safe) -> tuple[bool, bool]:
    scaled, factor = hg.scale_to_integers(timed)
    rg = hg.build_region_graph(scaled, scale=factor)
    return (hg.solve_reachability(rg, target).wins_from_init(rg),
            hg.solve_safety(rg, safe).wins_from_init(rg))


def explored_grid(g: hg.Game, max_configs: int = 200_000) -> dict:
    """The oracle's one exploration of g's clamped grid, after checking what
    exactness rests on: every window endpoint of every explored
    configuration lies on the grid 1/(2D).  Over `max_configs`
    configurations raise GameError."""
    graph = granular._grid_graph(g, max_configs)
    den = 2 * granular._grid_constants(g)[0]
    for q in graph:
        for e, w in enabled_edges(g, q):
            for t in (w.lo, w.hi):
                assert t is None or den % t.denominator == 0, (q, e.id, t)
    return graph


def oracle_winners(g: hg.Game, graph: dict, target, safe) -> tuple[bool, bool]:
    """The oracle's reachability and safety winners, both read off the one
    exploration `graph` of g's grid."""
    return (granular._reach_wins(g, graph, target),
            granular._safe_wins(g, graph, safe))


@pytest.mark.parametrize("seed", range(300, 340))
def test_pipeline_source_game(seed):
    g = gen_isr_game(seed, profile="pipeline")
    target, safe = objectives(g, seed)
    assert oracle_winners(g, explored_grid(g), target, safe) == \
        solver_winners(hg.build_chain(g).timed, target, safe)


@pytest.mark.parametrize("stage", range(5),
                         ids=["isr", "stopwatch", "annotated", "updatable",
                              "timed"])
def test_worked_example_stage(stage):
    chain = hg.build_chain(worked_example())
    g = chain.games()[stage]
    graph = explored_grid(g)
    for obs in sorted(g.obs):
        target, safe = frozenset({obs}), g.obs - {obs}
        assert oracle_winners(g, graph, target, safe) == \
            solver_winners(chain.timed, target, safe), obs


def test_thirds_games_within_budget():
    decided = []
    for seed in range(40):
        g = gen_isr_game(seed, profile="thirds")
        target, safe = objectives(g, seed)
        try:
            graph = explored_grid(g, THIRDS_BUDGET)
        except hg.GameError:
            continue
        assert oracle_winners(g, graph, target, safe) == \
            solver_winners(hg.build_chain(g).timed, target, safe), seed
        decided.append(seed)
    assert len(decided) >= MIN_DECIDED, decided
