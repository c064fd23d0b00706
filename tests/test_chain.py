"""The entry rule of the lowering chain: a game enters at its own flavor.

Each stage below the game's flavor runs its construction; each stage above
it holds the game itself, related to it by the identity under the stage's
name.  So every stage of a chain, read back from its file and chained
again, reaches the same timed game as the chain it came from.
"""

import json

import pytest

import hybridgames as hg
from hybridgames import cli
from hybridgames.samples import worked_example

from gamegen import gen_isr_game

STAGES = ["isr", "stopwatch", "annotated", "updatable", "timed"]


def pool():
    yield "worked-example", worked_example()
    for seed in range(60):
        yield f"thirds-{seed}", gen_isr_game(seed, profile="thirds")
    for seed in range(300, 340):
        yield f"pipeline-{seed}", gen_isr_game(seed, profile="pipeline")


def read_back(g: hg.Game) -> hg.Game:
    """`g` as the command line reads it from its file."""
    return cli.parse_game(json.loads(cli.game_to_bytes(g)))


def test_every_stage_reaches_the_same_timed_game():
    for name, g in pool():
        chain = hg.build_chain(g)
        want = cli.game_to_bytes(chain.timed)
        for stage, game in zip(STAGES, chain.games()):
            again = hg.build_chain(read_back(game))
            assert cli.game_to_bytes(again.timed) == want, (name, stage)


@pytest.mark.parametrize("k", range(5), ids=STAGES)
def test_stages_above_the_entry_hold_the_game(k):
    g = read_back(hg.build_chain(worked_example()).games()[k])
    chain = hg.build_chain(g)
    assert all(game is g for game in chain.games()[:k + 1])
    assert all(game is not g for game in chain.games()[k + 1:])
    for w in chain.stages[:k]:
        assert w.g1 is g and w.g2 is g
        assert w.loc_back == {lid: lid for lid in g.locations}
        assert w.edge_back == {eid: eid for eid in g.edges}
        assert w.affine == {}


def test_updatable_game_verifies_through_its_own_chain():
    g = read_back(hg.build_chain(worked_example()).updatable)
    assert g.flavor is hg.Flavor.UPDATABLE
    report = hg.verify_chain(g, samples=12, depth=6, seed=3)
    assert report.passed and report.warnings == []
    assert [s.name for s in report.stages] == \
        [w.name for w, _, _ in hg.stage_witnesses(hg.build_chain(worked_example()))]
    for stage in report.stages:
        assert stage.pairs == 12 and stage.moves_checked > 0
    # the chain holds g in its first four places; a relation is checked at
    # g's first index, and the lifted runs of all four places agree
    chain = hg.build_chain(g)
    assert [(i, j) for _, i, j in hg.stage_witnesses(chain)] == \
        [(0, 0), (0, 0), (0, 0), (0, 0), (0, 4), (0, 4)]
    for seed in range(4):
        run = hg.play(g, hg.random_strategy(g, seed),
                      hg.random_strategy(g, seed + 31), 8)
        lifted = hg.lift_run(chain, run)
        for later in lifted[1:4]:
            assert later.configs() == lifted.source.configs()
            assert later.moves() == lifted.source.moves()
