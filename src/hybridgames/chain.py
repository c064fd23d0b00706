"""The full lowering chain of one source game, with exact run lifting.

Building the chain once and lifting runs through it is the workhorse behind
witness checking, strategy pull-back and trace comparison: every stage sees
the same delays, and edges correspond by provenance, so a source run maps to
one run per stage with pointwise related configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .bisim import BisimWitness, compose
from .core import Flavor, Game, InvalidGame, InvalidHistory, MoveNotEnabled, validate_game
from .semantics import Configuration, Move, Run, initial_config, step
from .to_stopwatch import stopwatch_witness, to_stopwatch
from .to_timed import offset_witness, to_timed
from .to_updatable import annotation_witness, annotate_resets, rewrite_witness, to_updatable


@dataclass(frozen=True)
class Chain:
    """The five games of the chain, the relation of each of the four stages
    in chain order, and their composition from source to timed stage."""

    isr: Game
    stopwatch: Game
    annotated: Game
    updatable: Game
    timed: Game
    stages: tuple[BisimWitness, ...] = field(repr=False, compare=False)
    end_to_end: BisimWitness = field(repr=False, compare=False)

    def games(self) -> tuple[Game, Game, Game, Game, Game]:
        return (self.isr, self.stopwatch, self.annotated, self.updatable, self.timed)


# The lowering stages in chain order: the flavor each one produces, its
# construction, and the builder of its relation from input to output game.
LOWERINGS = (
    (Flavor.STOPWATCH, to_stopwatch, stopwatch_witness),
    (Flavor.ANNOTATED_STOPWATCH, annotate_resets, annotation_witness),
    (Flavor.UPDATABLE, to_updatable, rewrite_witness),
    (Flavor.TIMED, to_timed, offset_witness),
)


def build_chain(g_isr: Game) -> Chain:
    """Validate the source game and run all lowering stages."""
    problems = validate_game(g_isr)
    if problems:
        raise InvalidGame("; ".join(v.render() for v in problems[:5]))
    games = [g_isr]
    stages = []
    for _, construct, witness in LOWERINGS:
        games.append(construct(games[-1]))
        stages.append(witness(games[-2], games[-1]))
    return Chain(*games, tuple(stages), reduce(compose, stages))


def stage_witnesses(chain: Chain) -> list[BisimWitness]:
    """Every stage witness, the composed annotation witness and the composed
    end-to-end witness, in the order matching lifted snapshots."""
    w_slope, w_ann, w_rw, w_off = chain.stages
    return [w_slope, w_ann, w_rw, compose(w_ann, w_rw), w_off, chain.end_to_end]


@dataclass(frozen=True)
class LiftedRun:
    """One run per stage, all driven by the same source moves and delays."""

    source: Run
    stopwatch: Run
    annotated: Run
    updatable: Run
    timed: Run

    def snapshot(self) -> tuple[Configuration, ...]:
        return (self.source.last(), self.stopwatch.last(), self.annotated.last(),
                self.updatable.last(), self.timed.last())

    def source_config(self) -> Configuration:
        return self.source.last()

    def __len__(self) -> int:
        return len(self.source)


def initial_lifted(chain: Chain) -> LiftedRun:
    return LiftedRun(
        source=Run(initial_config(chain.isr)),
        stopwatch=Run(initial_config(chain.stopwatch)),
        annotated=Run(initial_config(chain.annotated)),
        updatable=Run(initial_config(chain.updatable)),
        timed=Run(initial_config(chain.timed)),
    )


def lift_step(chain: Chain, lifted: LiftedRun, move: Move) -> LiftedRun:
    """Advance every stage by the counterparts of one source move."""
    try:
        q = step(chain.isr, lifted.source.last(), move)
    except MoveNotEnabled as exc:
        raise InvalidHistory(f"source move not enabled: {exc}") from exc
    runs = [lifted.source.extended(move, q)]
    for w, run in zip(chain.stages, (lifted.stopwatch, lifted.annotated,
                                     lifted.updatable, lifted.timed)):
        q = run.last()
        counterpart = w.move_forward(q, move)
        if counterpart is None:
            raise InvalidHistory(
                f"no {w.name} counterpart of {move.edge} at {q.loc.render()}")
        move = counterpart
        runs.append(run.extended(move, step(w.g2, q, move)))
    return LiftedRun(*runs)


def lift_run(chain: Chain, run: Run) -> LiftedRun:
    """Lift a whole source run; InvalidHistory if it is not a legal history."""
    if run.start != initial_config(chain.isr):
        raise InvalidHistory("history does not start at the initial configuration")
    lifted = initial_lifted(chain)
    for s in run.steps:
        lifted = lift_step(chain, lifted, s.move)
        if lifted.source.last() != s.config:
            raise InvalidHistory("history configurations do not replay")
    return lifted


def flavor_progression(chain: Chain) -> dict[str, Flavor]:
    """The classified flavor of each constructed stage."""
    from .core import classify_flavor

    return {
        "stopwatch": classify_flavor(chain.stopwatch),
        "annotated": classify_flavor(chain.annotated),
        "updatable": classify_flavor(chain.updatable),
        "timed": classify_flavor(chain.timed),
    }
