"""The full lowering chain of one source game, with exact run lifting.

Building the chain once and lifting runs through it is the workhorse behind
witness checking, strategy pull-back and trace comparison: every stage sees
the same delays, and edges correspond by provenance, so a source run maps to
one run per stage with pointwise related configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import NamedTuple

from .bisim import BisimWitness, compose, identity_witness, stage_witness
from .core import Flavor, Game, InvalidHistory, MoveNotEnabled, require_valid
from .lowering import annotate_resets, to_stopwatch, to_timed, to_updatable
from .semantics import Move, Run, initial_config, step


@dataclass(frozen=True)
class Chain:
    """The five games of the chain, the relation of each of the four stages
    in chain order, and their composition from source to timed stage; the
    stages above the source's flavor hold the source itself."""

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
# construction, and the name of its relation from input to output game, which
# `stage_witness` reads off the two games.
LOWERINGS = (
    (Flavor.STOPWATCH, to_stopwatch, "slope-normalization"),
    (Flavor.ANNOTATED_STOPWATCH, annotate_resets, "reset-annotation"),
    (Flavor.UPDATABLE, to_updatable, "guard-rewrite"),
    (Flavor.TIMED, to_timed, "offset-shift"),
)

# Every flavor in chain order, the source flavor first.
CHAIN_ORDER = (Flavor.ISR, *(flavor for flavor, _, _ in LOWERINGS))


def build_chain(g: Game) -> Chain:
    """Validate a game and lower it from its own flavor: each stage below
    that flavor runs its construction, and each stage above it relates the
    game to itself by the identity, under the stage's name."""
    games, stages = [require_valid(g)], []
    entry = CHAIN_ORDER.index(g.flavor)
    for k, (_, construct, name) in enumerate(LOWERINGS, start=1):
        games.append(construct(games[-1]) if k > entry else g)
        stages.append(stage_witness(name, games[-2], games[-1]) if k > entry
                      else replace(identity_witness(g), name=name))
    return Chain(*games, tuple(stages), reduce(compose, stages))


def stage_witnesses(chain: Chain) -> list[tuple[BisimWitness, int, int]]:
    """Every stage witness, the composed annotation witness and the composed
    end-to-end witness, each with the indices in `Chain.games()` (and so in
    a LiftedRun) of the two games it relates; a game the chain holds more
    than once gets its first index."""
    w_slope, w_ann, w_rw, w_off = chain.stages
    ids = [id(g) for g in chain.games()]
    return [(w, ids.index(id(w.g1)), ids.index(id(w.g2)))
            for w in (w_slope, w_ann, w_rw, compose(w_ann, w_rw), w_off,
                      chain.end_to_end)]


class LiftedRun(NamedTuple):
    """One run per game of the chain, in `Chain.games()` order, all driven
    by the same source moves and delays."""

    source: Run
    stopwatch: Run
    annotated: Run
    updatable: Run
    timed: Run


def initial_lifted(chain: Chain) -> LiftedRun:
    return LiftedRun(*(Run(initial_config(g)) for g in chain.games()))


def lift_step(chain: Chain, lifted: LiftedRun, move: Move) -> LiftedRun:
    """Advance every stage by the counterparts of one source move;
    InvalidHistory when the source move, a stage's counterpart or that
    counterpart's step is missing or not enabled."""
    try:
        q = step(chain.isr, lifted.source.last(), move)
    except MoveNotEnabled as exc:
        raise InvalidHistory(f"source move not enabled: {exc}") from exc
    runs = [lifted.source.extended(move, q)]
    for w, run in zip(chain.stages, lifted[1:]):
        q = run.last()
        counterpart = w.move_forward(q, move)
        if counterpart is None:
            raise InvalidHistory(
                f"no {w.name} counterpart of {move.edge} at {q.loc.render()}")
        move = counterpart
        try:
            runs.append(run.extended(move, step(w.g2, q, move)))
        except MoveNotEnabled as exc:
            raise InvalidHistory(f"{w.name} step not enabled: {exc}") from exc
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
