"""Strategies: random play, positional region strategies, and pulling a
timed-stage strategy back to the original game through the chain."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .chain import Chain, lift_run
from .core import Game, InvalidHistory, Player
from .semantics import Move, Run, StrategyFn, enabled_edges, play, trace_of
from .solver import RegionGame, SolveResult


def random_strategy(g: Game, seed: int, max_den: int = 4) -> StrategyFn:
    """Uniform random enabled edge with a random in-window delay of bounded
    denominator.  Returns None only when nothing is enabled.  The strategy
    owns its rng, so replaying the same query sequence reproduces the same
    moves."""
    rng = random.Random(seed)

    def strat(run: Run) -> Optional[Move]:
        q = run.last()
        enabled = enabled_edges(g, q)
        if not enabled:
            return None
        e, w = rng.choice(enabled)
        span = Fraction(2) if w.hi is None else w.hi - w.lo
        if span == 0:
            return Move(e.id, w.lo)
        den = rng.randint(1, max_den)
        num = rng.randint(0, den)
        return Move(e.id, w.lo + Fraction(num, den) * span)

    return strat


def first_move_strategy(g: Game) -> StrategyFn:
    """Always the earliest delay of the lowest-numbered enabled edge; handy
    as a deterministic opponent."""

    def strat(run: Run) -> Optional[Move]:
        q = run.last()
        enabled = enabled_edges(g, q)
        if not enabled:
            return None
        e, w = enabled[0]
        return Move(e.id, w.lo)

    return strat


def pull_back_strategy(chain: Chain, sigma_t: StrategyFn) -> StrategyFn:
    """Turn a timed-stage strategy into one for the original game.

    Each query lifts the whole history through the chain, asks sigma_t on
    the lifted timed run, and maps the chosen move back through the
    end-to-end relation.  Delays transfer unchanged because every stage
    preserves them.
    """

    def strat(run: Run) -> Optional[Move]:
        lifted = lift_run(chain, run)
        m_t = sigma_t(lifted.timed)
        if m_t is None:
            return None
        move = chain.end_to_end.move_backward(lifted.source_config(), m_t)
        if move is None:
            raise InvalidHistory(f"strategy chose unknown timed edge {m_t.edge!r}")
        return move

    return strat


def positional_strategy(rg: RegionGame, result: SolveResult) -> StrategyFn:
    """Play a solved region strategy on the (unscaled) timed game: look up
    the current configuration's node, concretize the stored symbolic move.
    Configurations outside the winning set get None."""

    def strat(run: Run) -> Optional[Move]:
        q = run.last()
        node = rg.node_of(q)
        mv = result.strategy.get(node)
        if mv is None:
            return None
        return rg.concretize_move(q, mv)

    return strat


@dataclass
class InclusionMismatch:
    trial: int
    trace_low: tuple
    trace_high: Optional[tuple]
    reason: str


@dataclass
class InclusionReport:
    trials: int
    mismatches: list[InclusionMismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def check_trace_inclusion(g_low: Game, g_high: Game, sigma_low: StrategyFn,
                          sigma_high: StrategyFn, k: int, trials: int,
                          seed: int = 0, *, chain: Chain) -> InclusionReport:
    """Sampled k-bounded trace inclusion through a chain linking g_low (its
    source) to g_high (its timed stage).

    Each play of sigma_low against a random opponent is lifted through the
    chain.  The mirrored timed run must produce the identical observation
    trace, position by position, and be an outcome of sigma_high: each
    player-one ply is the move sigma_high picks on the lifted prefix, and a
    play that halts early at a player-one position halts under sigma_high too.
    """
    if g_low is not chain.isr or g_high is not chain.timed:
        raise InvalidHistory("chain does not link the two games")
    report = InclusionReport(trials)
    for i in range(trials):
        opponent = random_strategy(g_low, seed + 7919 * i)
        run_low = play(g_low, sigma_low, opponent, k)
        t_low = trace_of(g_low, run_low)
        try:
            lifted = lift_run(chain, run_low)
        except InvalidHistory as exc:
            report.mismatches.append(InclusionMismatch(
                i, t_low, None, f"history does not lift: {exc}"))
            continue
        t_high = trace_of(g_high, lifted.timed)
        halted = len(run_low) < k
        reason = ("lifted trace differs" if t_low != t_high
                  else _off_strategy(g_high, sigma_high, lifted.timed, halted))
        if reason:
            report.mismatches.append(InclusionMismatch(i, t_low, t_high, reason))
    return report


def _off_strategy(g: Game, sigma: StrategyFn, run: Run, halted: bool) -> Optional[str]:
    """Why `run` is not an outcome of sigma for player one, or None; a
    `halted` run must end where sigma halts too, if player one is to move."""
    prefix = Run(run.start)
    for j, s in enumerate(run.steps):
        if g.owner(prefix.last().loc) is Player.ONE and sigma(prefix) != s.move:
            return f"ply {j} is not the move sigma_high picks"
        prefix = prefix.extended(s.move, s.config)
    if halted and g.owner(run.last().loc) is Player.ONE and sigma(run) is not None:
        return "sigma_high moves where the play halts"
    return None
