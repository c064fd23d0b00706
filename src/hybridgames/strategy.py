"""Strategies: random play, positional region strategies, and pulling a
timed-stage strategy back to the original game through the chain."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .chain import Chain, lift_run
from .core import Game, InvalidHistory
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
                          seed: int = 0,
                          chain: Optional[Chain] = None) -> InclusionReport:
    """Sampled k-bounded trace inclusion: every observation trace sigma_low
    produces against a random opponent must be reproducible under sigma_high.

    With a chain linking g_low (the chain's source) to g_high (its timed
    stage), each sampled play is lifted and the mirrored timed run must
    produce the identical observation trace, position by position.  Without
    a chain it falls back to comparing sampled trace sets, which can only
    report likely, not certain, violations.
    """
    report = InclusionReport(trials)
    if chain is not None:
        if g_low is not chain.isr or g_high is not chain.timed:
            raise InvalidHistory("chain does not link the two games")
        for i in range(trials):
            opponent = random_strategy(g_low, seed + 7919 * i)
            run_low = play(g_low, sigma_low, opponent, k)
            try:
                lifted = lift_run(chain, run_low)
            except InvalidHistory as exc:
                report.mismatches.append(InclusionMismatch(
                    i, trace_of(g_low, run_low), None,
                    f"history does not lift: {exc}"))
                continue
            t_low = trace_of(g_low, run_low)
            t_high = trace_of(g_high, lifted.timed)
            if t_low != t_high:
                report.mismatches.append(InclusionMismatch(
                    i, t_low, t_high, "lifted trace differs"))
        return report

    low_traces = []
    for i in range(trials):
        opponent = random_strategy(g_low, seed + 7919 * i)
        run_low = play(g_low, sigma_low, opponent, k)
        low_traces.append(trace_of(g_low, run_low))
    high_traces = set()
    for i in range(trials * 4):
        opponent = random_strategy(g_high, seed + 104729 + 31 * i)
        run_high = play(g_high, sigma_high, opponent, k)
        t = trace_of(g_high, run_high)
        for j in range(len(t)):
            high_traces.add(t[:j + 1])
    for i, t in enumerate(low_traces):
        if t not in high_traces:
            report.mismatches.append(InclusionMismatch(
                i, t, None, "trace not seen among sampled counterparts"))
    return report
