"""Brute-force value iteration on a half-unit delay grid.

With closed integer guard bounds, any winning delay can be nudged to a
multiple of one half without changing which guards it satisfies along the
way, and clock values beyond every bound plus one behave identically.  That
makes the clamped half-grid game finite and its attractor an independent
oracle for the region solver on small inputs.  One explorer and one sweep
serve both objectives with the players swapped; nothing here comes from
the solver it checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .core import Flavor, Game, GameError, InvalidGame, Player
from .semantics import Configuration, Move, delay_window, initial_config, step


def _integer_cap(g: Game) -> int:
    cap = 0
    for e in g.edges.values():
        for iv in e.guard.conjuncts.values():
            for b in (iv.lo, iv.hi):
                if b.denominator != 1:
                    raise InvalidGame("half-grid oracle needs integer guard bounds")
                if b >= 0:
                    cap = max(cap, int(b))
    return cap + 1


def _grid_moves(g: Game, q: Configuration, delays: list[Fraction],
                cap: Fraction) -> list[Configuration]:
    """Deduplicated successor configurations over the fixed delay grid, with
    clock values clamped at the cap."""
    succs = []
    seen = set()
    for e in g.edges_from(q.loc):
        w = delay_window(g, q, e.id)
        if w is None:
            continue
        for t in delays:
            if not w.contains(t):
                continue
            nxt = step(g, q, Move(e.id, t))
            clamped = Configuration(
                nxt.loc, tuple(min(v, cap) for v in nxt.val))
            if clamped not in seen:
                seen.add(clamped)
                succs.append(clamped)
    return succs


def _half_grid_graph(g: Game, max_configs: int
                     ) -> tuple[list[Configuration], dict]:
    """The clamped half-grid configurations reachable from the initial one,
    in discovery order (the initial one first), and their successors."""
    if g.flavor is not Flavor.TIMED:
        raise InvalidGame("half-grid oracle requires a timed-flavor game")
    cap_int = _integer_cap(g)
    cap = Fraction(cap_int)
    delays = [Fraction(j, 2) for j in range(2 * cap_int + 1)]

    init = initial_config(g)
    configs = [init]
    seen = {init}
    succ_map: dict[Configuration, list[Configuration]] = {}
    frontier = deque([init])
    while frontier:
        q = frontier.popleft()
        succs = _grid_moves(g, q, delays, cap)
        succ_map[q] = succs
        for s in succs:
            if s not in seen:
                seen.add(s)
                configs.append(s)
                frontier.append(s)
        if len(configs) > max_configs:
            raise GameError("half-grid state space exceeded the size budget")
    return configs, succ_map


def _attracts_init(g: Game, player: Player, in_seed, depth: Optional[int],
                   max_configs: int) -> bool:
    """Whether `player` forces the initial configuration to one whose
    observation satisfies `in_seed`: its attractor on the clamped half-grid,
    by at most `depth` sweeps over the configurations (to the fixpoint when
    None)."""
    configs, succ_map = _half_grid_graph(g, max_configs)
    attr = {q for q in configs if in_seed(g.locations[q.loc].obs)}
    rounds = len(configs) if depth is None else depth
    for _ in range(rounds):
        changed = False
        for q in configs:
            if q in attr:
                continue
            succs = succ_map[q]
            if g.owner(q.loc) is player:
                joins = any(s in attr for s in succs)
            else:
                joins = bool(succs) and all(s in attr for s in succs)
            if joins:
                attr.add(q)
                changed = True
        if not changed:
            break
    return configs[0] in attr


def granular_reach_winner(g: Game, target_obs: frozenset,
                          depth: Optional[int] = None,
                          max_configs: int = 200_000) -> bool:
    """Whether player one wins reachability from the initial configuration:
    player one's attractor to the target on the clamped half-grid.

    `depth` bounds the number of sweeps over the configurations; each sweep
    grows the set in place, so one may attract configurations several moves
    from the target.  By default the sweeps run to the fixpoint, which
    exists because the clamped space is finite.
    """
    return _attracts_init(g, Player.ONE, lambda obs: obs in target_obs,
                          depth, max_configs)


def granular_safe_winner(g: Game, safe_obs: frozenset,
                         depth: Optional[int] = None,
                         max_configs: int = 200_000) -> bool:
    """Whether player one wins safety from the initial configuration: it
    avoids player two's attractor to the unsafe observations.  `depth` and
    `max_configs` are as in granular_reach_winner."""
    return not _attracts_init(g, Player.TWO, lambda obs: obs not in safe_obs,
                              depth, max_configs)


def _grid_denominator(*games: Game) -> int:
    den = 2
    for g in games:
        for e in g.edges.values():
            for iv in e.guard.conjuncts.values():
                den = lcm(den, iv.lo.denominator, iv.hi.denominator)
            for v in e.reset.assignments.values():
                den = lcm(den, v.denominator)
        for lid in g.locations:
            for var in g.vars:
                s = g.flow(lid, var)
                if s != 0:
                    den = lcm(den, abs(s.numerator), s.denominator)
    return den


def _window_delays(w, den: int, span: int) -> list[Fraction]:
    out = [w.lo]
    hi = w.lo + span if w.hi is None else w.hi
    unit = Fraction(1, den)
    # Snap the lower end upward to the grid, then walk it.
    steps = (w.lo.numerator * den + w.lo.denominator - 1) // w.lo.denominator
    t = Fraction(steps, den)
    while t <= hi:
        if w.contains(t) and t not in out:
            out.append(t)
        t += unit
    if w.hi is not None and w.hi not in out:
        out.append(w.hi)
    return sorted(out)


@dataclass
class PairMismatch:
    q1: Configuration
    q2: Configuration
    direction: str
    move: Optional[Move]
    reason: str


def granular_witness_check(witness, depth: int, span: int = 3,
                           max_pairs: int = 20_000) -> Optional[PairMismatch]:
    """Exhaustive paired walk over grid-and-boundary delays: every move on
    one side must have a matching move on the other with related successors.

    Returns None when no mismatch is found to the given depth, else the first
    mismatch.  This is the justification tool for mutants the sampling
    checker cannot distinguish: agreement here means the two games are
    equivalent at the grid's granularity.
    """
    g1, g2 = witness.g1, witness.g2
    den = _grid_denominator(g1, g2)
    start = (initial_config(g1), initial_config(g2))
    if not witness.contains(*start):
        return PairMismatch(start[0], start[1], "contains", None,
                            "initial configurations unrelated")
    visited = {start}
    frontier: deque[tuple[Configuration, Configuration, int]] = deque(
        [(start[0], start[1], 0)])
    while frontier:
        q1, q2, d = frontier.popleft()
        if g1.locations[q1.loc].obs != g2.locations[q2.loc].obs:
            return PairMismatch(q1, q2, "label", None, "observations differ")
        if d >= depth:
            continue
        sides = (("forward", g1, q1, lambda m: (m, witness.move_forward(q2, m))),
                 ("backward", g2, q2, lambda m: (witness.move_backward(q1, m), m)))
        for direction, g, q, pair in sides:
            for e in g.edges_from(q.loc):
                w = delay_window(g, q, e.id)
                if w is None:
                    continue
                for t in _window_delays(w, den, span):
                    move = Move(e.id, t)
                    m1, m2 = pair(move)
                    if m1 is None or m2 is None:
                        return PairMismatch(q1, q2, direction, move,
                                            "no counterpart move")
                    try:
                        n1 = step(g1, q1, m1)
                        n2 = step(g2, q2, m2)
                    except Exception as exc:
                        return PairMismatch(q1, q2, direction, move, str(exc))
                    if not witness.contains(n1, n2):
                        return PairMismatch(q1, q2, direction, move,
                                            "successors unrelated")
                    if (n1, n2) not in visited:
                        visited.add((n1, n2))
                        frontier.append((n1, n2, d + 1))
                        if len(visited) > max_pairs:
                            raise GameError("paired walk exceeded the size budget")
    return None
