"""Brute-force value iteration on a clamped delay grid, for every flavor.

An initialized game keeps each variable on one slope s from its last reset
to r (from 0 at the start) until its next reset, so it reads r + s*tau, tau
the time since: a guard bound c on it is the clock bound tau = c/s - r/s.
Let D be the lcm of the denominators of every c/s and r/s (a zero slope
counts as 1; such a variable ignores the delay).  Stretching time by D gives
a timed game with updatable resets and closed integer constants (Henzinger,
Kopke, Puri & Varaiya, JCSS 1998), where any winning delay can be nudged to
a multiple of one half without changing which guards it satisfies along the
way.  So delays on the grid 1/(2D) decide the game, and every window
endpoint lies on that grid.

Let B_i be the largest |c| over variable i's guard bounds and reset values.
A variable with slope > 0 and value above B_i is clamped to B_i + 1, and one
with slope < 0 and value below -B_i to -B_i - 1: its slope cannot change
before its next reset, so until then it only moves away from every guard,
which it therefore fails at either value.  That makes the clamped grid game
finite and its attractor an independent oracle for the region solver on
small inputs.  One explorer and one sweep serve both objectives with the
players swapped; nothing here comes from the solver it checks.

The paired walk that checks a stage witness uses the same grid for both
games, the step 1/(2 lcm(D_1, D_2)), each game with its own bounds B_i.  A
game's horizon at a configuration is the least delay after which each of
its moving variables is past B_i + 1 (or -B_i - 1); a pair's is the larger
of its games'.  Past it no guard of either game tells two delays apart, and
whether the successors are related is affine in the delay, so a ray is
walked to its second grid point at or past the horizon.  The explorer's rule
for rays (stop once two grid points give one successor) is sound for one
game but not for a pair: an edge resetting every moving variable gives one
successor at every delay, while the counterpart's guard tests the values
before the reset and can still fail later.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .core import ZERO, Game, GameError, MoveNotEnabled, Player
from .semantics import (Configuration, Move, advance, enabled_edges,
                        initial_config, step)


def _grid_constants(g: Game) -> tuple[int, list[Fraction]]:
    """D and the per-variable bounds B_i, from one scan of the constants."""
    den, bound = 1, [ZERO] * len(g.vars)
    for e in g.edges.values():
        for i, lo, hi in g.guards[e.id]:
            s = g.slopes[e.src][i] or 1
            den = lcm(den, (lo / s).denominator, (hi / s).denominator)
            bound[i] = max(bound[i], abs(lo), abs(hi))
        for i, v in g.resets[e.id]:
            den = lcm(den, (v / (g.slopes[e.dst][i] or 1)).denominator)
            bound[i] = max(bound[i], abs(v))
    return den, bound


def _grid_graph(g: Game, max_configs: int
                ) -> dict[Configuration, list[Configuration]]:
    """Each clamped grid configuration reachable from the initial one, in
    discovery order (the initial one first), to its successors."""
    den, bound = _grid_constants(g)
    # Each slope's sign, per location, so a clamp compares no slope.
    signs = {lid: tuple((s > 0) - (s < 0) for s in slopes)
             for lid, slopes in g.slopes.items()}

    def clamped(q: Configuration) -> Configuration:
        return Configuration(q.loc, tuple(
            b + 1 if c > 0 and v > b else -b - 1 if c < 0 and v < -b else v
            for v, c, b in zip(q.val, signs[q.loc], bound)))

    init = initial_config(g)
    seen = {init}
    succ_map: dict[Configuration, list[Configuration]] = {}
    frontier = deque([init])
    while frontier:
        q = frontier.popleft()
        succs: dict[Configuration, None] = {}
        for e, w in enabled_edges(g, q):
            # The grid points lo + k/(2D) as int pairs (tn, td) over the
            # fixed td = 2D times lo's denominator: one grid step adds lo's
            # denominator to tn.
            # Once two grid points give one successor, every moving variable
            # the edge keeps is clamped, and stays so at every later point:
            # that ends the walk, along a ray too.
            lo, hi, last = w.lo, w.hi, None
            tn, td = lo.numerator * 2 * den, lo.denominator * 2 * den
            while (hi is None or tn * hi.denominator <= hi.numerator * td) and \
                    (s := clamped(advance(g, q, e.id, tn, td))) != last:
                succs[s] = None
                last, tn = s, tn + lo.denominator
        succ_map[q] = list(succs)
        for s in succs:
            if s not in seen:
                seen.add(s)
                frontier.append(s)
        if len(seen) > max_configs:
            raise GameError("grid state space exceeded the size budget")
    return succ_map


def _attracts_init(g: Game, succ_map: dict[Configuration, list[Configuration]],
                   player: Player, in_seed) -> bool:
    """Whether `player` forces the initial configuration to one whose
    observation satisfies `in_seed`: its attractor on the explored clamped
    grid `succ_map`, swept over the configurations until a sweep adds
    nothing; the clamped space is finite, so the sweeps reach the fixpoint."""
    attr = {q for q in succ_map if in_seed(g.locations[q.loc].obs)}
    changed = True
    while changed:
        changed = False
        for q, succs in succ_map.items():
            if q in attr:
                continue
            if g.owner(q.loc) is player:
                joins = any(s in attr for s in succs)
            else:
                joins = bool(succs) and all(s in attr for s in succs)
            if joins:
                attr.add(q)
                changed = True
    return initial_config(g) in attr


def _reach_wins(g: Game, succ_map, target_obs: frozenset) -> bool:
    return _attracts_init(g, succ_map, Player.ONE, lambda obs: obs in target_obs)


def _safe_wins(g: Game, succ_map, safe_obs: frozenset) -> bool:
    return not _attracts_init(g, succ_map, Player.TWO,
                              lambda obs: obs not in safe_obs)


def granular_reach_winner(g: Game, target_obs: frozenset,
                          max_configs: int = 200_000) -> bool:
    """Whether player one wins reachability from the initial configuration:
    player one's attractor to the target on the clamped grid.  More
    than `max_configs` configurations raise GameError."""
    return _reach_wins(g, _grid_graph(g, max_configs), target_obs)


def granular_safe_winner(g: Game, safe_obs: frozenset,
                         max_configs: int = 200_000) -> bool:
    """Whether player one wins safety from the initial configuration: it
    avoids player two's attractor to the unsafe observations.  `max_configs`
    is as in granular_reach_winner."""
    return _safe_wins(g, _grid_graph(g, max_configs), safe_obs)


@dataclass
class PairMismatch:
    q1: Configuration
    q2: Configuration
    direction: str
    move: Optional[Move]
    reason: str


def _horizon(g: Game, bound: list[Fraction], q: Configuration) -> Fraction:
    """The least delay after which every variable moving at q is above
    B_i + 1 (below -B_i - 1 on a negative slope); 0 when none moves."""
    return max([ZERO] + [(b + 1 - v) / s if s > 0 else (-b - 1 - v) / s
                         for v, s, b in zip(q.val, g.slopes[q.loc], bound) if s])


def granular_witness_check(witness, depth: int,
                           max_pairs: int = 20_000) -> Optional[PairMismatch]:
    """Exhaustive paired walk over grid delays: at every pair the owners and
    observations must agree, and every move on one side must have a matching
    move on the other with related successors.

    Returns None when no mismatch is found to the given depth, else the first
    mismatch.  This is the justification tool for mutants the sampling
    checker cannot distinguish: agreement here means the two games are
    equivalent at the grid's granularity.
    """
    g1, g2 = witness.g1, witness.g2
    (den1, bound1), (den2, bound2) = _grid_constants(g1), _grid_constants(g2)
    unit = Fraction(1, 2 * lcm(den1, den2))
    start = (initial_config(g1), initial_config(g2))
    if not witness.contains(*start):
        return PairMismatch(start[0], start[1], "relation", None,
                            "initial configurations unrelated")
    visited = {start}
    frontier: deque[tuple[Configuration, Configuration, int]] = deque(
        [(start[0], start[1], 0)])
    while frontier:
        q1, q2, d = frontier.popleft()
        if g1.owner(q1.loc) is not g2.owner(q2.loc):
            return PairMismatch(q1, q2, "owner", None, "owners differ")
        if g1.locations[q1.loc].obs != g2.locations[q2.loc].obs:
            return PairMismatch(q1, q2, "label", None, "observations differ")
        if d >= depth:
            continue
        horizon = max(_horizon(g1, bound1, q1), _horizon(g2, bound2, q2))
        sides = (("forward", g1, q1, lambda m: (m, witness.move_forward(q2, m))),
                 ("backward", g2, q2, lambda m: (witness.move_backward(m), m)))
        for direction, g, q, pair in sides:
            for e, w in enabled_edges(g, q):
                t, past = w.lo, 0
                # A ray ends at its second grid point at or past the horizon.
                while (past < 2) if w.hi is None else (t <= w.hi):
                    move = Move(e.id, t)
                    m1, m2 = pair(move)
                    if m1 is None or m2 is None:
                        return PairMismatch(q1, q2, direction, move,
                                            "no counterpart move")
                    try:
                        n1 = step(g1, q1, m1)
                        n2 = step(g2, q2, m2)
                    except MoveNotEnabled as exc:
                        return PairMismatch(q1, q2, direction, move, str(exc))
                    if not witness.contains(n1, n2):
                        return PairMismatch(q1, q2, direction, move,
                                            "successors unrelated")
                    if (n1, n2) not in visited:
                        visited.add((n1, n2))
                        frontier.append((n1, n2, d + 1))
                        if len(visited) > max_pairs:
                            raise GameError("paired walk exceeded the size budget")
                    past += t >= horizon
                    t += unit
    return None
