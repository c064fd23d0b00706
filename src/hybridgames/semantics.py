"""Operational semantics shared by every game flavor.

A play is a sequence of joint moves: the owner of the current location picks
an outgoing edge and a rational delay, the variables advance along their
slopes for that long, the guard is checked at the end of the delay, and the
reset is applied on the jump.  There are no standalone delay transitions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from .core import (
    ONE,
    ZERO,
    Edge,
    Game,
    GameError,
    IllegalStrategyMove,
    LocId,
    MoveNotEnabled,
    Player,
)


@dataclass(frozen=True)
class Configuration:
    """A location plus one exact value per variable, in game variable order."""

    loc: LocId
    val: tuple[Fraction, ...]
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        # Configurations key the witness checker's memo tables, where hashing
        # the exact values anew on every lookup would be a large share of a
        # hit, so the hash is computed once, on first use.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.loc, self.val)))
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy, _hash.
        return (Configuration, (self.loc, self.val))

    def value(self, g: Game, var: str) -> Fraction:
        return self.val[g.var_index(var)]


@dataclass(frozen=True)
class Move:
    edge: str
    delay: Fraction

    def __hash__(self) -> int:
        # Moves key the witness checker's memo tables, often as fresh
        # objects (counterparts, seeded draws; probe moves are shared):
        # hashing the delay's two integers skips Fraction.__hash__'s modular
        # inverse, and equal delays, an int included, share both integers.
        return hash((self.edge, self.delay.numerator, self.delay.denominator))


@dataclass(frozen=True)
class Step:
    move: Move
    config: Configuration


@dataclass(frozen=True)
class Run:
    """A finite alternating sequence of configurations and moves."""

    start: Configuration
    steps: tuple[Step, ...] = ()

    def last(self) -> Configuration:
        return self.steps[-1].config if self.steps else self.start

    def configs(self) -> tuple[Configuration, ...]:
        return (self.start,) + tuple(s.config for s in self.steps)

    def moves(self) -> tuple[Move, ...]:
        return tuple(s.move for s in self.steps)

    def extended(self, move: Move, config: Configuration) -> "Run":
        return Run(self.start, self.steps + (Step(move, config),))

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class DelayWindow:
    """The closed set of delays enabling one edge from one configuration.

    `hi` is None for an unbounded ray [lo, oo).  Windows are never open and
    never empty; an empty delay set is represented by None at the call site.
    """

    lo: Fraction
    hi: Optional[Fraction]

    def contains(self, t: Fraction) -> bool:
        if t < self.lo:
            return False
        return self.hi is None or t <= self.hi

    # cached_property writes __dict__ directly, past the frozen __setattr__.
    @cached_property
    def probes(self) -> tuple[Fraction, ...]:
        """The window's fixed sample points: lo, the midpoint and hi (lo
        alone for a point), or lo, lo+1 and lo+2 on an unbounded ray."""
        if self.hi is None:
            return (self.lo, self.lo + 1, self.lo + 2)
        if self.hi == self.lo:
            return (self.lo,)
        return (self.lo, (self.lo + self.hi) / 2, self.hi)

    def draw(self, rng: random.Random, max_den: int, ray: int) -> Fraction:
        """lo plus a random fraction, of denominator at most max_den, of the
        window's length (of `ray` when the window is unbounded).  A point
        window returns lo without touching rng.

        The result is lo + Fraction(k, den) * span, with the same two
        randint calls, but it is built as one Fraction from the numerators
        and denominators: on Python 3.11 each Fraction operator dispatches
        through a numbers.Rational check, and a sampled pass draws tens of
        thousands of delays."""
        lo, hi = self.lo, self.hi
        ln, ld = lo.numerator, lo.denominator
        if hi is None:
            sn, sd = ray, 1
        else:
            sn = hi.numerator * ld - ln * hi.denominator
            sd = hi.denominator * ld
        if sn == 0:
            return lo
        den = rng.randint(1, max_den)
        k = rng.randint(0, den)
        return Fraction(ln * den * sd + k * sn * ld, ld * den * sd)


def initial_config(g: Game) -> Configuration:
    """The start of every play: the initial location with the zero vector."""
    return Configuration(g.init, (ZERO,) * len(g.vars))


def delay_window(g: Game, q: Configuration, edge_id: str) -> Optional[DelayWindow]:
    """Solve {t >= 0 | forall constrained x: v(x) + t*slope(x) in guard(x)}.

    Returns None when the set is empty.  The result is always a closed
    interval or a closed unbounded ray intersected with t >= 0.  A unit
    slope subtracts where another divides (Game.slopes shares ONE).
    """
    e = g.edges[edge_id]
    if e.src != q.loc:
        raise GameError(f"edge {edge_id} does not leave {q.loc.render()}")
    slopes = g.slopes[q.loc]
    lo = ZERO
    hi: Optional[Fraction] = None
    for i, glo, ghi in g.guards[edge_id]:
        v = q.val[i]
        slope = slopes[i]
        if slope is ZERO:
            if not glo <= v <= ghi:
                return None
            continue
        # v + t*slope in [glo, ghi]; a negative slope swaps the endpoints.
        if slope is ONE:
            a, b = glo - v, ghi - v
        else:
            a = (glo - v) / slope
            b = (ghi - v) / slope
            if slope < 0:
                a, b = b, a
        if a > lo:
            lo = a
        if hi is None or b < hi:
            hi = b
    if hi is not None and hi < lo:
        return None
    return DelayWindow(lo, hi)


def enabled_edges(g: Game, q: Configuration) -> list[tuple[Edge, DelayWindow]]:
    """Outgoing edges of q with a nonempty delay window, ordered by edge id."""
    out = []
    for e in g.edges_from(q.loc):
        w = delay_window(g, q, e.id)
        if w is not None:
            out.append((e, w))
    return out


def step(g: Game, q: Configuration, move: Move) -> Configuration:
    """Apply one move exactly; raises MoveNotEnabled when it is not legal.

    A stopped variable keeps its value and a unit-slope one gains the
    delay, with no multiplication (Game.slopes shares ZERO and ONE).  The
    delay's sign and each guard bound are tested on numerators and
    denominators (positive, so cross-multiplying keeps the order): on
    Python 3.11 each Fraction comparison dispatches through a
    numbers.Rational check.  The verdicts are those of `<` and `<=`."""
    e = g.edges.get(move.edge)
    if e is None or e.src != q.loc:
        raise MoveNotEnabled(f"edge {move.edge} is not available at {q.loc.render()}")
    t = move.delay
    if t.numerator < 0:
        raise MoveNotEnabled("negative delay")
    new = [v if s is ZERO else v + t if s is ONE else v + t * s
           for v, s in zip(q.val, g.slopes[q.loc])]
    for i, lo, hi in g.guards[e.id]:
        x = new[i]
        xn, xd = x.numerator, x.denominator
        if (lo.numerator * xd > xn * lo.denominator
                or xn * hi.denominator > hi.numerator * xd):
            raise MoveNotEnabled(f"delay {move.delay} outside the window of edge {move.edge}")
    for i, value in g.resets[e.id]:
        new[i] = value
    return Configuration(e.dst, tuple(new))


StrategyFn = Callable[[Run], Optional[Move]]


def play(g: Game, s1: StrategyFn, s2: StrategyFn, k: int) -> Run:
    """Play at most k joint moves from the initial configuration.

    The owner of the current location is consulted; a None answer halts the
    play (the objective layer decides what a halt means).  A returned move
    that is not enabled raises IllegalStrategyMove.
    """
    run = Run(initial_config(g))
    for _ in range(k):
        q = run.last()
        strategy = s1 if g.owner(q.loc) is Player.ONE else s2
        move = strategy(run)
        if move is None:
            break
        try:
            q2 = step(g, q, move)
        except MoveNotEnabled as exc:
            raise IllegalStrategyMove(str(exc)) from exc
        run = run.extended(move, q2)
    return run


def trace_of(g: Game, run: Run) -> tuple[str, ...]:
    """The observation sequence of a run, one entry per configuration."""
    return tuple(g.locations[q.loc].obs for q in run.configs())
