"""Operational semantics shared by every game flavor.

A play is a sequence of joint moves: the owner of the current location picks
an outgoing edge and a rational delay, the variables advance along their
slopes for that long, the guard is checked at the end of the delay, and the
reset is applied on the jump.  There are no standalone delay transitions.
`step` is the one legality test; it hands the move's edge and the numerator
and denominator of its delay to `advance`, which the witness checker's memo
and the grid oracle call straight on the int pairs they hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
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


@dataclass(frozen=True)
class Move:
    edge: str
    delay: Fraction


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

    def extended(self, move: Move, config: Configuration) -> "Run":
        return Run(self.start, self.steps + (Step(move, config),))

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class DelayWindow:
    """The closed set of delays enabling one edge from one configuration.

    `hi` is None for an unbounded ray [lo, oo).  Windows are never open and
    never empty; an empty delay set is represented by None at the call site.
    The sampled delays, `probes` and `draw`, are each given as the
    (numerator, denominator) pair of ints of the delay in lowest terms with
    a positive denominator, so two equal delays give equal pairs and the
    witness checker keys and compares them as tuples of ints; a caller
    that needs the delay itself builds `Fraction(n, d)`.
    """

    lo: Fraction
    hi: Optional[Fraction]

    # cached_property writes __dict__ directly, past the frozen __setattr__.
    @cached_property
    def probes(self) -> tuple[tuple[int, int], ...]:
        """The window's fixed sample points: lo, the midpoint and hi (lo
        alone for a point), or lo, lo+1 and lo+2 on an unbounded ray."""
        lo, hi = self.lo, self.hi
        ln, ld = lo.numerator, lo.denominator
        if hi is None:
            return ((ln, ld), (ln + ld, ld), (ln + 2 * ld, ld))
        hn, hd = hi.numerator, hi.denominator
        if hn == ln and hd == ld:
            return ((ln, ld),)
        return ((ln, ld), _lowest(ln * hd + hn * ld, 2 * ld * hd), (hn, hd))

    def draw(self, rng: random.Random, max_den: int, ray: int) -> tuple[int, int]:
        """lo plus a random fraction, of denominator at most max_den, of the
        window's length (of `ray` when the window is unbounded).  A point
        window returns lo without touching rng.

        The value is lo + Fraction(k, den) * span, with the same two
        randint calls, but it is computed on the numerators and
        denominators: on Python 3.11 each Fraction operator dispatches
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
            return ln, ld
        den = rng.randint(1, max_den)
        k = rng.randint(0, den)
        return _lowest(ln * den * sd + k * sn * ld, ld * den * sd)


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, for a positive d."""
    g = gcd(n, d)
    return n // g, d // g


def initial_config(g: Game) -> Configuration:
    """The start of every play: the initial location with the zero vector."""
    return Configuration(g.init, (ZERO,) * len(g.vars))


def delay_window(g: Game, q: Configuration, edge_id: str) -> Optional[DelayWindow]:
    """Solve {t >= 0 | forall constrained x: v(x) + t*slope(x) in guard(x)}.

    Returns None when the set is empty.  The result is always a closed
    interval or a closed unbounded ray intersected with t >= 0.  A stopped
    variable (Game.slopes shares ZERO) is only tested against its guard.
    On Python 3.11 each Fraction operator dispatches through a
    numbers.Rational check, so the window is solved on numerators and
    denominators: each end (bound - v) / slope is an int pair with a
    positive denominator, ends and guard bounds are compared by
    cross-multiplying, and only the final lo and hi are built, through the
    public two-int constructor.  lo is the shared ZERO when no end beats 0.
    """
    e = g.edges[edge_id]
    if e.src != q.loc:
        raise GameError(f"edge {edge_id} does not leave {q.loc.render()}")
    slopes = g.slopes[q.loc]
    lon, lod = 0, 1
    hin: Optional[int] = None
    hid = 1
    for i, glo, ghi in g.guards[edge_id]:
        v = q.val[i]
        slope = slopes[i]
        vn, vd = v.numerator, v.denominator
        ln, ld = glo.numerator, glo.denominator
        hn, hd = ghi.numerator, ghi.denominator
        if slope is ZERO:
            if ln * vd > vn * ld or vn * hd > hn * vd:
                return None
            continue
        # v + t*slope in [glo, ghi] for t in [a, b]; both ends are taken
        # over the positive denominator vd*|sn|, which on a negative slope
        # also swaps them.
        sn, sd = slope.numerator, slope.denominator
        an, ad = (ln * vd - vn * ld) * sd, ld * vd * sn
        bn, bd = (hn * vd - vn * hd) * sd, hd * vd * sn
        if sn < 0:
            an, ad, bn, bd = -bn, -bd, -an, -ad
        if an * lod > lon * ad:
            lon, lod = an, ad
        if hin is None or bn * hid < hin * bd:
            hin, hid = bn, bd
    if hin is not None and hin * lod < lon * hid:
        return None
    return DelayWindow(Fraction(lon, lod) if lon else ZERO,
                       None if hin is None else Fraction(hin, hid))


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

    The one legality test of the package: `advance` on the move's edge and
    the numerator and denominator of its delay."""
    t = move.delay
    return advance(g, q, move.edge, t.numerator, t.denominator)


def advance(g: Game, q: Configuration, edge: str, n: int, d: int) -> Configuration:
    """`step` on the move along `edge` with delay n/d, for a positive d
    (n/d need not be in lowest terms); a MoveNotEnabled text names the
    delay as Fraction(n, d).  The witness checker's memo and the grid
    oracle hold delays as such int pairs and call it without building a
    Move or a delay.

    On Python 3.11 each Fraction operator dispatches through a
    numbers.Rational check, so the step works on numerators and
    denominators.  A zero delay or a stopped variable keeps the value, and
    every other advance v + t*slope is one Fraction built through the public
    two-int constructor, which normalises with one gcd; a unit slope
    (Game.slopes shares ZERO and ONE) skips the slope's factors.  The
    delay's sign and each guard bound are tested by cross-multiplying
    (denominators are positive, so the order is kept).  The values are the
    operators' and the verdicts those of `<` and `<=`."""
    e = g.edges.get(edge)
    if e is None or e.src != q.loc:
        raise MoveNotEnabled(f"edge {edge} is not available at {q.loc.render()}")
    if n < 0:
        raise MoveNotEnabled("negative delay")
    if n == 0:
        new = list(q.val)
    else:
        new = []
        for v, s in zip(q.val, g.slopes[q.loc]):
            if s is ZERO:
                new.append(v)
            elif s is ONE:
                vd = v.denominator
                new.append(Fraction(v.numerator * d + n * vd, vd * d))
            else:
                vd, sd = v.denominator, s.denominator
                new.append(Fraction(v.numerator * d * sd + n * s.numerator * vd,
                                    vd * d * sd))
    for i, lo, hi in g.guards[e.id]:
        x = new[i]
        xn, xd = x.numerator, x.denominator
        if (lo.numerator * xd > xn * lo.denominator
                or xn * hi.denominator > hi.numerator * xd):
            raise MoveNotEnabled(f"delay {Fraction(n, d)} outside the window of edge {edge}")
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
