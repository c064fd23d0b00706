"""The two hand-built games behind the shipped sample files: the worked
example, which README's quick start builds and `sample_games/patrol.json`
holds, and a small timed game, which `sample_games/dispatcher.json`
holds."""

from __future__ import annotations

from fractions import Fraction

from .core import (
    EMPTY_RESET,
    Edge,
    Flavor,
    Game,
    Guard,
    Interval,
    LocId,
    Location,
    Player,
    Reset,
)


def _iv(lo, hi) -> Interval:
    return Interval(Fraction(lo), Fraction(hi))


def worked_example() -> Game:
    """Four-location game with rising, falling, and frozen dynamics.

    Player one charges a level x at rate 2, hands it to player two whose
    location drains it, and wins by catching x exactly at 4 back in the
    charging location, whatever the opponent chose.  The goal location
    freezes x, which exercises pinned values and guard rewriting further
    down the chain.
    """
    l0, l1, l2, l3 = LocId("l0"), LocId("l1"), LocId("l2"), LocId("l3")
    locations = {
        l0: Location(l0, Player.ONE, "start", {"x": Fraction(2)}),
        l1: Location(l1, Player.TWO, "mid", {"x": Fraction(-1)}),
        l2: Location(l2, Player.ONE, "charge", {"x": Fraction(2)}),
        l3: Location(l3, Player.ONE, "goal", {"x": Fraction(0)}),
    }
    edges = {
        "e0": Edge("e0", l0, "go", Guard({"x": _iv(2, 4)}),
                   Reset({"x": Fraction(3)}), l1),
        "e1": Edge("e1", l1, "drop", Guard({"x": _iv(0, 2)}),
                   Reset({"x": Fraction(0)}), l2),
        "e2": Edge("e2", l1, "spill", Guard({"x": _iv(0, 1)}),
                   Reset({"x": Fraction(2)}), l2),
        "e3": Edge("e3", l2, "win", Guard({"x": _iv(4, 4)}),
                   Reset({"x": Fraction(1)}), l3),
        "e4": Edge("e4", l3, "idle", Guard({"x": _iv(0, 5)}),
                   EMPTY_RESET, l3),
    }
    return Game(
        flavor=Flavor.ISR,
        vars=("x",),
        actions=frozenset({"go", "drop", "spill", "win", "idle"}),
        obs=frozenset({"start", "mid", "charge", "goal"}),
        locations=locations,
        edges=edges,
        init=l0,
    )


def small_timed() -> Game:
    """Two clocks, three locations; player two can stall in the middle
    location but player one still forces the goal."""
    a, b, c = LocId("a"), LocId("b"), LocId("c")
    locations = {
        a: Location(a, Player.ONE, "idle", {"x": Fraction(1), "y": Fraction(1)}),
        b: Location(b, Player.TWO, "busy", {"x": Fraction(1), "y": Fraction(1)}),
        c: Location(c, Player.ONE, "done", {"x": Fraction(1), "y": Fraction(1)}),
    }
    edges = {
        "t0": Edge("t0", a, "start", Guard({"x": _iv(0, 2)}),
                   Reset({"x": Fraction(0)}), b,
                   reset_set=frozenset({"x"})),
        "t1": Edge("t1", b, "loop", Guard({"x": _iv(1, 1), "y": _iv(0, 2)}),
                   Reset({"x": Fraction(0)}), b,
                   reset_set=frozenset({"x"})),
        "t2": Edge("t2", b, "finish", Guard({"y": _iv(2, 3)}),
                   Reset({"x": Fraction(0), "y": Fraction(0)}), c,
                   reset_set=frozenset({"x", "y"})),
        "t3": Edge("t3", c, "rest", Guard({"x": _iv(0, 4)}),
                   Reset({"x": Fraction(0)}), c,
                   reset_set=frozenset({"x"})),
    }
    return Game(
        flavor=Flavor.TIMED,
        vars=("x", "y"),
        actions=frozenset({"start", "loop", "finish", "rest"}),
        obs=frozenset({"idle", "busy", "done"}),
        locations=locations,
        edges=edges,
        init=a,
    )
