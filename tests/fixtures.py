"""Validation fixtures: twenty games that must pass and twenty that must
each be rejected with a specific violation kind, among them
`broken_initialization`; the node-keyed form of a region strategy, for the
tests that compare one against a reference computed on nodes;
`time_closure`, the reference the region build's time successors are
checked against; `first_move_strategy`, a deterministic opponent;
`in_window`, a delay window's membership test; a sampler's moves, for
the tests that replay `check_local_bisim` without its memo;
`probes_ops`, `draw_ops` and `delays_ops`, the sampler written on
`Fraction` values, the oracle its integer pairs are checked against;
`delay_window_ops`, the delay window solved with `Fraction` comparison
operators, the oracle of the int-pair solve; and
`region_of_ops`, `node_of_ops` and `concretize_ops`, the region reads
written on `Fraction` operators, the oracle the solver's integer reads are
checked against."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from typing import Optional

import hybridgames.chain as chain_module
from hybridgames.chain import LOWERINGS, build_chain
from hybridgames.core import (
    EMPTY_RESET,
    Edge,
    Flavor,
    Game,
    GameError,
    Guard,
    Interval,
    InvalidGame,
    LocId,
    Location,
    NoRealization,
    Player,
    Reset,
    ViolationKind,
    ZERO,
)
from hybridgames.samples import small_timed, worked_example
from hybridgames.semantics import (
    Configuration,
    DelayWindow,
    Move,
    Run,
    StrategyFn,
    enabled_edges,
)
from hybridgames.solver import Region, RegionGame, RegionMove, time_successor

from gamegen import gen_isr_game

# Each lowering stage's relation name by the flavor it lowers to, read from
# the one table that pairs a construction with its relation.
STAGE_NAME = {flavor: name for flavor, _, name in LOWERINGS}


def on_nodes(rg, chosen: dict[int, int]) -> dict:
    """`chosen`, move ids keyed by node id as a solve records them, as
    moves keyed by node in the same order."""
    return {rg.nodes[k]: rg.move(m) for k, m in chosen.items()}


def time_closure(r: Region, bounds: tuple[int, ...]) -> list[Region]:
    """All regions reachable by letting time pass, the region itself first.

    Time successors only move forward and end at the fully-above region,
    which is its own successor."""
    closure = [r]
    while (nxt := time_successor(closure[-1], bounds)) != closure[-1]:
        closure.append(nxt)
    return closure


def region_of_ops(val: tuple[Fraction, ...], bounds: tuple[int, ...]) -> Region:
    """The region of an exact valuation (clocks must be nonnegative)."""
    ints: list[Optional[int]] = []
    frac_vals: list[Optional[Fraction]] = []
    for v, m in zip(val, bounds):
        if v < 0:
            raise InvalidGame(f"negative clock value {v}")
        if v > m:
            ints.append(None)
            frac_vals.append(None)
        else:
            ip = v.numerator // v.denominator
            ints.append(ip)
            frac_vals.append(v - ip)
    positive = sorted({f for f in frac_vals if f is not None and f != 0})
    rank = {f: j + 1 for j, f in enumerate(positive)}
    fracs = []
    for f in frac_vals:
        if f is None:
            fracs.append(-1)
        elif f == 0:
            fracs.append(0)
        else:
            fracs.append(rank[f])
    return Region(tuple(ints), tuple(fracs))


def node_of_ops(rg: RegionGame, q: Configuration) -> Optional[int]:
    """The id of an unscaled timed configuration's node, or None when
    its (location, region) is not a node of the graph."""
    scaled_val = tuple(v * rg.scale for v in q.val)
    return rg.node_ids.get((q.loc, region_of_ops(scaled_val, rg.bounds)))


def concretize_ops(rg: RegionGame, q: Configuration, mv: RegionMove) -> Move:
    """An exact delay (in unscaled units) realizing a symbolic move from
    an unscaled configuration.

    Candidate delays are the distances to every relevant integer plus the
    midpoints between consecutive candidates, scanned in increasing
    order; the first one landing in the requested region wins.  Failure
    indicates the move does not belong to this configuration's region and
    is reported as NoRealization.
    """
    w = tuple(v * rg.scale for v in q.val)
    candidates = {ZERO}
    for i, v in enumerate(w):
        for k in range(rg.bounds[i] + 2):
            t = Fraction(k) - v
            if t >= 0:
                candidates.add(t)
    ordered = sorted(candidates)
    probes: list[Fraction] = []
    for a, b in zip(ordered, ordered[1:]):
        probes.append(a)
        probes.append((a + b) / 2)
    probes.append(ordered[-1])
    for t in probes:
        landed = tuple(x + t for x in w)
        if region_of_ops(landed, rg.bounds) == mv.region:
            return Move(mv.edge, t / rg.scale)
    raise NoRealization(
        f"no delay from {q.loc.render()} realizes the requested region")


def first_move_strategy(g: Game) -> StrategyFn:
    """Always the earliest delay of the lowest-numbered enabled edge; handy
    as a deterministic opponent."""

    def strat(run: Run) -> Optional[Move]:
        enabled = enabled_edges(g, run.last())
        if not enabled:
            return None
        e, w = enabled[0]
        return Move(e.id, w.lo)

    return strat


def in_window(w: DelayWindow, t: Fraction) -> bool:
    """Whether the delay `t` lies in the closed window `w`."""
    return w.lo <= t and (w.hi is None or t <= w.hi)


def broken_initialization() -> Game:
    """The worked example with e0's reset removed: the flow of x changes
    across e0, so validation must flag the missing assignment."""
    return _replace_edge(worked_example(), "e0", reset=EMPTY_RESET)


def moves_in(sampler, windows) -> list[Move]:
    """The sampled moves of already computed enabled edges, every edge's
    delays drawn through `sampler.delays` before any move is returned, the
    rng order of `check_local_bisim`."""
    return [Move(e.id, Fraction(n, d)) for e, w in windows
            for n, d in sampler.delays(w)]


def probes_ops(w: DelayWindow) -> tuple[Fraction, ...]:
    """The window's fixed sample points: lo, the midpoint and hi (lo
    alone for a point), or lo, lo+1 and lo+2 on an unbounded ray.

    Each sum is one Fraction built from the numerators and denominators
    through the public two-int constructor, like `draw`'s delay."""
    lo, hi = w.lo, w.hi
    ln, ld = lo.numerator, lo.denominator
    if hi is None:
        return (lo, Fraction(ln + ld, ld), Fraction(ln + 2 * ld, ld))
    if hi == lo:
        return (lo,)
    hd = hi.denominator
    return (lo, Fraction(ln * hd + hi.numerator * ld, 2 * ld * hd), hi)


def draw_ops(w: DelayWindow, rng: random.Random, max_den: int, ray: int) -> Fraction:
    """lo plus a random fraction, of denominator at most max_den, of the
    window's length (of `ray` when the window is unbounded).  A point
    window returns lo without touching rng.

    The result is lo + Fraction(k, den) * span, with the same two
    randint calls, but it is built as one Fraction from the numerators
    and denominators."""
    lo, hi = w.lo, w.hi
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


def delays_ops(rng: random.Random, extra: int, w: DelayWindow) -> list[Fraction]:
    """`MoveSampler.delays` on `Fraction` values: the probes, then each of
    `extra` draws unless it equals an earlier delay."""
    out = list(probes_ops(w))
    for _ in range(extra):
        t = draw_ops(w, rng, max_den=8, ray=2)
        if t not in out:
            out.append(t)
    return out


def delay_window_ops(g: Game, q: Configuration,
                     edge_id: str) -> Optional[DelayWindow]:
    """Solve {t >= 0 | forall constrained x: v(x) + t*slope(x) in guard(x)}.

    Returns None when the set is empty.  The result is always a closed
    interval or a closed unbounded ray intersected with t >= 0.  A stopped
    variable (Game.slopes shares ZERO) is only tested against its guard.
    Each end (bound - v) / slope is one Fraction built from the numerators
    and denominators through the public two-int constructor, which
    normalises with one gcd: on Python 3.11 each Fraction operator
    dispatches through a numbers.Rational check.
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
        vn, vd = v.numerator, v.denominator
        sn, sd = slope.numerator, slope.denominator
        ld, hd = glo.denominator, ghi.denominator
        a = Fraction((glo.numerator * vd - vn * ld) * sd, ld * vd * sn)
        b = Fraction((ghi.numerator * vd - vn * hd) * sd, hd * vd * sn)
        if sn < 0:
            a, b = b, a
        if a > lo:
            lo = a
        if hi is None or b < hi:
            hi = b
    if hi is not None and hi < lo:
        return None
    return DelayWindow(lo, hi)


def replace_lowering(monkeypatch, real, fake) -> None:
    """Build the chain with `fake` where `chain.LOWERINGS` has `real`."""
    monkeypatch.setattr(chain_module, "LOWERINGS", tuple(
        (flavor, fake if construct is real else construct, name)
        for flavor, construct, name in chain_module.LOWERINGS))


def _replace_edge(g: Game, eid: str, **changes) -> Game:
    edges = dict(g.edges)
    edges[eid] = dataclasses.replace(g.edges[eid], **changes)
    return dataclasses.replace(g, edges=edges)


def _replace_location(g: Game, lid: LocId, **changes) -> Game:
    locations = dict(g.locations)
    locations[lid] = dataclasses.replace(g.locations[lid], **changes)
    return dataclasses.replace(g, locations=locations)


def _relabel_location(g: Game, old: LocId, new: LocId) -> Game:
    locations = {}
    for lid, loc in g.locations.items():
        if lid == old:
            locations[new] = dataclasses.replace(loc, id=new)
        else:
            locations[lid] = loc
    edges = {}
    for eid, e in g.edges.items():
        src = new if e.src == old else e.src
        dst = new if e.dst == old else e.dst
        edges[eid] = dataclasses.replace(e, src=src, dst=dst)
    init = new if g.init == old else g.init
    return dataclasses.replace(g, locations=locations, edges=edges, init=init)


def valid_fixtures() -> list[tuple[str, Game]]:
    chain = build_chain(worked_example())
    out = [
        ("worked-example", worked_example()),
        ("small-timed", small_timed()),
        ("worked-stopwatch-stage", chain.stopwatch),
        ("worked-annotated-stage", chain.annotated),
        ("worked-updatable-stage", chain.updatable),
        ("worked-timed-stage", chain.timed),
    ]
    for seed in range(100, 114):
        out.append((f"random-{seed}", gen_isr_game(seed)))
    return out


def invalid_fixtures() -> list[tuple[str, Game, ViolationKind]]:
    base = worked_example()
    timed = small_timed()
    chain = build_chain(base)
    stopwatch = chain.stopwatch
    annotated = chain.annotated

    out: list[tuple[str, Game, ViolationKind]] = []

    out.append(("missing-required-reset", broken_initialization(),
                ViolationKind.INITIALIZATION_BROKEN))
    out.append(("partial-guard", _replace_edge(base, "e1", guard=Guard({})),
                ViolationKind.GUARD_NOT_TOTAL))
    out.append(("inverted-guard",
                _replace_edge(base, "e0",
                              guard=Guard({"x": Interval(Fraction(4), Fraction(2))})),
                ViolationKind.GUARD_NOT_COMPACT))
    out.append(("dangling-init", dataclasses.replace(base, init=LocId("nowhere")),
                ViolationKind.INIT_MISSING))
    out.append(("opponent-owned-init",
                _replace_location(base, LocId("l0"), owner=Player.TWO),
                ViolationKind.INIT_NOT_PLAYER_ONE))
    out.append(("dangling-edge-target",
                _replace_edge(base, "e0", dst=LocId("ghost")),
                ViolationKind.UNKNOWN_LOCATION))
    out.append(("guard-on-undeclared-variable",
                _replace_edge(base, "e0",
                              guard=Guard({"x": Interval(Fraction(2), Fraction(4)),
                                           "q": Interval(Fraction(0), Fraction(1))})),
                ViolationKind.UNKNOWN_VARIABLE))
    out.append(("reset-of-undeclared-variable",
                _replace_edge(base, "e0",
                              reset=Reset({"x": Fraction(3), "q": Fraction(1)})),
                ViolationKind.UNKNOWN_VARIABLE))
    out.append(("flow-of-undeclared-variable",
                _replace_location(base, LocId("l0"),
                                  flow={"x": Fraction(2), "q": Fraction(1)}),
                ViolationKind.UNKNOWN_VARIABLE))
    out.append(("undeclared-action",
                _replace_edge(base, "e0", action="zap"),
                ViolationKind.UNKNOWN_ACTION))
    out.append(("undeclared-observation",
                _replace_location(base, LocId("l0"), obs="limbo"),
                ViolationKind.UNKNOWN_OBSERVATION))
    out.append(("partial-flow",
                _replace_location(base, LocId("l1"), flow={}),
                ViolationKind.FLOW_NOT_TOTAL))
    out.append(("stopwatch-with-steep-slope",
                _replace_location(stopwatch, LocId("l0"), flow={"x": Fraction(2)}),
                ViolationKind.FLOW_OUT_OF_FLAVOR))
    out.append(("timed-with-stopped-clock",
                _replace_location(timed, LocId("c"),
                                  flow={"x": Fraction(0), "y": Fraction(1)}),
                ViolationKind.FLOW_OUT_OF_FLAVOR))
    out.append(("timed-reset-off-zero",
                _replace_edge(timed, "t0", reset=Reset({"x": Fraction(1)})),
                ViolationKind.RESET_NOT_ZERO))
    out.append(("reset-set-disagrees",
                _replace_edge(timed, "t0", reset_set=frozenset()),
                ViolationKind.RESET_SET_MISMATCH))
    out.append(("reset-set-absent",
                _replace_edge(timed, "t0", reset_set=None),
                ViolationKind.RESET_SET_MISMATCH))
    out.append(("annotations-absent",
                dataclasses.replace(stopwatch, flavor=Flavor.ANNOTATED_STOPWATCH),
                ViolationKind.ANNOTATION_MISSING))

    pinned_l3 = next(l for l in annotated.locations
                     if l.base == "l3")
    out.append(("pin-on-running-variable",
                _replace_location(annotated, pinned_l3, flow={"x": Fraction(1)}),
                ViolationKind.ANNOTATION_MISMATCH))

    from hybridgames.core import Annotation
    unpinned = pinned_l3.parent().annotated(Annotation.of("f", {"x": None}))
    out.append(("stopped-variable-unpinned",
                _relabel_location(annotated, pinned_l3, unpinned),
                ViolationKind.ANNOTATION_MISMATCH))
    return out
