"""Seeded random game generation and mutation helpers for the test suite.

Games are built around a guided random walk: the walk fixes which edges fire
and at which variable values, and guards are then drawn to contain those
witness points.  Every generated game therefore admits at least one real
play from the initial configuration, which keeps sampled checks from being
vacuous.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from hybridgames.core import (
    Edge,
    Flavor,
    Game,
    Guard,
    Interval,
    LocId,
    Location,
    Player,
    Reset,
    validate_game,
)
from hybridgames.semantics import Move, Run, delay_window, play, step
from hybridgames.strategy import random_strategy

OBS_POOL = ("red", "green", "blue", "amber")
ACTION_POOL = ("a", "b", "c")

# Value pools per generator profile: slopes, reset constants, walk delays,
# and the slack added around witnessed guard points.
_PROFILES = {
    # anything goes, within reason
    "general": (
        (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
         Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)),
        (Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)),
        (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)),
        (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)),
    ),
    # integer-leaning constants so the timed stage keeps a small region graph
    "pipeline": (
        (Fraction(-1), Fraction(0), Fraction(1), Fraction(2)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1, 2), Fraction(1)),
        (Fraction(0), Fraction(1, 2)),
    ),
    # integer slopes up to 3, every other constant a multiple of 1/3, so
    # guard endpoints never need a denominator beyond 3
    "thirds": (
        (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2),
         Fraction(3)),
        (Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 3),
         Fraction(2, 3)),
        (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1),
         Fraction(4, 3), Fraction(2)),
        (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)),
    ),
}


def gen_isr_game(seed: int, max_locs: int = 5, max_vars: int = 3,
                 profile: str = "general") -> Game:
    """A random valid general-flavor game.

    The pipeline profile shrinks the ranges (two variables, integer-leaning
    constants) so the game's timed stage keeps a small region graph; the
    thirds profile keeps guard denominators at 3 or below.
    """
    rng = random.Random(0x9E3779B1 ^ (seed * 2654435761 % 2**31))
    pipeline = profile == "pipeline"
    if pipeline:
        max_locs = min(max_locs, 4)
        max_vars = min(max_vars, 2)
    slopes, resets, delays, slacks = _PROFILES[profile]

    n_locs = rng.randint(2, max_locs)
    n_vars = rng.randint(1, max_vars)
    gvars = ("x", "y", "z")[:n_vars]
    lids = [LocId(f"l{i}") for i in range(n_locs)]

    locations: dict[LocId, Location] = {}
    for i, lid in enumerate(lids):
        owner = Player.ONE if i == 0 else rng.choice((Player.ONE, Player.TWO))
        obs = rng.choice(OBS_POOL)
        flow = {var: rng.choice(slopes) for var in gvars}
        locations[lid] = Location(lid, owner, obs, flow)

    # Edge skeleton: every location gets at least one way out.
    skeleton: list[tuple[str, LocId, str, LocId]] = []
    counter = 0
    for lid in lids:
        for _ in range(rng.randint(1, 2 if pipeline else 3)):
            dst = rng.choice(lids)
            skeleton.append((f"e{counter}", lid, rng.choice(ACTION_POOL), dst))
            counter += 1

    reset_plan: dict[str, dict[str, Fraction]] = {}
    for eid, src, _, dst in skeleton:
        plan = {}
        for var in gvars:
            required = locations[src].flow[var] != locations[dst].flow[var]
            if required or rng.random() < 0.25:
                plan[var] = rng.choice(resets)
        reset_plan[eid] = plan

    # Guided walk: record the variable values at which each edge fires.
    out_edges: dict[LocId, list[tuple[str, LocId, str, LocId]]] = {l: [] for l in lids}
    for entry in skeleton:
        out_edges[entry[1]].append(entry)
    witness: dict[str, list[dict[str, Fraction]]] = {eid: [] for eid, *_ in skeleton}
    for _ in range(2 if pipeline else 3):
        loc = lids[0]
        val = {var: Fraction(0) for var in gvars}
        for _ in range(min(12, 2 * len(skeleton))):
            options = sorted(out_edges[loc], key=lambda s: (len(witness[s[0]]), s[0]))
            eid, _, _, dst = options[0] if rng.random() < 0.7 else rng.choice(options)
            t = rng.choice(delays)
            flow = locations[loc].flow
            point = {var: val[var] + t * flow[var] for var in gvars}
            witness[eid].append(point)
            val = dict(point)
            val.update(reset_plan[eid])
            loc = dst

    edges: dict[str, Edge] = {}
    for eid, src, action, dst in skeleton:
        conjuncts = {}
        for var in gvars:
            points = [p[var] for p in witness[eid]]
            if points:
                lo = min(points) - rng.choice(slacks)
                hi = max(points) + rng.choice(slacks)
            else:
                lo = Fraction(rng.randint(-2, 2))
                hi = lo + rng.choice(slacks) + 1
            conjuncts[var] = Interval(lo, hi)
        edges[eid] = Edge(eid, src, action, Guard(conjuncts),
                          Reset(reset_plan[eid]), dst)

    g = Game(
        flavor=Flavor.ISR,
        vars=gvars,
        actions=frozenset(ACTION_POOL),
        obs=frozenset(OBS_POOL),
        locations=locations,
        edges=edges,
        init=lids[0],
    )
    problems = validate_game(g)
    if problems:
        raise AssertionError(f"generator produced an invalid game: {problems[0].render()}")
    return g


def gen_timed_game(seed: int, max_locs: int = 4, max_clocks: int = 2,
                   max_bound: int = 3, profile: str = "general") -> Game:
    """A random valid timed game with integer guard bounds.

    The branching profile gives every location its own observation and
    every player-two location edges to at least two different targets, so
    player two's choice decides what is observed next.
    """
    rng = random.Random(0x7F4A7C15 ^ (seed * 2246822519 % 2**31))
    branching = profile == "branching"
    n_locs = rng.randint(3 if branching else 2, max_locs)
    n_clocks = rng.randint(1, max_clocks)
    gvars = ("x", "y")[:n_clocks]
    lids = [LocId(f"l{i}") for i in range(n_locs)]

    locations = {}
    for i, lid in enumerate(lids):
        owner = Player.ONE if i == 0 else rng.choice((Player.ONE, Player.TWO))
        obs = OBS_POOL[i] if branching else rng.choice(OBS_POOL)
        locations[lid] = Location(lid, owner, obs,
                                  {var: Fraction(1) for var in gvars})

    edges = {}
    counter = 0
    for i, lid in enumerate(lids):
        spread = branching and locations[lid].owner is Player.TWO
        for k in range(rng.randint(2 if spread else 1, 3)):
            conjuncts = {}
            for var in gvars:
                if rng.random() < 0.7:
                    lo = rng.randint(0, max_bound)
                    hi = rng.randint(lo, max_bound)
                    conjuncts[var] = Interval(Fraction(lo), Fraction(hi))
            reset_vars = frozenset(v for v in gvars if rng.random() < 0.5)
            eid = f"t{counter}"
            counter += 1
            edges[eid] = Edge(eid, lid, rng.choice(ACTION_POOL),
                              Guard(conjuncts),
                              Reset({v: Fraction(0) for v in reset_vars}),
                              lids[(i + 1 + k) % n_locs] if spread
                              else rng.choice(lids), reset_set=reset_vars)

    g = Game(
        flavor=Flavor.TIMED,
        vars=gvars,
        actions=frozenset(ACTION_POOL),
        obs=frozenset(OBS_POOL),
        locations=locations,
        edges=edges,
        init=lids[0],
    )
    problems = validate_game(g)
    if problems:
        raise AssertionError(f"generator produced an invalid game: {problems[0].render()}")
    return g


def oracle_pool():
    """(seed, game, reach targets, safe observations) for the 50 timed games
    acceptance check 6 solves against the grid oracle, with the
    objectives drawn as that check draws them."""
    for i in range(50):
        g = gen_timed_game(500 + i)
        obs_list = sorted({l.obs for l in g.locations.values()})
        rng = random.Random(i)
        target = frozenset({rng.choice(obs_list)})
        safe = frozenset(obs_list) - {rng.choice(obs_list)}
        yield 500 + i, g, target, safe


def branching_pool(count: int = 40):
    """(game, reach targets, safe observations) for timed games of the
    branching profile: one target observation, and all but one observation
    safe."""
    for i in range(count):
        g = gen_timed_game(700 + i, profile="branching")
        rng = random.Random(i)
        obs_list = sorted({l.obs for l in g.locations.values()})
        yield (g, frozenset({rng.choice(obs_list)}),
               frozenset(obs_list) - {rng.choice(obs_list)})


def probe_runs(g: Game, seed: int, count: int = 4, depth: int = 6) -> list[Run]:
    """Short random plays used to find which parts of a game actually move."""
    runs = []
    for i in range(count):
        s1 = random_strategy(g, seed * 1000 + 2 * i)
        s2 = random_strategy(g, seed * 1000 + 2 * i + 1)
        runs.append(play(g, s1, s2, depth))
    return runs


def visited_components(runs: list[Run]) -> tuple[set, set]:
    """Edge ids fired and locations entered across the given runs."""
    edges = set()
    locs = set()
    for run in runs:
        for q in run.configs():
            locs.add(q.loc)
        for s in run.steps:
            edges.add(s.move.edge)
    return edges, locs


MUTATION_KINDS = ("guard-lo", "guard-hi", "reset-value", "flow-flip",
                  "dst-swap", "owner-flip", "obs-flip")


def _probe_delays(w) -> list[Fraction]:
    """The same deterministic delays a boundary sampler would try."""
    if w.hi is None:
        return [w.lo, w.lo + 1, w.lo + 2]
    if w.lo == w.hi:
        return [w.lo]
    return [w.lo, (w.lo + w.hi) / 2, w.hi]


def behavioral_delta(g1: Game, g2: Game, configs) -> str | None:
    """Where two same-shape games first disagree at one of the given
    configurations: ownership, a delay window, or a one-move successor.
    None means the probes cannot tell them apart, i.e. the difference
    (if any) is invisible from these configurations."""
    for q in configs:
        if g1.owner(q.loc) is not g2.owner(q.loc):
            return f"owner at {q.loc.render()}"
        if g1.locations[q.loc].obs != g2.locations[q.loc].obs:
            return f"observation at {q.loc.render()}"
        eids = sorted({e.id for e in g1.edges_from(q.loc)}
                      | {e.id for e in g2.edges_from(q.loc)})
        for eid in eids:
            w1 = delay_window(g1, q, eid)
            w2 = delay_window(g2, q, eid)
            if w1 != w2:
                return f"window of {eid} at {q.loc.render()}"
            if w1 is None:
                continue
            for t in _probe_delays(w1):
                if step(g1, q, Move(eid, t)) != step(g2, q, Move(eid, t)):
                    return f"successor of {eid} after {t}"
    return None


def mutate_game(g: Game, seed: int, visited_edges: set, visited_locs: set,
                ref_configs=None) -> tuple[str, Game]:
    """One seeded structural tamper, aimed at components the probe runs
    actually touched so the change has a chance to be behaviorally visible.

    When ref_configs (configurations of g) are given, candidate tampers
    that the probes cannot distinguish from g are discarded and redrawn:
    a guard endpoint pushed past a clamp, say, changes no reachable
    behavior and would be unfair to demand a checker catch."""
    rng = random.Random(0x85EBCA6B ^ (seed * 3266489917 % 2**31))
    edge_pool = sorted(visited_edges & set(g.edges)) or sorted(g.edges)
    loc_pool = sorted(visited_locs & set(g.locations),
                      key=lambda l: l.render()) or sorted(
                          g.locations, key=lambda l: l.render())

    for _ in range(60):
        candidate = _draw_mutation(g, rng, edge_pool, loc_pool)
        if candidate is None:
            continue
        if ref_configs is not None:
            name, bad = candidate
            if behavioral_delta(g, bad, ref_configs) is None:
                continue
        return candidate
    raise AssertionError("no applicable mutation found")


def _draw_mutation(g: Game, rng: random.Random, edge_pool: list,
                   loc_pool: list) -> tuple[str, Game] | None:
    kind = rng.choice(MUTATION_KINDS)
    if kind in ("guard-lo", "guard-hi"):
        eid = rng.choice(edge_pool)
        e = g.edges[eid]
        if not e.guard.conjuncts:
            return None
        var = rng.choice(sorted(e.guard.conjuncts))
        iv = e.guard.conjuncts[var]
        delta = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(1)))
        if kind == "guard-lo":
            new_iv = Interval(iv.lo - delta, iv.hi)
        else:
            new_iv = Interval(iv.lo, iv.hi + delta)
        conjuncts = dict(e.guard.conjuncts)
        conjuncts[var] = new_iv
        edges = dict(g.edges)
        edges[eid] = dataclasses.replace(e, guard=Guard(conjuncts))
        return f"{kind}:{eid}.{var}", dataclasses.replace(g, edges=edges)
    if kind == "reset-value":
        eid = rng.choice(edge_pool)
        e = g.edges[eid]
        if not e.reset.assignments:
            return None
        var = rng.choice(sorted(e.reset.assignments))
        delta = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(1)))
        assignments = dict(e.reset.assignments)
        assignments[var] = assignments[var] + delta
        edges = dict(g.edges)
        edges[eid] = dataclasses.replace(e, reset=Reset(assignments))
        return f"{kind}:{eid}.{var}", dataclasses.replace(g, edges=edges)
    if kind == "flow-flip":
        lid = rng.choice(loc_pool)
        loc = g.locations[lid]
        var = rng.choice(sorted(loc.flow))
        flow = dict(loc.flow)
        flow[var] = Fraction(1) if flow[var] == 0 else Fraction(0)
        locations = dict(g.locations)
        locations[lid] = dataclasses.replace(loc, flow=flow)
        return (f"{kind}:{lid.render()}.{var}",
                dataclasses.replace(g, locations=locations))
    if kind == "dst-swap":
        eid = rng.choice(edge_pool)
        e = g.edges[eid]
        others = [l for l in sorted(g.locations, key=lambda l: l.render())
                  if l != e.dst]
        if not others:
            return None
        edges = dict(g.edges)
        edges[eid] = dataclasses.replace(e, dst=rng.choice(others))
        return f"{kind}:{eid}", dataclasses.replace(g, edges=edges)
    if kind == "owner-flip":
        lid = rng.choice(loc_pool)
        loc = g.locations[lid]
        flipped = Player.TWO if loc.owner is Player.ONE else Player.ONE
        locations = dict(g.locations)
        locations[lid] = dataclasses.replace(loc, owner=flipped)
        return (f"{kind}:{lid.render()}",
                dataclasses.replace(g, locations=locations))
    if kind == "obs-flip":
        lid = rng.choice(loc_pool)
        loc = g.locations[lid]
        others = sorted(g.obs - {loc.obs})
        if not others:
            return None
        locations = dict(g.locations)
        locations[lid] = dataclasses.replace(loc, obs=rng.choice(others))
        return (f"{kind}:{lid.render()}",
                dataclasses.replace(g, locations=locations))
    return None
