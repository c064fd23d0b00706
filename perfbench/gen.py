"""Seeded game families for the benchmark, kept apart from the test helpers
so that editing a test generator can never shift a workload.

Each family maps a case index to one game and, where the workload needs
them, its objectives.  Committed expected answers are keyed by that index,
so a change here must be followed by ``python3 perfbench/regen.py``.

- ``thirds_game`` and ``pipeline_case`` port the "thirds" and "pipeline"
  profiles of the test suite's guided-walk generator: every game admits at
  least one real play from its initial configuration.
- ``ladder_case`` builds dense timed games: a chain of locations with one
  forward edge each plus back edges, so region graphs are large and
  attractor ranks are deep.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hybridgames import (
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

OBS_POOL = ("red", "green", "blue", "amber")
ACTION_POOL = ("a", "b", "c")

# Per profile: slopes, reset constants, walk delays, and the slack added
# around witnessed guard points.
_PROFILES = {
    # integer-leaning constants so the timed stage keeps a small region graph
    "pipeline": (
        (Fraction(-1), Fraction(0), Fraction(1), Fraction(2)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1, 2), Fraction(1)),
        (Fraction(0), Fraction(1, 2)),
    ),
    # integer slopes up to 3, every other constant a multiple of 1/3
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
_SALTS = {"pipeline": 0x5BD1E995, "thirds": 0x9E3779B1}


def _checked(g: Game) -> Game:
    problems = validate_game(g)
    if problems:
        raise AssertionError(f"generator produced an invalid game: {problems[0].render()}")
    return g


def _walk_game(index: int, profile: str) -> Game:
    """A valid general-flavor game whose guards contain the points of a few
    guided random walks, so sampled plays are never vacuous."""
    rng = random.Random(_SALTS[profile] ^ (index * 2654435761 % 2**31))
    pipeline = profile == "pipeline"
    max_locs, max_vars = (4, 2) if pipeline else (5, 3)
    slopes, resets, delays, slacks = _PROFILES[profile]

    n_locs = rng.randint(2, max_locs)
    gvars = ("x", "y", "z")[:rng.randint(1, max_vars)]
    lids = [LocId(f"l{i}") for i in range(n_locs)]

    locations: dict[LocId, Location] = {}
    for i, lid in enumerate(lids):
        owner = Player.ONE if i == 0 else rng.choice((Player.ONE, Player.TWO))
        flow = {var: rng.choice(slopes) for var in gvars}
        locations[lid] = Location(lid, owner, rng.choice(OBS_POOL), flow)

    # Edge skeleton: every location gets at least one way out.
    skeleton: list[tuple[str, LocId, str, LocId]] = []
    for lid in lids:
        for _ in range(rng.randint(1, 2 if pipeline else 3)):
            skeleton.append((f"e{len(skeleton)}", lid, rng.choice(ACTION_POOL),
                             rng.choice(lids)))

    reset_plan: dict[str, dict[str, Fraction]] = {}
    for eid, src, _, dst in skeleton:
        plan = {}
        for var in gvars:
            required = locations[src].flow[var] != locations[dst].flow[var]
            if required or rng.random() < 0.25:
                plan[var] = rng.choice(resets)
        reset_plan[eid] = plan

    # Guided walks: record the variable values at which each edge fires.
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

    return _checked(Game(Flavor.ISR, gvars, frozenset(ACTION_POOL),
                         frozenset(OBS_POOL), locations, edges, lids[0]))


def _objectives(g: Game, rng: random.Random) -> tuple[str, str]:
    """One reach and one safety objective in the CLI's text form.  Neither
    names the initial observation as the thing to reach or avoid, so no
    verdict is decided before the first move."""
    present = sorted({loc.obs for loc in g.locations.values()})
    init_obs = g.locations[g.init].obs
    others = [o for o in present if o != init_obs] or present
    target = rng.choice(others)
    avoid = rng.choice(others)
    safe = [o for o in present if o != avoid] or [init_obs]
    return f"reach:{target}", f"safe:{','.join(safe)}"


def thirds_game(index: int) -> Game:
    """A source game of the "thirds" profile: guard denominators up to 3."""
    return _walk_game(index, "thirds")


def pipeline_case(index: int) -> tuple[Game, str, str]:
    """A "pipeline" source game with its reach and safety objectives."""
    g = _walk_game(index, "pipeline")
    return (g, *_objectives(g, random.Random(0xC2B2AE35 ^ index)))


def ladder_case(index: int) -> tuple[Game, str, str]:
    """A dense timed game with its reach and safety objectives.

    Four clocks, bound 2 or 3, 11 to 13 locations in a line.  Each forward
    edge tests a clock the previous forward edge reset, so the line never
    deadlocks on a clock that ran past its bound, and resets two clocks, so
    clocks drift apart and fractional orders multiply.  Back edges jump up
    to four rungs down, testing a clock that was not just reset; whoever
    owns the location can use them, which makes reaching the top rung a
    real game with deep attractor ranks.
    """
    rng = random.Random(0x27D4EB2F ^ (index * 2246822519 % 2**31))
    bound = rng.choice((2, 3))
    n_locs = rng.randint(11, 13)
    gvars = ("w", "x", "y", "z")
    lids = [LocId(f"l{i}") for i in range(n_locs)]

    locations = {}
    for i, lid in enumerate(lids):
        owner = Player.ONE if i == 0 else rng.choice((Player.ONE, Player.TWO))
        obs = "goal" if i == n_locs - 1 else rng.choice(OBS_POOL)
        locations[lid] = Location(lid, owner, obs, {v: Fraction(1) for v in gvars})

    edges: dict[str, Edge] = {}

    def add(src: LocId, dst: LocId, conjuncts: dict, resets) -> None:
        eid = f"t{len(edges):02d}"
        rset = frozenset(resets)
        edges[eid] = Edge(eid, src, ACTION_POOL[len(edges) % 3], Guard(conjuncts),
                          Reset({v: Fraction(0) for v in rset}), dst, reset_set=rset)

    # reset_on_entry[i]: the clocks the forward edge into rung i resets
    reset_on_entry = [tuple(rng.sample(gvars, 2)) for _ in range(n_locs)]
    reset_on_entry[0] = gvars
    for i in range(n_locs - 1):
        fresh = reset_on_entry[i]
        for _ in range(rng.randint(1, 2) if i > 0 else 0):
            j = rng.randint(max(0, i - 4), i - 1)
            var = rng.choice([v for v in gvars if v not in fresh])
            lo = rng.randint(0, bound - 1)
            add(lids[i], lids[j],
                {var: Interval(Fraction(lo), Fraction(rng.randint(lo + 1, bound)))},
                reset_on_entry[j][:1])
        add(lids[i], lids[i + 1],
            {fresh[0]: Interval(Fraction(rng.randint(0, bound)), Fraction(bound))},
            reset_on_entry[i + 1])
    add(lids[-1], lids[0], {}, gvars)

    g = _checked(Game(Flavor.TIMED, gvars, frozenset(ACTION_POOL),
                      frozenset(OBS_POOL) | {"goal"}, locations, edges, lids[0]))
    rng_obj = random.Random(0x165667B1 ^ index)
    present = sorted({loc.obs for loc in g.locations.values()} - {"goal"})
    avoid = rng_obj.choice([o for o in present if o != g.locations[g.init].obs] or present)
    safe = sorted({loc.obs for loc in g.locations.values()} - {avoid})
    return g, "reach:goal", f"safe:{','.join(safe)}"
