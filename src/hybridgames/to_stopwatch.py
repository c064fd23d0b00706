"""Lowering step 1: arbitrary constant slopes down to slopes 0 and 1.

Every nonzero slope is normalized to 1 by measuring the variable in units of
its local slope: guards on an edge are divided by the slope at the source
location, reset values by the slope at the target location, and a
configuration corresponds across the step by dividing each value by its local
slope.  Zero slopes, and the values of variables stopped at a location, pass
through untouched.  Dividing an interval by a negative slope swaps its
endpoints, so guards stay well ordered.
"""

from __future__ import annotations

from .core import (
    ONE,
    ZERO,
    Edge,
    Flavor,
    Game,
    Guard,
    Location,
    Reset,
)


def to_stopwatch(g: Game) -> Game:
    """Normalize an ISR game to a stopwatch game over the same structure.

    Locations, edge ids, actions and observations are unchanged; only slopes,
    guard bounds and reset values are rescaled.  Each output edge records the
    input edge it came from.
    """
    locations = {}
    for lid, loc in g.locations.items():
        flow = {var: (ZERO if slope == 0 else ONE) for var, slope in loc.flow.items()}
        locations[lid] = Location(lid, loc.owner, loc.obs, flow)

    edges = {}
    for eid, e in g.edges.items():
        src_flow = g.locations[e.src].flow
        dst_flow = g.locations[e.dst].flow
        conjuncts = {}
        for var, iv in e.guard.conjuncts.items():
            slope = src_flow[var]
            conjuncts[var] = iv if slope == 0 else iv.divided_by(slope)
        assignments = {}
        for var, val in e.reset.assignments.items():
            slope = dst_flow[var]
            assignments[var] = val if slope == 0 else val / slope
        edges[eid] = Edge(eid, e.src, e.action, Guard(conjuncts),
                          Reset(assignments), e.dst, provenance=eid)

    return Game(Flavor.STOPWATCH, g.vars, g.actions, g.obs, locations, edges, g.init)
