"""Lowering step 2: stopwatch games down to updatable timed games.

A stopwatch variable that is stopped somewhere holds a pinned value there,
and that value is determined by the resets seen on the way in.  The step
first annotates every reachable location with the map of pinned values
(the reset annotation), then sets every slope to 1 and repairs the semantics
with resets: entering a location where a variable is pinned forces a reset to
the pinned value, so the variable's drift while "running" is erased exactly
when it matters.

Guards over variables pinned at the source cannot be kept verbatim (the
drifting clock would be tested instead of the pinned value), so they are
evaluated statically at the source annotation: a satisfied conjunct is
dropped, an unsatisfiable one removes the edge.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .core import (
    FROZEN_KIND,
    ONE,
    ZERO,
    Annotation,
    Edge,
    Flavor,
    Game,
    Guard,
    InvalidGame,
    LocId,
    Location,
    Reset,
)
from .bisim import BisimWitness, stage_witness


def annotate_resets(g_w: Game) -> Game:
    """Attach reset annotations to a stopwatch game: one location per
    (location, pin map) pair reachable from the initial location, where each
    variable stopped at a location is pinned to the value it was last set
    to."""
    return unfold(g_w, Flavor.ANNOTATED_STOPWATCH, FROZEN_KIND,
                  lambda lid, i: g_w.slopes[lid][i] == 0)


def unfold(g: Game, flavor: Flavor, kind: str,
           kept: Callable[[LocId, int], bool],
           rewrite: Optional[Callable[[Edge, Annotation], Edge]] = None) -> Game:
    """The unfolding of g over its (location, annotation) pairs reachable
    from the initial location, in breadth-first order.

    An annotation of `kind` records, for each variable i with kept(l, i) at
    its location l, the value the variable was last set to: 0 at the start,
    then the value of each edge's reset that assigns it, else its value at
    the edge's source.  Every other variable records None.  Each pair is one
    location l{a} with l's owner, observation and flow; each edge e leaving
    it becomes e@a, with e as provenance and the guard, reset and reset set
    of rewrite(e, a), or of e itself when rewrite is omitted.
    """
    locations: dict[LocId, Location] = {}
    edges: dict[str, Edge] = {}
    frontier: deque[tuple[LocId, Annotation]] = deque()

    def visit(lid: LocId, values: dict) -> LocId:
        ann = Annotation.of(kind, {var: values[var] if kept(lid, i) else None
                                   for i, var in enumerate(g.vars)})
        new_id = lid.annotated(ann)
        if new_id not in locations:
            base = g.locations[lid]
            locations[new_id] = Location(new_id, base.owner, base.obs,
                                         dict(base.flow))
            frontier.append((lid, ann))
        return new_id

    init = visit(g.init, dict.fromkeys(g.vars, ZERO))
    while frontier:
        lid, ann = frontier.popleft()
        src_id = lid.annotated(ann)
        for e in g.edges_from(lid):
            dst_id = visit(e.dst, {**ann.as_dict(), **e.reset.assignments})
            r = e if rewrite is None else rewrite(e, ann)
            eid = f"{e.id}@{ann.render()}"
            edges[eid] = Edge(eid, src_id, e.action, r.guard, r.reset, dst_id,
                              reset_set=r.reset_set, provenance=e.id)
    return Game(flavor, g.vars, g.actions, g.obs, locations, edges, init)


def pinned_values(lid: LocId) -> dict:
    """The pin map recorded on an annotated location id."""
    ann = lid.last_annotation()
    if ann is None or ann.kind != FROZEN_KIND:
        raise InvalidGame(f"{lid.render()} carries no reset annotation")
    return ann.as_dict()


def to_updatable(g_ann: Game) -> Game:
    """Set every slope to 1 and compensate with constant resets.

    The reset of each edge assigns, per variable, the pin at the target if
    there is one, else the original reset value if any.  Conjuncts over
    source-pinned variables are evaluated statically and removed, and edges
    whose pinned value falls outside the conjunct are dropped.
    """
    locations = {}
    for lid, loc in g_ann.locations.items():
        flow = {var: ONE for var in g_ann.vars}
        locations[lid] = Location(lid, loc.owner, loc.obs, flow)

    edges = {}
    for eid in sorted(g_ann.edges):
        e = g_ann.edges[eid]
        f1 = pinned_values(e.src)
        f2 = pinned_values(e.dst)

        if any(f1.get(var) is not None and not iv.contains(f1[var])
               for var, iv in e.guard.conjuncts.items()):
            continue
        conjuncts = {var: iv for var, iv in e.guard.conjuncts.items()
                     if f1.get(var) is None}

        assignments = {}
        for var in g_ann.vars:
            pin = f2.get(var)
            if pin is not None:
                assignments[var] = pin
            else:
                original = e.reset.assignments.get(var)
                if original is not None:
                    assignments[var] = original

        edges[eid] = Edge(eid, e.src, e.action, Guard(conjuncts),
                          Reset(assignments), e.dst, provenance=eid)

    return Game(Flavor.UPDATABLE, g_ann.vars, g_ann.actions, g_ann.obs,
                locations, edges, g_ann.init)


def annotation_witness(g_w: Game, g_ann: Game) -> BisimWitness:
    """Stopwatch vs annotated stopwatch: identical valuations, locations
    related by stripping the pin map, edges related by provenance."""
    return stage_witness("reset-annotation", g_w, g_ann)


def rewrite_witness(g_ann: Game, g_u: Game) -> BisimWitness:
    """Annotated stopwatch vs updatable: the identity on configurations.

    Edges keep their ids across the rewrite; an edge dropped as dead has no
    counterpart, which is only ever visible from unreachable configurations.
    """
    return stage_witness("guard-rewrite", g_ann, g_u)
