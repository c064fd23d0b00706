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
dropped, an unsatisfiable one removes the edge.  `rewrite_guards=False`
keeps the literal guards, which is useful only to demonstrate that the
rewrite is necessary.
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
from .semantics import Configuration


def initial_annotation(g_w: Game, lid: LocId) -> Annotation:
    """Pinned values at the start of play: every stopped variable sits at its
    initial value 0, running variables carry no pin."""
    flow = g_w.locations[lid].flow
    values = {var: (ZERO if flow[var] == 0 else None) for var in g_w.vars}
    return Annotation.of(FROZEN_KIND, values)


def successor_annotation(g_w: Game, f1: Annotation, e: Edge) -> Annotation:
    """Pinned values after taking e from a location annotated f1."""
    dst_flow = g_w.locations[e.dst].flow
    values: dict[str, Optional] = {}
    for var in g_w.vars:
        if dst_flow[var] == ONE:
            values[var] = None
        else:
            assigned = e.reset.value_for(var)
            values[var] = assigned if assigned is not None else f1.value(var)
    return Annotation.of(FROZEN_KIND, values)


def annotate_resets(g_w: Game) -> Game:
    """Attach reset annotations to a stopwatch game: one location per
    (location, pin map) pair reachable from the annotated initial location."""
    pairs = unfold_reachable(g_w, initial_annotation(g_w, g_w.init),
                             successor_annotation)

    locations = {}
    for (lid, ann) in pairs:
        new_id = lid.annotated(ann)
        base = g_w.locations[lid]
        locations[new_id] = Location(new_id, base.owner, base.obs, dict(base.flow))

    edges = {}
    for (lid, ann) in pairs:
        src_id = lid.annotated(ann)
        for e in g_w.edges_from(lid):
            dst_id = e.dst.annotated(successor_annotation(g_w, ann, e))
            eid = f"{e.id}@{ann.render()}"
            edges[eid] = Edge(eid, src_id, e.action, e.guard, e.reset, dst_id,
                              provenance=e.id)

    init = g_w.init.annotated(initial_annotation(g_w, g_w.init))
    return Game(Flavor.ANNOTATED_STOPWATCH, g_w.vars, g_w.actions, g_w.obs,
                locations, edges, init)


def unfold_reachable(g: Game, start: Annotation,
                     successor: Callable[[Game, Annotation, Edge], Annotation],
                     ) -> list[tuple[LocId, Annotation]]:
    """The (location, annotation) pairs reachable from the initial location
    annotated `start`, in breadth-first order; taking e from (l, a) leads to
    (e.dst, successor(g, a, e))."""
    first = (g.init, start)
    seen = {first}
    frontier = deque([first])
    order = [first]
    while frontier:
        lid, ann = frontier.popleft()
        for e in g.edges_from(lid):
            succ = (e.dst, successor(g, ann, e))
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
                order.append(succ)
    return order


def pinned_values(lid: LocId) -> dict:
    """The pin map recorded on an annotated location id."""
    ann = lid.last_annotation()
    if ann is None or ann.kind != FROZEN_KIND:
        raise InvalidGame(f"{lid.render()} carries no reset annotation")
    return ann.as_dict()


def to_updatable(g_ann: Game, rewrite_guards: bool = True) -> Game:
    """Set every slope to 1 and compensate with constant resets.

    The reset of each edge assigns, per variable, the pin at the target if
    there is one, else the original reset value if any.  With rewrite_guards
    (the default and the correct construction) conjuncts over source-pinned
    variables are evaluated statically and removed, and edges whose pinned
    value falls outside the conjunct are dropped.
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

        conjuncts = {}
        dead = False
        for var, iv in e.guard.conjuncts.items():
            pin = f1.get(var)
            if rewrite_guards and pin is not None:
                if iv.contains(pin):
                    continue
                dead = True
                break
            conjuncts[var] = iv
        if dead:
            continue

        assignments = {}
        for var in g_ann.vars:
            pin = f2.get(var)
            if pin is not None:
                assignments[var] = pin
            else:
                original = e.reset.value_for(var)
                if original is not None:
                    assignments[var] = original

        edges[eid] = Edge(eid, e.src, e.action, Guard(conjuncts),
                          Reset(assignments), e.dst, provenance=eid)

    return Game(Flavor.UPDATABLE, g_ann.vars, g_ann.actions, g_ann.obs,
                locations, edges, g_ann.init)


def annotation_relates(q_w: Configuration, q_u: Configuration) -> bool:
    """Membership test of the composed annotation relation: the updatable
    location is the stopwatch location plus a pin map, values are equal."""
    if not q_u.loc.anns or q_u.loc.last_annotation().kind != FROZEN_KIND:
        return False
    return q_u.loc.parent() == q_w.loc and q_u.val == q_w.val


def annotation_witness(g_w: Game, g_ann: Game) -> BisimWitness:
    """Stopwatch vs annotated stopwatch: identical valuations, locations
    related by stripping the pin map, edges related by provenance."""
    return stage_witness("reset-annotation", g_w, g_ann, strip=True)


def rewrite_witness(g_ann: Game, g_u: Game) -> BisimWitness:
    """Annotated stopwatch vs updatable: the identity on configurations.

    Edges keep their ids across the rewrite; an edge dropped as dead has no
    counterpart, which is only ever visible from unreachable configurations.
    """
    return stage_witness("guard-rewrite", g_ann, g_u)
