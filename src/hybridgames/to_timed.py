"""Lowering step 3: updatable timed games down to plain timed games.

A reset to a nonzero constant is traded for bookkeeping: each location is
annotated with the accumulated offset of every clock (the value it was last
set to), the clock itself is reset to zero, and every guard bound is shifted
down by the offset at the edge's source.  Shifted lower bounds can become
negative; they are kept exact rather than clamped, which is harmless since
clocks in the produced game never go below zero.
"""

from __future__ import annotations

from dataclasses import replace

from .core import (
    OFFSET_KIND,
    ONE,
    ZERO,
    Annotation,
    Edge,
    Flavor,
    Game,
    Guard,
    InvalidGame,
    LocId,
    Reset,
)
from .bisim import Affine, BisimWitness, stage_witness
from .to_updatable import unfold


def zero_offset(g_u: Game) -> Annotation:
    return Annotation.of(OFFSET_KIND, {var: ZERO for var in g_u.vars})


def successor_offset(g_u: Game, g1: Annotation, e: Edge) -> Annotation:
    """Offsets after taking e: reset clocks remember the value they were set
    to, the rest keep the offset they entered with."""
    values = {}
    for var in g_u.vars:
        assigned = e.reset.assignments.get(var)
        values[var] = assigned if assigned is not None else g1.value(var)
    return Annotation.of(OFFSET_KIND, values)


def offset_values(lid: LocId) -> dict:
    ann = lid.last_annotation()
    if ann is None or ann.kind != OFFSET_KIND:
        raise InvalidGame(f"{lid.render()} carries no offset annotation")
    return ann.as_dict()


def to_timed(g_u: Game) -> Game:
    """Replace constant resets by zero resets plus per-location offsets.

    Locations are the reachable (location, offset) pairs from the initial
    location with all offsets zero.  Guards are shifted by the source offset,
    resets all become zero, and each edge records the set of clocks it
    resets and the updatable edge it came from.
    """
    return unfold(g_u, Flavor.TIMED, zero_offset(g_u), successor_offset, _shift)


def _shift(e: Edge, off: Annotation) -> Edge:
    """e with its guard shifted down by the source offsets and its resets
    made zero resets."""
    offsets = off.as_dict()
    reset_set = e.reset.domain()
    return replace(e, guard=Guard({var: iv.shifted(-offsets[var])
                                   for var, iv in e.guard.conjuncts.items()}),
                   reset=Reset({var: ZERO for var in reset_set}),
                   reset_set=reset_set)


def _offset_map(g_u: Game, timed_loc: LocId) -> Affine:
    """The valuation map of the offset shift at a timed location: subtract
    each clock's offset."""
    offsets = offset_values(timed_loc)
    return Affine((ONE,) * len(g_u.vars), tuple(-offsets[var] for var in g_u.vars))


def offset_witness(g_u: Game, g_t: Game) -> BisimWitness:
    """Updatable vs timed: locations related by stripping the offset map,
    values by subtracting it, edges by provenance."""
    return stage_witness("offset-shift", g_u, g_t, strip=True,
                         affine=lambda lid: _offset_map(g_u, lid))
