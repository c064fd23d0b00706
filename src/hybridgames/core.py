"""Exact data model for turn-based hybrid games with constant rational slopes.

Four game flavors form a lowering chain: initialized singular games (arbitrary
constant slopes, total compact guards), stopwatch games (slopes 0 or 1),
updatable timed games (all slopes 1, resets to arbitrary rational constants)
and timed games (resets to zero only).  Every number in the model is a
``fractions.Fraction``; the package performs no floating-point arithmetic
anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Optional

ZERO = Fraction(0)
ONE = Fraction(1)


class GameError(Exception):
    """Base class for errors raised by this package."""


class InvalidGame(GameError):
    """A game failed validation where a valid one was required."""


class MoveNotEnabled(GameError):
    """A move was attempted that the semantics does not enable."""


class IllegalStrategyMove(GameError):
    """A strategy returned a move that is not enabled."""


class InvalidHistory(GameError):
    """A run is not a legal history of the game it is lifted from."""


class NoRealization(GameError):
    """No concrete delay realizes a requested symbolic move."""


class OwnershipMismatch(GameError):
    """A relation paired configurations owned by different players."""


_RATIONAL_RE = re.compile(r"^(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string ("3", "-1/2").

    Only lowest-terms strings with a positive denominator are accepted;
    "2/4", "3/1", "+1" and "-0" are all rejected.
    """
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"not a canonical rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    value = Fraction(num, den)
    if (value.numerator, value.denominator) != (num, den):
        raise ValueError(f"not in lowest terms: {text!r}")
    if format_rational(value) != text:
        raise ValueError(f"not a canonical rational: {text!r}")
    return value


def format_rational(value: Fraction) -> str:
    """Render a rational canonically: integers bare, otherwise "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Player(Enum):
    ONE = 1
    TWO = 2


class Flavor(Enum):
    ISR = "isr"
    STOPWATCH = "stopwatch"
    ANNOTATED_STOPWATCH = "annotated-stopwatch"
    UPDATABLE = "updatable"
    TIMED = "timed"


# Class inclusion between flavors: a timed game is an updatable game, an
# updatable game is a (degenerate) stopwatch game, and so on up to the
# general singular model.  Annotated stopwatch games sit under stopwatch.
_FLAVOR_SUPERS = {
    Flavor.ISR: {Flavor.ISR},
    Flavor.STOPWATCH: {Flavor.STOPWATCH, Flavor.ISR},
    Flavor.ANNOTATED_STOPWATCH: {Flavor.ANNOTATED_STOPWATCH, Flavor.STOPWATCH, Flavor.ISR},
    Flavor.UPDATABLE: {Flavor.UPDATABLE, Flavor.STOPWATCH, Flavor.ISR},
    Flavor.TIMED: {Flavor.TIMED, Flavor.UPDATABLE, Flavor.STOPWATCH, Flavor.ISR},
}


def flavor_within(sub: Flavor, sup: Flavor) -> bool:
    """True when every game of flavor `sub` belongs to the class `sup`."""
    return sup in _FLAVOR_SUPERS[sub]


@dataclass(frozen=True)
class Interval:
    """A rational interval with closed endpoints.

    Validation (not construction) enforces lo <= hi, so malformed guards can
    be represented and reported as violations instead of crashes.
    """

    lo: Fraction
    hi: Fraction

    def is_compact(self) -> bool:
        return self.lo <= self.hi

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def divided_by(self, c: Fraction) -> "Interval":
        """Divide both endpoints by a nonzero rational.

        Dividing by a negative constant swaps the endpoints so the result
        stays a well-ordered closed interval.
        """
        if c == 0:
            raise ZeroDivisionError("interval divided by zero")
        if c > 0:
            return Interval(self.lo / c, self.hi / c)
        return Interval(self.hi / c, self.lo / c)

    def shifted(self, d: Fraction) -> "Interval":
        return Interval(self.lo + d, self.hi + d)

    def scaled(self, c: Fraction) -> "Interval":
        """Multiply both endpoints by a positive rational."""
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return Interval(self.lo * c, self.hi * c)


@dataclass(frozen=True)
class Guard:
    """A conjunction of per-variable interval constraints.

    Variables absent from the map are unconstrained.  In ISR-flavor games the
    map must be total; transformed games may omit conjuncts.
    """

    conjuncts: Mapping[str, Interval]


@dataclass(frozen=True)
class Reset:
    """A partial map from variables to the rational value assigned on an edge.

    Variables absent from the map keep their current value.
    """

    assignments: Mapping[str, Fraction]

    def domain(self) -> frozenset:
        return frozenset(self.assignments)


EMPTY_RESET = Reset({})

FROZEN_KIND = "f"
OFFSET_KIND = "g"
_BOTTOM_TEXT = "_"

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


@dataclass(frozen=True)
class Annotation:
    """Bookkeeping attached to a location id by a transformation step.

    Kind "f" records the pinned value of each variable that is stopped at the
    location (None for running variables); kind "g" records the accumulated
    clock offset of every variable.  Entries are kept sorted by variable name
    so equal annotations are structurally equal.
    """

    kind: str
    values: tuple[tuple[str, Optional[Fraction]], ...]

    @staticmethod
    def of(kind: str, mapping: Mapping[str, Optional[Fraction]]) -> "Annotation":
        return Annotation(kind, tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, Optional[Fraction]]:
        return dict(self.values)

    def render(self) -> str:
        parts = []
        for name, val in self.values:
            text = _BOTTOM_TEXT if val is None else format_rational(val)
            parts.append(f"{name}={text}")
        return "{" + self.kind + ":" + ",".join(parts) + "}"


@dataclass(frozen=True)
class LocId:
    """A location identity: a base name plus the annotations added by each
    transformation stage, in the order they were added."""

    base: str
    anns: tuple[Annotation, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Ids key every per-location table, and hashing the annotations
        # (exact rationals) anew on each lookup is a large share of run
        # lifting, so the hash is computed once.
        object.__setattr__(self, "_hash", hash((self.base, self.anns)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy, _hash.
        return (LocId, (self.base, self.anns))

    def annotated(self, ann: Annotation) -> "LocId":
        return LocId(self.base, self.anns + (ann,))

    def parent(self) -> "LocId":
        if not self.anns:
            raise ValueError("location id has no annotation to strip")
        return LocId(self.base, self.anns[:-1])

    def root(self) -> "LocId":
        return LocId(self.base)

    def last_annotation(self) -> Optional[Annotation]:
        return self.anns[-1] if self.anns else None

    def render(self) -> str:
        return self.base + "".join(a.render() for a in self.anns)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


_ANN_RE = re.compile(r"\{([fg]):([^{}]*)\}")


def parse_locid(text: str) -> LocId:
    """Parse a rendered location id, annotations included."""
    brace = text.find("{")
    base = text if brace < 0 else text[:brace]
    if not base or not _NAME_RE.match(base):
        raise ValueError(f"bad location base name in {text!r}")
    anns = []
    pos = len(base)
    while pos < len(text):
        m = _ANN_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad annotation syntax in {text!r}")
        kind, body = m.group(1), m.group(2)
        values: dict[str, Optional[Fraction]] = {}
        if body:
            for item in body.split(","):
                if "=" not in item:
                    raise ValueError(f"bad annotation entry {item!r} in {text!r}")
                name, _, val = item.partition("=")
                if not _NAME_RE.match(name) or name in values:
                    raise ValueError(f"bad annotation variable {name!r} in {text!r}")
                if val == _BOTTOM_TEXT:
                    if kind != FROZEN_KIND:
                        raise ValueError(f"offset annotations must be total in {text!r}")
                    values[name] = None
                else:
                    values[name] = parse_rational(val)
        anns.append(Annotation.of(kind, values))
        pos = m.end()
    return LocId(base, tuple(anns))


@dataclass(frozen=True)
class Location:
    id: LocId
    owner: Player
    obs: str
    flow: Mapping[str, Fraction]


@dataclass(frozen=True)
class Edge:
    id: str
    src: LocId
    action: str
    guard: Guard
    reset: Reset
    dst: LocId
    # Timed flavor only: the set of clocks reset (to zero) by this edge.
    reset_set: Optional[frozenset] = None
    # Id of the edge this one was derived from in the previous game of the
    # lowering chain, if any.
    provenance: Optional[str] = None


@dataclass(frozen=True)
class Game:
    flavor: Flavor
    vars: tuple[str, ...]
    actions: frozenset
    obs: frozenset
    locations: Mapping[LocId, Location]
    edges: Mapping[str, Edge]
    init: LocId
    _var_index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _by_src: Mapping[LocId, tuple[Edge, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_var_index", {v: i for i, v in enumerate(self.vars)})
        by_src: dict[LocId, list[Edge]] = {}
        for eid in sorted(self.edges):
            e = self.edges[eid]
            by_src.setdefault(e.src, []).append(e)
        object.__setattr__(self, "_by_src", {k: tuple(v) for k, v in by_src.items()})

    def var_index(self, var: str) -> int:
        return self._var_index[var]

    def owner(self, lid: LocId) -> Player:
        return self.locations[lid].owner

    def edges_from(self, lid: LocId) -> tuple[Edge, ...]:
        """Outgoing edges of a location, ordered by edge id."""
        return self._by_src.get(lid, ())

    # Index forms, built on first use so that a game naming undeclared
    # variables can still be built and reported by validate_game.
    # cached_property writes __dict__ directly, past the frozen __setattr__.
    @cached_property
    def guards(self) -> Mapping[str, tuple[tuple[int, Fraction, Fraction], ...]]:
        """Edge id -> its guard as (variable index, lo, hi) triples, sorted."""
        return {eid: tuple(sorted((self._var_index[var], iv.lo, iv.hi)
                                  for var, iv in e.guard.conjuncts.items()))
                for eid, e in self.edges.items()}

    @cached_property
    def resets(self) -> Mapping[str, tuple[tuple[int, Fraction], ...]]:
        """Edge id -> its reset as (variable index, value) pairs, sorted."""
        return {eid: tuple(sorted((self._var_index[var], val)
                                  for var, val in e.reset.assignments.items()))
                for eid, e in self.edges.items()}

    @cached_property
    def slopes(self) -> Mapping[LocId, tuple[Fraction, ...]]:
        """Location id -> its flow as one slope per variable, in order."""
        return {lid: tuple(loc.flow[var] for var in self.vars)
                for lid, loc in self.locations.items()}


class ViolationKind(Enum):
    INITIALIZATION_BROKEN = "initialization-broken"
    GUARD_NOT_TOTAL = "guard-not-total"
    GUARD_NOT_COMPACT = "guard-not-compact"
    INIT_MISSING = "init-missing"
    INIT_NOT_PLAYER_ONE = "init-not-player-one"
    UNKNOWN_LOCATION = "unknown-location"
    UNKNOWN_VARIABLE = "unknown-variable"
    UNKNOWN_ACTION = "unknown-action"
    UNKNOWN_OBSERVATION = "unknown-observation"
    FLOW_NOT_TOTAL = "flow-not-total"
    FLOW_OUT_OF_FLAVOR = "flow-out-of-flavor"
    RESET_NOT_ZERO = "reset-not-zero"
    RESET_SET_MISMATCH = "reset-set-mismatch"
    ANNOTATION_MISSING = "annotation-missing"
    ANNOTATION_MISMATCH = "annotation-mismatch"
    BAD_VARIABLE = "bad-variable"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    where: str
    var: Optional[str] = None
    detail: str = ""

    def render(self) -> str:
        var = f" var={self.var}" if self.var else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"{self.kind.value} at {self.where}{var}{detail}"


def _validate_flavor(g: Game, out: list[Violation]) -> None:
    if g.flavor in (Flavor.STOPWATCH, Flavor.ANNOTATED_STOPWATCH):
        allowed = {ZERO, ONE}
        for loc in g.locations.values():
            for var, slope in loc.flow.items():
                if slope not in allowed:
                    out.append(Violation(ViolationKind.FLOW_OUT_OF_FLAVOR, loc.id.render(), var,
                                         f"slope {format_rational(slope)} not in {{0,1}}"))
    if g.flavor in (Flavor.UPDATABLE, Flavor.TIMED):
        for loc in g.locations.values():
            for var, slope in loc.flow.items():
                if slope != ONE:
                    out.append(Violation(ViolationKind.FLOW_OUT_OF_FLAVOR, loc.id.render(), var,
                                         f"slope {format_rational(slope)} is not 1"))
    if g.flavor is Flavor.TIMED:
        for e in g.edges.values():
            for var, val in e.reset.assignments.items():
                if val != ZERO:
                    out.append(Violation(ViolationKind.RESET_NOT_ZERO, e.id, var,
                                         f"reset to {format_rational(val)}"))
            expected = e.reset.domain()
            if e.reset_set is None or e.reset_set != expected:
                got = "absent" if e.reset_set is None else "{" + ",".join(sorted(e.reset_set)) + "}"
                out.append(Violation(ViolationKind.RESET_SET_MISMATCH, e.id, None,
                                     f"reset set {got} does not match reset domain"))
    if g.flavor is Flavor.ANNOTATED_STOPWATCH:
        pins: dict[LocId, dict[str, Optional[Fraction]]] = {}
        for loc in g.locations.values():
            ann = loc.id.last_annotation()
            if ann is None or ann.kind != FROZEN_KIND:
                out.append(Violation(ViolationKind.ANNOTATION_MISSING, loc.id.render()))
                continue
            entries = ann.as_dict()
            if set(entries) != set(g.vars):
                out.append(Violation(ViolationKind.ANNOTATION_MISMATCH, loc.id.render(), None,
                                     "annotation does not cover the variable set"))
                continue
            pins[loc.id] = entries
            for var in g.vars:
                pinned = entries[var]
                running = loc.flow.get(var) == ONE
                if running and pinned is not None:
                    out.append(Violation(ViolationKind.ANNOTATION_MISMATCH, loc.id.render(), var,
                                         "running variable carries a pinned value"))
                if not running and pinned is None:
                    out.append(Violation(ViolationKind.ANNOTATION_MISMATCH, loc.id.render(), var,
                                         "stopped variable has no pinned value"))
        # A pin is the value its variable was last set to: 0 at the start,
        # then the reset value of the edge taken, else the pin at its source.
        # A pin with no source pin to follow breaks initialization instead.
        for var, pin in pins.get(g.init, {}).items():
            if pin is not None and pin != ZERO:
                out.append(Violation(ViolationKind.ANNOTATION_MISMATCH, g.init.render(), var,
                                     f"initial pin {format_rational(pin)} is not 0"))
        for e in g.edges.values():
            if e.src not in pins or e.dst not in pins:
                continue
            for var, pin in pins[e.dst].items():
                want = e.reset.assignments.get(var, pins[e.src][var])
                if pin is not None and want is not None and pin != want:
                    out.append(Violation(ViolationKind.ANNOTATION_MISMATCH, e.id, var,
                                         f"target pin {format_rational(pin)} is not "
                                         f"{format_rational(want)}, the reset value or "
                                         "else the source pin"))


def validate_game(g: Game) -> list[Violation]:
    """Check every structural and flavor invariant; violations are data."""
    out: list[Violation] = []
    varset = set(g.vars)

    for i, var in enumerate(g.vars):
        if var in g.vars[:i]:
            out.append(Violation(ViolationKind.BAD_VARIABLE, f"vars[{i}]", var,
                                 "repeated name"))
        elif not _NAME_RE.match(var):
            out.append(Violation(ViolationKind.BAD_VARIABLE, f"vars[{i}]", var,
                                 "not a valid name"))

    if g.init not in g.locations:
        out.append(Violation(ViolationKind.INIT_MISSING, g.init.render()))
    elif g.locations[g.init].owner is not Player.ONE:
        out.append(Violation(ViolationKind.INIT_NOT_PLAYER_ONE, g.init.render()))

    for lid, loc in g.locations.items():
        if loc.id != lid:
            out.append(Violation(ViolationKind.UNKNOWN_LOCATION, lid.render(), None,
                                 "location keyed under a different id"))
        if loc.obs not in g.obs:
            out.append(Violation(ViolationKind.UNKNOWN_OBSERVATION, lid.render(), None,
                                 f"observation {loc.obs!r} not declared"))
        for var in g.vars:
            if var not in loc.flow:
                out.append(Violation(ViolationKind.FLOW_NOT_TOTAL, lid.render(), var))
        for var in loc.flow:
            if var not in varset:
                out.append(Violation(ViolationKind.UNKNOWN_VARIABLE, lid.render(), var,
                                     "flow mentions an undeclared variable"))

    for eid in sorted(g.edges):
        e = g.edges[eid]
        if e.id != eid:
            out.append(Violation(ViolationKind.UNKNOWN_LOCATION, eid, None,
                                 "edge keyed under a different id"))
        if e.action not in g.actions:
            out.append(Violation(ViolationKind.UNKNOWN_ACTION, eid, None,
                                 f"action {e.action!r} not declared"))
        src_ok = e.src in g.locations
        dst_ok = e.dst in g.locations
        if not src_ok:
            out.append(Violation(ViolationKind.UNKNOWN_LOCATION, eid, None,
                                 f"source {e.src.render()} not declared"))
        if not dst_ok:
            out.append(Violation(ViolationKind.UNKNOWN_LOCATION, eid, None,
                                 f"target {e.dst.render()} not declared"))
        for var, iv in e.guard.conjuncts.items():
            if var not in varset:
                out.append(Violation(ViolationKind.UNKNOWN_VARIABLE, eid, var,
                                     "guard mentions an undeclared variable"))
            elif not iv.is_compact():
                out.append(Violation(ViolationKind.GUARD_NOT_COMPACT, eid, var,
                                     f"[{format_rational(iv.lo)}, {format_rational(iv.hi)}] is empty"))
        for var in e.reset.assignments:
            if var not in varset:
                out.append(Violation(ViolationKind.UNKNOWN_VARIABLE, eid, var,
                                     "reset mentions an undeclared variable"))
        if g.flavor is Flavor.ISR:
            for var in g.vars:
                if var not in e.guard.conjuncts:
                    out.append(Violation(ViolationKind.GUARD_NOT_TOTAL, eid, var))
        if src_ok and dst_ok:
            src_flow = g.locations[e.src].flow
            dst_flow = g.locations[e.dst].flow
            for var in g.vars:
                if var not in src_flow or var not in dst_flow:
                    continue
                if src_flow[var] != dst_flow[var] and var not in e.reset.assignments:
                    out.append(Violation(
                        ViolationKind.INITIALIZATION_BROKEN, eid, var,
                        f"slope changes {format_rational(src_flow[var])} -> "
                        f"{format_rational(dst_flow[var])} without a reset"))

    _validate_flavor(g, out)
    return out


def require_valid(g: Game) -> Game:
    """`g` itself, or InvalidGame listing every violation on its own line."""
    problems = validate_game(g)
    if problems:
        raise InvalidGame("invalid game:" + "".join(f"\n  {v.render()}"
                                                    for v in problems))
    return g


def classify_flavor(g: Game) -> Flavor:
    """Return the most specific flavor whose structural invariants hold.

    The input must validate cleanly under its declared flavor.  Bookkeeping
    fields (reset sets, annotations) do not influence classification; only
    slopes and reset values do, except that a stopwatch-slope game whose every
    location carries a frozen-value annotation classifies as annotated.
    """
    require_valid(g)
    slopes = {slope for loc in g.locations.values() for slope in loc.flow.values()}
    if slopes <= {ONE}:
        reset_values = {val for e in g.edges.values() for val in e.reset.assignments.values()}
        if reset_values <= {ZERO}:
            return Flavor.TIMED
        return Flavor.UPDATABLE
    if slopes <= {ZERO, ONE}:
        annotated = all(
            (loc.id.last_annotation() is not None
             and loc.id.last_annotation().kind == FROZEN_KIND)
            for loc in g.locations.values())
        if annotated and g.locations:
            return Flavor.ANNOTATED_STOPWATCH
        return Flavor.STOPWATCH
    return Flavor.ISR


def scale_to_integers(g: Game) -> tuple[Game, int]:
    """Multiply every guard bound of a timed game by the lcm of their
    denominators, returning the integer-bounded game and the factor."""
    if g.flavor is not Flavor.TIMED:
        raise InvalidGame("scaling requires a timed-flavor game")
    dens = [1]
    for e in g.edges.values():
        for iv in e.guard.conjuncts.values():
            dens.append(iv.lo.denominator)
            dens.append(iv.hi.denominator)
    d = lcm(*dens)
    factor = Fraction(d)
    edges = {}
    for eid, e in g.edges.items():
        guard = Guard({var: iv.scaled(factor) for var, iv in e.guard.conjuncts.items()})
        edges[eid] = Edge(e.id, e.src, e.action, guard, e.reset, e.dst,
                          reset_set=e.reset_set, provenance=e.provenance)
    scaled = Game(g.flavor, g.vars, g.actions, g.obs, dict(g.locations), edges, g.init)
    return scaled, d
