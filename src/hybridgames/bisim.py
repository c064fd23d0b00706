"""Stage relations as data, and sampled checking of alternating bisimulations.

Every lowering stage relates its input game g1 to its output game g2 by one
rule: a g2 location stands for the g1 location left after stripping its
last annotation when the stage adds one (else for itself), a g2 value is
the g1 value divided by its nonzero slope, less a stripped offset, and a g2
edge stands for its provenance, taking the same delay.  A BisimWitness holds
exactly that data, read off the two games by stage_witness.  Composing two
witnesses chains the location and edge maps and composes the affine maps, so
the end-to-end relation of the chain is one more record of the same kind.

The local check takes one related pair and verifies, on a sampled set of
enabled moves, that labels agree and that each player's moves are matched by
the translated move with related successors.  Checks are sampled, not
exhaustive: a Pass is evidence, a Fail is definite (it carries a
counterexample that replays).  A sampled delay travels from the sampler
through the clause table to the step memo as its lowest-terms numerator and
denominator, and a clause as its two edge ids and those ints; a memo miss
steps through `semantics.advance` on those ints, relation membership is
decided by cross-multiplying, and a `Move` and a delay `Fraction` are built
only when a counterexample is recorded.  `verify_chain` runs with the cyclic
garbage collector paused, as the region build does (see `solver`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .core import (OFFSET_KIND, ONE, ZERO, Annotation, Edge, Game,
                   InvalidHistory, LocId, MoveNotEnabled, OwnershipMismatch,
                   Player, interned)
from .semantics import Configuration, DelayWindow, Move, advance, enabled_edges
from .solver import collector_paused


@dataclass(frozen=True)
class Affine:
    """The diagonal valuation map v -> scale*v + shift, one exact pair per
    variable; every scale is nonzero.  A scale of 1 is stored as the shared
    ONE and a shift of 0 as ZERO, so apply skips them by identity."""

    scale: tuple[Fraction, ...]
    shift: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", tuple(map(interned, self.scale)))
        object.__setattr__(self, "shift", tuple(map(interned, self.shift)))

    def apply(self, val: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        """Each a*x + b as one Fraction built from the numerators and
        denominators through the public two-int constructor, which
        normalises with one gcd (on Python 3.11 each Fraction operator
        dispatches through a numbers.Rational check); a value whose scale
        is ONE and shift ZERO is kept as it is."""
        out = []
        for a, x, b in zip(self.scale, val, self.shift):
            if a is ONE:
                if b is ZERO:
                    out.append(x)
                    continue
                n, d = x.numerator, x.denominator
            else:
                n, d = a.numerator * x.numerator, a.denominator * x.denominator
            if b is not ZERO:
                bd = b.denominator
                n, d = n * bd + b.numerator * d, d * bd
            out.append(Fraction(n, d))
        return tuple(out)

    def is_identity(self) -> bool:
        return all(a == 1 for a in self.scale) and not any(self.shift)


def _then(first: Optional[Affine], second: Optional[Affine]) -> Optional[Affine]:
    """second after first, with None standing for the identity both ways."""
    if first is None or second is None:
        return second if first is None else first
    out = Affine(tuple(a2 * a1 for a1, a2 in zip(first.scale, second.scale)),
                 tuple(a2 * b1 + b2 for b1, a2, b2
                       in zip(first.shift, second.scale, second.shift)))
    return None if out.is_identity() else out


@dataclass(frozen=True)
class BisimWitness:
    """A claimed bisimulation between g1 and g2, held as data.

    loc_back maps each g2 location to the g1 location it stands for.
    affine maps a g2 location to the valuation map from g1 values to g2
    values there; locations where the map is the identity are absent, so
    they cost no arithmetic.  edge_back maps a g2 edge id to its g1 edge id,
    and edge_fwd, derived from it, maps (g2 source location, g1 edge id) to
    the g2 edge id.  Moves keep their delay in both directions, and the move
    translations return None when no counterpart edge exists.
    """

    name: str
    g1: Game
    g2: Game
    loc_back: Mapping[LocId, LocId]
    affine: Mapping[LocId, Affine]
    edge_back: Mapping[str, str]
    edge_fwd: Mapping[tuple[LocId, str], str] = field(init=False, repr=False,
                                                       compare=False)

    def __post_init__(self) -> None:
        fwd = {(self.g2.edges[e2].src, e1): e2 for e2, e1 in self.edge_back.items()}
        object.__setattr__(self, "edge_fwd", fwd)

    def contains(self, q1: Configuration, q2: Configuration) -> bool:
        """Relation membership: q2's location stands for q1's, and each q2
        value is the affine image of q1's.  No image is built: each value is
        compared with a*x + b by cross-multiplying numerators and
        denominators, a unit scale and a zero shift skipped by identity as
        in `Affine.apply`."""
        if self.loc_back.get(q2.loc) != q1.loc:
            return False
        a = self.affine.get(q2.loc)
        if a is None:
            return q1.val == q2.val
        for s, x, b, y in zip(a.scale, q1.val, a.shift, q2.val):
            if s is ONE:
                n, d = x.numerator, x.denominator
            else:
                n, d = s.numerator * x.numerator, s.denominator * x.denominator
            if b is not ZERO:
                bd = b.denominator
                n, d = n * bd + b.numerator * d, d * bd
            if n * y.denominator != y.numerator * d:
                return False
        return True

    def move_forward(self, q2: Configuration, m1: Move) -> Optional[Move]:
        """The g2 counterpart, from q2, of a g1 move."""
        eid = self.edge_fwd.get((q2.loc, m1.edge))
        return None if eid is None else Move(eid, m1.delay)

    def move_backward(self, m2: Move) -> Optional[Move]:
        """The g1 counterpart of a g2 move."""
        eid = self.edge_back.get(m2.edge)
        return None if eid is None else Move(eid, m2.delay)


def _valuation_map(g1: Game, l1: LocId, stripped: Optional[Annotation]) -> Affine:
    """The map from g1 values at l1: each value divided by its slope there
    where that is nonzero, then lowered by its offset when the annotation
    `stripped` records offsets."""
    offsets = stripped.as_dict() if stripped and stripped.kind == OFFSET_KIND else {}
    return Affine(tuple(1 / s if s else ONE for s in g1.slopes[l1]),
                  tuple(-offsets.get(var, ZERO) for var in g1.vars))


def rescale_config(g_isr: Game, q: Configuration) -> Configuration:
    """Map a source configuration to its stopwatch counterpart."""
    return Configuration(q.loc, _valuation_map(g_isr, q.loc, None).apply(q.val))


def stage_witness(name: str, g1: Game, g2: Game) -> BisimWitness:
    """The relation of one lowering stage, read off its two games by one rule.

    When g2's initial id carries one more annotation than g1's, the stage
    strips: each g2 location stands for its id minus that annotation, else
    for itself.  Each value is divided by its nonzero slope at the g1
    location, then lowered by the offsets of a stripped offset annotation;
    identity maps are omitted.  Each g2 edge stands for its provenance.
    """
    strip = len(g2.init.anns) == len(g1.init.anns) + 1
    loc_back, maps = {}, {}
    for l2 in g2.locations:
        l1 = loc_back[l2] = l2.parent() if strip else l2
        a = _valuation_map(g1, l1, l2.last_annotation() if strip else None)
        if not a.is_identity():
            maps[l2] = a
    edge_back = {eid: e.provenance for eid, e in g2.edges.items()
                 if e.provenance is not None}
    return BisimWitness(name, g1, g2, loc_back, maps, edge_back)


def identity_witness(g: Game) -> BisimWitness:
    """The identity relation on one game, useful as a composition unit."""
    return BisimWitness("identity", g, g, {lid: lid for lid in g.locations}, {},
                        {eid: eid for eid in g.edges})


def compose(ab: BisimWitness, bc: BisimWitness) -> BisimWitness:
    """Relational composition of two witnesses sharing the middle game."""
    if ab.g2 is not bc.g1 and ab.g2 != bc.g1:
        raise ValueError("witnesses do not share the middle game")
    loc_back = {}
    affine = {}
    for lc, lb in bc.loc_back.items():
        if lb in ab.loc_back:
            loc_back[lc] = ab.loc_back[lb]
            a = _then(ab.affine.get(lb), bc.affine.get(lc))
            if a is not None:
                affine[lc] = a
    edge_back = {ec: ab.edge_back[eb] for ec, eb in bc.edge_back.items()
                 if eb in ab.edge_back}
    return BisimWitness(f"{ab.name}*{bc.name}", ab.g1, bc.g2, loc_back, affine,
                        edge_back)


@dataclass
class MoveSampler:
    """Deterministic move sampling: window boundaries plus seeded rationals.

    For every enabled edge the low endpoint, the midpoint and the high
    endpoint are sampled (a probe of lo+1 and lo+2 stands in for the missing
    endpoints of an unbounded ray), plus `extra` random in-window delays with
    denominators at most 8, each kept unless it equals an earlier one.  A
    delay is its (numerator, denominator) pair in lowest terms, as
    `DelayWindow` gives it, so that test compares tuples of ints.  The
    sampler holds only its rng and `extra`, so one sampler may serve any
    number of calls.
    """

    rng: random.Random = field(default_factory=lambda: random.Random(0))
    extra: int = 1

    def delays(self, w: DelayWindow) -> list[tuple[int, int]]:
        out = list(w.probes)
        for _ in range(self.extra):
            t = w.draw(self.rng, max_den=8, ray=2)
            if t not in out:
                out.append(t)
        return out


@dataclass(frozen=True)
class Counterexample:
    """A concrete violation of one matching clause, sufficient to replay."""

    witness: str
    # "forward" (a g1 move unmatched), "backward", "label" (observations
    # differ), "owner" (owners differ) or "relation" (the pair itself is not
    # related)
    direction: str
    q1: Configuration
    q2: Configuration
    move: Move
    reason: str


# The move a counterexample names when the pair fails before any move is tried.
_NO_MOVE = Move("-", Fraction(0))


@dataclass(frozen=True)
class Verdict:
    passed: bool
    checked: int
    counterexample: Optional[Counterexample] = None
    reason: str = ""


def _edges(w: BisimWitness, q2: Configuration, eid: str,
           forward: bool) -> tuple[Optional[str], Optional[str]]:
    """The (g1 edge, g2 edge) of the clause whose mover takes `eid`, g1's
    edge from q1 when `forward`, else g2's from q2; the counterpart is None
    when it does not exist."""
    if forward:
        return eid, w.edge_fwd.get((q2.loc, eid))
    return w.edge_back.get(eid), eid


def _match(w: BisimWitness, q1: Configuration, q2: Configuration,
           e1: Optional[str], e2: Optional[str], n: int, d: int, forward: bool,
           step: Callable) -> Optional[str]:
    """The matching clause for one sampled move of delay n/d: a g1 move on
    e1 from q1 matched by the g2 move on e2 from q2 when `forward`, else
    the other way round; the counterpart's edge is None when it has none.
    The mover's side steps first, through `step(g, q, edge, n, d)`, a
    memo's step."""
    if e1 is None or e2 is None:
        return "no counterpart move"
    try:
        if forward:
            q1n, q2n = step(w.g1, q1, e1, n, d), step(w.g2, q2, e2, n, d)
        else:
            q2n, q1n = step(w.g2, q2, e2, n, d), step(w.g1, q1, e1, n, d)
    except MoveNotEnabled as exc:
        return f"counterpart not enabled ({exc})"
    if not w.contains(q1n, q2n):
        return "successors not related"
    return None


def _prologue(w: BisimWitness, q1: Configuration,
              q2: Configuration) -> Optional[Counterexample]:
    """What a pair must pass before any move is tried: the relation, then
    the owners (a mismatch raises OwnershipMismatch), then the labels.  The
    counterexample of the first failure, else None."""
    if not w.contains(q1, q2):
        return Counterexample(w.name, "relation", q1, q2, _NO_MOVE,
                              "pair not in the relation")
    own1, own2 = w.g1.owner(q1.loc), w.g2.owner(q2.loc)
    if own1 is not own2:
        raise OwnershipMismatch(
            f"{q1.loc.render()} owned by {own1.name}, {q2.loc.render()} by {own2.name}")
    if w.g1.locations[q1.loc].obs != w.g2.locations[q2.loc].obs:
        return Counterexample(w.name, "label", q1, q2, _NO_MOVE,
                              "observations differ")
    return None


# Marks a clause outcome not yet computed (None is the outcome of a match).
_UNSEEN = object()


class _Memo:
    """What one verify_chain call, or one check_local_bisim call given no
    memo, has computed, each table a pure function of a key of builtins and
    configurations: the enabled edges of a (game, configuration), the
    successor of a (game, configuration, edge, delay) or the text of its
    MoveNotEnabled, and per (witness, q1, q2) one table of clause outcomes
    keyed by (g1 edge, g2 edge, delay), an edge None where a move has no
    counterpart.  A delay is its numerator and denominator in lowest terms,
    as the sampler gives it, and a miss steps through `semantics.advance`
    on them, with no `Move` or delay `Fraction` built.
    A pair's table exists only once its prologue has passed, and the
    prologue is a pure function of the pair, so a pair with a table skips
    it.  A forward and a backward clause share a key exactly when each move
    is the other's counterpart, so both step the same two moves.  Sharing a
    failure is safe: both moves were sampled, so neither step raises, and
    the one failure left, "successors not related", replays from either
    clause.  Games and witnesses are keyed by id, so a memo must not
    outlive the call that holds them."""

    def __init__(self) -> None:
        self.windows: dict = {}
        self.steps: dict = {}
        self.clauses: dict = {}

    def enabled(self, g: Game, q: Configuration) -> list[tuple[Edge, DelayWindow]]:
        key = (id(g), q)
        out = self.windows.get(key)
        if out is None:
            out = self.windows[key] = enabled_edges(g, q)
        return out

    def step(self, g: Game, q: Configuration, edge: str, n: int,
             d: int) -> Configuration:
        key = (id(g), q, edge, n, d)
        out = self.steps.get(key)
        if out is None:
            try:
                out = advance(g, q, edge, n, d)
            except MoveNotEnabled as exc:
                out = str(exc)
            self.steps[key] = out
        if isinstance(out, str):
            raise MoveNotEnabled(out)
        return out


def check_local_bisim(w: BisimWitness, q1: Configuration, q2: Configuration,
                      sampler: Optional[MoveSampler] = None,
                      memo: Optional[_Memo] = None) -> Verdict:
    """Check the matching clauses at one related pair on sampled moves.

    The pair's prologue (relation, owners, labels) runs first.  Then the
    owner's moves are matched (g1 moves forward for player one, g2 moves
    backward for player two), then the other side's, so a Pass certifies
    sampled bisimulation rather than one-way simulation.  For each side the
    sampler draws every enabled edge's delays before any clause is decided;
    each edge's counterpart is then resolved once and handed to `_match`
    with each delay's numerator and denominator, and the first unmatched
    move ends the check.  A `memo` (verify_chain's) only saves recomputing:
    a pair whose clause table exists skips its prologue, which passed when
    the table was made (a failing prologue makes none, so it runs again on
    every visit), and the table decides each pair of counterpart moves at
    most once, whichever direction steps them first.  A Move is built only
    for a counterexample.
    """
    sampler = sampler or MoveSampler()
    memo = memo or _Memo()
    key = (id(w), q1, q2)
    table = memo.clauses.get(key)
    if table is None:
        cex = _prologue(w, q1, q2)
        if cex is not None:
            return Verdict(False, 0, cex, cex.reason)
        table = memo.clauses[key] = {}

    checked = 0
    owner_forward = w.g1.owner(q1.loc) is Player.ONE
    for forward in (owner_forward, not owner_forward):
        g, q = (w.g1, q1) if forward else (w.g2, q2)
        drawn = [(e.id, sampler.delays(win)) for e, win in memo.enabled(g, q)]
        for eid, delays in drawn:
            e1, e2 = _edges(w, q2, eid, forward)
            for n, d in delays:
                checked += 1
                clause = (e1, e2, n, d)
                problem = table.get(clause, _UNSEEN)
                if problem is _UNSEEN:
                    problem = table[clause] = _match(w, q1, q2, e1, e2, n, d,
                                                     forward, memo.step)
                if problem:
                    cex = Counterexample(w.name, "forward" if forward else "backward",
                                         q1, q2, Move(eid, Fraction(n, d)), problem)
                    return Verdict(False, checked, cex, problem)
    return Verdict(True, checked)


def replay_counterexample(w: BisimWitness, cex: Counterexample) -> bool:
    """Re-execute a counterexample from scratch; True when it still violates
    a matching clause (unrelated pair, label or owner mismatch, missing or
    unenabled counterpart, or unrelated successors), stepping through a
    fresh memo."""
    if cex.direction == "relation":
        return not w.contains(cex.q1, cex.q2)
    if cex.direction == "label":
        return w.g1.locations[cex.q1.loc].obs != w.g2.locations[cex.q2.loc].obs
    if cex.direction == "owner":
        return w.g1.owner(cex.q1.loc) is not w.g2.owner(cex.q2.loc)
    forward, t = cex.direction == "forward", cex.move.delay
    e1, e2 = _edges(w, cex.q2, cex.move.edge, forward)
    return _match(w, cex.q1, cex.q2, e1, e2, t.numerator, t.denominator, forward,
                  _Memo().step) is not None


@dataclass
class StageResult:
    name: str
    pairs: int = 0
    moves_checked: int = 0
    failures: list[Counterexample] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class ChainReport:
    stages: list[StageResult]
    warnings: list[str]
    samples_used: int

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.stages)

    def render(self) -> str:
        lines = []
        for s in self.stages:
            status = "pass" if s.passed else "FAIL"
            lines.append(f"{s.name}: {status} ({s.pairs} pairs, {s.moves_checked} moves)")
            for cex in s.failures[:3]:
                lines.append(f"  {cex.direction} {cex.reason} at {cex.q1.loc.render()}"
                             f" move {cex.move.edge}@{cex.move.delay}")
        for wtext in self.warnings:
            lines.append(f"warning: {wtext}")
        return "\n".join(lines)


# Failures kept per stage; once a stage has this many, its later pairs are skipped.
_MAX_FAILURES = 5


def verify_chain(g_isr: Game, samples: int, depth: int, seed: int = 0) -> ChainReport:
    """Build the whole lowering chain of a game, which enters it at its own
    flavor, and check every stage witness (and the composed end-to-end
    witness) on sampled reachable pairs.
    A pair whose owners differ fails its stage with an "owner" counterexample.

    Reachable pairs come from random plays of the source game, lifted through
    the chain so each stage sees genuinely related configurations.  The
    whole call, the chain's construction included, runs with the cyclic
    garbage collector paused: it makes many tuples and no cycle.
    """
    from .chain import build_chain, stage_witnesses

    with collector_paused():
        chain = build_chain(g_isr)
        witnesses = stage_witnesses(chain)
        rng = random.Random(seed)
        sampler = MoveSampler(rng=random.Random(seed + 1))
        memo = _Memo()

        stages = [StageResult(w.name) for w, _, _ in witnesses]
        sampled = _sample_lifted_configs(chain, samples, depth, rng, memo)
        for configs in sampled:
            for (w, i, j), result in zip(witnesses, stages):
                if len(result.failures) >= _MAX_FAILURES:
                    continue
                try:
                    verdict = check_local_bisim(w, configs[i], configs[j], sampler,
                                                memo)
                except OwnershipMismatch as exc:
                    cex = Counterexample(w.name, "owner", configs[i], configs[j],
                                         _NO_MOVE, str(exc))
                    verdict = Verdict(False, 0, cex, cex.reason)
                result.pairs += 1
                result.moves_checked += verdict.checked
                if not verdict.passed:
                    result.failures.append(verdict.counterexample)

    warnings = []
    if not sampled:
        warnings.append("no reachable configurations sampled; result is vacuous")
    return ChainReport(stages, warnings, len(sampled))


def _sample_lifted_configs(chain, samples: int, depth: int, rng: random.Random,
                           memo: _Memo) -> list[tuple[Configuration, ...]]:
    """Up to `samples` reachable lifted configurations, one per game of the
    chain in `Chain.games()` order, by random play of the source game (each
    play at most `depth` moves, ended by a move that does not lift)."""
    from .chain import initial_lifted, lift_step

    out = []
    while len(out) < samples:
        lifted = initial_lifted(chain)
        out.append(tuple(run.last() for run in lifted))
        for _ in range(depth):
            if len(out) >= samples:
                break
            options = memo.enabled(chain.isr, lifted.source.last())
            if not options:
                break
            e, w = options[rng.randrange(len(options))]
            t = Fraction(*w.draw(rng, max_den=6, ray=3))
            try:
                lifted = lift_step(chain, lifted, Move(e.id, t))
            except InvalidHistory:
                break
            out.append(tuple(run.last() for run in lifted))
    return out
