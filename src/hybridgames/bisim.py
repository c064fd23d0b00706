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
counterexample that replays).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .core import (OFFSET_KIND, ONE, ZERO, Annotation, Edge, Game, LocId,
                   MoveNotEnabled, OwnershipMismatch, Player, interned)
from .semantics import Configuration, DelayWindow, Move, enabled_edges, step


@dataclass(frozen=True)
class Affine:
    """The diagonal valuation map v -> scale*v + shift, one exact pair per
    variable; every scale is nonzero, so the map is invertible.  A scale of
    1 is stored as the shared ONE and a shift of 0 as ZERO, so apply skips
    them by identity."""

    scale: tuple[Fraction, ...]
    shift: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", tuple(map(interned, self.scale)))
        object.__setattr__(self, "shift", tuple(map(interned, self.shift)))

    def apply(self, val: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        out = []
        for a, x, b in zip(self.scale, val, self.shift):
            if a is not ONE:
                x = a * x
            out.append(x if b is ZERO else x + b)
        return tuple(out)

    def inverse(self) -> "Affine":
        scale = tuple(1 / a for a in self.scale)
        return Affine(scale, tuple(-b * s for b, s in zip(self.shift, scale)))

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

    def _image(self, loc2: LocId, val: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        a = self.affine.get(loc2)
        return val if a is None else a.apply(val)

    def contains(self, q1: Configuration, q2: Configuration) -> bool:
        """Relation membership."""
        return (self.loc_back.get(q2.loc) == q1.loc
                and self._image(q2.loc, q1.val) == q2.val)

    def forward_configs(self, q1: Configuration) -> tuple[Configuration, ...]:
        """Every g2 partner of a g1 configuration, one per g2 location that
        stands for its location, ordered by rendered location id."""
        locs = sorted((l2 for l2, l1 in self.loc_back.items() if l1 == q1.loc),
                      key=LocId.render)
        return tuple(Configuration(l2, self._image(l2, q1.val)) for l2 in locs)

    def backward_config(self, q2: Configuration) -> Configuration:
        """The g1 configuration a g2 configuration stands for."""
        a = self.affine.get(q2.loc)
        val = q2.val if a is None else a.inverse().apply(q2.val)
        return Configuration(self.loc_back[q2.loc], val)

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
    denominators at most 8.

    The probe moves of each list of enabled edges are built once and kept,
    with the list, for the sampler's lifetime: a verify_chain call hands its
    sampler one list per (game, configuration), so a probe move sampled again
    is the same object and memo keys holding it compare by identity.  The
    extras are drawn afresh on every call.
    """

    rng: random.Random = field(default_factory=lambda: random.Random(0))
    extra: int = 1
    _probe_moves: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def delays(self, w: DelayWindow) -> list[Fraction]:
        out = list(w.probes)
        for _ in range(self.extra):
            t = w.draw(self.rng, max_den=8, ray=2)
            if t not in out:
                out.append(t)
        return out

    def moves_in(self, windows: list[tuple[Edge, DelayWindow]]) -> list[Move]:
        """The sampled moves of already computed enabled edges."""
        # Keyed by the list's id; the entry holds the list, so the id is not
        # reused while the entry lives.
        entry = self._probe_moves.get(id(windows))
        if entry is None:
            entry = self._probe_moves[id(windows)] = (
                windows, [[Move(e.id, t) for t in w.probes] for e, w in windows])
        out = []
        for (e, w), probes in zip(windows, entry[1]):
            out += probes
            out += [Move(e.id, t) for t in self.delays(w)[len(probes):]]
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


def _match(w: BisimWitness, q1: Configuration, q2: Configuration, move: Move,
           forward: bool, step: Callable = step) -> Optional[str]:
    """The matching clause for one sampled move: a g1 move from q1 matched
    by its g2 counterpart from q2 when `forward`, else a g2 move from q2 by
    its g1 counterpart.  The mover's side steps first, through `step`."""
    other = w.move_forward(q2, move) if forward else w.move_backward(move)
    if other is None:
        return "no counterpart move"
    try:
        if forward:
            q1n, q2n = step(w.g1, q1, move), step(w.g2, q2, other)
        else:
            q2n, q1n = step(w.g2, q2, move), step(w.g1, q1, other)
    except MoveNotEnabled as exc:
        return f"counterpart not enabled ({exc})"
    if not w.contains(q1n, q2n):
        return "successors not related"
    return None


def _mirror(w: BisimWitness, q2: Configuration, move: Move,
            forward: bool) -> Optional[Move]:
    """The move of the opposite clause that steps the same two moves: the
    counterpart of `move`, when the counterpart's own counterpart is `move`
    again, else None."""
    other = w.move_forward(q2, move) if forward else w.move_backward(move)
    if other is None:
        return None
    back = w.move_backward(other) if forward else w.move_forward(q2, other)
    return other if back == move else None


# Marks a clause outcome not yet computed (None is the outcome of a match).
_UNSEEN = object()


class _Memo:
    """What one verify_chain call, or one check_local_bisim call given no
    memo, has computed, each table a pure function of its key: the enabled
    edges of a (game, configuration), the successor of a (game,
    configuration, move) or the text of its MoveNotEnabled, and per
    (witness, q1, q2) pair one table of clause outcomes keyed by (move,
    direction).  Each clause is decided at most once: a passing clause also
    answers its mirror, the other direction's clause on its counterpart
    move, when each move is the other's counterpart, since both step the
    same two moves and test the same membership.  A failure answers only
    itself, so every counterexample is computed by its own clause.  Games
    and witnesses are keyed by id, so a memo must not outlive the call that
    holds them."""

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

    def step(self, g: Game, q: Configuration, move: Move) -> Configuration:
        key = (id(g), q, move)
        out = self.steps.get(key)
        if out is None:
            try:
                out = step(g, q, move)
            except MoveNotEnabled as exc:
                out = str(exc)
            self.steps[key] = out
        if isinstance(out, str):
            raise MoveNotEnabled(out)
        return out

    def clauses_at(self, w: BisimWitness, q1: Configuration,
                   q2: Configuration) -> dict:
        """The clause table of one related pair under one witness."""
        key = (id(w), q1, q2)
        table = self.clauses.get(key)
        if table is None:
            table = self.clauses[key] = {}
        return table

    def match(self, table: dict, w: BisimWitness, q1: Configuration,
              q2: Configuration, move: Move, forward: bool) -> Optional[str]:
        key = (move, forward)
        out = table.get(key, _UNSEEN)
        if out is _UNSEEN:
            out = table[key] = _match(w, q1, q2, move, forward, self.step)
            if out is None:
                mirror = _mirror(w, q2, move, forward)
                if mirror is not None:
                    table[mirror, not forward] = None
        return out


def check_local_bisim(w: BisimWitness, q1: Configuration, q2: Configuration,
                      sampler: Optional[MoveSampler] = None,
                      memo: Optional[_Memo] = None) -> Verdict:
    """Check the matching clauses at one related pair on sampled moves.

    The owner's moves are matched first (g1 moves forward for player one,
    g2 moves backward for player two), then the other side's, so a Pass
    certifies sampled bisimulation rather than one-way simulation.  The
    first unmatched move ends the check.  A `memo` (verify_chain's) only
    saves recomputing: its table for this pair, fetched once, decides each
    clause at most once, a passing clause answering its mirror, and the
    sampler draws the same delays either way.
    """
    sampler = sampler or MoveSampler()
    memo = memo or _Memo()
    if not w.contains(q1, q2):
        cex = Counterexample(w.name, "relation", q1, q2, _NO_MOVE,
                             "pair not in the relation")
        return Verdict(False, 0, cex, cex.reason)
    own1 = w.g1.owner(q1.loc)
    own2 = w.g2.owner(q2.loc)
    if own1 is not own2:
        raise OwnershipMismatch(
            f"{q1.loc.render()} owned by {own1.name}, {q2.loc.render()} by {own2.name}")
    if w.g1.locations[q1.loc].obs != w.g2.locations[q2.loc].obs:
        cex = Counterexample(w.name, "label", q1, q2, _NO_MOVE,
                             "observations differ")
        return Verdict(False, 0, cex, "observations differ")

    checked = 0
    owner_forward = own1 is Player.ONE
    table = memo.clauses_at(w, q1, q2)
    for forward in (owner_forward, not owner_forward):
        g, q = (w.g1, q1) if forward else (w.g2, q2)
        for move in sampler.moves_in(memo.enabled(g, q)):
            checked += 1
            problem = memo.match(table, w, q1, q2, move, forward)
            if problem:
                cex = Counterexample(w.name, "forward" if forward else "backward",
                                     q1, q2, move, problem)
                return Verdict(False, checked, cex, problem)
    return Verdict(True, checked)


def replay_counterexample(w: BisimWitness, cex: Counterexample) -> bool:
    """Re-execute a counterexample from scratch; True when it still violates
    a matching clause (unrelated pair, label or owner mismatch, missing or
    unenabled counterpart, or unrelated successors)."""
    if cex.direction == "relation":
        return not w.contains(cex.q1, cex.q2)
    if cex.direction == "label":
        return w.g1.locations[cex.q1.loc].obs != w.g2.locations[cex.q2.loc].obs
    if cex.direction == "owner":
        return w.g1.owner(cex.q1.loc) is not w.g2.owner(cex.q2.loc)
    return _match(w, cex.q1, cex.q2, cex.move, cex.direction == "forward") is not None


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
    the chain so each stage sees genuinely related configurations.
    """
    from .chain import build_chain, stage_witnesses

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
                verdict = check_local_bisim(w, configs[i], configs[j], sampler, memo)
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
    play at most `depth` moves)."""
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
            t = w.draw(rng, max_den=6, ray=3)
            lifted = lift_step(chain, lifted, Move(e.id, t))
            out.append(tuple(run.last() for run in lifted))
    return out
