"""Stage relations as data, and sampled checking of alternating bisimulations.

Every lowering stage relates its input game g1 to its output game g2 in the
same way: a g2 location stands for the g1 location left after stripping its
last annotation (or for itself), a g2 valuation is the image of the g1
valuation under a diagonal affine map chosen per g2 location, and a g2 edge
stands for the g1 edge recorded as its provenance, taking the same delay.  A
BisimWitness holds exactly that data, read off the two games by
stage_witness.  Composing two witnesses chains the location and edge maps
and composes the affine maps, so the end-to-end relation of the chain is one
more record of the same kind.

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

from .core import Game, LocId, MoveNotEnabled, OwnershipMismatch, Player
from .semantics import Configuration, DelayWindow, Move, enabled_edges, step


@dataclass(frozen=True)
class Affine:
    """The diagonal valuation map v -> scale*v + shift, one exact pair per
    variable; every scale is nonzero, so the map is invertible."""

    scale: tuple[Fraction, ...]
    shift: tuple[Fraction, ...]

    def apply(self, val: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return tuple(a * x + b for a, x, b in zip(self.scale, val, self.shift))

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

    def move_backward(self, _q1: Configuration, m2: Move) -> Optional[Move]:
        """The g1 counterpart of a g2 move."""
        eid = self.edge_back.get(m2.edge)
        return None if eid is None else Move(eid, m2.delay)


def stage_witness(name: str, g1: Game, g2: Game, strip: bool = False,
                  affine: Optional[Callable[[LocId], Affine]] = None) -> BisimWitness:
    """The relation of one lowering stage, read off the two games.

    Each g2 location stands for itself, or with `strip` for its id minus the
    last annotation; `affine` gives the valuation map at a g2 location (the
    identity when omitted); each g2 edge stands for its provenance.
    """
    loc_back = {l2: (l2.parent() if strip else l2) for l2 in g2.locations}
    maps = {}
    if affine is not None:
        for l2 in g2.locations:
            a = affine(l2)
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
    denominators at most `max_den`.
    """

    rng: random.Random = field(default_factory=lambda: random.Random(0))
    extra: int = 1
    max_den: int = 8

    def delays(self, w: DelayWindow) -> list[Fraction]:
        out = [w.lo]
        if w.hi is None:
            out.append(w.lo + 1)
            out.append(w.lo + 2)
            span = Fraction(2)
        else:
            if w.hi != w.lo:
                out.append((w.lo + w.hi) / 2)
                out.append(w.hi)
            span = w.hi - w.lo
        for _ in range(self.extra):
            if span == 0:
                break
            den = self.rng.randint(1, self.max_den)
            num = self.rng.randint(0, den)
            out.append(w.lo + Fraction(num, den) * span)
        seen = set()
        uniq = []
        for t in out:
            if t not in seen:
                seen.add(t)
                uniq.append(t)
        return uniq

    def moves(self, g: Game, q: Configuration) -> list[Move]:
        out = []
        for e, w in enabled_edges(g, q):
            for t in self.delays(w):
                out.append(Move(e.id, t))
        return out


@dataclass(frozen=True)
class Counterexample:
    """A concrete violation of one matching clause, sufficient to replay."""

    witness: str
    direction: str  # "forward" (a g1 move unmatched) or "backward"
    q1: Configuration
    q2: Configuration
    move: Move
    reason: str


@dataclass(frozen=True)
class Verdict:
    passed: bool
    checked: int
    counterexample: Optional[Counterexample] = None
    reason: str = ""


def _match(w: BisimWitness, q1: Configuration, q2: Configuration, move: Move,
           forward: bool) -> Optional[str]:
    """The matching clause for one sampled move: a g1 move from q1 matched
    by its g2 counterpart from q2 when `forward`, else a g2 move from q2 by
    its g1 counterpart.  The mover's side steps first."""
    other = w.move_forward(q2, move) if forward else w.move_backward(q1, move)
    if other is None:
        return "no counterpart move"
    if other.delay != move.delay:
        return "counterpart changes the delay"
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


def check_local_bisim(w: BisimWitness, q1: Configuration, q2: Configuration,
                      sampler: Optional[MoveSampler] = None) -> Verdict:
    """Check the matching clauses at one related pair on sampled moves.

    The owner's moves are matched first (g1 moves forward for player one,
    g2 moves backward for player two), then the other side's, so a Pass
    certifies sampled bisimulation rather than one-way simulation.  The
    first unmatched move ends the check.
    """
    sampler = sampler or MoveSampler()
    if not w.contains(q1, q2):
        return Verdict(False, 0, None, "pair not in the relation")
    own1 = w.g1.owner(q1.loc)
    own2 = w.g2.owner(q2.loc)
    if own1 is not own2:
        raise OwnershipMismatch(
            f"{q1.loc.render()} owned by {own1.name}, {q2.loc.render()} by {own2.name}")
    if w.g1.locations[q1.loc].obs != w.g2.locations[q2.loc].obs:
        cex = Counterexample(w.name, "label", q1, q2, Move("-", Fraction(0)),
                             "observations differ")
        return Verdict(False, 0, cex, "observations differ")

    checked = 0
    owner_forward = own1 is Player.ONE
    for forward in (owner_forward, not owner_forward):
        g, q = (w.g1, q1) if forward else (w.g2, q2)
        for move in sampler.moves(g, q):
            checked += 1
            problem = _match(w, q1, q2, move, forward)
            if problem:
                cex = Counterexample(w.name, "forward" if forward else "backward",
                                     q1, q2, move, problem)
                return Verdict(False, checked, cex, problem)
    return Verdict(True, checked)


def replay_counterexample(w: BisimWitness, cex: Counterexample) -> bool:
    """Re-execute a counterexample from scratch; True when it still violates
    a matching clause (label mismatch, missing or unenabled counterpart, or
    unrelated successors)."""
    if cex.direction == "label":
        return w.g1.locations[cex.q1.loc].obs != w.g2.locations[cex.q2.loc].obs
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


def verify_chain(g_isr: Game, samples: int, depth: int, seed: int = 0,
                 max_failures: int = 5) -> ChainReport:
    """Build the whole lowering chain of an ISR game and check every stage
    witness (and the composed end-to-end witness) on sampled reachable pairs.

    Reachable pairs come from random plays of the source game, lifted through
    the chain so each stage sees genuinely related configurations.
    """
    from .chain import build_chain, stage_witnesses

    chain = build_chain(g_isr)
    witnesses = stage_witnesses(chain)
    rng = random.Random(seed)
    sampler = MoveSampler(rng=random.Random(seed + 1))

    stages = {w.name: StageResult(w.name) for w in witnesses}
    tuples = _sample_lifted_tuples(chain, samples, depth, rng)
    for lifted in tuples:
        for w, (qa, qb) in zip(witnesses, _stage_pairs(lifted)):
            result = stages[w.name]
            if len(result.failures) >= max_failures:
                continue
            verdict = check_local_bisim(w, qa, qb, sampler)
            result.pairs += 1
            result.moves_checked += verdict.checked
            if not verdict.passed and verdict.counterexample is not None:
                result.failures.append(verdict.counterexample)

    warnings = []
    if not tuples:
        warnings.append("no reachable configurations sampled; result is vacuous")
    return ChainReport(list(stages.values()), warnings, len(tuples))


def _stage_pairs(lifted) -> list[tuple[Configuration, Configuration]]:
    qs, qw, qa, qu, qt = lifted
    return [(qs, qw), (qw, qa), (qa, qu), (qw, qu), (qu, qt), (qs, qt)]


def _sample_lifted_tuples(chain, samples: int, depth: int, rng: random.Random):
    """Collect up to `samples` reachable lifted configuration tuples by
    random play of the source game (each play at most `depth` moves)."""
    from .chain import initial_lifted, lift_step

    out = []
    guard = 0
    while len(out) < samples and guard < samples * 4:
        guard += 1
        lifted = initial_lifted(chain)
        out.append(lifted.snapshot())
        for _ in range(depth):
            if len(out) >= samples:
                break
            q = lifted.source_config()
            options = enabled_edges(chain.isr, q)
            if not options:
                break
            e, w = options[rng.randrange(len(options))]
            t = _random_delay(w, rng)
            lifted = lift_step(chain, lifted, Move(e.id, t))
            out.append(lifted.snapshot())
    return out[:samples]


def _random_delay(w: DelayWindow, rng: random.Random) -> Fraction:
    if w.hi is None:
        span = Fraction(3)
    else:
        span = w.hi - w.lo
    if span == 0:
        return w.lo
    den = rng.randint(1, 6)
    num = rng.randint(0, den)
    return w.lo + Fraction(num, den) * span
