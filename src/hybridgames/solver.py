"""Region abstraction and attractor solving for integer-bounded timed games.

The classical clock-region construction: a region records, per clock, the
integer part (or that the clock has passed its maximal relevant constant),
which clocks have fractional part zero, and the relative order of the
positive fractional parts.  Guards with closed integer bounds cannot tell two
valuations of the same region apart, time successors walk a finite chain of
regions, and resets to zero stay inside the abstraction, so the turn-based
reachability and safety games are solved exactly by one finite attractor
with the players swapped.  Losing verdicts carry player two's spoiler.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    Flavor,
    Game,
    InvalidGame,
    LocId,
    NoRealization,
    Player,
    ZERO,
)
from .semantics import Configuration, Move


@dataclass(frozen=True)
class Region:
    """ints: per-clock integer part, None once the clock exceeds its bound.
    fracs: per-clock fractional rank; -1 above the bound, 0 for integer
    valuations, else 1-based rank of the clock's fractional part among the
    distinct positive fractional parts in the region."""

    ints: tuple[Optional[int], ...]
    fracs: tuple[int, ...]


def region_of(val: tuple[Fraction, ...], bounds: tuple[int, ...]) -> Region:
    """The region of an exact valuation (clocks must be nonnegative)."""
    ints: list[Optional[int]] = []
    frac_vals: list[Optional[Fraction]] = []
    for v, m in zip(val, bounds):
        if v < 0:
            raise InvalidGame(f"negative clock value {v}")
        if v > m:
            ints.append(None)
            frac_vals.append(None)
        else:
            ip = v.numerator // v.denominator
            ints.append(ip)
            frac_vals.append(v - ip)
    positive = sorted({f for f in frac_vals if f is not None and f != 0})
    rank = {f: j + 1 for j, f in enumerate(positive)}
    fracs = []
    for f in frac_vals:
        if f is None:
            fracs.append(-1)
        elif f == 0:
            fracs.append(0)
        else:
            fracs.append(rank[f])
    return Region(tuple(ints), tuple(fracs))


def _renumber(fracs: list[int]) -> tuple[int, ...]:
    present = sorted({c for c in fracs if c >= 1})
    remap = {c: j + 1 for j, c in enumerate(present)}
    return tuple(remap.get(c, c) if c >= 1 else c for c in fracs)


def time_successor(r: Region, bounds: tuple[int, ...]) -> Region:
    """The next region reached by letting time pass; fully-above regions are
    their own successor."""
    ints = list(r.ints)
    fracs = list(r.fracs)
    zeros = [i for i in range(len(ints)) if ints[i] is not None and fracs[i] == 0]
    if zeros:
        # Integer-valued clocks start fracturing; they form the new lowest
        # fractional class unless they cross their bound.
        stays = [i for i in zeros if ints[i] < bounds[i]]
        for i in zeros:
            if ints[i] == bounds[i]:
                ints[i] = None
                fracs[i] = -1
        if stays:
            for i in range(len(fracs)):
                if fracs[i] >= 1:
                    fracs[i] += 1
            for i in stays:
                fracs[i] = 1
        return Region(tuple(ints), _renumber(fracs))
    classes = [c for c in fracs if c >= 1]
    if classes:
        top = max(classes)
        for i in range(len(fracs)):
            if fracs[i] == top:
                ints[i] += 1
                fracs[i] = 0
        return Region(tuple(ints), _renumber(fracs))
    return r


def time_closure(r: Region, bounds: tuple[int, ...]) -> list[Region]:
    """All regions reachable by letting time pass, the region itself first."""
    out = [r]
    seen = {r}
    cur = r
    while True:
        nxt = time_successor(cur, bounds)
        if nxt == cur or nxt in seen:
            return out
        out.append(nxt)
        seen.add(nxt)
        cur = nxt


def apply_reset(r: Region, reset_idxs: tuple[int, ...]) -> Region:
    ints = list(r.ints)
    fracs = list(r.fracs)
    for i in reset_idxs:
        ints[i] = 0
        fracs[i] = 0
    return Region(tuple(ints), _renumber(fracs))


def region_satisfies(r: Region, conjuncts: tuple[tuple[int, int, int], ...]) -> bool:
    """Guard test on (clock index, integer lo, integer hi) triples; exactly
    the per-valuation test, which is region-invariant for closed integer
    bounds."""
    for i, lo, hi in conjuncts:
        ip = r.ints[i]
        if ip is None:
            return False
        if r.fracs[i] == 0:
            if not (lo <= ip <= hi):
                return False
        else:
            if not (lo <= ip and ip + 1 <= hi):
                return False
    return True


@dataclass(frozen=True)
class RegionNode:
    loc: LocId
    region: Region


@dataclass(frozen=True)
class RegionMove:
    """Wait until the clocks sit in `region`, then take `edge`."""

    region: Region
    edge: str


@dataclass
class RegionGame:
    game: Game
    scale: int
    bounds: tuple[int, ...]
    nodes: list[RegionNode]
    moves: dict[RegionNode, tuple[RegionMove, ...]]
    successor: dict[tuple[RegionNode, RegionMove], RegionNode]
    init: RegionNode

    def owner(self, node: RegionNode) -> Player:
        return self.game.owner(node.loc)

    def obs(self, node: RegionNode) -> str:
        return self.game.locations[node.loc].obs

    def node_of(self, q: Configuration) -> RegionNode:
        """The node of an unscaled timed configuration."""
        scaled_val = tuple(v * self.scale for v in q.val)
        return RegionNode(q.loc, region_of(scaled_val, self.bounds))

    def concretize_move(self, q: Configuration, mv: RegionMove) -> Move:
        """An exact delay (in unscaled units) realizing a symbolic move from
        an unscaled configuration.

        Candidate delays are the distances to every relevant integer plus the
        midpoints between consecutive candidates, scanned in increasing
        order; the first one landing in the requested region wins.  Failure
        indicates the move does not belong to this configuration's region and
        is reported as NoRealization.
        """
        w = tuple(v * self.scale for v in q.val)
        candidates = {ZERO}
        for i, v in enumerate(w):
            for k in range(self.bounds[i] + 2):
                t = Fraction(k) - v
                if t >= 0:
                    candidates.add(t)
        ordered = sorted(candidates)
        probes: list[Fraction] = []
        for a, b in zip(ordered, ordered[1:]):
            probes.append(a)
            probes.append((a + b) / 2)
        probes.append(ordered[-1])
        probes.append(ordered[-1] + 1)
        for t in probes:
            landed = tuple(x + t for x in w)
            if region_of(landed, self.bounds) == mv.region:
                return Move(mv.edge, t / self.scale)
        raise NoRealization(
            f"no delay from {q.loc.render()} realizes the requested region")


def _clock_bounds(g: Game, per_clock: bool) -> tuple[int, ...]:
    maxima = {var: 0 for var in g.vars}
    for e in g.edges.values():
        for var, iv in e.guard.conjuncts.items():
            for b in (iv.lo, iv.hi):
                if b.denominator != 1:
                    raise InvalidGame("region construction needs integer guard bounds")
                if b >= 0:
                    maxima[var] = max(maxima[var], int(b))
    if per_clock:
        return tuple(maxima[var] for var in g.vars)
    m = max(maxima.values(), default=0)
    return tuple(m for _ in g.vars)


def build_region_graph(g: Game, scale: int = 1,
                       per_clock_bounds: bool = True) -> RegionGame:
    """Reachable region graph of an integer-bounded timed game.

    Joint moves are (time-successor region, edge) pairs, the self region
    included; the successor node applies the edge's reset set.  Node and move
    orders are deterministic (discovery order; closure order then edge id).
    `scale` records the factor the clocks were multiplied by to reach integer
    bounds, so concretized delays can be divided back down.
    """
    if g.flavor is not Flavor.TIMED:
        raise InvalidGame("region construction requires a timed-flavor game")
    bounds = _clock_bounds(g, per_clock_bounds)
    var_idx = {var: i for i, var in enumerate(g.vars)}

    guard_index: dict[str, tuple[tuple[int, int, int], ...]] = {}
    reset_index: dict[str, tuple[int, ...]] = {}
    for eid, e in g.edges.items():
        guard_index[eid] = tuple(
            (var_idx[var], int(iv.lo), int(iv.hi))
            for var, iv in sorted(e.guard.conjuncts.items()))
        rset = e.reset_set if e.reset_set is not None else e.reset.domain()
        reset_index[eid] = tuple(sorted(var_idx[var] for var in rset))

    init = RegionNode(g.init, region_of((ZERO,) * len(g.vars), bounds))
    nodes: list[RegionNode] = [init]
    seen = {init}
    moves: dict[RegionNode, tuple[RegionMove, ...]] = {}
    successor: dict[tuple[RegionNode, RegionMove], RegionNode] = {}
    frontier = deque([init])
    while frontier:
        node = frontier.popleft()
        node_moves: list[RegionMove] = []
        for r in time_closure(node.region, bounds):
            for e in g.edges_from(node.loc):
                if not region_satisfies(r, guard_index[e.id]):
                    continue
                mv = RegionMove(r, e.id)
                node_moves.append(mv)
                succ = RegionNode(e.dst, apply_reset(r, reset_index[e.id]))
                successor[(node, mv)] = succ
                if succ not in seen:
                    seen.add(succ)
                    nodes.append(succ)
                    frontier.append(succ)
        moves[node] = tuple(node_moves)
    return RegionGame(g, scale, bounds, nodes, moves, successor, init)


@dataclass
class SolveResult:
    """`strategy` holds player one's moves on winning nodes; `spoiler` holds
    player two's moves on the other nodes, the certificate of a loss."""

    objective: str
    winning: frozenset
    strategy: dict[RegionNode, RegionMove]
    spoiler: dict[RegionNode, RegionMove] = field(default_factory=dict)

    def wins_from_init(self, rg: RegionGame) -> bool:
        return rg.init in self.winning


def _attractor(rg: RegionGame, player: Player, seed: set
               ) -> tuple[set, dict[RegionNode, RegionMove]]:
    """The nodes from which `player` forces a visit to `seed`, and each
    attracted `player` node's first move into the set when it joined.

    Passes over `rg.nodes` grow the set in place until one adds nothing.
    Opponent nodes join once they have a move and all moves lead in, so
    deadlocks never join.  Every recorded move, and every move of an
    attracted opponent node, leads to a node that joined earlier.
    """
    attr = set(seed)
    moves: dict[RegionNode, RegionMove] = {}
    changed = True
    while changed:
        changed = False
        for node in rg.nodes:
            if node in attr:
                continue
            node_moves = rg.moves[node]
            if rg.owner(node) is player:
                for mv in node_moves:
                    if rg.successor[(node, mv)] in attr:
                        moves[node] = mv
                        break
                else:
                    continue
            elif not (node_moves and all(rg.successor[(node, mv)] in attr
                                         for mv in node_moves)):
                continue
            attr.add(node)
            changed = True
    return attr, moves


def _stay_out(rg: RegionGame, player: Player, attr: set
              ) -> dict[RegionNode, RegionMove]:
    """For each `player` node outside the opponent's attractor `attr`, its
    first move that stays outside; only deadlocked nodes have none."""
    out: dict[RegionNode, RegionMove] = {}
    for node in rg.nodes:
        if node in attr or rg.owner(node) is not player:
            continue
        for mv in rg.moves[node]:
            if rg.successor[(node, mv)] not in attr:
                out[node] = mv
                break
    return out


def solve_reachability(rg: RegionGame, target_obs: frozenset) -> SolveResult:
    """Player one's attractor to the target observations.  A halted play
    reaches nothing, so deadlocked nodes outside the target lose; the
    strategy reaches the target within one pass over the node set and the
    spoiler keeps plays outside the attractor."""
    win, strategy = _attractor(
        rg, Player.ONE, {n for n in rg.nodes if rg.obs(n) in target_obs})
    target_text = ",".join(sorted(target_obs))
    return SolveResult(f"reach:{target_text}", frozenset(win), strategy,
                       _stay_out(rg, Player.TWO, win))


def solve_safety(rg: RegionGame, safe_obs: frozenset) -> SolveResult:
    """Complement of player two's attractor to the unsafe observations.
    Halting is safe; the strategy keeps plays outside the attractor and the
    spoiler forces an unsafe observation within one pass over the nodes."""
    bad, spoiler = _attractor(
        rg, Player.TWO, {n for n in rg.nodes if rg.obs(n) not in safe_obs})
    winning = frozenset(n for n in rg.nodes if n not in bad)
    safe_text = ",".join(sorted(safe_obs))
    return SolveResult(f"safe:{safe_text}", winning,
                       _stay_out(rg, Player.ONE, bad), spoiler)
