"""Region abstraction and attractor solving for integer-bounded timed games.

The classical clock-region construction: a region records, per clock, the
integer part (or that the clock has passed its maximal relevant constant),
which clocks have fractional part zero, and the relative order of the
positive fractional parts.  Guards with closed integer bounds cannot tell two
valuations of the same region apart, time successors walk a finite chain of
regions, and resets to zero stay inside the abstraction, so the turn-based
reachability and safety games are solved exactly by one finite attractor
with the players swapped.  Losing verdicts carry player two's spoiler.

Regions, region nodes and region moves are named tuples, so hashing and
comparing them runs in C.  The region graph computes moves once
per (location, region): a node's move list is the moves fired at its own
region followed by the list of its time successor at the same location.

The solver works on node ids, the nodes' indices in discovery order: the
region graph stores each move's successor id and lists each node's
predecessors once, and the attractor is one worklist over join times,
linear in moves up to a heap (Liu & Smolka, "Simple linear-time algorithms
for minimal fixed points", ICALP 1998).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

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


class Region(NamedTuple):
    """ints: per-clock integer part, None once the clock exceeds its bound.
    fracs: per-clock fractional rank; -1 above the bound, 0 for integer
    valuations, else 1-based rank of the clock's fractional part among the
    distinct positive fractional parts in the region, so the positive ranks
    are exactly 1..k."""

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
    if not present or present[-1] == len(present):
        return tuple(fracs)
    remap = {c: j + 1 for j, c in enumerate(present)}
    return tuple(remap.get(c, c) if c >= 1 else c for c in fracs)


def time_successor(r: Region, bounds: tuple[int, ...]) -> Region:
    """The next region reached by letting time pass; fully-above regions are
    their own successor.  Ranks stay canonical: either every positive class
    moves up one under the new class 1, or the top class becomes 0."""
    ints, fracs = r
    if 0 in fracs:
        # Integer-valued clocks start fracturing; they form the new lowest
        # fractional class unless they cross their bound.
        ints, fracs = list(ints), list(fracs)
        stays = False
        for i, f in enumerate(fracs):
            if f == 0:
                if ints[i] == bounds[i]:
                    ints[i], fracs[i] = None, -1
                else:
                    stays = True
        if stays:
            fracs = [f + 1 if f >= 0 else f for f in fracs]
        return Region(tuple(ints), tuple(fracs))
    top = max(fracs, default=0)
    if top < 1:
        return r
    return Region(tuple(ip + 1 if f == top else ip for ip, f in zip(ints, fracs)),
                  tuple(0 if f == top else f for f in fracs))


def time_closure(r: Region, bounds: tuple[int, ...]) -> list[Region]:
    """All regions reachable by letting time pass, the region itself first.

    Time successors only move forward and end at the fully-above region,
    which is its own successor."""
    closure = [r]
    while (nxt := time_successor(closure[-1], bounds)) != closure[-1]:
        closure.append(nxt)
    return closure


def apply_reset(r: Region, reset_idxs: tuple[int, ...]) -> Region:
    """The region after setting the clocks `reset_idxs` to zero; the only
    region operation that can empty a fractional class, so it renumbers."""
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


class RegionNode(NamedTuple):
    loc: LocId
    region: Region


class RegionMove(NamedTuple):
    """Wait until the clocks sit in `region`, then take `edge`."""

    region: Region
    edge: str


@dataclass
class RegionGame:
    """`succ_ids[k]` holds the id, the index in `nodes`, of the successor of
    each move of `nodes[k]`, aligned with `moves[nodes[k]]`."""

    game: Game
    scale: int
    bounds: tuple[int, ...]
    nodes: list[RegionNode]
    moves: dict[RegionNode, tuple[RegionMove, ...]]
    init: RegionNode
    succ_ids: list[tuple[int, ...]]

    @cached_property
    def successor(self) -> dict[tuple[RegionNode, RegionMove], RegionNode]:
        """The node each move leads to, keyed by (node, move): a view of
        `succ_ids` built on first read."""
        return {(node, mv): self.nodes[s]
                for node, succs in zip(self.nodes, self.succ_ids)
                for mv, s in zip(self.moves[node], succs)}

    @cached_property
    def pred_ids(self) -> list[list[int]]:
        """Per node id, the id of the source of every move into it, one
        entry per move; built once and shared by both objectives."""
        preds: list[list[int]] = [[] for _ in self.nodes]
        for k, succs in enumerate(self.succ_ids):
            for s in succs:
                preds[s].append(k)
        return preds

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


def _clock_bounds(g: Game) -> tuple[int, ...]:
    maxima = [0] * len(g.vars)
    for triples in g.guards.values():
        for i, lo, hi in triples:
            for b in (lo, hi):
                if b.denominator != 1:
                    raise InvalidGame("region construction needs integer guard bounds")
                if b >= 0:
                    maxima[i] = max(maxima[i], int(b))
    return tuple(maxima)


def build_region_graph(g: Game, scale: int = 1) -> RegionGame:
    """Reachable region graph of an integer-bounded timed game.

    Joint moves are (time-successor region, edge) pairs, the self region
    included; the successor node applies the edge's reset set.  Node and move
    orders are deterministic (breadth-first discovery order; closure order
    then edge id).  Moves are computed once per (location, region): a node's
    move list is the moves fired at its own region followed by the list of
    its time successor at the same location, so nodes whose time closures
    meet share that list's tail, and a reset is applied once per (region,
    reset set).  `scale` records the factor the clocks were multiplied by to
    reach integer bounds, so concretized delays can be divided back down.
    """
    if g.flavor is not Flavor.TIMED:
        raise InvalidGame("region construction requires a timed-flavor game")
    bounds = _clock_bounds(g)
    guards = {eid: tuple((i, int(lo), int(hi)) for i, lo, hi in triples)
              for eid, triples in g.guards.items()}
    resets = {eid: tuple(i for i, _ in pairs) for eid, pairs in g.resets.items()}

    init = RegionNode(g.init, region_of((ZERO,) * len(g.vars), bounds))
    nodes: list[RegionNode] = [init]
    ids = {init: 0}
    moves: dict[RegionNode, tuple[RegionMove, ...]] = {}
    succ_ids: list[tuple[int, ...]] = []
    # (location, region) -> the moves of a node there and their successor ids
    lists: dict[RegionNode, tuple[tuple[RegionMove, ...], tuple[int, ...]]] = {}
    after_reset: dict[tuple[Region, tuple[int, ...]], Region] = {}
    # `nodes` grows while it is walked, which visits nodes breadth-first
    for node in nodes:
        if node not in lists:
            # fire the regions of the closure not yet listed at this
            # location, in closure order, so successors keep their
            # discovery order; the listed tail's successors all have ids
            loc, r = node
            edges = g.edges_from(loc)
            key, fired, tail = node, [], ((), ())
            while True:
                own: list[RegionMove] = []
                own_ids: list[int] = []
                for e in edges:
                    if not region_satisfies(r, guards[e.id]):
                        continue
                    pair = (r, resets[e.id])
                    if pair not in after_reset:
                        after_reset[pair] = apply_reset(*pair)
                    succ = RegionNode(e.dst, after_reset[pair])
                    k = ids.setdefault(succ, len(nodes))
                    if k == len(nodes):
                        nodes.append(succ)
                    own.append(RegionMove(r, e.id))
                    own_ids.append(k)
                fired.append((key, own, own_ids))
                nxt = time_successor(r, bounds)
                if nxt == r:
                    break
                r, key = nxt, RegionNode(loc, nxt)
                if key in lists:
                    tail = lists[key]
                    break
            for key, own, own_ids in reversed(fired):
                if own:
                    tail = (*own, *tail[0]), (*own_ids, *tail[1])
                lists[key] = tail
        moves[node], node_ids = lists[node]
        succ_ids.append(node_ids)
    return RegionGame(g, scale, bounds, nodes, moves, init, succ_ids)


@dataclass
class SolveResult:
    """`strategy` holds player one's moves on winning nodes; `spoiler` holds
    player two's moves on the other nodes, the certificate of a loss."""

    winning: frozenset
    strategy: dict[RegionNode, RegionMove]
    spoiler: dict[RegionNode, RegionMove] = field(default_factory=dict)

    def wins_from_init(self, rg: RegionGame) -> bool:
        return rg.init in self.winning


JoinTime = tuple[int, int]


def _attractor(rg: RegionGame, player: Player, seed: list[int]
               ) -> tuple[list[Optional[JoinTime]], dict[RegionNode, RegionMove]]:
    """The join time of every node from which `player` forces a visit to the
    nodes with ids `seed` (None for the others), and each attracted `player`
    node's move into the set when it joined.

    A join time is the (pass, index) at which a sweep that visits `rg.nodes`
    in order, pass after pass until one adds nothing, would add the node;
    seed nodes join at (1, -1).  A successor that joined at (p, i) offers
    node j the time (p, j) if i < j, else (p + 1, j).  A `player` node joins
    at its first offer, an opponent node at the offer that leaves none of
    its moves outside, so deadlocks never join.  A heap finalises nodes in
    join-time order, each move is relaxed once, and the recorded move is the
    node's first move whose successor joined earlier; moves are recorded in
    join-time order.  Every move of an attracted opponent node also leads to
    a node that joined earlier.
    """
    nodes, succ_ids, preds = rg.nodes, rg.succ_ids, rg.pred_ids
    mine = [rg.owner(n) is player for n in nodes]
    # per opponent node, its moves not yet attracted
    outside = [len(succs) for succs in succ_ids]
    queued = [False] * len(nodes)
    joined: list[Optional[JoinTime]] = [None] * len(nodes)
    moves: dict[RegionNode, RegionMove] = {}
    # (pass, index, id): a seed's index is -1, any other node's is its id
    heap = [(1, -1, k) for k in seed]
    for k in seed:
        queued[k] = True
    while heap:
        p, i, k = heapq.heappop(heap)
        if i >= 0 and mine[k]:
            node = nodes[k]
            m = next(m for m, s in enumerate(succ_ids[k]) if joined[s] is not None)
            moves[node] = rg.moves[node][m]
        joined[k] = (p, i)
        for j in preds[k]:
            if queued[j]:
                continue
            if not mine[j]:
                outside[j] -= 1
                if outside[j]:
                    continue
            queued[j] = True
            heapq.heappush(heap, (p if i < j else p + 1, j, j))
    return joined, moves


def _stay_out(rg: RegionGame, player: Player, joined: list[Optional[JoinTime]]
              ) -> dict[RegionNode, RegionMove]:
    """For each `player` node that never joined the opponent's attractor,
    its first move that stays outside; only deadlocked nodes have none."""
    out: dict[RegionNode, RegionMove] = {}
    for k, node in enumerate(rg.nodes):
        if joined[k] is not None or rg.owner(node) is not player:
            continue
        for m, s in enumerate(rg.succ_ids[k]):
            if joined[s] is None:
                out[node] = rg.moves[node][m]
                break
    return out


def solve_reachability(rg: RegionGame, target_obs: frozenset) -> SolveResult:
    """Player one's attractor to the target observations.  A halted play
    reaches nothing, so deadlocked nodes outside the target lose; each
    strategy move leads to a node that joined the attractor earlier, so the
    target is reached, and the spoiler keeps plays outside the attractor."""
    joined, strategy = _attractor(
        rg, Player.ONE, [k for k, n in enumerate(rg.nodes) if rg.obs(n) in target_obs])
    winning = frozenset(n for n, t in zip(rg.nodes, joined) if t is not None)
    return SolveResult(winning, strategy, _stay_out(rg, Player.TWO, joined))


def solve_safety(rg: RegionGame, safe_obs: frozenset) -> SolveResult:
    """Complement of player two's attractor to the unsafe observations.
    Halting is safe; the strategy keeps plays outside the attractor and each
    spoiler move leads to a node that joined the attractor earlier, so an
    unsafe observation is forced."""
    joined, spoiler = _attractor(
        rg, Player.TWO, [k for k, n in enumerate(rg.nodes) if rg.obs(n) not in safe_obs])
    winning = frozenset(n for n, t in zip(rg.nodes, joined) if t is None)
    return SolveResult(winning, _stay_out(rg, Player.ONE, joined), spoiler)
