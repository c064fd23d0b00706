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
The build numbers each distinct region the first time it makes it, and
works on those ids from then on: one table per location maps a region id
to its node id and move list, and each region's time successor and reset
images are computed once and kept as ids.

The package reads region graphs and solves on ids alone.  A node's id
is its index in discovery order and a move's id is its region id times
the number of edges plus its edge's index in `game.edges`, so the region
graph is lists of ints aligned with node ids: each node's location index
and region id, its move ids, and each move's successor id.  A solve, the
region strategy the strategy files hold and the positional strategy
plays, records per node id a verdict and a move id; `move(m)` names a
move as its (region, edge) pair.  The node list and the dicts keyed by
nodes and moves are views built on first read for readers outside the
package; no other module of the package reads them.

Reading a configuration (`region_of`, `node_of`, `concretize_move`) puts
its valuation over one common denominator as integer numerators, so a
clock's integer and fractional parts are the quotient and remainder of
one `divmod` and no `Fraction` operator runs; `concretize_move` takes its
candidate delays over twice that denominator, so each midpoint is an
integer, and builds only the delay it returns as a `Fraction`.

The attractor is one worklist over join times, linear in moves up to a
heap (Liu & Smolka, "Simple linear-time algorithms for minimal fixed
points", ICALP 1998), that tests owners and observations per location
index.

The build runs with the cyclic garbage collector paused, and so does the
witness checker's `verify_chain`, through the one helper
`collector_paused`.  Each makes hundreds of thousands of tuples and no
reference cycle, so every collection the allocations would trigger scans
them and frees nothing; the collector is switched back on afterwards
only if it was on.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
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
    """The region of an exact valuation (clocks must be nonnegative), read
    as integer numerators over the valuation's least common denominator."""
    return _region(*_over_one_denominator(val, 1), bounds)


def _over_one_denominator(val: tuple[Fraction, ...], scale: int
                          ) -> tuple[list[int], int]:
    """The numerators of `val` times `scale` over the least common
    denominator `d` of `val`, and `d`."""
    d = lcm(*[v.denominator for v in val])
    return [v.numerator * (d // v.denominator) * scale for v in val], d


def _region(nums: list[int], d: int, bounds: tuple[int, ...]) -> Region:
    """The region of the valuation whose clocks are `nums` over `d`: a
    clock's integer and fractional parts are the quotient and remainder of
    one `divmod`, and the fractional ranks sort those remainders."""
    ints: list[Optional[int]] = []
    rems: list[int] = []
    for x, m in zip(nums, bounds):
        # before the divmod, which would floor a negative numerator
        if x < 0:
            raise InvalidGame(f"negative clock value {Fraction(x, d)}")
        if x > m * d:
            ints.append(None)
            rems.append(-1)
        else:
            ip, r = divmod(x, d)
            ints.append(ip)
            rems.append(r)
    rank = {r: j for j, r in enumerate(sorted(set(rems) - {-1, 0}), 1)}
    rank[0], rank[-1] = 0, -1
    return Region(tuple(ints), tuple([rank[r] for r in rems]))


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
    return Region(tuple([ip + 1 if f == top else ip for ip, f in zip(ints, fracs)]),
                  tuple([0 if f == top else f for f in fracs]))


def apply_reset(r: Region, reset_idxs: tuple[int, ...]) -> Region:
    """The region after setting the clocks `reset_idxs` to zero; the only
    region operation that can empty a fractional class, and each class it
    empties moves every higher rank down one."""
    ints, fracs = list(r.ints), list(r.fracs)
    for i in reset_idxs:
        c = fracs[i]
        ints[i] = fracs[i] = 0
        if c > 0 and c not in fracs:
            fracs = [f - 1 if f > c else f for f in fracs]
    return Region(tuple(ints), tuple(fracs))


def region_satisfies(r: Region, conjuncts: tuple[tuple[int, int, int], ...]) -> bool:
    """Guard test on (clock index, integer lo, integer hi) triples; exactly
    the per-valuation test, which is region-invariant for closed integer
    bounds: a clock with a fractional part lies in (ip, ip + 1)."""
    ints, fracs = r
    for i, lo, hi in conjuncts:
        ip = ints[i]
        if ip is None or ip < lo or (ip if fracs[i] == 0 else ip + 1) > hi:
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
    """The region graph on ids.  Node k sits at location
    `node_locs[k]` (an index into `game.locations`) in region
    `regions[node_regions[k]]`; node 0 is the initial node.
    `move_ids[k]` holds the ids of its moves and `succ_ids[k]` the id of
    each one's successor, aligned with it.  Move id m waits until the
    clocks sit in region m // E and takes edge m % E, E being the number
    of edges and each edge numbered by its place in `game.edges`;
    `move(m)` names it as a `RegionMove`.  `node_ids` maps a (location,
    region) pair to its node id, and `node_of` a configuration.

    `nodes`, `moves` and `successor` are views of these lists on
    `RegionNode`s and `RegionMove`s, built on first read, for readers
    outside the package."""

    game: Game
    scale: int
    bounds: tuple[int, ...]
    regions: list[Region]
    node_locs: list[int]
    node_regions: list[int]
    move_ids: list[tuple[int, ...]]
    succ_ids: list[tuple[int, ...]]

    @cached_property
    def nodes(self) -> list[RegionNode]:
        """The nodes in id order."""
        return [RegionNode(*key) for key in self.node_ids]

    @cached_property
    def node_ids(self) -> dict[tuple[LocId, Region], int]:
        """Each node's id, keyed by its (location, region) pair, which
        hashes and compares equal to its `RegionNode`."""
        locs, regions = list(self.game.locations), self.regions
        return {(locs[li], regions[r]): k
                for k, (li, r) in enumerate(zip(self.node_locs, self.node_regions))}

    @cached_property
    def _edges(self) -> list[str]:
        return list(self.game.edges)

    def move(self, m: int) -> RegionMove:
        """The move with id `m`."""
        n = len(self._edges)
        return RegionMove(self.regions[m // n], self._edges[m % n])

    @cached_property
    def moves(self) -> dict[RegionNode, tuple[RegionMove, ...]]:
        """Each node's moves, keyed by node."""
        return {node: tuple(map(self.move, ms))
                for node, ms in zip(self.nodes, self.move_ids)}

    @cached_property
    def successor(self) -> dict[tuple[RegionNode, RegionMove], RegionNode]:
        """The node each move leads to, keyed by (node, move)."""
        nodes = self.nodes
        return {(node, mv): nodes[s]
                for (node, moves), succs in zip(self.moves.items(), self.succ_ids)
                for mv, s in zip(moves, succs)}

    @cached_property
    def pred_ids(self) -> list[list[int]]:
        """Per node id, the id of the source of every move into it, one
        entry per move; built once and shared by both objectives."""
        preds: list[list[int]] = [[] for _ in self.succ_ids]
        for k, succs in enumerate(self.succ_ids):
            for s in succs:
                preds[s].append(k)
        return preds

    def node_of(self, q: Configuration) -> Optional[int]:
        """The id of an unscaled timed configuration's node, or None when
        its (location, region) is not a node of the graph.  The valuation
        is read as integers over its least common denominator, with the
        graph's scale multiplied in."""
        nums, d = _over_one_denominator(q.val, self.scale)
        return self.node_ids.get((q.loc, _region(nums, d, self.bounds)))

    def concretize_move(self, q: Configuration, mv: RegionMove) -> Move:
        """An exact delay (in unscaled units) realizing a symbolic move from
        an unscaled configuration.

        Candidate delays are the distances to every relevant integer plus the
        midpoints between consecutive candidates, scanned in increasing
        order; the first one landing in the requested region wins.  Failure
        indicates the move does not belong to this configuration's region and
        is reported as NoRealization.  The scaled valuation is read as
        integers over its least common denominator `d`, and every candidate
        is taken over `2d`, so each midpoint is an integer too; only the
        returned delay is built as a `Fraction`.
        """
        nums, d = _over_one_denominator(q.val, self.scale)
        big, bounds = 2 * d, self.bounds
        w = [2 * x for x in nums]
        candidates = {0}
        for x, m in zip(w, bounds):
            # k * big - x for the integers k in 0..m + 1 that it is not
            # negative for (a negative clock is refused at the probe 0)
            candidates.update(range(-x % big, (m + 2) * big - x, big))
        ordered = sorted(candidates)
        probes: list[int] = []
        for a, b in zip(ordered, ordered[1:]):
            probes.append(a)
            probes.append((a + b) // 2)
        probes.append(ordered[-1])
        for t in probes:
            if _region([x + t for x in w], big, bounds) == mv.region:
                return Move(mv.edge, Fraction(t, big * self.scale))
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
    meet share that list's tail.  Each distinct region gets an int id the
    first time it is made; its time successor is computed once per build
    and each reset image once per (region, reset set), both kept as ids.
    Node ids and move lists sit in one table per location keyed by region
    id, the walk holds each node as (location index, region id) and each
    move as its id, and no node or move object is made.  `scale` records
    the factor the clocks were multiplied by to reach integer bounds, so
    concretized delays can be divided back down.  The cyclic garbage
    collector is paused while the graph is built (see the module
    docstring).
    """
    with collector_paused():
        return _build(g, scale)


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for the body of a `with`, and
    switch it back on afterwards, whether the body returns or raises, only
    if it was on before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _build(g: Game, scale: int) -> RegionGame:
    if g.flavor is not Flavor.TIMED:
        raise InvalidGame("region construction requires a timed-flavor game")
    bounds = _clock_bounds(g)
    locs = list(g.locations)
    index = {lid: li for li, lid in enumerate(locs)}
    # a move's id is its region id times `n_edges` plus its edge's index
    edge_index = {eid: ei for ei, eid in enumerate(g.edges)}
    n_edges = len(edge_index)
    r0 = region_of((ZERO,) * len(g.vars), bounds)
    # each distinct region, numbered in the order it is first made
    regions: list[Region] = [r0]
    region_ids: dict[Region, int] = {r0: 0}
    # per region id, the id of its time successor once computed
    later: list[Optional[int]] = [None]

    def intern(r: Region) -> int:
        k = region_ids.setdefault(r, len(regions))
        if k == len(regions):
            regions.append(r)
            later.append(None)
        return k

    # per location index, region id -> the id of the node there
    ids: list[dict[int, int]] = [{} for _ in locs]
    # per location index, region id -> the move ids of the node there and
    # their successor ids
    lists: list[dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = [
        {} for _ in locs]
    # per reset set, region id -> the id of its image
    images: dict[tuple[int, ...], dict[int, int]] = {}
    # per location index, its edges as (edge index, target index, target's
    # id table, integer guard triples, reset indices, their image table)
    flat = []
    for lid in locs:
        edges = []
        for e in g.edges_from(lid):
            reset = tuple(i for i, _ in g.resets[e.id])
            edges.append((edge_index[e.id], index[e.dst], ids[index[e.dst]],
                          tuple((i, int(lo), int(hi)) for i, lo, hi in g.guards[e.id]),
                          reset, images.setdefault(reset, {})))
        flat.append(edges)
    # per node id, its (location index, region id)
    keys = [(index[g.init], 0)]
    ids[index[g.init]][0] = 0
    move_ids: list[tuple[int, ...]] = []
    succ_ids: list[tuple[int, ...]] = []
    # `keys` grows while it is walked, which visits nodes breadth-first
    for li, rid in keys:
        listed = lists[li]
        if rid not in listed:
            # fire the regions of the closure not yet listed at this
            # location, in closure order, so successors keep their
            # discovery order; the listed tail's successors all have ids
            edges, r = flat[li], rid
            fired, tail = [], ((), ())
            while True:
                region = regions[r]
                first_move = r * n_edges
                own: list[int] = []
                own_ids: list[int] = []
                for ei, dst, dst_ids, guard, reset, image in edges:
                    if not region_satisfies(region, guard):
                        continue
                    s = image.get(r)
                    if s is None:
                        s = image[r] = intern(apply_reset(region, reset))
                    k = dst_ids.setdefault(s, len(keys))
                    if k == len(keys):
                        keys.append((dst, s))
                    own.append(first_move + ei)
                    own_ids.append(k)
                fired.append((r, own, own_ids))
                nxt = later[r]
                if nxt is None:
                    nxt = later[r] = intern(time_successor(region, bounds))
                if nxt == r:
                    break
                r = nxt
                if r in listed:
                    tail = listed[r]
                    break
            for r, own, own_ids in reversed(fired):
                if own:
                    tail = (*own, *tail[0]), (*own_ids, *tail[1])
                listed[r] = tail
        node_moves, node_succs = listed[rid]
        move_ids.append(node_moves)
        succ_ids.append(node_succs)
    return RegionGame(g, scale, bounds, regions, [li for li, _ in keys],
                      [r for _, r in keys], move_ids, succ_ids)


@dataclass
class SolveResult:
    """A solved region game, the region strategy, on ids: `wins[k]` whether
    player one wins from node k, `strategy` player one's move id on winning
    nodes and `spoiler` player two's on the others, the certificate of a
    loss, each keyed by node id in the order the solve chose them.
    `winning` is the set of winning node ids."""

    wins: list[bool]
    strategy: dict[int, int]
    spoiler: dict[int, int] = field(default_factory=dict)

    @cached_property
    def winning(self) -> frozenset[int]:
        return frozenset(k for k, w in enumerate(self.wins) if w)

    def wins_from_init(self, rg: RegionGame) -> bool:
        """Whether player one wins from node 0, the initial node.  `rg` is
        unused; it is kept only because the benchmark passes it."""
        return self.wins[0]


JoinTime = tuple[int, int]


def _locations(rg: RegionGame, keep) -> list[bool]:
    """Per location index, whether the location satisfies `keep`, so a test
    on every node reads its location once per call."""
    return [keep(loc) for loc in rg.game.locations.values()]


def _attractor(rg: RegionGame, player: Player, seed: list[int]
               ) -> tuple[list[Optional[JoinTime]], dict[int, int]]:
    """The join time of every node from which `player` forces a visit to the
    nodes with ids `seed` (None for the others), and the id of each
    attracted `player` node's move into the set when it joined, keyed by
    node id.

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
    succ_ids, preds = rg.succ_ids, rg.pred_ids
    ours = _locations(rg, lambda loc: loc.owner is player)
    mine = [ours[li] for li in rg.node_locs]
    # per opponent node, its moves not yet attracted
    outside = [len(succs) for succs in succ_ids]
    queued = [False] * len(succ_ids)
    joined: list[Optional[JoinTime]] = [None] * len(succ_ids)
    moves: dict[int, int] = {}
    # (pass, index, id): a seed's index is -1, any other node's is its id
    heap = [(1, -1, k) for k in seed]
    for k in seed:
        queued[k] = True
    while heap:
        p, i, k = heapq.heappop(heap)
        if i >= 0 and mine[k]:
            m = next(m for m, s in enumerate(succ_ids[k]) if joined[s] is not None)
            moves[k] = rg.move_ids[k][m]
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
              ) -> dict[int, int]:
    """For each `player` node that never joined the opponent's attractor,
    the id of its first move that stays outside, keyed by node id; only
    deadlocked nodes have none."""
    ours = _locations(rg, lambda loc: loc.owner is player)
    out: dict[int, int] = {}
    for k, li in enumerate(rg.node_locs):
        if joined[k] is not None or not ours[li]:
            continue
        for m, s in enumerate(rg.succ_ids[k]):
            if joined[s] is None:
                out[k] = rg.move_ids[k][m]
                break
    return out


def solve_reachability(rg: RegionGame, target_obs: frozenset) -> SolveResult:
    """Player one's attractor to the target observations.  A halted play
    reaches nothing, so deadlocked nodes outside the target lose; each
    strategy move leads to a node that joined the attractor earlier, so the
    target is reached, and the spoiler keeps plays outside the attractor."""
    target = _locations(rg, lambda loc: loc.obs in target_obs)
    joined, strategy = _attractor(
        rg, Player.ONE, [k for k, li in enumerate(rg.node_locs) if target[li]])
    return SolveResult([t is not None for t in joined], strategy,
                       _stay_out(rg, Player.TWO, joined))


def solve_safety(rg: RegionGame, safe_obs: frozenset) -> SolveResult:
    """Complement of player two's attractor to the unsafe observations.
    Halting is safe; the strategy keeps plays outside the attractor and each
    spoiler move leads to a node that joined the attractor earlier, so an
    unsafe observation is forced."""
    unsafe = _locations(rg, lambda loc: loc.obs not in safe_obs)
    joined, spoiler = _attractor(
        rg, Player.TWO, [k for k, li in enumerate(rg.node_locs) if unsafe[li]])
    return SolveResult([t is None for t in joined],
                       _stay_out(rg, Player.ONE, joined), spoiler)
