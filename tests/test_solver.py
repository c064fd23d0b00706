"""Region abstraction and attractor solving on the timed fragment."""

import pickle
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hybridgames as hg
from hybridgames import cli
from hybridgames.cli import parse_objective
from hybridgames.samples import small_timed, worked_example

from gamegen import branching_pool, oracle_pool

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (the benchmark's game families, imported read-only)


def R(ints, fracs):
    return hg.Region(tuple(ints), tuple(fracs))


def _canonical(r):
    """Whether the positive fractional ranks of `r` are exactly 1..k."""
    ranks = sorted({f for f in r.fracs if f >= 1})
    return ranks == list(range(1, len(ranks) + 1))


_clock_value = st.fractions(min_value=0, max_value=3, max_denominator=8)


class TestRegionOf:
    def test_one_clock_landmarks(self):
        b = (1,)
        assert hg.region_of((F(0),), b) == R([0], [0])
        assert hg.region_of((F(1, 2),), b) == R([0], [1])
        assert hg.region_of((F(1),), b) == R([1], [0])
        assert hg.region_of((F(3, 2),), b) == R([None], [-1])

    def test_two_clocks_rank_fractional_parts(self):
        got = hg.region_of((F(1, 2), F(1, 4)), (1, 1))
        assert got == R([0, 0], [2, 1])

    def test_equal_fractions_share_a_class(self):
        got = hg.region_of((F(1, 4), F(5, 4)), (2, 2))
        assert got == R([0, 1], [1, 1])


class TestTimeSuccessor:
    def test_one_clock_walk_to_the_top(self):
        b = (1,)
        r = hg.region_of((F(0),), b)
        walk = [r]
        for _ in range(3):
            walk.append(hg.time_successor(walk[-1], b))
        assert walk == [R([0], [0]), R([0], [1]), R([1], [0]), R([None], [-1])]
        # the region above all bounds absorbs time
        assert hg.time_successor(walk[-1], b) == walk[-1]

    def test_top_class_hits_integers_first(self):
        b = (1, 1)
        r = hg.region_of((F(1, 2), F(1, 4)), b)
        succ = hg.time_successor(r, b)
        assert succ == R([1, 0], [0, 1])
        # the clock sitting on its bound then drifts above it
        assert hg.time_successor(succ, b) == R([None, 0], [-1, 1])

    def test_closure_enumerates_the_whole_future(self):
        b = (1,)
        closure = hg.time_closure(hg.region_of((F(0),), b), b)
        assert closure[0] == R([0], [0])
        assert len(closure) == 4
        assert closure[-1] == R([None], [-1])

    @given(st.tuples(st.fractions(min_value=0, max_value=3, max_denominator=8),
                     st.fractions(min_value=0, max_value=3, max_denominator=8)),
           st.fractions(min_value=0, max_value=3, max_denominator=8))
    def test_future_points_stay_inside_the_closure(self, vals, t):
        b = (2, 2)
        start = hg.region_of(vals, b)
        later = hg.region_of((vals[0] + t, vals[1] + t), b)
        assert later in hg.time_closure(start, b)

    @given(st.tuples(_clock_value, _clock_value, _clock_value), _clock_value)
    def test_future_points_of_three_clocks_stay_inside_the_closure(self, vals, t):
        # region_of ranks canonically, so a closure region with a gap in its
        # ranks would miss the later point
        b = (2, 1, 3)
        start = hg.region_of(vals, b)
        later = hg.region_of(tuple(v + t for v in vals), b)
        closure = hg.time_closure(start, b)
        assert later in closure
        assert all(_canonical(r) for r in closure)

    def test_ladder_closures_stay_canonical(self):
        for i in range(8):
            rg = hg.build_region_graph(gen.ladder_case(i)[0])
            for node in rg.nodes:
                for r in hg.time_closure(node.region, rg.bounds):
                    assert _canonical(r), (i, node, r)


class TestResetAndSatisfies:
    def test_reset_renumbers_classes(self):
        r = hg.region_of((F(1, 2), F(1, 4)), (1, 1))
        assert hg.apply_reset(r, (0,)) == R([0, 0], [0, 1])
        assert hg.apply_reset(r, (0, 1)) == R([0, 0], [0, 0])

    def test_point_and_fragment_evaluation(self):
        b = (2, 2)
        r = hg.region_of((F(0), F(1, 2)), b)
        assert hg.region_satisfies(r, ((0, 0, 0),))      # x == 0
        assert not hg.region_satisfies(r, ((1, 0, 0),))  # y == 0 fails
        assert hg.region_satisfies(r, ((1, 0, 1),))      # y in [0,1]
        assert not hg.region_satisfies(r, ((1, 1, 2),))  # y below 1

    def test_above_bound_never_satisfies(self):
        r = hg.region_of((F(5),), (2,))
        assert not hg.region_satisfies(r, ((0, 0, 2),))

    @given(st.tuples(st.fractions(min_value=0, max_value=3, max_denominator=8),
                     st.fractions(min_value=0, max_value=3, max_denominator=8)),
           st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=2))
    def test_region_evaluation_matches_concrete(self, vals, lo, extent):
        hi = lo + extent
        bounds = (3, 3)
        r = hg.region_of(vals, bounds)
        for idx in (0, 1):
            concrete = lo <= vals[idx] <= hi
            assert hg.region_satisfies(r, ((idx, lo, hi),)) == concrete


def _loop_game(reset_clock):
    x = hg.LocId("only")
    reset = hg.Reset({"x": F(0)}) if reset_clock else hg.Reset({})
    rset = frozenset({"x"}) if reset_clock else frozenset()
    return hg.Game(
        flavor=hg.Flavor.TIMED, vars=("x",), actions=("tick",),
        obs=("spin",),
        locations={x: hg.Location(x, hg.Player.ONE, "spin", {"x": F(1)})},
        edges={"t": hg.Edge("t", x, "tick",
                            hg.Guard({"x": hg.Interval(F(1), F(1))}),
                            reset, x, reset_set=rset)},
        init=x,
    )


def _ladder_game(p2_can_escape):
    """P1 start, P2 middle; the middle either must fall into the target or
    may climb back forever."""
    s, m, t = hg.LocId("s"), hg.LocId("m"), hg.LocId("t")
    edges = {
        "up": hg.Edge("up", s, "a", hg.Guard({}), hg.Reset({"x": F(0)}), m,
                      reset_set=frozenset({"x"})),
        "fall": hg.Edge("fall", m, "b", hg.Guard({}), hg.Reset({"x": F(0)}), t,
                        reset_set=frozenset({"x"})),
    }
    if p2_can_escape:
        edges["back"] = hg.Edge(
            "back", m, "c", hg.Guard({}), hg.Reset({"x": F(0)}), s,
            reset_set=frozenset({"x"}))
    return hg.Game(
        flavor=hg.Flavor.TIMED, vars=("x",), actions=("a", "b", "c"),
        obs=("low", "mid", "goal"),
        locations={
            s: hg.Location(s, hg.Player.ONE, "low", {"x": F(1)}),
            m: hg.Location(m, hg.Player.TWO, "mid", {"x": F(1)}),
            t: hg.Location(t, hg.Player.ONE, "goal", {"x": F(1)}),
        },
        edges=edges, init=s,
    )


class TestRegionGame:
    def test_loop_without_reset_splits_nodes(self):
        rg = hg.build_region_graph(_loop_game(reset_clock=False))
        assert len(rg.nodes) == 2

    def test_loop_with_reset_stays_put(self):
        rg = hg.build_region_graph(_loop_game(reset_clock=True))
        assert len(rg.nodes) == 1
        node = rg.init
        moves = rg.moves[node]
        assert len(moves) == 1
        assert rg.successor[(node, moves[0])] == node

    def test_requires_timed_flavor(self):
        with pytest.raises(hg.InvalidGame):
            hg.build_region_graph(worked_example())

    def test_moves_fire_inside_the_closure(self):
        rg = hg.build_region_graph(small_timed())
        for node, moves in rg.moves.items():
            closure = hg.time_closure(node.region, rg.bounds)
            for mv in moves:
                assert mv.region in closure

    def test_node_of_scales_values(self):
        g = _loop_game(reset_clock=False)
        rg = hg.build_region_graph(g, scale=2)
        # concrete value 1/2 corresponds to scaled clock 1
        q = hg.Configuration(g.init, (F(1, 2),))
        assert rg.node_of(q).region == R([1], [0])

    def test_concretize_hits_requested_region(self):
        g = _loop_game(reset_clock=False)
        rg = hg.build_region_graph(g)
        q = hg.initial_config(g)
        mv = rg.moves[rg.init][0]
        assert mv.region == R([1], [0])
        assert rg.concretize_move(q, mv) == hg.Move("t", F(1))

    def test_concretize_divides_by_scale(self):
        g = _loop_game(reset_clock=False)
        rg = hg.build_region_graph(g, scale=2)
        got = rg.concretize_move(hg.initial_config(g), rg.moves[rg.init][0])
        assert got.delay == F(1, 2)

    def test_concretize_rejects_past_regions(self):
        g = _loop_game(reset_clock=False)
        rg = hg.build_region_graph(g)
        late = hg.Configuration(g.init, (F(2),))
        mv = rg.moves[rg.init][0]
        with pytest.raises(hg.NoRealization):
            rg.concretize_move(late, mv)

    def test_region_values_survive_file_and_pickle_round_trips(self):
        # strategy files rebuild regions, nodes and moves as fresh values
        # that must hash and compare like the graph's own keys
        rg = hg.build_region_graph(gen.ladder_case(0)[0])
        for node in rg.nodes:
            back = pickle.loads(pickle.dumps(node))
            assert back == node and rg.moves[back] == rg.moves[node]
            for r in (node.region, *(mv.region for mv in rg.moves[node])):
                parsed = cli._parse_region(cli._region_doc(r), "$", None)
                assert parsed == r and hash(parsed) == hash(r)
            for mv in rg.moves[node]:
                assert pickle.loads(pickle.dumps(mv)) in rg.moves[back]

    def test_deterministic_construction(self):
        a = hg.build_region_graph(small_timed())
        b = hg.build_region_graph(small_timed())
        assert a.nodes == b.nodes
        assert a.moves == b.moves
        assert a.successor == b.successor


class TestAttractors:
    def test_p2_escape_flips_the_verdict(self):
        trapped = hg.solve_reachability(
            hg.build_region_graph(_ladder_game(False)), frozenset({"goal"}))
        free = hg.solve_reachability(
            hg.build_region_graph(_ladder_game(True)), frozenset({"goal"}))
        rg_t = hg.build_region_graph(_ladder_game(False))
        assert trapped.wins_from_init(rg_t)
        assert not free.wins_from_init(hg.build_region_graph(_ladder_game(True)))

    def test_small_timed_reach_done(self):
        rg = hg.build_region_graph(small_timed())
        res = hg.solve_reachability(rg, frozenset({"done"}))
        assert res.wins_from_init(rg)
        # strategy defined exactly on winning player-one nodes off target
        for node in res.strategy:
            assert node in res.winning
            assert rg.owner(node) is hg.Player.ONE
            assert rg.obs(node) != "done"

    def test_small_timed_cannot_stay_out_of_done(self):
        # the y clock forces the middle loop to end, so staying inside
        # {idle, busy} forever is impossible
        rg = hg.build_region_graph(small_timed())
        res = hg.solve_safety(rg, frozenset({"idle", "busy"}))
        assert not res.wins_from_init(rg)

    def test_forced_step_into_bad_is_losing(self):
        rg = hg.build_region_graph(_ladder_game(False))
        res = hg.solve_safety(rg, frozenset({"low"}))
        assert not res.wins_from_init(rg)

    def test_deadlock_is_safe(self):
        s = hg.LocId("s")
        g = hg.Game(
            flavor=hg.Flavor.TIMED, vars=("x",), actions=("a",),
            obs=("calm", "boom"),
            locations={s: hg.Location(s, hg.Player.ONE, "calm", {"x": F(1)})},
            edges={}, init=s)
        rg = hg.build_region_graph(g)
        assert hg.solve_safety(rg, frozenset({"calm"})).wins_from_init(rg)

    def test_positional_strategy_reaches_done(self):
        g = small_timed()
        rg = hg.build_region_graph(g)
        res = hg.solve_reachability(rg, frozenset({"done"}))
        sigma = hg.positional_strategy(rg, res)
        for seed in range(10):
            run = hg.play(g, sigma, hg.random_strategy(g, seed),
                          len(rg.nodes) + 2)
            assert "done" in hg.trace_of(g, run)


def _spoiled_graph(rg, result, stop):
    """The region nodes reachable from init when player two follows the
    spoiler and player one may take any move, each mapped to its successors;
    nodes satisfying `stop` are not expanded."""
    graph = {}
    todo = [rg.init]
    while todo:
        node = todo.pop()
        if node in graph:
            continue
        if stop(node):
            graph[node] = []
            continue
        if rg.owner(node) is hg.Player.ONE:
            moves = rg.moves[node]
        else:
            assert node in result.spoiler or not rg.moves[node]
            moves = [result.spoiler[node]] if node in result.spoiler else []
        graph[node] = [rg.successor[(node, mv)] for mv in moves]
        todo.extend(graph[node])
    return graph


def _check_spoilers(games):
    """Every spoiler move is player two's, off the winning set and a move of
    its node; every losing verdict's spoiler keeps plays out of the target
    or forces an unsafe observation.  Both objectives must lose somewhere."""
    losses = {"reach": 0, "safe": 0}
    for g, target, safe in games:
        rg = hg.build_region_graph(g)
        reach = hg.solve_reachability(rg, target)
        safety = hg.solve_safety(rg, safe)
        for result in (reach, safety):
            for node, mv in result.spoiler.items():
                assert rg.owner(node) is hg.Player.TWO
                assert node not in result.winning
                assert mv in rg.moves[node]

        if not reach.wins_from_init(rg):
            losses["reach"] += 1
            found = _spoiled_graph(rg, reach, lambda n: False)
            assert not any(rg.obs(n) in target for n in found)

        if not safety.wins_from_init(rg):
            losses["safe"] += 1
            graph = _spoiled_graph(rg, safety, lambda n: rg.obs(n) not in safe)
            assert all(graph[n] for n in graph if rg.obs(n) in safe), \
                "a play halts safely"
            # Kahn's order covers every node only when the graph is
            # acyclic; with no safe deadlock, every play then turns
            # unsafe within len(rg.nodes) moves
            pending = {n: len(succs) for n, succs in graph.items()}
            preds = {n: [] for n in graph}
            for n, succs in graph.items():
                for s in succs:
                    preds[s].append(n)
            ready = [n for n, k in pending.items() if k == 0]
            ordered = 0
            while ready:
                ordered += 1
                for p in preds[ready.pop()]:
                    pending[p] -= 1
                    if pending[p] == 0:
                        ready.append(p)
            assert ordered == len(graph), "a play stays safe forever"
    assert losses["reach"] and losses["safe"], losses


class TestSpoiler:
    def test_losing_verdicts_carry_a_spoiler(self):
        # on the check-6 pool player two rarely has a choice that matters;
        # on the escaping ladder its first move is wrong for safety and its
        # last one wrong for reachability
        games = [(g, target, safe) for _, g, target, safe in oracle_pool()]
        games.append((_ladder_game(True), frozenset({"goal"}),
                      frozenset({"low", "mid"})))
        _check_spoilers(games)

    def test_spoilers_where_player_two_choices_matter(self):
        # every player-two location of this pool branches to different
        # observations, so a spoiler that picks the wrong branch shows
        _check_spoilers(branching_pool())


def _sweep_attractor(rg, player, seed):
    """Reference attractor: passes over `rg.nodes` grow the set in place
    until one adds nothing, recording each attracted `player` node's first
    move into the set when it joins."""
    attr = set(seed)
    moves = {}
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


def _sweep_stay_out(rg, player, attr):
    out = {}
    for node in rg.nodes:
        if node in attr or rg.owner(node) is not player:
            continue
        for mv in rg.moves[node]:
            if rg.successor[(node, mv)] not in attr:
                out[node] = mv
                break
    return out


def _sweep_solve(rg, kind, obs):
    """(winning, strategy, spoiler) as the pass sweep computes them."""
    if kind == "reach":
        win, strategy = _sweep_attractor(
            rg, hg.Player.ONE, {n for n in rg.nodes if rg.obs(n) in obs})
        return win, strategy, _sweep_stay_out(rg, hg.Player.TWO, win)
    bad, spoiler = _sweep_attractor(
        rg, hg.Player.TWO, {n for n in rg.nodes if rg.obs(n) not in obs})
    return set(rg.nodes) - bad, _sweep_stay_out(rg, hg.Player.ONE, bad), spoiler


def _kernel_cases():
    for _, g, target, safe in oracle_pool():
        yield g, [("reach", target), ("safe", safe)]
    for g, target, safe in branching_pool():
        yield g, [("reach", target), ("safe", safe)]
    for i in range(8):
        g, *texts = gen.ladder_case(i)
        yield g, [(o.kind, o.obs) for o in map(parse_objective, texts)]


def _reference_graph(g):
    """The region graph exactly as `build_region_graph`'s docstring defines
    it: breadth-first from the initial node, each node's moves the (region,
    edge) pairs of its time closure in closure order, then edge order, whose
    guard the region meets, and node ids in discovery order."""
    bounds = [0] * len(g.vars)
    for triples in g.guards.values():
        for i, lo, hi in triples:
            bounds[i] = max(bounds[i], int(lo), int(hi))
    bounds = tuple(bounds)
    init = hg.RegionNode(g.init, hg.region_of((F(0),) * len(g.vars), bounds))
    nodes, ids, moves, succ_ids = [init], {init: 0}, {}, []
    for node in nodes:
        node_moves, node_succs = [], []
        for r in hg.time_closure(node.region, bounds):
            for e in g.edges_from(node.loc):
                if not hg.region_satisfies(r, g.guards[e.id]):
                    continue
                reset = tuple(i for i, _ in g.resets[e.id])
                succ = hg.RegionNode(e.dst, hg.apply_reset(r, reset))
                if succ not in ids:
                    ids[succ] = len(nodes)
                    nodes.append(succ)
                node_moves.append(hg.RegionMove(r, e.id))
                node_succs.append(ids[succ])
        moves[node] = tuple(node_moves)
        succ_ids.append(tuple(node_succs))
    return init, bounds, nodes, list(moves.items()), succ_ids


class TestKernel:
    def test_build_matches_the_reference_build(self):
        for g in (small_timed(), *(g for g, _ in _kernel_cases())):
            rg = hg.build_region_graph(g)
            got = (rg.init, rg.bounds, rg.nodes, list(rg.moves.items()), rg.succ_ids)
            assert got == _reference_graph(g)

    def test_join_times_reproduce_the_pass_sweep(self):
        solve = {"reach": hg.solve_reachability, "safe": hg.solve_safety}
        for g, objectives in _kernel_cases():
            rg = hg.build_region_graph(g)
            for k, node in enumerate(rg.nodes):
                assert [rg.nodes[s] for s in rg.succ_ids[k]] == \
                    [rg.successor[(node, mv)] for mv in rg.moves[node]]
            for kind, obs in objectives:
                got = solve[kind](rg, obs)
                winning, strategy, spoiler = _sweep_solve(rg, kind, obs)
                assert got.winning == winning
                assert list(got.strategy.items()) == list(strategy.items())
                assert list(got.spoiler.items()) == list(spoiler.items())
