"""Region abstraction and attractor solving on the timed fragment."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hybridgames as hg
from hybridgames.samples import small_timed, worked_example

from gamegen import oracle_pool


def R(ints, fracs):
    return hg.Region(tuple(ints), tuple(fracs))


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
        assert res.objective == "reach:done"
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
        assert res.objective == "safe:busy,idle"

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

    def test_global_and_per_clock_bounds_agree(self):
        g = small_timed()
        for target in ({"done"}, {"busy"}):
            a = hg.solve_reachability(
                hg.build_region_graph(g), frozenset(target))
            b = hg.solve_reachability(
                hg.build_region_graph(g, per_clock_bounds=False),
                frozenset(target))
            assert a.wins_from_init(hg.build_region_graph(g)) == \
                b.wins_from_init(hg.build_region_graph(g, per_clock_bounds=False))

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


class TestSpoiler:
    def test_losing_verdicts_carry_a_spoiler(self):
        # on the check-6 pool player two rarely has a choice that matters;
        # on the escaping ladder its first move is wrong for safety and its
        # last one wrong for reachability
        games = [(g, target, safe) for _, g, target, safe in oracle_pool()]
        games.append((_ladder_game(True), frozenset({"goal"}),
                      frozenset({"low", "mid"})))
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
