"""Region abstraction and attractor solving on the timed fragment."""

import gc
import math
import pickle
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hybridgames as hg
from hybridgames import chain, cli, solver
from hybridgames.cli import parse_objective
from hybridgames.samples import small_timed, worked_example

from fixtures import (
    broken_initialization,
    concretize_ops,
    node_of_ops,
    on_nodes,
    region_of_ops,
    time_closure,
)
from gamegen import branching_pool, oracle_pool

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (the benchmark's game families, imported read-only)


def R(ints, fracs):
    return hg.Region(tuple(ints), tuple(fracs))


def _obs(rg, node):
    """The observation at a region node's location."""
    return rg.game.locations[node.loc].obs


def _canonical(r):
    """Whether the positive fractional ranks of `r` are exactly 1..k."""
    ranks = sorted({f for f in r.fracs if f >= 1})
    return ranks == list(range(1, len(ranks) + 1))


_clock_value = st.fractions(min_value=0, max_value=3, max_denominator=8)


@st.composite
def _valuations(draw):
    """(valuation, bounds) with up to four clocks, the empty one included:
    integers below, on and above each bound, fractions of mixed
    denominators, and clocks that take another clock's fractional part."""
    bounds = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    val = []
    for m in bounds:
        whole = F(draw(st.integers(0, m + 2)))
        kind = draw(st.sampled_from(("integer", "fraction", "shared")))
        if kind == "fraction":
            val.append(whole + draw(st.fractions(0, 1, max_denominator=12)))
        elif kind == "shared" and val:
            other = draw(st.sampled_from(val))
            val.append(whole + other - math.floor(other))
        else:
            val.append(whole)
    return tuple(val), bounds


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

    @given(_valuations())
    @example(((), ()))
    @example(((F(1, 2), F(1, 3), F(2, 3), F(5, 2)), (1, 1, 1, 2)))
    @example(((F(0), F(1), F(2), F(5, 4)), (0, 1, 1, 1)))
    def test_matches_the_operator_reads(self, case):
        val, bounds = case
        assert hg.region_of(val, bounds) == region_of_ops(val, bounds)

    @given(_valuations(), st.data())
    def test_a_negative_clock_is_named_as_the_operator_reads_name_it(self, case, data):
        val, bounds = case
        if not val:
            return
        i = data.draw(st.integers(0, len(val) - 1))
        neg = data.draw(st.fractions(max_value=0, max_denominator=12).filter(bool))
        val = (*val[:i], neg, *val[i + 1:])
        with pytest.raises(hg.InvalidGame) as want:
            region_of_ops(val, bounds)
        with pytest.raises(hg.InvalidGame) as got:
            hg.region_of(val, bounds)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("scale", [1, 2])
    def test_every_read_names_a_negative_clock_as_the_operator_reads(self, scale):
        g = small_timed()
        rg = hg.build_region_graph(g, scale=scale)
        q = hg.Configuration(g.init, (F(1, 2), F(-1, 3)))
        mv = rg.move(rg.move_ids[0][0])
        reads = [(lambda: hg.region_of(q.val, rg.bounds),
                  lambda: region_of_ops(q.val, rg.bounds)),
                 (lambda: rg.node_of(q), lambda: node_of_ops(rg, q)),
                 (lambda: rg.concretize_move(q, mv),
                  lambda: concretize_ops(rg, q, mv))]
        for read, oracle in reads:
            with pytest.raises(hg.InvalidGame) as want:
                oracle()
            with pytest.raises(hg.InvalidGame) as got:
                read()
            assert str(got.value) == str(want.value)
        assert str(want.value) == f"negative clock value {F(-1, 3) * scale}"


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
        closure = time_closure(hg.region_of((F(0),), b), b)
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
        assert later in time_closure(start, b)

    @given(st.tuples(_clock_value, _clock_value, _clock_value), _clock_value)
    def test_future_points_of_three_clocks_stay_inside_the_closure(self, vals, t):
        # region_of ranks canonically, so a closure region with a gap in its
        # ranks would miss the later point
        b = (2, 1, 3)
        start = hg.region_of(vals, b)
        later = hg.region_of(tuple(v + t for v in vals), b)
        closure = time_closure(start, b)
        assert later in closure
        assert all(_canonical(r) for r in closure)

    def test_ladder_closures_stay_canonical(self):
        for i in range(8):
            rg = hg.build_region_graph(gen.ladder_case(i)[0])
            for node in rg.nodes:
                for r in time_closure(node.region, rg.bounds):
                    assert _canonical(r), (i, node, r)


class TestResetAndSatisfies:
    def test_reset_renumbers_classes(self):
        r = hg.region_of((F(1, 2), F(1, 4)), (1, 1))
        assert hg.apply_reset(r, (0,)) == R([0, 0], [0, 1])
        assert hg.apply_reset(r, (0, 1)) == R([0, 0], [0, 0])

    @given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
        # values reach past the largest bound, so clocks above it are reset too
        st.lists(st.fractions(min_value=0, max_value=4, max_denominator=6),
                 min_size=n, max_size=n),
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
        st.lists(st.integers(min_value=0, max_value=n - 1), unique=True))))
    # the reset empties the middle class; empties classes 1 and 3 of 4
    @example(([F(1, 4), F(1, 2), F(3, 4)], [1, 1, 1], [1]))
    @example(([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [1, 1, 1, 1], [0, 2]))
    def test_reset_region_is_the_region_of_the_reset_valuation(self, case):
        vals, bounds, reset = case
        zeroed = tuple(F(0) if i in reset else v for i, v in enumerate(vals))
        assert hg.apply_reset(hg.region_of(tuple(vals), tuple(bounds)), tuple(reset)) == \
            hg.region_of(zeroed, tuple(bounds))

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


def _probes(w, bounds):
    """The delays `concretize_move` tries from the scaled valuation `w`, in
    order: each time at which some clock reaches an integer no more than one
    past its bound (and 0), and the midpoint after each but the last.  At
    the last every clock is past its bound, so no later delay lands in a
    region it has not already reached."""
    times = sorted({F(0)} | {k - v for v, m in zip(w, bounds)
                             for k in range(math.ceil(v), m + 2)})
    probes = []
    for a, b in zip(times, times[1:]):
        probes += [a, (a + b) / 2]
    return probes + [times[-1]]


def _fractional_valuations(n):
    """Valuations of `n` clocks that mix the fractional parts 1/2, 1/3, 2/3
    and 0 across clocks in four rotations, then one where every clock has
    fractional part 1/2."""
    parts = (F(1, 2), F(1, 3), F(2, 3), F(0))
    for shift in range(4):
        yield tuple(parts[(i + shift) % 4] + i % 2 for i in range(n))
    yield tuple(F(1, 2) + i % 2 for i in range(n))


def _pool_graphs():
    """(timed game, region graph) for the 30 `control` timed stages, scaled
    as the benchmark's `run_control` scales them, then the 50 games of
    `oracle_pool()`."""
    for i in range(30):
        timed = hg.build_chain(gen.pipeline_case(i)[0]).timed
        scaled, factor = hg.scale_to_integers(timed)
        yield timed, hg.build_region_graph(scaled, scale=factor)
    for _, g, _, _ in oracle_pool():
        yield g, hg.build_region_graph(g)


class TestRegionGame:
    def test_loop_without_reset_splits_nodes(self):
        rg = hg.build_region_graph(_loop_game(reset_clock=False))
        assert len(rg.nodes) == 2

    def test_loop_with_reset_stays_put(self):
        rg = hg.build_region_graph(_loop_game(reset_clock=True))
        assert len(rg.nodes) == 1
        node = rg.nodes[0]
        moves = rg.moves[node]
        assert len(moves) == 1
        assert rg.successor[(node, moves[0])] == node

    def test_requires_timed_flavor(self):
        with pytest.raises(hg.InvalidGame):
            hg.build_region_graph(worked_example())

    def test_moves_fire_inside_the_closure(self):
        rg = hg.build_region_graph(small_timed())
        for node, moves in rg.moves.items():
            closure = time_closure(node.region, rg.bounds)
            for mv in moves:
                assert mv.region in closure

    def test_node_of_scales_values(self):
        g = _loop_game(reset_clock=False)
        rg = hg.build_region_graph(g, scale=2)
        # concrete value 1/2 corresponds to scaled clock 1
        q = hg.Configuration(g.init, (F(1, 2),))
        assert rg.nodes[rg.node_of(q)] == (g.init, R([1], [0]))
        assert rg.node_of(hg.initial_config(g)) == 0
        # scaled clock 1/2 sits in a region no node sits in
        assert rg.node_of(hg.Configuration(g.init, (F(1, 4),))) is None

    def test_concretize_hits_requested_region(self):
        g = _loop_game(reset_clock=False)
        rg = hg.build_region_graph(g)
        q = hg.initial_config(g)
        mv = rg.move(rg.move_ids[0][0])
        assert mv.region == R([1], [0])
        assert rg.concretize_move(q, mv) == hg.Move("t", F(1))

    def test_concretize_divides_by_scale(self):
        g = _loop_game(reset_clock=False)
        rg = hg.build_region_graph(g, scale=2)
        got = rg.concretize_move(hg.initial_config(g), rg.move(rg.move_ids[0][0]))
        assert got.delay == F(1, 2)

    def test_concretize_rejects_past_regions(self):
        g = _loop_game(reset_clock=False)
        rg = hg.build_region_graph(g)
        late = hg.Configuration(g.init, (F(2),))
        mv = rg.move(rg.move_ids[0][0])
        with pytest.raises(hg.NoRealization):
            rg.concretize_move(late, mv)

    def test_concretize_takes_the_first_probe_into_each_closure_region(self):
        games = [small_timed(), *(gen.ladder_case(i)[0] for i in range(4))]
        for g in games:
            rg = hg.build_region_graph(g)
            edge = next(iter(g.edges))
            for val in _fractional_valuations(len(g.vars)):
                q = hg.Configuration(g.init, val)
                w = tuple(v * rg.scale for v in val)
                probes = _probes(w, rg.bounds)
                for r in time_closure(region_of_ops(w, rg.bounds), rg.bounds):
                    first = next(t for t in probes
                                 if region_of_ops(tuple(x + t for x in w), rg.bounds) == r)
                    got = rg.concretize_move(q, hg.RegionMove(r, edge))
                    assert got == hg.Move(edge, first / rg.scale)
                    landed = tuple(x + got.delay * rg.scale for x in w)
                    assert region_of_ops(landed, rg.bounds) == r

    def test_a_refusal_reads_one_region_per_probe(self, monkeypatch):
        # a move of a region the valuation has already passed is refused
        # only after every probe, and no probe past the last candidate
        reads = []
        real = solver._region
        monkeypatch.setattr(solver, "_region",
                            lambda *args: reads.append(args) or real(*args))
        refused = 0
        for g in [small_timed(), *(gen.ladder_case(i)[0] for i in range(4))]:
            rg = hg.build_region_graph(g)
            zero = hg.RegionMove(R([0] * len(g.vars), [0] * len(g.vars)),
                                 next(iter(g.edges)))
            for val in filter(any, _fractional_valuations(len(g.vars))):
                reads.clear()
                with pytest.raises(hg.NoRealization):
                    rg.concretize_move(hg.Configuration(g.init, val), zero)
                w = tuple(v * rg.scale for v in val)
                assert len(reads) == len(_probes(w, rg.bounds))
                refused += 1
        assert refused == 25

    def test_node_of_and_concretize_match_the_operator_reads_on_the_pools(self):
        realized = refused = 0
        for k, (g, rg) in enumerate(_pool_graphs()):
            at = {}
            locs = list(g.locations)
            for node, li in enumerate(rg.node_locs):
                at.setdefault(locs[li], []).append(node)
            run = hg.play(g, hg.random_strategy(g, 2 * k),
                          hg.random_strategy(g, 2 * k + 1), 6)
            for q in run.configs():
                node = rg.node_of(q)
                assert node == node_of_ops(rg, q)
                # every move listed at q's location: those of q's own
                # closure are realized, those of past regions refused
                for m in sorted({m for j in at[q.loc] for m in rg.move_ids[j]}):
                    mv = rg.move(m)
                    try:
                        want = concretize_ops(rg, q, mv)
                    except hg.NoRealization as refusal:
                        with pytest.raises(hg.NoRealization) as got:
                            rg.concretize_move(q, mv)
                        assert str(got.value) == str(refusal)
                        refused += 1
                    else:
                        assert rg.concretize_move(q, mv) == want
                        realized += 1
        # pinned, so a change that stops comparing some of them is seen
        assert (realized, refused) == (4152, 5386)

    def test_region_values_survive_file_and_pickle_round_trips(self):
        # strategy files rebuild regions, nodes and moves as fresh values
        # that must hash and compare like the graph's own keys
        rg = hg.build_region_graph(gen.ladder_case(0)[0])
        for node in rg.nodes:
            back = pickle.loads(pickle.dumps(node))
            assert back == node and rg.moves[back] == rg.moves[node]
            for r in (node.region, *(mv.region for mv in rg.moves[node])):
                parsed = cli._parse_region(cli._region_doc(r), "$", len(rg.bounds))
                assert parsed == r and hash(parsed) == hash(r)
            for mv in rg.moves[node]:
                assert pickle.loads(pickle.dumps(mv)) in rg.moves[back]

    def test_deterministic_construction(self):
        a = hg.build_region_graph(small_timed())
        b = hg.build_region_graph(small_timed())
        assert a.nodes == b.nodes
        assert a.moves == b.moves
        assert a.successor == b.successor


def _timed_with_half_bound():
    """`small_timed` with a guard bound of 1/2, which regions cannot take."""
    g = small_timed()
    t0 = replace(g.edges["t0"], guard=hg.Guard({"x": hg.Interval(F(0), F(1, 2))}))
    return replace(g, edges={**g.edges, "t0": t0})


class TestCollectorPause:
    """The build and the witness checker pause the cyclic collector and
    leave it as they found it, whether they return or raise."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("make,invalid", [
        (small_timed, False), (worked_example, True),
        (_timed_with_half_bound, True)])
    def test_build_restores_the_collector(self, enabled, make, invalid):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if invalid:
                with pytest.raises(hg.InvalidGame):
                    hg.build_region_graph(make())
            else:
                hg.build_region_graph(make())
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("make,invalid", [
        (worked_example, False), (broken_initialization, True)])
    def test_verify_chain_restores_the_collector(self, monkeypatch, enabled,
                                                 make, invalid):
        # the chain is built inside the pause, so an invalid source game
        # raises InvalidGame from within it
        seen = []
        real = chain.build_chain
        monkeypatch.setattr(chain, "build_chain",
                            lambda g: seen.append(gc.isenabled()) or real(g))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if invalid:
                with pytest.raises(hg.InvalidGame):
                    hg.verify_chain(make(), samples=4, depth=3)
            else:
                assert hg.verify_chain(make(), samples=4, depth=3).passed
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]


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
        for k in res.strategy:
            assert k in res.winning
            node = rg.nodes[k]
            assert rg.game.owner(node.loc) is hg.Player.ONE
            assert _obs(rg, node) != "done"

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


def _spoiled_graph(rg, spoiler, stop):
    """The region nodes reachable from init when player two follows the
    node-keyed `spoiler` and player one may take any move, each mapped to
    its successors; nodes satisfying `stop` are not expanded."""
    graph = {}
    todo = [rg.nodes[0]]
    while todo:
        node = todo.pop()
        if node in graph:
            continue
        if stop(node):
            graph[node] = []
            continue
        if rg.game.owner(node.loc) is hg.Player.ONE:
            moves = rg.moves[node]
        else:
            assert node in spoiler or not rg.moves[node]
            moves = [spoiler[node]] if node in spoiler else []
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
            for k, m in result.spoiler.items():
                assert rg.game.owner(rg.nodes[k].loc) is hg.Player.TWO
                assert k not in result.winning
                assert m in rg.move_ids[k]

        if not reach.wins_from_init(rg):
            losses["reach"] += 1
            found = _spoiled_graph(rg, on_nodes(rg, reach.spoiler), lambda n: False)
            assert not any(_obs(rg, n) in target for n in found)

        if not safety.wins_from_init(rg):
            losses["safe"] += 1
            graph = _spoiled_graph(rg, on_nodes(rg, safety.spoiler),
                                   lambda n: _obs(rg, n) not in safe)
            assert all(graph[n] for n in graph if _obs(rg, n) in safe), \
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
    until one adds nothing.  Returns each attracted node's join, the (pass,
    index in `rg.nodes`) at which it was added, seeds at (1, -1), and each
    attracted `player` node's first move into the set when it joined."""
    joined = dict.fromkeys(seed, (1, -1))
    moves = {}
    p, changed = 0, True
    while changed:
        p, changed = p + 1, False
        for i, node in enumerate(rg.nodes):
            if node in joined:
                continue
            node_moves = rg.moves[node]
            if rg.game.owner(node.loc) is player:
                for mv in node_moves:
                    if rg.successor[(node, mv)] in joined:
                        moves[node] = mv
                        break
                else:
                    continue
            elif not (node_moves and all(rg.successor[(node, mv)] in joined
                                         for mv in node_moves)):
                continue
            joined[node] = (p, i)
            changed = True
    return joined, moves


def _sweep_stay_out(rg, player, attr):
    out = {}
    for node in rg.nodes:
        if node in attr or rg.game.owner(node.loc) is not player:
            continue
        for mv in rg.moves[node]:
            if rg.successor[(node, mv)] not in attr:
                out[node] = mv
                break
    return out


def _sweep_solve(rg, kind, obs):
    """(winning, strategy, spoiler, joined) as the pass sweep computes them,
    `joined` mapping each node of the attractor to its (pass, index)."""
    if kind == "reach":
        joined, strategy = _sweep_attractor(
            rg, hg.Player.ONE, [n for n in rg.nodes if _obs(rg, n) in obs])
        return set(joined), strategy, _sweep_stay_out(rg, hg.Player.TWO, joined), joined
    joined, spoiler = _sweep_attractor(
        rg, hg.Player.TWO, [n for n in rg.nodes if _obs(rg, n) not in obs])
    return (set(rg.nodes) - set(joined), _sweep_stay_out(rg, hg.Player.ONE, joined),
            spoiler, joined)


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
        for r in time_closure(node.region, bounds):
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
            got = (rg.nodes[0], rg.bounds, rg.nodes, list(rg.moves.items()), rg.succ_ids)
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
                winning, strategy, spoiler, joined = _sweep_solve(rg, kind, obs)
                assert {rg.nodes[k] for k in got.winning} == winning
                assert list(on_nodes(rg, got.strategy).items()) == list(strategy.items())
                assert list(on_nodes(rg, got.spoiler).items()) == list(spoiler.items())
                # every node's (pass, index), not only which nodes join, so
                # an attractor that joins a node a pass late shows
                player = hg.Player.ONE if kind == "reach" else hg.Player.TWO
                seed = [k for k, n in enumerate(rg.nodes) if joined.get(n) == (1, -1)]
                assert solver._attractor(rg, player, seed)[0] == \
                    [joined.get(n) for n in rg.nodes]

    def test_views_are_built_only_when_read(self):
        # what the benchmark reads of an untraced solve: the sizes of the
        # winning set and the strategy, the verdict at node 0, the strategy
        # file and a positional decision
        solve = {"reach": hg.solve_reachability, "safe": hg.solve_safety}
        for i in range(2):
            g, *texts = gen.ladder_case(i)
            objectives = [parse_objective(text) for text in texts]
            chain = hg.build_chain(g)
            rg = hg.build_region_graph(g)
            results = [solve[o.kind](rg, o.obs) for o in objectives]
            wins = []
            for o, r in zip(objectives, results):
                assert len(r.strategy) <= len(r.winning) == sum(r.wins)
                wins.append(r.wins_from_init(rg))
                cli.strategy_file_for_source(g, chain, rg, r, o)
                move = hg.positional_strategy(rg, r)(hg.Run(hg.initial_config(g)))
                assert (move is None) == (0 not in r.strategy)
            assert [v for v in ("nodes", "moves", "successor") if v in vars(rg)] == []
            # read, they are the reference build and sweep
            init, _, nodes, moves, _ = _reference_graph(g)
            assert (rg.nodes[0], rg.nodes, list(rg.moves.items())) == (init, nodes, moves)
            for o, r, won in zip(objectives, results, wins):
                winning, strategy, spoiler, _ = _sweep_solve(rg, o.kind, o.obs)
                assert ({rg.nodes[k] for k in r.winning}, won) == (winning, init in winning)
                assert list(on_nodes(rg, r.strategy).items()) == list(strategy.items())
                assert list(on_nodes(rg, r.spoiler).items()) == list(spoiler.items())
