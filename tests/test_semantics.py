"""Concrete play: delay windows, steps, runs, strategy plumbing."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hybridgames as hg
from hybridgames.bisim import Affine
from hybridgames.core import ONE, ZERO
from hybridgames.semantics import advance
from hybridgames.samples import worked_example

from fixtures import delay_window_ops, first_move_strategy, in_window
from gamegen import gen_isr_game, gen_timed_game, probe_runs

G = worked_example()


def cfg(loc, x):
    return hg.Configuration(hg.LocId(loc), (F(x),))


def test_initial_config_is_zero_vector():
    q = hg.initial_config(G)
    assert q.loc == hg.LocId("l0")
    assert q.val == (F(0),)


class TestDelayWindows:
    def test_positive_slope(self):
        # value 0, slope 2, guard [2,4]: reach 2 after 1, 4 after 2
        w = hg.delay_window(G, hg.initial_config(G), "e0")
        assert w == hg.DelayWindow(F(1), F(2))

    def test_negative_slope_swaps_bounds(self):
        # value 3 falling at rate 1 into [0,2]: inside from t=1 to t=3
        w = hg.delay_window(G, cfg("l1", 3), "e1")
        assert w == hg.DelayWindow(F(1), F(3))
        assert hg.delay_window(G, cfg("l1", 3), "e2") == hg.DelayWindow(F(2), F(3))

    def test_point_window(self):
        w = hg.delay_window(G, cfg("l2", 0), "e3")
        assert w == hg.DelayWindow(F(2), F(2))

    def test_stopped_variable_inside_guard_gives_ray(self):
        w = hg.delay_window(G, cfg("l3", 1), "e4")
        assert w == hg.DelayWindow(F(0), None)

    def test_stopped_variable_outside_guard_gives_nothing(self):
        assert hg.delay_window(G, cfg("l3", 7), "e4") is None

    def test_edge_from_elsewhere_is_a_usage_error(self):
        with pytest.raises(hg.GameError):
            hg.delay_window(G, hg.initial_config(G), "e1")

    def test_window_clipped_at_zero(self):
        # value already past the lower bound: window starts at 0
        w = hg.delay_window(G, cfg("l0", 3), "e0")
        assert w == hg.DelayWindow(F(0), F(1, 2))

    @given(st.fractions(min_value=0, max_value=4, max_denominator=16))
    def test_membership_matches_guard_evaluation(self, t):
        q = cfg("l1", 3)
        for eid in ("e1", "e2"):
            w = hg.delay_window(G, q, eid)
            evolved = q.val[0] + G.slopes[q.loc][0] * t
            expected = G.edges[eid].guard.conjuncts["x"].contains(evolved)
            assert in_window(w, t) == expected

    @given(st.fractions(min_value=0, max_value=10, max_denominator=16),
           st.one_of(st.none(), st.just(F(0)),
                     st.fractions(min_value=0, max_value=5, max_denominator=16)),
           st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32))
    def test_draw_lies_in_the_window_on_a_bounded_grid(self, lo, length,
                                                      max_den, ray, seed):
        # length None stands for a ray [lo, oo), drawn from [lo, lo + ray]
        w = hg.DelayWindow(lo, None if length is None else lo + length)
        rng = random.Random(seed)
        before = rng.getstate()
        n, d = w.draw(rng, max_den, ray)
        t = F(n, d)
        hi = lo + ray if w.hi is None else w.hi
        assert lo <= t <= hi
        if w.hi == lo:
            assert t == lo and rng.getstate() == before
        else:
            assert ((t - lo) / (hi - lo)).denominator <= max_den
        # the same value, as its lowest-terms pair of ints, and the same rng
        # use as the Fraction formula: these draws feed the check-bisim
        # reports and the simulate transcript
        twin = random.Random(seed)
        expected = lo
        if w.hi != lo:
            den = twin.randint(1, max_den)
            expected = lo + F(twin.randint(0, den), den) * (hi - lo)
        assert type(n) is int and type(d) is int
        assert (n, d) == (expected.numerator, expected.denominator)
        assert rng.getstate() == twin.getstate()


class TestStep:
    def test_reset_applied(self):
        q = hg.step(G, hg.initial_config(G), hg.Move("e0", F(3, 2)))
        assert q == cfg("l1", 3)

    def test_unreset_variable_keeps_evolved_value(self):
        q = hg.step(G, cfg("l3", 1), hg.Move("e4", F(0)))
        assert q == cfg("l3", 1)

    @pytest.mark.parametrize("move", [
        hg.Move("e0", F(0)),       # too early
        hg.Move("e0", F(5, 2)),    # too late
        hg.Move("e1", F(0)),       # wrong source location
        hg.Move("e0", F(-1)),      # negative delay
        hg.Move("nope", F(0)),     # unknown edge
    ])
    def test_disabled_moves_raise(self, move):
        with pytest.raises(hg.MoveNotEnabled):
            hg.step(G, hg.initial_config(G), move)

    def test_enabled_edges_ordered_with_windows(self):
        got = hg.enabled_edges(G, cfg("l1", 3))
        assert [(e.id, w) for e, w in got] == [
            ("e1", hg.DelayWindow(F(1), F(3))),
            ("e2", hg.DelayWindow(F(2), F(3))),
        ]

    @pytest.mark.parametrize("pool", ["general", "pipeline", "thirds", "timed"])
    def test_step_agrees_with_delay_window(self, pool):
        # step tests the guard on the advanced valuation and delay_window
        # solves for the delays: two codings of one legality condition
        seventh = F(1, 7)
        for seed in range(8):
            g = (gen_timed_game(seed) if pool == "timed"
                 else gen_isr_game(seed, profile=pool))
            for q in {q for run in probe_runs(g, seed) for q in run.configs()}:
                flow = g.locations[q.loc].flow
                for e in g.edges_from(q.loc):
                    w = hg.delay_window(g, q, e.id)
                    delays = {F(0)}
                    if w is not None:
                        ends = [w.lo] if w.hi is None else [w.lo, w.hi]
                        delays.update(ends + [d + s for d in ends for s in (-seventh, seventh)])
                        if w.hi is not None:
                            delays.add((w.lo + w.hi) / 2)
                    for t in delays:
                        move = hg.Move(e.id, t)
                        if w is None or not in_window(w, t):
                            with pytest.raises(hg.MoveNotEnabled):
                                hg.step(g, q, move)
                            continue
                        expected = tuple(
                            e.reset.assignments.get(var, v + t * flow[var])
                            for var, v in zip(g.vars, q.val))
                        assert hg.step(g, q, move) == hg.Configuration(e.dst, expected)


class TestPlay:
    def test_scripted_run_and_trace(self):
        s1 = first_move_strategy(G)
        s2 = first_move_strategy(G)
        run = hg.play(G, s1, s2, 4)
        assert [s.move.edge for s in run.steps] == ["e0", "e1", "e3", "e4"]
        assert hg.trace_of(G, run) == ("start", "mid", "charge", "goal", "goal")

    def test_owner_routing(self):
        # player two is only consulted at l1; feed it a recognisable move
        def s1(run):
            return first_move_strategy(G)(run)

        def s2(run):
            assert G.owner(run.last().loc) is hg.Player.TWO
            return hg.Move("e2", F(2))

        run = hg.play(G, s1, s2, 3)
        assert [s.move.edge for s in run.steps] == ["e0", "e2", "e3"]

    def test_illegal_strategy_move_raises(self):
        def cheat(run):
            return hg.Move("e0", F(0))
        with pytest.raises(hg.IllegalStrategyMove):
            hg.play(G, cheat, first_move_strategy(G), 2)

    def test_none_halts_play(self):
        def stubborn(run):
            return None
        run = hg.play(G, stubborn, stubborn, 5)
        assert run.steps == ()
        assert run.last() == hg.initial_config(G)

    def test_random_strategies_stay_legal(self):
        for seed in range(8):
            run = hg.play(G, hg.random_strategy(G, seed),
                          hg.random_strategy(G, seed + 100), 12)
            assert len(run.steps) >= 1
            replay = run.start
            for s in run.steps:
                replay = hg.step(G, replay, s.move)
            assert replay == run.last()

    def test_run_extension_is_pure(self):
        run = hg.play(G, first_move_strategy(G), first_move_strategy(G), 2)
        longer = run.extended(hg.Move("e3", F(2)), cfg("l3", 1))
        assert len(longer.steps) == len(run.steps) + 1
        assert len(run.steps) == 2
        assert longer.configs()[:-1] == run.configs()


class TestMoveHash:
    def test_equal_moves_hash_equal(self):
        pairs = [(hg.Move("e", F(2, 4)), hg.Move("e", F(1, 2))),
                 (hg.Move("e", 3), hg.Move("e", F(3))),
                 (hg.Move("e", 0), hg.Move("e", F(0)))]
        for m1, m2 in pairs:
            assert m1 == m2 and hash(m1) == hash(m2)
        assert len({m for pair in pairs for m in pair}) == len(pairs)

    def test_edge_and_delay_both_count(self):
        assert hg.Move("e", F(1, 2)) != hg.Move("e", F(2))
        assert hg.Move("e", F(1, 2)) != hg.Move("f", F(1, 2))

    def test_equal_only_to_moves(self):
        m = hg.Move("e", F(1, 2))
        q = hg.Configuration(hg.LocId("e"), (F(1, 2),))
        for other in [("e", F(1, 2)), q, None]:
            assert m != other and other != m
            assert not m == other and not other == m

    def test_not_equal_is_the_negation_of_equal(self):
        moves = [hg.Move("e", F(1, 2)), hg.Move("e", F(2, 4)), hg.Move("e", 2),
                 hg.Move("e", F(2)), hg.Move("f", F(2)), hg.Move("e", F(-1, 2))]
        for m1 in moves:
            for m2 in moves:
                assert (m1 != m2) is (not m1 == m2)


class TestConfigurationEquality:
    def test_distinct_equal_configurations_compare_and_hash_equal(self):
        q1 = hg.Configuration(hg.LocId("l"), (F(1, 2), F(0)))
        q2 = hg.Configuration(hg.LocId("l"), (F(2, 4), F(0)))
        assert q1 is not q2 and q1.loc is not q2.loc
        assert q1 == q2 and q2 == q1 and hash(q1) == hash(q2)
        assert not q1 != q2
        assert len({q1, q2}) == 1

    def test_location_and_values_both_count(self):
        q = cfg("l1", 3)
        assert q != cfg("l1", 2) and q != cfg("l2", 3)
        assert q != hg.Configuration(hg.LocId("l1"), (F(3), F(0)))

    def test_equal_only_to_configurations(self):
        q = cfg("l1", 3)
        for other in [(hg.LocId("l1"), (F(3),)), hg.Move("l1", F(3)), None]:
            assert q != other and other != q
            assert not q == other and not other == q

    def test_not_equal_is_the_negation_of_equal(self):
        qs = [cfg("l1", 3), cfg("l1", F(6, 2)), cfg("l1", 2), cfg("l2", 3)]
        for q1 in qs:
            for q2 in qs:
                assert (q1 != q2) is (not q1 == q2)


# The shared ZERO and ONE, fresh objects equal to them, and other slopes.
SLOPES = (ZERO, ONE, F(0), F(1), F(-1), F(1, 3), F(3), F(-2, 5))
SHIFTS = (ZERO, F(0), F(1, 2), F(-3))
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
LENGTHS = st.fractions(min_value=0, max_value=3, max_denominator=6)


def one_loop_game(slopes, guard, reset):
    """One location l with flow `slopes` on x0, x1, ... and one self-loop e
    with guard and reset keyed by variable index."""
    names = tuple(f"x{i}" for i in range(len(slopes)))
    lid = hg.LocId("l")
    loc = hg.Location(lid, hg.Player.ONE, "o", dict(zip(names, slopes)))
    e = hg.Edge("e", lid, "a", hg.Guard({names[i]: iv for i, iv in guard.items()}),
                hg.Reset({names[i]: x for i, x in reset.items()}), lid)
    return hg.Game(hg.Flavor.ISR, names, frozenset({"a"}), frozenset({"o"}),
                   {lid: loc}, {"e": e}, lid)


@st.composite
def loop_cases(draw):
    """Slopes, a valuation, a guard and reset by variable index, a delay."""
    n = draw(st.integers(1, 3))
    slopes = [draw(st.sampled_from(SLOPES)) for _ in range(n)]
    val = tuple(draw(RATIONALS) for _ in range(n))
    guard = {}
    for i in range(n):
        if draw(st.booleans()):
            lo = draw(RATIONALS)
            guard[i] = hg.Interval(lo, lo + draw(LENGTHS))
    reset = {i: draw(RATIONALS) for i in range(n) if draw(st.booleans())}
    return slopes, val, guard, reset, draw(st.fractions(0, 6, max_denominator=6))


class TestUnitSlopeFastPaths:
    # step, delay_window and Affine.apply skip the exact arithmetic of a
    # slope or scale of 1 and a slope or shift of 0 by identity with the
    # shared ONE and ZERO; each must still give what the plain formula gives

    @given(st.lists(st.sampled_from(SLOPES), min_size=1, max_size=3))
    def test_slopes_share_zero_and_one(self, slopes):
        assert F(0) is not ZERO and F(1) is not ONE
        g = one_loop_game(slopes, {}, {})
        for s, kept in zip(slopes, g.slopes[g.init]):
            assert kept == s
            if s == 0:
                assert kept is ZERO
            if s == 1:
                assert kept is ONE

    @given(loop_cases())
    def test_window_is_the_plain_formula(self, case):
        slopes, val, guard, reset, _ = case
        g = one_loop_game(slopes, guard, reset)
        lo, hi, empty = F(0), None, False
        for i, iv in guard.items():
            v, s = val[i], slopes[i]
            if s == 0:
                empty = empty or not iv.contains(v)
                continue
            a, b = sorted([(iv.lo - v) / s, (iv.hi - v) / s])
            lo = max(lo, a)
            hi = b if hi is None else min(hi, b)
        expected = (None if empty or (hi is not None and hi < lo)
                    else hg.DelayWindow(lo, hi))
        assert hg.delay_window(g, hg.Configuration(g.init, val), "e") == expected

    @given(loop_cases())
    def test_step_is_the_plain_formula(self, case):
        slopes, val, guard, reset, t = case
        g = one_loop_game(slopes, guard, reset)
        q, move = hg.Configuration(g.init, val), hg.Move("e", t)
        advanced = [v + t * s for v, s in zip(val, slopes)]
        if all(iv.contains(advanced[i]) for i, iv in guard.items()):
            expected = tuple(reset.get(i, x) for i, x in enumerate(advanced))
            assert hg.step(g, q, move) == hg.Configuration(g.init, expected)
        else:
            with pytest.raises(hg.MoveNotEnabled):
                hg.step(g, q, move)

    @given(st.lists(st.tuples(st.sampled_from([s for s in SLOPES if s]),
                              st.sampled_from(SHIFTS), RATIONALS),
                    min_size=1, max_size=3))
    def test_affine_apply_is_the_plain_formula(self, triples):
        scale, shift, x = zip(*triples)
        assert Affine(scale, shift).apply(x) == tuple(
            a * v + b for a, v, b in zip(scale, x, shift))


def assert_same_fraction(got, expected):
    """`got` is `expected`'s Fraction: equal, in lowest terms, with a
    positive denominator."""
    assert type(got) is F and got == expected
    assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1


DELAYS = st.one_of(st.just(F(0)), st.fractions(0, 6, max_denominator=6))


@st.composite
def one_guard_windows(draw):
    """A slope, a value and a guard on one variable whose delay window is a
    point, a bounded interval or a ray, with that window built by the
    operators."""
    kind = draw(st.sampled_from(("point", "bounded", "ray")))
    v = draw(RATIONALS)
    if kind == "ray":
        # a stopped variable inside its guard leaves every delay enabled
        guard = hg.Interval(v - draw(LENGTHS), v + draw(LENGTHS))
        return F(0), v, guard, hg.DelayWindow(F(0), None)
    slope = draw(st.sampled_from([s for s in SLOPES if s]))
    lo = draw(LENGTHS)
    hi = lo if kind == "point" else lo + draw(LENGTHS.filter(bool))
    a, b = sorted([v + lo * slope, v + hi * slope])
    return slope, v, hg.Interval(a, b), hg.DelayWindow(lo, hi)


class TestIntegerBuiltArithmetic:
    # step, delay_window and Affine.apply build each sum and quotient from
    # numerators and denominators through Fraction's two-int constructor,
    # and DelayWindow.probes gives each probe as its numerator and
    # denominator; each must give the operators' normalised value

    @given(st.lists(st.tuples(st.sampled_from(SLOPES), RATIONALS), min_size=1,
                    max_size=3), DELAYS)
    def test_step_advance_is_the_operators(self, pairs, t):
        slopes, val = zip(*pairs)
        g = one_loop_game(slopes, {}, {})
        got = hg.step(g, hg.Configuration(g.init, val), hg.Move("e", t)).val
        for x, v, s in zip(got, val, slopes):
            assert_same_fraction(x, v + t * s)

    @given(one_guard_windows())
    def test_window_ends_are_the_operators(self, case):
        slope, v, guard, expected = case
        g = one_loop_game([slope], {0: guard}, {})
        got = hg.delay_window(g, hg.Configuration(g.init, (v,)), "e")
        assert got == expected
        assert_same_fraction(got.lo, (guard.hi - v) / slope if slope < 0
                             else (guard.lo - v) / slope if slope else F(0))
        if expected.hi is not None:
            assert_same_fraction(got.hi, (guard.lo - v) / slope if slope < 0
                                 else (guard.hi - v) / slope)

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=12),
           st.one_of(st.none(), st.just(F(0)), LENGTHS))
    def test_probes_are_the_operators(self, lo, length):
        hi = None if length is None else lo + length
        got = hg.DelayWindow(lo, hi).probes
        expected = ((lo, lo + 1, lo + 2) if hi is None else (lo,) if hi == lo
                    else (lo, (lo + hi) / 2, hi))
        assert len(got) == len(expected)
        for (n, d), y in zip(got, expected):
            assert type(n) is int and type(d) is int
            assert (n, d) == (y.numerator, y.denominator)

    @given(st.lists(st.tuples(st.sampled_from([s for s in SLOPES if s]),
                              st.sampled_from(SHIFTS), RATIONALS),
                    min_size=1, max_size=3))
    def test_affine_apply_is_the_operators(self, triples):
        scale, shift, x = zip(*triples)
        for got, a, v, b in zip(Affine(scale, shift).apply(x), scale, x, shift):
            assert_same_fraction(got, a * v + b)


@st.composite
def window_cases(draw):
    """Slopes (stopped, unit and negative among them), a valuation and a
    guard by variable index whose window may be empty, a point, bounded or
    a ray: each variable's guard is absent, random, the point its value
    reaches at one shared delay, or an interval around that point."""
    n = draw(st.integers(1, 3))
    slopes = [draw(st.sampled_from(SLOPES)) for _ in range(n)]
    val = tuple(draw(RATIONALS) for _ in range(n))
    at = draw(LENGTHS)
    guard = {}
    for i in range(n):
        kind = draw(st.sampled_from(("none", "random", "point", "around")))
        x = val[i] + at * slopes[i]
        if kind == "random":
            lo = draw(RATIONALS)
            guard[i] = hg.Interval(lo, lo + draw(LENGTHS))
        elif kind == "point":
            guard[i] = hg.Interval(x, x)
        elif kind == "around":
            guard[i] = hg.Interval(x - draw(LENGTHS), x + draw(LENGTHS))
    return slopes, val, guard


# delay_window solves on int pairs and advance steps on an int-pair delay;
# each must answer what the Fraction code answers

@given(window_cases())
def test_window_is_the_operator_solve(case):
    slopes, val, guard = case
    g = one_loop_game(slopes, guard, {})
    q = hg.Configuration(g.init, val)
    got, expected = hg.delay_window(g, q, "e"), delay_window_ops(g, q, "e")
    assert got == expected
    if expected is not None:
        assert (got.lo is ZERO) is (expected.lo is ZERO)
        assert_same_fraction(got.lo, expected.lo)
        if expected.hi is not None:
            assert_same_fraction(got.hi, expected.hi)


def test_window_cases_cover_every_shape(monkeypatch):
    # the property above, rerun on its own examples, meets every shape
    # of window: empty, point, bounded, ray, lo kept at ZERO and lo past
    # it, and a guard on a variable of negative slope
    shapes, solve = set(), delay_window_ops

    def recording(g, q, edge_id):
        w = solve(g, q, edge_id)
        if any(g.slopes[q.loc][i] < 0 for i, _, _ in g.guards[edge_id]):
            shapes.add("negative slope")
        if w is None:
            shapes.add("empty")
        else:
            shapes.add("ray" if w.hi is None else
                       "point" if w.hi == w.lo else "bounded")
            shapes.add("lo ZERO" if w.lo is ZERO else "lo past 0")
        return w
    monkeypatch.setitem(globals(), "delay_window_ops", recording)
    test_window_is_the_operator_solve()
    assert shapes == {"empty", "point", "bounded", "ray", "lo ZERO",
                      "lo past 0", "negative slope"}


@given(loop_cases(), st.fractions(-2, 6, max_denominator=6),
       st.integers(1, 4), st.sampled_from(("e", "f")))
def test_advance_on_an_unnormalised_pair_is_step(case, t, k, edge):
    slopes, val, guard, reset, _ = case
    g = one_loop_game(slopes, guard, reset)
    q = hg.Configuration(g.init, val)
    try:
        expected = hg.step(g, q, hg.Move(edge, t))
    except hg.MoveNotEnabled as exc:
        with pytest.raises(hg.MoveNotEnabled) as got:
            advance(g, q, edge, k * t.numerator, k * t.denominator)
        assert str(got.value) == str(exc)
    else:
        got = advance(g, q, edge, k * t.numerator, k * t.denominator)
        assert got == expected
        for x, y in zip(got.val, expected.val):
            assert_same_fraction(x, y)
