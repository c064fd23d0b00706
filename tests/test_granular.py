"""Grid oracle: slow, exhaustive answers used to cross-check the solver."""

import ast
import dataclasses
import inspect
from fractions import Fraction as F

import pytest

import hybridgames as hg
from hybridgames.samples import small_timed, worked_example

from fixtures import STAGE_NAME
from gamegen import gen_isr_game


def _line_game(hops, p2_escape=False, at=F(1)):
    """A chain of locations n0 -> n1 -> ... whose edges fire when x == at."""
    ids = [hg.LocId(f"n{i}") for i in range(hops + 1)]
    locations = {}
    for i, lid in enumerate(ids):
        owner = hg.Player.TWO if (p2_escape and i == 1) else hg.Player.ONE
        obs = "end" if i == hops else "way"
        locations[lid] = hg.Location(lid, owner, obs, {"x": F(1)})
    edges = {}
    for i in range(hops):
        edges[f"h{i}"] = hg.Edge(
            f"h{i}", ids[i], "step",
            hg.Guard({"x": hg.Interval(at, at)}),
            hg.Reset({"x": F(0)}), ids[i + 1],
            reset_set=frozenset({"x"}))
    if p2_escape:
        edges["esc"] = hg.Edge(
            "esc", ids[1], "flee",
            hg.Guard({"x": hg.Interval(F(0), F(1))}),
            hg.Reset({"x": F(0)}), ids[0],
            reset_set=frozenset({"x"}))
    return hg.Game(
        flavor=hg.Flavor.TIMED, vars=("x",), actions=("step", "flee"),
        obs=("way", "end"), locations=locations, edges=edges, init=ids[0])


def _ray_game(bound):
    """n0 -(e0: x in [0, bound], x := 0)-> n1 -(e1: no guard, x := 0)-> n2,
    so e1's window is a ray from every configuration at n1."""
    ids = [hg.LocId(f"n{i}") for i in range(3)]
    locations = {lid: hg.Location(lid, owner, obs, {"x": F(1)})
                 for lid, owner, obs in zip(ids, (hg.Player.ONE, hg.Player.TWO,
                                                  hg.Player.ONE), "abc")}
    edges = {
        f"e{i}": hg.Edge(f"e{i}", ids[i], "go", hg.Guard(guard),
                         hg.Reset({"x": F(0)}), ids[i + 1],
                         reset_set=frozenset({"x"}))
        for i, guard in enumerate(({"x": hg.Interval(F(0), bound)}, {}))}
    return hg.Game(
        flavor=hg.Flavor.TIMED, vars=("x",), actions=("go",),
        obs=("a", "b", "c"), locations=locations, edges=edges, init=ids[0])


def _with_edge_guard(g, eid, guard):
    edges = dict(g.edges)
    edges[eid] = dataclasses.replace(edges[eid], guard=guard)
    return dataclasses.replace(g, edges=edges)


class TestGranularWinners:
    def test_target_at_init_is_immediate(self):
        g = _line_game(1)
        assert hg.granular_reach_winner(g, frozenset({"way"}))

    def test_straight_line_is_won(self):
        assert hg.granular_reach_winner(_line_game(3), frozenset({"end"}))

    def test_opponent_escape_loses_reachability(self):
        assert not hg.granular_reach_winner(
            _line_game(3, p2_escape=True), frozenset({"end"}))

    def test_unreachable_label_is_lost(self):
        g = _line_game(2)
        assert not hg.granular_reach_winner(g, frozenset({"nowhere"}))

    def test_deadlock_is_safe(self):
        g = _line_game(1)
        # from n1 there are no moves at all: halting keeps "end" forever
        assert hg.granular_safe_winner(g, frozenset({"way", "end"}))

    def test_forced_march_cannot_stay_safe(self):
        g = _line_game(1)
        assert not hg.granular_safe_winner(g, frozenset({"way"}))

    def test_small_timed_matches_region_solver(self):
        g = small_timed()
        rg = hg.build_region_graph(g)
        assert hg.granular_reach_winner(g, frozenset({"done"})) == \
            hg.solve_reachability(rg, frozenset({"done"})).wins_from_init(rg)
        assert hg.granular_safe_winner(g, frozenset({"idle", "busy"})) == \
            hg.solve_safety(rg, frozenset({"idle", "busy"})).wins_from_init(rg)

    @pytest.mark.parametrize("g", [
        worked_example(), _line_game(2, at=F(1, 3)),
        _line_game(3, p2_escape=True, at=F(2, 3))],
        ids=["worked-example", "third-bound", "third-bound-escape"])
    def test_any_flavor_and_rational_bounds_match_region_solver(self, g):
        timed = hg.build_chain(g).timed
        scaled, factor = hg.scale_to_integers(timed)
        rg = hg.build_region_graph(scaled, scale=factor)
        for obs in sorted(g.obs):
            safe = frozenset(g.obs) - {obs}
            assert hg.granular_reach_winner(g, frozenset({obs})) == \
                hg.solve_reachability(rg, frozenset({obs})).wins_from_init(rg)
            assert hg.granular_safe_winner(g, safe) == \
                hg.solve_safety(rg, safe).wins_from_init(rg)

    def test_third_bound_is_on_the_grid(self):
        # no delay on a half-unit grid reaches x == 1/3
        assert hg.granular_reach_winner(_line_game(2, at=F(1, 3)),
                                        frozenset({"end"}))

    def test_size_budget_is_enforced(self):
        with pytest.raises(hg.GameError):
            hg.granular_reach_winner(small_timed(), frozenset({"done"}),
                                     max_configs=3)


class TestGranularWitnessCheck:
    def test_clean_stage_has_no_mismatch(self):
        g = worked_example()
        w = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, hg.to_stopwatch(g))
        assert hg.granular_witness_check(w, depth=5) is None

    def test_tampered_guard_is_found(self):
        g = worked_example()
        tampered = _with_edge_guard(
            hg.to_stopwatch(g), "e1",
            hg.Guard({"x": hg.Interval(F(-2), F(1, 2))}))
        got = hg.granular_witness_check(
            hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, tampered), depth=5)
        assert got is not None
        assert got.direction in ("forward", "backward")
        assert got.move.edge == "e1"

    def test_ray_is_walked_past_every_constant(self):
        # e1 resets x whatever the delay, so two grid points give one
        # successor in g1; only the narrowed counterpart guard tells 11/2
        # (past the bound 5) from the delays before it
        g = _ray_game(F(1))
        narrowed = _with_edge_guard(hg.to_stopwatch(g), "e1",
                                    hg.Guard({"x": hg.Interval(F(0), F(5))}))
        got = hg.granular_witness_check(
            hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, narrowed), depth=5)
        assert got is not None
        assert (got.direction, got.move) == ("forward", hg.Move("e1", F(11, 2)))

    def test_owner_flip_is_found(self):
        g = worked_example()
        stage = hg.to_stopwatch(g)
        l1 = hg.LocId("l1")
        locations = dict(stage.locations)
        locations[l1] = dataclasses.replace(locations[l1], owner=hg.Player.ONE)
        flipped = dataclasses.replace(stage, locations=locations)
        got = hg.granular_witness_check(
            hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, flipped), depth=5)
        assert got is not None
        assert (got.direction, got.q1.loc, got.move) == ("owner", l1, None)

    def test_unrelated_initial_pair_is_named_like_the_sampler(self):
        g = worked_example()
        w = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, hg.to_stopwatch(g))
        # v/2 + 1 at init relates no initial pair
        w = dataclasses.replace(w, affine={
            **w.affine, g.init: hg.bisim.Affine((F(1, 2),), (F(1),))})
        q1, q2 = hg.initial_config(g), hg.initial_config(w.g2)
        got = hg.granular_witness_check(w, depth=5)
        assert (got.direction, got.q1, got.q2, got.move) == ("relation", q1, q2, None)
        sampled = hg.check_local_bisim(w, q1, q2).counterexample
        assert sampled.direction == got.direction

    def test_delays_step_by_half_the_bound_grid(self, monkeypatch):
        # a guard bound 1/2 gives D = 2, so the grid step is 1/4
        tried = set()

        def recording_step(g, q, move):
            tried.add(move.delay)
            return hg.step(g, q, move)
        monkeypatch.setattr(hg.granular, "step", recording_step)
        g = _ray_game(F(1, 2))
        w = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, hg.to_stopwatch(g))
        assert hg.granular_witness_check(w, depth=5) is None
        assert F(1, 4) in tried

    def test_clean_pipeline_stages_have_no_mismatch(self):
        # acceptance check 5's games, unmutated, at its depth
        for seed in range(900, 950):
            g = gen_isr_game(seed, profile="pipeline")
            w = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, hg.to_stopwatch(g))
            assert hg.granular_witness_check(w, depth=8) is None, seed

    def test_package_bug_in_step_propagates(self, monkeypatch):
        # only MoveNotEnabled is a mismatch; any other error is a bug
        def broken_step(g, q, move):
            raise TypeError("broken step")
        monkeypatch.setattr(hg.granular, "step", broken_step)
        g = worked_example()
        w = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, hg.to_stopwatch(g))
        with pytest.raises(TypeError, match="broken step"):
            hg.granular_witness_check(w, depth=5)

    def test_pair_budget_is_enforced(self):
        g = worked_example()
        w = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, hg.to_stopwatch(g))
        with pytest.raises(hg.GameError):
            hg.granular_witness_check(w, depth=5, max_pairs=2)


def test_oracle_imports_only_core_and_semantics():
    # the oracle shares no code with the chain, the witnesses or the solver
    # it cross-checks
    package_imports = set()
    for node in ast.walk(ast.parse(inspect.getsource(hg.granular))):
        if isinstance(node, ast.ImportFrom) and node.level:
            package_imports.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module])
            package_imports.update(n for n in names
                                   if n.split(".")[0] == "hybridgames")
    assert package_imports == {"core", "semantics"}
