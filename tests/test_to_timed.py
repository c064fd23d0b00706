"""Offset elimination: updatable resets become plain clock resets."""

from fractions import Fraction as F

import hybridgames as hg
from hybridgames.samples import worked_example

CH = hg.build_chain(worked_example())
U = CH.updatable
T = CH.timed


def test_locations_split_by_reachable_offset():
    assert sorted(l.render() for l in T.locations) == [
        "l0{f:x=_}{g:x=0}",
        "l1{f:x=_}{g:x=-3}",
        "l2{f:x=_}{g:x=0}",
        "l2{f:x=_}{g:x=1}",
        "l3{f:x=1}{g:x=1}",
    ]


def test_edges_split_with_their_source_copies():
    assert len(T.edges) == 6  # e3 fires from both l2 copies
    e3 = sorted(k for k in T.edges if k.startswith("e3"))
    assert e3 == ["e3@{f:x=_}@{g:x=0}", "e3@{f:x=_}@{g:x=1}"]


def test_guards_shifted_by_source_offset():
    got = {e.id: {v: (iv.lo, iv.hi) for v, iv in e.guard.conjuncts.items()}
           for e in T.edges.values()}
    assert got["e1@{f:x=_}@{g:x=-3}"] == {"x": (F(1), F(3))}
    assert got["e2@{f:x=_}@{g:x=-3}"] == {"x": (F(2), F(3))}
    assert got["e3@{f:x=_}@{g:x=0}"] == {"x": (F(2), F(2))}
    assert got["e3@{f:x=_}@{g:x=1}"] == {"x": (F(1), F(1))}
    assert got["e4@{f:x=1}@{g:x=1}"] == {}


def test_resets_are_zero_with_explicit_reset_sets():
    for e in T.edges.values():
        assert e.reset_set == frozenset({"x"})
        assert dict(e.reset.assignments) == {"x": F(0)}


def test_provenance_points_one_stage_back():
    for e in T.edges.values():
        assert e.provenance in U.edges
        assert e.id.startswith(e.provenance)
    for lid in T.locations:
        assert lid.parent() in U.locations


def test_offset_values_read_back():
    lid = hg.parse_locid("l1{f:x=_}{g:x=-3}")
    assert hg.offset_values(lid) == {"x": F(-3)}


def test_timed_stage_validates_and_classifies():
    assert hg.validate_game(T) == []
    assert hg.classify_flavor(T) is hg.Flavor.TIMED


def test_shift_roundtrip_and_nonnegative_clocks():
    q_u = hg.Configuration(hg.parse_locid("l1{f:x=_}"), (F(-3),))
    (q_t,) = CH.stages[3].forward_configs(q_u)
    assert q_t.loc == hg.parse_locid("l1{f:x=_}{g:x=-3}")
    assert q_t.val == (F(0),)
    assert CH.stages[3].backward_config(q_t) == q_u


def test_delay_windows_survive_shifting():
    q_u = hg.Configuration(hg.parse_locid("l1{f:x=_}"), (F(-3),))
    (q_t,) = CH.stages[3].forward_configs(q_u)
    for e_u in U.edges_from(q_u.loc):
        w_u = hg.delay_window(U, q_u, e_u.id)
        twins = [e for e in T.edges_from(q_t.loc) if e.provenance == e_u.id]
        assert len(twins) == 1
        assert hg.delay_window(T, q_t, twins[0].id) == w_u


def test_offset_witness_accepts_sampled_pairs():
    w = hg.offset_witness(U, T)
    for seed in range(6):
        run = hg.play(U, hg.random_strategy(U, seed),
                      hg.random_strategy(U, seed + 50), 8)
        for q in run.configs():
            partners = w.forward_configs(q)
            assert partners
            for q_t in partners:
                verdict = hg.check_local_bisim(w, q, q_t)
                assert verdict.passed, verdict.reason


def test_chain_flavor_progression():
    assert hg.flavor_progression(CH) == {
        "stopwatch": hg.Flavor.STOPWATCH,
        "annotated": hg.Flavor.ANNOTATED_STOPWATCH,
        "updatable": hg.Flavor.UPDATABLE,
        "timed": hg.Flavor.TIMED,
    }


def test_lifted_run_keeps_moves_aligned():
    run = hg.play(CH.isr, hg.first_move_strategy(CH.isr),
                  hg.first_move_strategy(CH.isr), 4)
    lifted = hg.lift_run(CH, run)
    stages = [lifted.source, lifted.stopwatch, lifted.annotated,
              lifted.updatable, lifted.timed]
    games = [CH.isr, CH.stopwatch, CH.annotated, CH.updatable, CH.timed]
    for stage_run, game in zip(stages, games):
        assert len(stage_run.steps) == len(run.steps)
        # same delays at every station, only edge names change
        for s, s0 in zip(stage_run.steps, run.steps):
            assert s.move.delay == s0.move.delay
        assert hg.trace_of(game, stage_run) == hg.trace_of(CH.isr, run)
