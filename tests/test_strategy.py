"""Strategy construction and pull-back along the transformation chain."""

import dataclasses
from fractions import Fraction as F

import pytest

import hybridgames as hg
from hybridgames.samples import small_timed, worked_example

from fixtures import first_move_strategy, replace_lowering

G = worked_example()
CH = hg.build_chain(G)


def _solved_timed_strategy():
    rg = hg.build_region_graph(CH.timed)
    res = hg.solve_reachability(rg, frozenset({"goal"}))
    assert res.wins_from_init(rg)
    return rg, hg.positional_strategy(rg, res)


def test_first_move_strategy_is_deterministic():
    sigma = first_move_strategy(G)
    run = hg.Run(hg.initial_config(G))
    m1 = sigma(run)
    m2 = sigma(run)
    assert m1 == m2
    assert m1.edge == "e0"


def test_random_strategy_reproducible_and_legal():
    a = hg.play(G, hg.random_strategy(G, 5), hg.random_strategy(G, 6), 10)
    b = hg.play(G, hg.random_strategy(G, 5), hg.random_strategy(G, 6), 10)
    assert a == b
    for s in a.steps:
        assert s.move.edge in G.edges


def test_random_strategy_halts_only_when_stuck():
    # in the worked example some edge is always enabled from reachable
    # states, so the random strategy never returns None there
    sigma = hg.random_strategy(G, 9)
    run = hg.Run(hg.initial_config(G))
    assert sigma(run) is not None


def test_pull_back_produces_source_moves():
    _, sigma_t = _solved_timed_strategy()
    sigma = hg.pull_back_strategy(CH, sigma_t)
    run = hg.Run(hg.initial_config(G))
    move = sigma(run)
    assert move is not None
    assert move.edge in G.edges
    assert move.edge == "e0"


def test_pulled_back_strategy_wins_the_source_game():
    rg, sigma_t = _solved_timed_strategy()
    sigma = hg.pull_back_strategy(CH, sigma_t)
    for seed in range(15):
        run = hg.play(G, sigma, hg.random_strategy(G, seed),
                      len(rg.nodes) + 2)
        assert "goal" in hg.trace_of(G, run)


def test_pull_back_preserves_traces_against_live_opponents():
    _, sigma_t = _solved_timed_strategy()
    sigma = hg.pull_back_strategy(CH, sigma_t)
    report = hg.check_trace_inclusion(CH, sigma, sigma_t, k=10, trials=20)
    assert report.passed, report.mismatches
    assert report.trials == 20
    assert report.mismatches == []


def test_inclusion_checks_plays_against_the_timed_strategy():
    # a timed strategy that never moves, a source strategy that ignores the
    # solved one, and one that halts at once all leave plays that are not
    # outcomes of sigma_high
    _, sigma_t = _solved_timed_strategy()
    sigma = hg.pull_back_strategy(CH, sigma_t)
    idle = hg.check_trace_inclusion(CH, sigma, lambda run: None, k=10,
                                    trials=20)
    assert [m.reason for m in idle.mismatches] == \
        ["ply 0 is not the move sigma_high picks"] * 20
    wild = hg.check_trace_inclusion(CH, hg.random_strategy(G, 1), sigma_t,
                                    k=10, trials=20)
    assert wild.mismatches
    assert all("sigma_high picks" in m.reason for m in wild.mismatches)
    halt = hg.check_trace_inclusion(CH, lambda run: None, sigma_t, k=10,
                                    trials=20)
    assert [m.reason for m in halt.mismatches] == \
        ["sigma_high moves where the play halts"] * 20


def test_positional_strategy_ignores_history_details():
    g = small_timed()
    rg = hg.build_region_graph(g)
    res = hg.solve_reachability(rg, frozenset({"done"}))
    sigma = hg.positional_strategy(rg, res)
    # two different histories ending in the same configuration get the
    # same answer
    base = hg.Run(hg.initial_config(g))
    q1 = hg.step(g, hg.initial_config(g), hg.Move("t0", F(0)))
    detour = base.extended(hg.Move("t0", F(0)), q1)
    m_base = sigma(base)
    assert m_base is not None
    other = hg.Run(hg.initial_config(g))
    assert sigma(other) == m_base
    # the detour ends at an opponent location, not this player's turn
    assert sigma(detour) is None


def _bad_history(kind):
    start = hg.initial_config(G)
    if kind == "start":
        return hg.Run(hg.Configuration(start.loc, (F(1),)))
    if kind == "stage":
        run = hg.Run(start)
        for move in (hg.Move("e0", F(1)), hg.Move("e1", F(3))):
            run = run.extended(move, hg.step(G, run.last(), move))
        return run
    move = hg.Move("e0", F(1)) if kind == "replay" else hg.Move("e0", F(5))
    # l1 with x = 3 follows e0 at delay 1; x = 2 does not
    return hg.Run(start).extended(move, hg.Configuration(hg.LocId("l1"), (F(2),)))


def _chain_with_narrowed_e1(monkeypatch):
    """The chain of G whose slope stage holds e1 to the first half of its
    window, so e1 at delay 3 from l1 with x = 3 lifts to a stage step that
    is not enabled."""
    def narrowed(g):
        g_s = hg.to_stopwatch(g)
        e1 = dataclasses.replace(g_s.edges["e1"],
                                 guard=hg.Guard({"x": hg.Interval(F(-2), F(-1))}))
        return dataclasses.replace(g_s, edges={**g_s.edges, "e1": e1})

    replace_lowering(monkeypatch, hg.to_stopwatch, narrowed)
    return hg.build_chain(G)


@pytest.mark.parametrize("kind,reason", [
    ("start", "does not start at the initial configuration"),
    ("replay", "configurations do not replay"),
    ("disabled", "source move not enabled"),
    ("stage", "slope-normalization step not enabled")])
def test_lift_run_refuses_a_history_the_source_cannot_play(monkeypatch, kind,
                                                           reason):
    run = _bad_history(kind)
    chain = _chain_with_narrowed_e1(monkeypatch) if kind == "stage" else CH
    with pytest.raises(hg.InvalidHistory, match=reason):
        hg.lift_run(chain, run)
    _, sigma_t = _solved_timed_strategy()
    with pytest.raises(hg.InvalidHistory, match=reason):
        hg.pull_back_strategy(chain, sigma_t)(run)


def test_pull_back_refuses_a_timed_edge_with_no_source_counterpart():
    sigma = hg.pull_back_strategy(CH, lambda run: hg.Move("nope", F(0)))
    with pytest.raises(hg.InvalidHistory, match="unknown timed edge 'nope'"):
        sigma(hg.Run(hg.initial_config(G)))
