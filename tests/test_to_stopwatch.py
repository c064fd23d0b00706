"""Slope normalisation: guards and resets land in unit-rate coordinates."""

from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

import hybridgames as hg
from hybridgames.samples import worked_example

G = worked_example()
W = hg.to_stopwatch(G)


def test_slopes_become_unit_or_zero():
    assert {str(l): W.flow(l, "x") for l in W.locations} == {
        "l0": F(1), "l1": F(1), "l2": F(1), "l3": F(0)}


def test_guards_divided_by_source_slope():
    got = {e.id: (e.guard.conjuncts["x"].lo, e.guard.conjuncts["x"].hi)
           for e in W.edges.values()}
    assert got == {
        "e0": (F(1), F(2)),    # [2,4] at rate 2
        "e1": (F(-2), F(0)),   # [0,2] at rate -1, endpoints swapped
        "e2": (F(-1), F(0)),
        "e3": (F(2), F(2)),
        "e4": (F(0), F(5)),    # stopped source, guard untouched
    }


def test_resets_divided_by_target_slope():
    got = {e.id: dict(e.reset.assignments) for e in W.edges.values()}
    assert got == {
        "e0": {"x": F(-3)},    # 3 entering rate -1
        "e1": {"x": F(0)},
        "e2": {"x": F(1)},     # 2 entering rate 2
        "e3": {"x": F(1)},     # stopped target keeps the raw value
        "e4": {},
    }


def test_structure_untouched():
    assert set(W.edges) == set(G.edges)
    assert set(W.locations) == set(G.locations)
    assert W.init == G.init
    assert hg.validate_game(W) == []


@given(st.sampled_from(sorted(G.locations, key=str)),
       st.fractions(max_denominator=8))
def test_rescale_roundtrip(lid, x):
    q = hg.Configuration(lid, (x,))
    w = hg.stopwatch_witness(G, W)
    assert w.forward_configs(q) == (hg.rescale_config(G, q),)
    assert w.backward_config(hg.rescale_config(G, q)) == q


@given(st.sampled_from(sorted(G.locations, key=str)),
       st.fractions(max_denominator=8))
def test_delay_windows_survive_rescaling(lid, x):
    q = hg.Configuration(lid, (x,))
    q_w = hg.rescale_config(G, q)
    for e in G.edges_from(lid):
        assert hg.delay_window(G, q, e.id) == hg.delay_window(W, q_w, e.id)


def test_witness_accepts_sampled_reachable_pairs():
    w = hg.stopwatch_witness(G, W)
    assert w.g1 is G and w.g2 is W
    for seed in range(6):
        run = hg.play(G, hg.random_strategy(G, seed),
                      hg.random_strategy(G, seed + 50), 8)
        for q in run.configs():
            verdict = hg.check_local_bisim(w, q, hg.rescale_config(G, q))
            assert verdict.passed, verdict.reason
            assert verdict.checked > 0


def test_witness_translates_moves_both_ways():
    w = hg.stopwatch_witness(G, W)
    q = hg.initial_config(G)
    m = hg.Move("e0", F(3, 2))
    assert w.move_forward(q, m) == m
    assert w.move_backward(hg.rescale_config(G, q), m) == m
