"""Pin annotations and the guard rewrite that removes stopped variables."""

import dataclasses
from fractions import Fraction as F

import pytest

import hybridgames as hg
from hybridgames.samples import worked_example

G = worked_example()
W = hg.to_stopwatch(G)
ANN = hg.annotate_resets(W)
U = hg.to_updatable(ANN)


def ann_id(base):
    matches = [k for k in ANN.edges if k.split("@")[0] == base]
    assert len(matches) == 1
    return matches[0]


class TestAnnotation:
    def test_reachable_pin_maps(self):
        assert sorted(l.render() for l in ANN.locations) == [
            "l0{f:x=_}", "l1{f:x=_}", "l2{f:x=_}", "l3{f:x=1}"]

    def test_running_vars_start_unpinned(self):
        lid = hg.initial_config(ANN).loc
        assert lid.render() == "l0{f:x=_}"
        assert hg.pinned_values(lid) == {"x": None}

    def test_pinned_values_read_back(self):
        l3 = hg.parse_locid("l3{f:x=1}")
        assert hg.pinned_values(l3) == {"x": F(1)}

    def test_edge_ids_carry_source_annotation(self):
        assert set(ANN.edges) == {
            "e0@{f:x=_}", "e1@{f:x=_}", "e2@{f:x=_}",
            "e3@{f:x=_}", "e4@{f:x=1}"}
        for e in ANN.edges.values():
            assert e.provenance == e.id.split("@")[0]

    def test_successor_annotation_pins_on_freeze(self):
        assert ANN.edges["e3@{f:x=_}"].dst.render() == "l3{f:x=1}"
        assert ANN.edges["e4@{f:x=1}"].dst.render() == "l3{f:x=1}"

    def test_annotated_game_validates(self):
        assert hg.validate_game(ANN) == []
        assert hg.classify_flavor(ANN) is hg.Flavor.ANNOTATED_STOPWATCH


class TestGuardRewrite:
    def test_all_flows_become_unit(self):
        for lid in U.locations:
            assert U.slopes[lid] == (F(1),)

    def test_satisfied_conjunct_on_pinned_var_dropped(self):
        assert U.edges["e4@{f:x=1}"].guard.conjuncts == {}

    def test_running_var_guards_kept(self):
        assert U.edges[ann_id("e1")].guard.conjuncts["x"] == \
            hg.Interval(F(-2), F(0))

    def test_resets_repin_stopped_targets(self):
        assert dict(U.edges["e4@{f:x=1}"].reset.assignments) == {"x": F(1)}
        assert dict(U.edges[ann_id("e0")].reset.assignments) == {"x": F(-3)}

    def test_updatable_game_validates(self):
        assert hg.validate_game(U) == []
        assert hg.flavor_within(hg.classify_flavor(U), hg.Flavor.UPDATABLE)


def _pinned_loop_game(guard_lo, guard_hi):
    """One running location, then a frozen location with a self-loop whose
    guard mentions only the frozen variable."""
    l0, l1 = hg.LocId("l0"), hg.LocId("l1")
    return hg.Game(
        flavor=hg.Flavor.ISR,
        vars=("x",),
        actions=("go", "loop"),
        obs=("live", "stuck"),
        locations={
            l0: hg.Location(l0, hg.Player.ONE, "live", {"x": F(1)}),
            l1: hg.Location(l1, hg.Player.ONE, "stuck", {"x": F(0)}),
        },
        edges={
            "e0": hg.Edge("e0", l0, "go", hg.Guard({"x": hg.Interval(F(0), F(3))}),
                          hg.Reset({"x": F(1)}), l1),
            "e1": hg.Edge("e1", l1, "loop",
                          hg.Guard({"x": hg.Interval(guard_lo, guard_hi)}),
                          hg.Reset({}), l1),
        },
        init=l0,
    )


def _literal(ann):
    """The updatable construction without the guard rewrite: every edge
    keeps its annotated guard verbatim, so conjuncts over pinned variables
    read a running clock.  A known-wrong game, built here to show that the
    rewrite is necessary."""
    edges = {}
    for eid, e in ann.edges.items():
        pins = hg.pinned_values(e.dst)
        reset = {var: e.reset.assignments.get(var) if pins[var] is None else pins[var]
                 for var in ann.vars}
        edges[eid] = hg.Edge(eid, e.src, e.action, e.guard,
                             hg.Reset({var: val for var, val in reset.items()
                                       if val is not None}),
                             e.dst, provenance=eid)
    return dataclasses.replace(hg.to_updatable(ann), edges=edges)


class TestLiteralMode:
    def test_literal_keeps_stale_conjunct(self):
        lit = _literal(ANN)
        assert lit.edges["e4@{f:x=1}"].guard.conjuncts["x"] == \
            hg.Interval(F(0), F(5))

    def test_literal_construction_changes_behavior(self):
        g = _pinned_loop_game(F(0), F(2))
        ann = hg.annotate_resets(hg.to_stopwatch(g))
        rewritten = hg.to_updatable(ann)
        literal = _literal(ann)
        loop = [k for k in ann.edges if k.startswith("e1")][0]
        pinned = hg.Configuration(hg.parse_locid("l1{f:x=1}"), (F(1),))

        # frozen semantics: the loop stays open forever
        assert hg.delay_window(ann, pinned, loop).hi is None
        assert hg.delay_window(rewritten, pinned, loop).hi is None
        # the stale conjunct now reads a running clock and closes at t=1
        assert hg.delay_window(literal, pinned, loop) == \
            hg.DelayWindow(F(0), F(1))

    def test_checker_catches_literal_construction(self):
        g = _pinned_loop_game(F(0), F(2))
        ann = hg.annotate_resets(hg.to_stopwatch(g))
        literal = _literal(ann)
        w = hg.rewrite_witness(ann, literal)
        pinned = hg.Configuration(hg.parse_locid("l1{f:x=1}"), (F(1),))
        verdict = hg.check_local_bisim(w, pinned, pinned)
        assert not verdict.passed
        assert verdict.counterexample is not None
        assert hg.replay_counterexample(w, verdict.counterexample)

    def test_rewrite_drops_edge_with_unsatisfiable_pin(self):
        g = _pinned_loop_game(F(2), F(3))  # pin 1 can never satisfy [2,3]
        ann = hg.annotate_resets(hg.to_stopwatch(g))
        rewritten = hg.to_updatable(ann)
        assert not [k for k in rewritten.edges if k.startswith("e1")]
        literal = _literal(ann)
        assert [k for k in literal.edges if k.startswith("e1")]


def test_rewrite_witness_accepts_sampled_pairs():
    w = hg.rewrite_witness(ANN, U)
    for seed in range(6):
        run = hg.play(ANN, hg.random_strategy(ANN, seed),
                      hg.random_strategy(ANN, seed + 50), 8)
        for q in run.configs():
            verdict = hg.check_local_bisim(w, q, q)
            assert verdict.passed, verdict.reason


def test_annotation_witness_accepts_sampled_pairs():
    w = hg.annotation_witness(W, ANN)
    # the composed annotation relation, stopwatch to updatable, relates
    # each pair too, since the guard rewrite is the identity on configurations
    composed = hg.compose(w, hg.rewrite_witness(ANN, U))
    for seed in range(6):
        run = hg.play(W, hg.random_strategy(W, seed),
                      hg.random_strategy(W, seed + 50), 8)
        for q in run.configs():
            partners = w.forward_configs(q)
            assert partners, "reachable stopwatch config has an annotation"
            for q_a in partners:
                assert composed.contains(q, q_a)
                verdict = hg.check_local_bisim(w, q, q_a)
                assert verdict.passed, verdict.reason
