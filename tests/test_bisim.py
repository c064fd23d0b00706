"""Witness checking: sampled local bisimulation and the chain report."""

import dataclasses
import random
from fractions import Fraction as F

import pytest

import hybridgames as hg
from hybridgames.samples import worked_example

from gamegen import gen_isr_game

G = worked_example()


def sampled_configs(g, seeds=range(5), depth=8):
    out = []
    for seed in seeds:
        run = hg.play(g, hg.random_strategy(g, seed),
                      hg.random_strategy(g, seed + 31), depth)
        out.extend(run.configs())
    return out


def test_identity_witness_accepts_everything_reachable():
    w = hg.identity_witness(G)
    for q in sampled_configs(G):
        v = hg.check_local_bisim(w, q, q)
        assert v.passed and v.checked > 0


def test_witness_rejects_unrelated_pair():
    w = hg.identity_witness(G)
    q1 = hg.initial_config(G)
    q2 = hg.Configuration(hg.LocId("l1"), (F(3),))
    v = hg.check_local_bisim(w, q1, q2)
    assert not v.passed
    assert "not in the relation" in v.reason


def test_ownership_mismatch_raises():
    flipped = dict(G.locations)
    l1 = hg.LocId("l1")
    flipped[l1] = dataclasses.replace(G.locations[l1], owner=hg.Player.ONE)
    g2 = dataclasses.replace(G, locations=flipped)
    w = hg.identity_witness(G)
    w = dataclasses.replace(w, g2=g2)
    q = hg.Configuration(l1, (F(3),))
    with pytest.raises(hg.OwnershipMismatch):
        hg.check_local_bisim(w, q, q)


def test_tampered_guard_is_caught_and_replayable():
    w_stage = hg.to_stopwatch(G)
    edges = dict(w_stage.edges)
    e1 = edges["e1"]
    conj = {"x": hg.Interval(F(-2), F(1, 2))}  # widen the drop window
    edges["e1"] = dataclasses.replace(e1, guard=hg.Guard(conj))
    tampered = dataclasses.replace(w_stage, edges=edges)

    w = hg.stopwatch_witness(G, tampered)
    q = hg.Configuration(hg.LocId("l1"), (F(3),))
    verdict = hg.check_local_bisim(w, q, hg.rescale_config(G, q))
    assert not verdict.passed
    cex = verdict.counterexample
    assert cex is not None
    assert cex.direction in ("forward", "backward")
    assert hg.replay_counterexample(w, cex)

    # the untouched stage upstream still checks out on the same state
    w_ok = hg.stopwatch_witness(G, w_stage)
    assert hg.check_local_bisim(w_ok, q, hg.rescale_config(G, q)).passed


def test_compose_matches_two_hop_checks():
    ch = hg.build_chain(G)
    w_ann = hg.annotation_witness(ch.stopwatch, ch.annotated)
    w_rw = hg.rewrite_witness(ch.annotated, ch.updatable)
    beta = hg.compose(w_ann, w_rw)
    assert beta.g1 is ch.stopwatch and beta.g2 is ch.updatable
    for q in sampled_configs(ch.stopwatch, seeds=range(3)):
        for q_u in beta.forward_configs(q):
            v = hg.check_local_bisim(beta, q, q_u)
            assert v.passed, v.reason

    # the end-to-end record relates the lifted source and timed runs
    for g in (G, gen_isr_game(3, profile="thirds")):
        ch = hg.build_chain(g)
        w = ch.end_to_end
        assert w.g1 is ch.isr and w.g2 is ch.timed
        slope, ann, rw, off = ch.stages
        other = hg.compose(hg.compose(slope, hg.compose(ann, rw)), off)
        assert (other.loc_back, other.affine, other.edge_back) == \
            (w.loc_back, w.affine, w.edge_back)
        for seed in range(4):
            run = hg.play(g, hg.random_strategy(g, seed),
                          hg.random_strategy(g, seed + 31), 8)
            lifted = hg.lift_run(ch, run)
            for q_s, q_t in zip(lifted.source.configs(), lifted.timed.configs()):
                assert w.contains(q_s, q_t)
                assert w.backward_config(q_t) == q_s
                assert q_t in w.forward_configs(q_s)
            for m_s, m_t in zip(lifted.source.moves(), lifted.timed.moves()):
                assert w.edge_back[m_t.edge] == m_s.edge
                assert m_t.delay == m_s.delay


def test_stage_witnesses_cover_the_chain():
    ch = hg.build_chain(G)
    ws = hg.stage_witnesses(ch)
    assert len(ws) == 6
    assert ws[0].g1 is ch.isr and ws[0].g2 is ch.stopwatch
    assert ws[-1].g1 is ch.isr and ws[-1].g2 is ch.timed
    names = [w.name for w in ws]
    assert len(set(names)) == 6


class TestVerifyChain:
    def test_worked_example_report(self):
        rep = hg.verify_chain(G, samples=12, depth=6, seed=3)
        assert rep.passed
        assert rep.samples_used == 12
        assert len(rep.stages) == 6
        assert rep.warnings == []
        for stage in rep.stages:
            assert stage.pairs > 0
            assert stage.moves_checked > 0
            assert stage.failures == []
        assert "pass" in rep.render()

    def test_zero_samples_is_vacuous_with_warning(self):
        rep = hg.verify_chain(G, samples=0, depth=4)
        assert rep.passed
        assert any("vacuous" in w for w in rep.warnings)

    def test_deterministic_for_fixed_seed(self):
        a = hg.verify_chain(G, samples=8, depth=5, seed=11)
        b = hg.verify_chain(G, samples=8, depth=5, seed=11)
        assert [s.moves_checked for s in a.stages] == \
            [s.moves_checked for s in b.stages]


class TestMoveSampler:
    def setup_method(self):
        self.sampler = hg.MoveSampler(random.Random(7), extra=2)

    def test_compact_window_hits_both_ends(self):
        w = hg.DelayWindow(F(1), F(3))
        got = self.sampler.delays(w)
        assert F(1) in got and F(3) in got
        assert all(w.contains(t) for t in got)

    def test_point_window_collapses(self):
        assert self.sampler.delays(hg.DelayWindow(F(2), F(2))) == [F(2)]

    def test_ray_probes_past_the_corner(self):
        w = hg.DelayWindow(F(1), None)
        got = self.sampler.delays(w)
        assert {F(1), F(2), F(3)} <= set(got)

    def test_moves_pair_edges_with_window_samples(self):
        q = hg.Configuration(hg.LocId("l1"), (F(3),))
        moves = self.sampler.moves(G, q)
        edges = {m.edge for m in moves}
        assert edges == {"e1", "e2"}
        for m in moves:
            assert hg.delay_window(G, q, m.edge).contains(m.delay)
