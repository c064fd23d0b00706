"""Witness checking: sampled local bisimulation and the chain report."""

import dataclasses
import importlib
import random
from fractions import Fraction as F

import pytest

import hybridgames as hg
from hybridgames.bisim import _MAX_FAILURES, _NO_MOVE, Affine
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
    assert v.counterexample.direction == "relation"
    assert hg.replay_counterexample(w, v.counterexample)
    assert not hg.replay_counterexample(
        w, dataclasses.replace(v.counterexample, q2=q1))


def off_by_one_offsets(monkeypatch):
    """Make the offset stage's valuation map subtract one too many, so its
    relation excludes every lifted pair."""
    # the package exports the function to_timed under the module's name
    to_timed = importlib.import_module("hybridgames.to_timed")
    real = to_timed.stage_witness

    def shifted(name, g1, g2):
        w = real(name, g1, g2)
        identity = Affine((F(1),) * len(g1.vars), (F(0),) * len(g1.vars))
        maps = {l2: w.affine.get(l2, identity) for l2 in w.loc_back}
        return dataclasses.replace(w, affine={
            l2: Affine(a.scale, tuple(b - 1 for b in a.shift))
            for l2, a in maps.items()})

    monkeypatch.setattr(to_timed, "stage_witness", shifted)


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


def replace_lowering(monkeypatch, real, fake):
    """Build the chain with `fake` where `chain.LOWERINGS` has `real`."""
    chain = importlib.import_module("hybridgames.chain")
    monkeypatch.setattr(chain, "LOWERINGS", tuple(
        (flavor, fake if construct is real else construct, witness)
        for flavor, construct, witness in chain.LOWERINGS))


def rewrite_hands_l1_to_player_one(monkeypatch):
    """Make the guard-rewrite construction give l1 (player two's) to player
    one, so its relation pairs configurations of different owners."""
    to_updatable = importlib.import_module("hybridgames.to_updatable").to_updatable

    def flipped(g_ann):
        g_u = to_updatable(g_ann)
        locations = {lid: dataclasses.replace(loc, owner=hg.Player.ONE)
                     if lid.base == "l1" else loc
                     for lid, loc in g_u.locations.items()}
        return dataclasses.replace(g_u, locations=locations)

    replace_lowering(monkeypatch, to_updatable, flipped)


def widen_stopwatch_guards(monkeypatch):
    """Make the slope-normalization construction widen every guard by one on
    both sides, so its game has moves whose source counterparts are not
    enabled."""
    to_stopwatch = importlib.import_module("hybridgames.to_stopwatch").to_stopwatch

    def widened(g):
        g_s = to_stopwatch(g)
        edges = {eid: dataclasses.replace(e, guard=hg.Guard(
                     {x: hg.Interval(i.lo - 1, i.hi + 1)
                      for x, i in e.guard.conjuncts.items()}))
                 for eid, e in g_s.edges.items()}
        return dataclasses.replace(g_s, edges=edges)

    replace_lowering(monkeypatch, to_stopwatch, widened)


def test_ownership_mismatch_fails_only_its_stages(monkeypatch):
    rewrite_hands_l1_to_player_one(monkeypatch)
    report = hg.verify_chain(G, samples=20, depth=6)
    witnesses = hg.stage_witnesses(hg.build_chain(G))
    assert [s.passed for s in report.stages] == [
        True, True, False, False, True, False]
    for (w, _, _), stage in zip(witnesses, report.stages):
        assert stage.pairs > 0
        for cex in stage.failures:
            assert cex.direction == "owner" and cex.q1.loc.base == "l1"
            assert hg.replay_counterexample(w, cex)
            with pytest.raises(hg.OwnershipMismatch):
                hg.check_local_bisim(w, cex.q1, cex.q2)


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
    assert [(i, j) for _, i, j in ws] == \
        [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4), (0, 4)]
    games = ch.games()
    for w, i, j in ws:
        assert w.g1 is games[i] and w.g2 is games[j]
    assert ws[-1][0] is ch.end_to_end
    names = [w.name for w, _, _ in ws]
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

    def test_stage_excluding_its_pairs_fails(self, monkeypatch):
        off_by_one_offsets(monkeypatch)
        rep = hg.verify_chain(G, samples=8, depth=5)
        assert not rep.passed
        failed = {s.name: s for s in rep.stages if not s.passed}
        offset = failed["offset-shift"]
        assert offset.pairs > 0 and offset.moves_checked == 0
        w = hg.build_chain(G).stages[-1]
        for cex in offset.failures:
            assert cex.direction == "relation"
            assert hg.replay_counterexample(w, cex)
        assert "offset-shift: FAIL" in rep.render()

    def test_zero_samples_is_vacuous_with_warning(self):
        rep = hg.verify_chain(G, samples=0, depth=4)
        assert rep.passed
        assert any("vacuous" in w for w in rep.warnings)

    def test_deterministic_for_fixed_seed(self, monkeypatch):
        a = hg.verify_chain(G, samples=8, depth=5, seed=11)
        with monkeypatch.context() as m:
            widen_stopwatch_guards(m)
            assert not hg.verify_chain(G, samples=8, depth=5, seed=11).passed
        b = hg.verify_chain(G, samples=8, depth=5, seed=11)
        assert a == b  # every stage's pairs, moves checked and failures
        assert a.render() == b.render()


def unmemoised_verify_chain(g, samples, depth, seed=0):
    """verify_chain as it was before its memo, kept as the oracle: the same
    sampled plays and the same seeded sampler, every pair checked by
    check_local_bisim without a memo."""
    chain = hg.build_chain(g)
    witnesses = hg.stage_witnesses(chain)
    rng = random.Random(seed)
    sampler = hg.MoveSampler(rng=random.Random(seed + 1))
    sampled = []
    while len(sampled) < samples:
        lifted = hg.initial_lifted(chain)
        sampled.append(tuple(run.last() for run in lifted))
        for _ in range(depth):
            if len(sampled) >= samples:
                break
            options = hg.enabled_edges(chain.isr, lifted.source.last())
            if not options:
                break
            e, w = options[rng.randrange(len(options))]
            move = hg.Move(e.id, w.draw(rng, max_den=6, ray=3))
            lifted = hg.lift_step(chain, lifted, move)
            sampled.append(tuple(run.last() for run in lifted))

    stages = [hg.StageResult(w.name) for w, _, _ in witnesses]
    for configs in sampled:
        for (w, i, j), result in zip(witnesses, stages):
            if len(result.failures) >= _MAX_FAILURES:
                continue
            try:
                verdict = hg.check_local_bisim(w, configs[i], configs[j], sampler)
            except hg.OwnershipMismatch as exc:
                cex = hg.Counterexample(w.name, "owner", configs[i], configs[j],
                                        _NO_MOVE, str(exc))
                verdict = hg.Verdict(False, 0, cex, cex.reason)
            result.pairs += 1
            result.moves_checked += verdict.checked
            if not verdict.passed:
                result.failures.append(verdict.counterexample)
    warnings = [] if sampled else [
        "no reachable configurations sampled; result is vacuous"]
    return hg.ChainReport(stages, warnings, len(sampled))


def assert_same_report(g, samples=25, depth=6, seed=0):
    got = hg.verify_chain(g, samples=samples, depth=depth, seed=seed)
    want = unmemoised_verify_chain(g, samples, depth, seed)
    assert got == want  # every stage's pairs, moves checked and failures
    assert got.render() == want.render()
    return got


class TestMemoAgainstOracle:
    """verify_chain's memo changes no report, on passing and failing chains."""

    @pytest.mark.parametrize("seed", range(8))
    def test_thirds_games(self, seed):
        assert assert_same_report(gen_isr_game(seed, profile="thirds")).passed

    @pytest.mark.parametrize("g", [G, gen_isr_game(0, profile="thirds"),
                                   gen_isr_game(1, profile="thirds")],
                             ids=["worked", "thirds0", "thirds1"])
    def test_widened_guards(self, monkeypatch, g):
        widen_stopwatch_guards(monkeypatch)
        rep = assert_same_report(g)
        reasons = [c.reason for s in rep.stages for c in s.failures]
        assert any(r.startswith("counterpart not enabled (delay ") for r in reasons)

    def test_owner_flip(self, monkeypatch):
        rewrite_hands_l1_to_player_one(monkeypatch)
        assert not assert_same_report(G).passed

    def test_off_by_one_offsets(self, monkeypatch):
        off_by_one_offsets(monkeypatch)
        assert not assert_same_report(G).passed


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
