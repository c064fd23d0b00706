"""Witness checking: sampled local bisimulation and the chain report."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hybridgames as hg
import hybridgames.bisim as bisim_module
import hybridgames.chain as chain_module
from hybridgames.bisim import _MAX_FAILURES, _NO_MOVE, Affine
from hybridgames.core import ONE, ZERO
from hybridgames.samples import worked_example

from fixtures import (STAGE_NAME, delays_ops, in_window, moves_in,
                      replace_lowering)
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
    real = chain_module.stage_witness

    def shifted(name, g1, g2):
        w = real(name, g1, g2)
        if name != "offset-shift":
            return w
        identity = Affine((F(1),) * len(g1.vars), (F(0),) * len(g1.vars))
        maps = {l2: w.affine.get(l2, identity) for l2 in w.loc_back}
        return dataclasses.replace(w, affine={
            l2: Affine(a.scale, tuple(b - 1 for b in a.shift))
            for l2, a in maps.items()})

    monkeypatch.setattr(chain_module, "stage_witness", shifted)


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


def rewrite_hands_l1_to_player_one(monkeypatch):
    """Make the guard-rewrite construction give l1 (player two's) to player
    one, so its relation pairs configurations of different owners."""
    def flipped(g_ann):
        g_u = hg.to_updatable(g_ann)
        locations = {lid: dataclasses.replace(loc, owner=hg.Player.ONE)
                     if lid.base == "l1" else loc
                     for lid, loc in g_u.locations.items()}
        return dataclasses.replace(g_u, locations=locations)

    replace_lowering(monkeypatch, hg.to_updatable, flipped)


def relabel_l0_in_updatable(monkeypatch):
    """Make the guard-rewrite construction observe "mid" at every copy of
    l0 (the initial location, observed "start"), so every sampled play
    starts at a pair whose labels differ."""
    def relabelled(g_ann):
        g_u = hg.to_updatable(g_ann)
        locations = {lid: dataclasses.replace(loc, obs="mid")
                     if lid.base == "l0" else loc
                     for lid, loc in g_u.locations.items()}
        return dataclasses.replace(g_u, locations=locations)

    replace_lowering(monkeypatch, hg.to_updatable, relabelled)


def widen_stopwatch_guards(monkeypatch):
    """Make the slope-normalization construction widen every guard by one on
    both sides, so its game has moves whose source counterparts are not
    enabled."""
    def widened(g):
        g_s = hg.to_stopwatch(g)
        edges = {eid: dataclasses.replace(e, guard=hg.Guard(
                     {x: hg.Interval(i.lo - 1, i.hi + 1)
                      for x, i in e.guard.conjuncts.items()}))
                 for eid, e in g_s.edges.items()}
        return dataclasses.replace(g_s, edges=edges)

    replace_lowering(monkeypatch, hg.to_stopwatch, widened)


def with_copy_of_e1(g_s, guard):
    """The stopwatch stage g_s with an edge `e1b` added right after e1 out
    of player two's l1: a copy of e1, provenance included, with `guard`.
    The relation's forward map then sends e1 to e1b, and e1's own backward
    clause has no mirror, since its counterpart's counterpart is e1b."""
    edges = {}
    for eid, e in g_s.edges.items():
        edges[eid] = e
        if eid == "e1":
            edges["e1b"] = dataclasses.replace(e, id="e1b", guard=guard)
    return dataclasses.replace(g_s, edges=edges)


def add_copy_of_e1(monkeypatch, guard=None):
    """Make the slope-normalization construction add a copy of e1 that
    shares its provenance, with `guard`, else e1's own."""
    def with_copy(g):
        g_s = hg.to_stopwatch(g)
        return with_copy_of_e1(g_s, guard or g_s.edges["e1"].guard)

    replace_lowering(monkeypatch, hg.to_stopwatch, with_copy)


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

    w = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], G, tampered)
    q = hg.Configuration(hg.LocId("l1"), (F(3),))
    verdict = hg.check_local_bisim(w, q, hg.rescale_config(G, q))
    assert not verdict.passed
    cex = verdict.counterexample
    assert cex is not None
    assert cex.direction in ("forward", "backward")
    assert hg.replay_counterexample(w, cex)

    # the untouched stage upstream still checks out on the same state
    w_ok = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], G, w_stage)
    assert hg.check_local_bisim(w_ok, q, hg.rescale_config(G, q)).passed


def test_compose_matches_two_hop_checks():
    ch = hg.build_chain(G)
    w_ann = hg.stage_witness(STAGE_NAME[hg.Flavor.ANNOTATED_STOPWATCH], ch.stopwatch,
                             ch.annotated)
    w_rw = hg.stage_witness(STAGE_NAME[hg.Flavor.UPDATABLE], ch.annotated, ch.updatable)
    beta = hg.compose(w_ann, w_rw)
    assert beta.g1 is ch.stopwatch and beta.g2 is ch.updatable
    # both stages keep every value, so q's partners are its values at each
    # updatable location that stands for q's location
    for q in sampled_configs(ch.stopwatch, seeds=range(3)):
        partners = [hg.Configuration(l_u, q.val)
                    for l_u, l_w in beta.loc_back.items() if l_w == q.loc]
        assert partners
        for q_u in partners:
            assert beta.contains(q, q_u)
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
            for s_s, s_t in zip(lifted.source.steps, lifted.timed.steps):
                assert w.edge_back[s_t.move.edge] == s_s.move.edge
                assert s_t.move.delay == s_s.move.delay


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


def unmemoised_match(w, q1, q2, move, forward):
    """The matching clause for one sampled move on `Move`s and the plain
    step: a g1 move from q1 matched by its g2 counterpart from q2 when
    `forward`, else a g2 move from q2 by its g1 counterpart.  The mover's
    side steps first."""
    other = w.move_forward(q2, move) if forward else w.move_backward(move)
    if other is None:
        return "no counterpart move"
    try:
        if forward:
            q1n, q2n = hg.step(w.g1, q1, move), hg.step(w.g2, q2, other)
        else:
            q2n, q1n = hg.step(w.g2, q2, move), hg.step(w.g1, q1, other)
    except hg.MoveNotEnabled as exc:
        return f"counterpart not enabled ({exc})"
    if not w.contains(q1n, q2n):
        return "successors not related"
    return None


def unmemoised_check_local_bisim(w, q1, q2, sampler):
    """check_local_bisim without a memo: the same clauses in the same order,
    each move's enabled edges and successors computed afresh by
    enabled_edges and the plain step."""
    if not w.contains(q1, q2):
        cex = hg.Counterexample(w.name, "relation", q1, q2, _NO_MOVE,
                                "pair not in the relation")
        return hg.Verdict(False, 0, cex, cex.reason)
    own1, own2 = w.g1.owner(q1.loc), w.g2.owner(q2.loc)
    if own1 is not own2:
        raise hg.OwnershipMismatch(
            f"{q1.loc.render()} owned by {own1.name}, {q2.loc.render()} by {own2.name}")
    if w.g1.locations[q1.loc].obs != w.g2.locations[q2.loc].obs:
        cex = hg.Counterexample(w.name, "label", q1, q2, _NO_MOVE,
                                "observations differ")
        return hg.Verdict(False, 0, cex, "observations differ")
    checked = 0
    owner_forward = own1 is hg.Player.ONE
    for forward in (owner_forward, not owner_forward):
        g, q = (w.g1, q1) if forward else (w.g2, q2)
        for move in moves_in(sampler, hg.enabled_edges(g, q)):
            checked += 1
            problem = unmemoised_match(w, q1, q2, move, forward)
            if problem:
                cex = hg.Counterexample(w.name, "forward" if forward else "backward",
                                        q1, q2, move, problem)
                return hg.Verdict(False, checked, cex, problem)
    return hg.Verdict(True, checked)


def unmemoised_verify_chain(g, samples, depth, seed=0):
    """verify_chain as it was before its memo, kept as the oracle: the same
    sampled plays, each ended by a move that does not lift through every
    stage, and the same seeded sampler, every pair checked by
    unmemoised_check_local_bisim.  Returns the report and the sampler."""
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
            move = hg.Move(e.id, F(*w.draw(rng, max_den=6, ray=3)))
            try:
                lifted = hg.lift_step(chain, lifted, move)
            except hg.InvalidHistory:
                break
            sampled.append(tuple(run.last() for run in lifted))

    stages = [hg.StageResult(w.name) for w, _, _ in witnesses]
    for configs in sampled:
        for (w, i, j), result in zip(witnesses, stages):
            if len(result.failures) >= _MAX_FAILURES:
                continue
            try:
                verdict = unmemoised_check_local_bisim(w, configs[i], configs[j],
                                                       sampler)
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
    return hg.ChainReport(stages, warnings, len(sampled)), sampler


def assert_same_report(g, samples=25, depth=6, seed=0):
    """verify_chain's report equals the oracle's, and its sampler ends in
    the oracle's rng state, so both drew the same delays in the same order."""
    samplers = []

    def recorded(*args, **kwargs):
        samplers.append(hg.MoveSampler(*args, **kwargs))
        return samplers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bisim_module, "MoveSampler", recorded)
        got = hg.verify_chain(g, samples=samples, depth=depth, seed=seed)
    want, sampler = unmemoised_verify_chain(g, samples, depth, seed)
    assert got == want  # every stage's pairs, moves checked and failures
    assert got.render() == want.render()
    [used] = samplers
    assert used.rng.getstate() == sampler.rng.getstate()
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

    def test_label_mismatch_is_reported_on_every_visit(self, monkeypatch):
        relabel_l0_in_updatable(monkeypatch)
        rep = assert_same_report(G)
        assert [s.passed for s in rep.stages] == [
            True, True, False, False, True, False]
        assert all(c.direction == "label" for s in rep.stages for c in s.failures)
        # every play restarts at the initial pair, whose failed prologue is
        # checked and reported again on each visit
        failures = rep.stages[-1].failures
        assert len({(c.q1, c.q2) for c in failures}) < len(failures)

    def test_shared_provenance_is_no_mirror(self, monkeypatch):
        add_copy_of_e1(monkeypatch)
        checked = []
        real = bisim_module.check_local_bisim

        def recorded(w, q1, q2, *rest):
            checked.append((w, q1, q2))
            return real(w, q1, q2, *rest)

        monkeypatch.setattr(bisim_module, "check_local_bisim", recorded)
        assert assert_same_report(G).passed
        # player two's pairs at l1 check e1's backward clause, which has no
        # mirror, before e1's forward clause
        assert any(w.g1.owner(q1.loc) is hg.Player.TWO
                   and "e1b" in w.g2.edges and q2.loc.base == "l1"
                   for w, q1, q2 in checked)

    @pytest.mark.parametrize("seed", range(10))
    def test_counterpart_not_enabled_ends_the_play(self, monkeypatch, seed):
        # e1b holds the first half of e1's window, so a sampled play that
        # moves e1 late in the window has no enabled slope-stage lift
        add_copy_of_e1(monkeypatch, hg.Guard({"x": hg.Interval(F(-2), F(-1))}))
        rep = assert_same_report(G, seed=seed)
        witnesses = hg.stage_witnesses(hg.build_chain(G))
        assert [s.passed for s in rep.stages] == [
            False, True, True, True, True, False]
        for (w, _, _), stage in zip(witnesses, rep.stages):
            for cex in stage.failures:
                assert hg.replay_counterexample(w, cex)

    def test_inexact_mirror_answers_nothing(self):
        # e1b holds the first half of e1's window, so e1's forward clause
        # fails late in the window, where e1's backward clause passed
        g_s = with_copy_of_e1(hg.to_stopwatch(G),
                              hg.Guard({"x": hg.Interval(F(-2), F(-1))}))
        w = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], G, g_s)
        q = hg.Configuration(hg.LocId("l1"), (F(3),))
        assert G.owner(q.loc) is hg.Player.TWO
        got = hg.check_local_bisim(w, q, hg.rescale_config(G, q),
                                   hg.MoveSampler(random.Random(5)))
        want = unmemoised_check_local_bisim(w, q, hg.rescale_config(G, q),
                                            hg.MoveSampler(random.Random(5)))
        assert got == want
        assert (got.counterexample.direction, got.counterexample.move,
                got.reason) == ("forward", hg.Move("e1", F(3)),
                                "counterpart not enabled (delay 3 outside"
                                " the window of edge e1b)")


WINDOW_ENDS = st.fractions(min_value=0, max_value=10, max_denominator=12)


@st.composite
def sampled_windows(draw):
    """A closed window, a point window or an unbounded ray."""
    lo = draw(WINDOW_ENDS)
    kind = draw(st.sampled_from(["closed", "point", "ray"]))
    if kind == "ray":
        return hg.DelayWindow(lo, None)
    return hg.DelayWindow(lo, lo if kind == "point"
                          else lo + draw(WINDOW_ENDS.filter(bool)))


class TestMoveSampler:
    def setup_method(self):
        self.sampler = hg.MoveSampler(random.Random(7), extra=2)

    def test_compact_window_hits_both_ends(self):
        w = hg.DelayWindow(F(1), F(3))
        got = [F(n, d) for n, d in self.sampler.delays(w)]
        assert F(1) in got and F(3) in got
        assert all(in_window(w, t) for t in got)

    def test_point_window_collapses(self):
        assert self.sampler.delays(hg.DelayWindow(F(2), F(2))) == [(2, 1)]

    def test_ray_probes_past_the_corner(self):
        w = hg.DelayWindow(F(1), None)
        got = self.sampler.delays(w)
        assert {(1, 1), (2, 1), (3, 1)} <= set(got)

    @given(sampled_windows(), st.integers(0, 2**32), st.integers(1, 3))
    def test_delays_are_the_fraction_sampler_s_in_order(self, w, seed, extra):
        # the same values, in the same order and with the same rng use, as
        # the sampler written on Fraction values: these delays feed the
        # check-bisim reports; the second call reads the cached probes
        sampler = hg.MoveSampler(random.Random(seed), extra)
        twin = random.Random(seed)
        for _ in range(2):
            got = sampler.delays(w)
            assert all(type(n) is int and type(d) is int for n, d in got)
            assert got == [(t.numerator, t.denominator)
                           for t in delays_ops(twin, extra, w)]
            assert sampler.rng.getstate() == twin.getstate()

    def test_keeps_no_per_call_state(self):
        w = hg.identity_witness(G)
        configs = sampled_configs(G, seeds=range(10))
        assert len(configs) == 90
        for q in configs:
            assert hg.check_local_bisim(w, q, q, self.sampler).passed
        assert set(vars(self.sampler)) == {"rng", "extra"}

    def test_moves_pair_edges_with_window_samples(self):
        q = hg.Configuration(hg.LocId("l1"), (F(3),))
        moves = moves_in(self.sampler, hg.enabled_edges(G, q))
        edges = {m.edge for m in moves}
        assert edges == {"e1", "e2"}
        for m in moves:
            assert in_window(hg.delay_window(G, q, m.edge), m.delay)


# Scales and shifts of relation maps: the shared ONE and ZERO, fresh objects
# equal to them (which Affine interns), negative and other scales.
SCALES = (ONE, F(1), F(-1), F(2), F(-1, 3), F(3, 2))
SHIFTS = (ZERO, F(0), F(1, 2), F(-3))
VALUES = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def relation_cases(draw):
    """An affine map with its g1 values, and a g2 valuation that is their
    image, the image with one value moved, or drawn afresh."""
    n = draw(st.integers(1, 3))
    a = Affine(tuple(draw(st.sampled_from(SCALES)) for _ in range(n)),
               tuple(draw(st.sampled_from(SHIFTS)) for _ in range(n)))
    x = tuple(draw(VALUES) for _ in range(n))
    kind = draw(st.sampled_from(("image", "one value off", "fresh")))
    if kind == "fresh":
        return a, x, tuple(draw(VALUES) for _ in range(n))
    y = list(a.apply(x))
    if kind == "one value off":
        i = draw(st.integers(0, n - 1))
        y[i] += draw(st.sampled_from((F(1), F(-1, 6), F(1, 12))))
    return a, x, tuple(y)


class TestContains:
    # contains compares each value with a*x + b by cross-multiplying, with
    # no image built; it must answer what the image test answers

    L1, L2, L3 = hg.LocId("a"), hg.LocId("b"), hg.LocId("c")

    @given(relation_cases(), st.sampled_from(("a", "b", "c", "d")),
           st.sampled_from(("a", "x")))
    def test_is_the_location_and_image_test(self, case, loc2, loc1):
        # b maps back to a through the map, c to a through the identity,
        # and d is no g2 location
        a, x, y = case
        w = hg.BisimWitness("t", G, G, {self.L2: self.L1, self.L3: self.L1},
                            {self.L2: a}, {})
        q1 = hg.Configuration(hg.LocId(loc1), x)
        q2 = hg.Configuration(hg.LocId(loc2), y)
        image = a.apply(x) if q2.loc == self.L2 else x
        expected = w.loc_back.get(q2.loc) == q1.loc and image == y
        assert w.contains(q1, q2) is expected

    def test_every_sampled_stage_pair_is_contained(self):
        chain = hg.build_chain(G)
        witnesses = hg.stage_witnesses(chain)
        for seed in range(5):
            lifted = hg.lift_run(chain, hg.play(
                G, hg.random_strategy(G, seed), hg.random_strategy(G, seed + 31), 8))
            runs = [run.configs() for run in lifted]
            for w, i, j in witnesses:
                for q1, q2 in zip(runs[i], runs[j]):
                    assert w.contains(q1, q2)
                    moved = q2.val[:-1] + (q2.val[-1] + F(1, 7),)
                    assert not w.contains(q1, hg.Configuration(q2.loc, moved))
