"""Release gate: eight checks, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every check carries a wall-clock budget; blowing the budget is
a failure even if the substance passes.
"""

import random
import time

import hybridgames as hg
from hybridgames.cli import parse_objective, solve_timed_game
from hybridgames.samples import worked_example

from fixtures import STAGE_NAME, invalid_fixtures, valid_fixtures
from gamegen import (
    gen_isr_game,
    gen_timed_game,
    mutate_game,
    probe_runs,
    visited_components,
)


def _verdict(label: str, ok: bool, detail: str, t0: float, budget: float):
    elapsed = time.time() - t0
    line = (f"{label}: {'pass' if ok else 'FAIL'} ({detail}) "
            f"[{elapsed:.1f}s of {budget:.0f}s]")
    print(line)
    assert ok, line
    assert elapsed < budget, f"budget exceeded: {line}"


def test_01_validation_fixtures():
    t0 = time.time()
    accepted = sum(1 for _, g in valid_fixtures() if not hg.validate_game(g))
    matched = 0
    for name, g, kind in invalid_fixtures():
        kinds = {v.kind for v in hg.validate_game(g)}
        if kind in kinds:
            matched += 1
        else:
            print(f"  {name}: wanted {kind.name}, got {sorted(k.name for k in kinds)}")
    _verdict("1 validation fixtures",
             accepted == 20 and matched == 20,
             f"{accepted}/20 accepted, {matched}/20 rejected with matching kind",
             t0, budget=1.0)


def test_02_flavor_progression():
    t0 = time.time()
    good = 0
    for s in range(200):
        ch = hg.build_chain(gen_isr_game(s, profile="thirds"))
        if (hg.flavor_within(hg.classify_flavor(ch.stopwatch), hg.Flavor.STOPWATCH)
                and hg.flavor_within(hg.classify_flavor(ch.annotated),
                                     hg.Flavor.STOPWATCH)
                and hg.flavor_within(hg.classify_flavor(ch.updatable),
                                     hg.Flavor.UPDATABLE)
                and hg.classify_flavor(ch.timed) is hg.Flavor.TIMED):
            good += 1
    _verdict("2 flavor progression", good == 200,
             f"{good}/200 chains land in stopwatch/updatable/timed classes",
             t0, budget=30.0)


def test_03_stage_witness_commutation():
    t0 = time.time()
    clean = 0
    moves = 0
    for s in range(200):
        rep = hg.verify_chain(gen_isr_game(s, profile="thirds"),
                              samples=50, depth=8, seed=s)
        moves += sum(st.moves_checked for st in rep.stages)
        if rep.passed and rep.samples_used >= 50 and not rep.warnings:
            clean += 1
        else:
            bad = [c.reason for st in rep.stages for c in st.failures[:1]]
            print(f"  seed {s}: {bad or rep.warnings}")
    _verdict("3 witness commutation", clean == 200,
             f"{clean}/200 games, {moves} matched moves across six witnesses",
             t0, budget=300.0)


def test_04_frozen_values_along_runs():
    t0 = time.time()
    runs = checked = bad = 0
    s = 0
    while runs < 1000:
        ann = hg.build_chain(gen_isr_game(s % 200, profile="thirds")).annotated
        for i in range(5):
            run = hg.play(ann, hg.random_strategy(ann, 7919 * s + 2 * i),
                          hg.random_strategy(ann, 7919 * s + 2 * i + 1), 8)
            runs += 1
            for q in run.configs():
                pins = hg.pinned_values(q.loc)
                for var, slope in ann.locations[q.loc].flow.items():
                    if slope == 0:
                        checked += 1
                        if pins[var] is None or q.val[ann.var_index(var)] != pins[var]:
                            bad += 1
        s += 1
    _verdict("4 frozen values", bad == 0 and checked > 0,
             f"{runs} runs, {checked} stopped-variable checks, {bad} drifts",
             t0, budget=60.0)


def test_05_mutation_sensitivity():
    t0 = time.time()
    detected = 0
    equivalent = 0
    undetected = []
    for i in range(50):
        g = gen_isr_game(900 + i, profile="pipeline")
        runs = probe_runs(g, 900 + i, count=4, depth=6)
        ve, vl = visited_components(runs)
        ref = [hg.rescale_config(g, q) for r in runs for q in r.configs()]
        name, bad = mutate_game(hg.to_stopwatch(g), 900 + i, ve, vl,
                                ref_configs=ref)
        w = hg.stage_witness(STAGE_NAME[hg.Flavor.STOPWATCH], g, bad)
        sampler = hg.MoveSampler(random.Random(900 + i), extra=2)
        hit = False
        try:
            for r in runs:
                for q in r.configs():
                    v = hg.check_local_bisim(w, q, hg.rescale_config(g, q),
                                             sampler)
                    if not v.passed:
                        if v.counterexample is not None:
                            assert hg.replay_counterexample(w, v.counterexample)
                        hit = True
                        break
                if hit:
                    break
        except (hg.OwnershipMismatch, hg.GameError):
            hit = True
        if hit:
            detected += 1
        else:
            undetected.append((i, name))
            # a missed mutant is tolerable only if it is genuinely
            # equivalent at full grid granularity
            if hg.granular_witness_check(w, depth=8) is None:
                equivalent += 1
    for i, name in undetected:
        print(f"  mutant {i} ({name}) escaped the sampler")
    _verdict("5 mutation sensitivity",
             detected >= 48 and equivalent == len(undetected),
             f"{detected}/50 caught, {equivalent} escapees proved equivalent",
             t0, budget=300.0)


def test_06_solver_against_halfgrid_oracle():
    t0 = time.time()
    agreed = 0
    for i in range(50):
        g = gen_timed_game(500 + i)
        rg = hg.build_region_graph(g)
        obs_list = sorted({l.obs for l in g.locations.values()})
        rng = random.Random(i)
        target = frozenset({rng.choice(obs_list)})
        reach_ok = (hg.solve_reachability(rg, target).wins_from_init(rg)
                    == hg.granular_reach_winner(g, target))
        safe = frozenset(obs_list) - {rng.choice(obs_list)}
        safe_ok = (hg.solve_safety(rg, safe).wins_from_init(rg)
                   == hg.granular_safe_winner(g, safe))
        if reach_ok and safe_ok:
            agreed += 1
        else:
            print(f"  seed {500 + i}: reach={reach_ok} safe={safe_ok}")
    _verdict("6 solver vs oracle", agreed == 50,
             f"{agreed}/50 games agree on reach and safety winners",
             t0, budget=300.0)


def test_07_end_to_end_synthesis():
    t0 = time.time()
    pool = [("worked", worked_example(), "goal")]
    for s in range(300, 340):
        g = gen_isr_game(s, profile="pipeline")
        rng = random.Random(s)
        target = rng.choice(sorted({l.obs for l in g.locations.values()}))
        pool.append((f"rand-{s}", g, target))

    winners = 0
    losses = []
    for name, g, target in pool:
        chain = hg.build_chain(g)
        rg, res = solve_timed_game(chain.timed,
                                   parse_objective(f"reach:{target}"))
        if not res.wins_from_init(rg):
            continue
        winners += 1
        sigma_t = hg.positional_strategy(rg, res)
        sigma = hg.pull_back_strategy(chain, sigma_t)
        bound = len(rg.nodes)
        for seed in range(100):
            run = hg.play(g, sigma, hg.random_strategy(g, seed), bound)
            if target not in hg.trace_of(g, run):
                losses.append((name, seed))
        rep = hg.check_trace_inclusion(chain, sigma, sigma_t, k=bound,
                                       trials=100)
        if not rep.passed:
            losses.append((name, "mirror"))
    for name, seed in losses[:5]:
        print(f"  {name}: play {seed} missed the target")
    assert winners >= 10, "pool too easy: almost nothing is winnable"
    _verdict("7 end-to-end synthesis", not losses,
             f"{winners} winning games x 100 opponents, all plays reach "
             f"the target with mirrored traces equal",
             t0, budget=300.0)


def test_08_trace_preservation():
    t0 = time.time()
    pairs = mismatches = 0
    for s in range(20):
        g = gen_isr_game(600 + s, profile="thirds")
        chain = hg.build_chain(g)
        stages = [chain.isr, chain.stopwatch, chain.annotated,
                  chain.updatable, chain.timed]
        for p in range(20):
            run = hg.play(g, hg.random_strategy(g, 10_000 + 40 * s + 2 * p),
                          hg.random_strategy(g, 10_001 + 40 * s + 2 * p), 10)
            lifted = hg.lift_run(chain, run)
            stage_runs = [lifted.source, lifted.stopwatch, lifted.annotated,
                          lifted.updatable, lifted.timed]
            ref = hg.trace_of(g, run)
            pairs += 1
            for game, sr in zip(stages, stage_runs):
                if hg.trace_of(game, sr) != ref or len(sr) != len(run):
                    mismatches += 1
    _verdict("8 trace preservation", pairs == 400 and mismatches == 0,
             f"{pairs} strategy pairs, ten-step traces equal at all five "
             f"stages, {mismatches} mismatches",
             t0, budget=120.0)
