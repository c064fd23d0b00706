"""Core model types: rationals, intervals, location ids, validation."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hybridgames as hg
from hybridgames import cli
from hybridgames.samples import small_timed, worked_example

from fixtures import broken_initialization
from gamegen import gen_isr_game

rationals = st.fractions(max_denominator=64)
nonzero = rationals.filter(lambda f: f != 0)


class TestRationals:
    @given(rationals)
    def test_format_parse_roundtrip(self, v):
        assert hg.parse_rational(hg.format_rational(v)) == v

    @pytest.mark.parametrize("text,value", [
        ("0", F(0)),
        ("3", F(3)),
        ("-2", F(-2)),
        ("1/2", F(1, 2)),
        ("-7/3", F(-7, 3)),
    ])
    def test_canonical_accepted(self, text, value):
        assert hg.parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "4/2", "3/1", "0/1", "-0", "+1", "1/-2", "1/0",
        "1.5", " 1", "1 ", "", "one", "1e2",
    ])
    def test_non_canonical_rejected(self, text):
        with pytest.raises(ValueError):
            hg.parse_rational(text)


class TestInterval:
    @given(rationals, rationals, rationals)
    def test_shifted_membership(self, lo, v, c):
        iv = hg.Interval(lo, lo + 2)
        assert iv.contains(v) == iv.shifted(c).contains(v + c)

    @given(rationals, rationals, nonzero)
    def test_divided_by_membership(self, lo, v, f):
        iv = hg.Interval(lo, lo + 2)
        # divided_by(f) is the preimage of the interval under t -> t*f
        assert iv.contains(v * f) == iv.divided_by(f).contains(v)

    def test_divided_by_negative_swaps_endpoints(self):
        iv = hg.Interval(F(1), F(3)).divided_by(F(-2))
        assert (iv.lo, iv.hi) == (F(-3, 2), F(-1, 2))
        assert iv.is_compact()

    @given(rationals, nonzero.map(abs))
    def test_scaled_endpoints(self, lo, k):
        iv = hg.Interval(lo, lo + 1).scaled(k)
        assert (iv.lo, iv.hi) == (lo * k, (lo + 1) * k)

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            hg.Interval(F(0), F(1)).scaled(F(-1))

    def test_empty_interval_not_compact(self):
        assert not hg.Interval(F(2), F(1)).is_compact()
        assert hg.Interval(F(2), F(2)).is_compact()


# An id whose hash covers strings, None and exact rationals.
ANNOTATED_ID = ('LocId("l3").annotated(Annotation.of("f", {"x": Fraction(1), "y": None}))'
                '.annotated(Annotation.of("g", {"x": Fraction(-3, 2)}))')


def found_in_another_process(expr: str) -> bool:
    """Pickle the value of `expr`, hashed first, under one PYTHONHASHSEED and
    look it up in a dict keyed by `expr` under another.  String hashes, and
    on some versions hash(None), differ between processes, so a loaded value
    must rebuild any hash it caches."""
    src = str(Path(hg.__file__).resolve().parent.parent)
    prelude = ("import pickle, sys; from fractions import Fraction; "
               "from hybridgames import Annotation, Configuration, LocId; ")

    def run(seed, code, data=b""):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-c", prelude + code], input=data,
                              env=env, capture_output=True, check=True,
                              timeout=60).stdout

    dumped = run("1", f"x = {expr}; hash(x); sys.stdout.buffer.write(pickle.dumps(x))")
    found = run("2", f"print({{{expr}: 'twin'}}.get(pickle.loads(sys.stdin.buffer.read())))",
                dumped)
    return found.strip() == b"twin"


class TestLocIds:
    @given(st.dictionaries(st.sampled_from("xyzw"),
                           st.one_of(st.none(), rationals),
                           min_size=1, max_size=4))
    def test_annotation_roundtrip(self, mapping):
        ann = hg.Annotation.of("f", mapping)
        assert ann.as_dict() == mapping
        parsed = hg.parse_locid("loc" + ann.render())
        assert parsed.anns[-1] == ann

    def test_locid_render_parse_roundtrip(self):
        lid = hg.LocId("l3").annotated(
            hg.Annotation.of("f", {"x": F(1), "y": None}))
        lid = lid.annotated(hg.Annotation.of("g", {"x": F(-3, 2)}))
        assert lid.render() == "l3{f:x=1,y=_}{g:x=-3/2}"
        assert hg.parse_locid(lid.render()) == lid
        assert lid.base == "l3"
        assert lid.parent().render() == "l3{f:x=1,y=_}"
        assert lid.last_annotation().kind == "g"

    def test_pickled_id_finds_its_twin_in_another_process(self):
        assert found_in_another_process(ANNOTATED_ID)

    @pytest.mark.parametrize("text", ["", "a b", "l0{", "l0{f:x=4/2}"])
    def test_bad_locid_rejected(self, text):
        with pytest.raises(ValueError):
            hg.parse_locid(text)


def test_pickled_configuration_finds_its_twin_in_another_process():
    assert found_in_another_process(
        f"Configuration({ANNOTATED_ID}, (Fraction(1, 3), Fraction(-2)))")


class TestValidation:
    def test_worked_example_clean(self):
        assert hg.validate_game(worked_example()) == []

    def test_broken_initialization_flagged(self):
        vs = hg.validate_game(broken_initialization())
        assert any(v.kind is hg.ViolationKind.INITIALIZATION_BROKEN for v in vs)
        rendered = vs[0].render()
        assert "e0" in rendered and "x" in rendered

    @staticmethod
    def _annotated_with(old, new):
        """The worked example's annotated stage, its id `old` renamed `new`."""
        text = cli.game_to_bytes(hg.build_chain(worked_example()).annotated).decode()
        assert old in text
        return json.loads(text.replace(old, new))

    def test_pin_must_follow_the_reset(self):
        # e3 resets x to 1 on entering l3, where x is stopped
        doc = self._annotated_with("l3{f:x=1}", "l3{f:x=5}")
        assert hg.validate_game(cli.parse_game(doc)) == [hg.Violation(
            hg.ViolationKind.ANNOTATION_MISMATCH, "e3@{f:x=_}", "x",
            "target pin 5 is not 1, the reset value or else the source pin")]

    def test_initial_pin_must_be_zero(self):
        doc = self._annotated_with("l0{f:x=_}", "l0{f:x=2}")
        doc["locations"]["l0{f:x=2}"]["flow"]["x"] = "0"
        assert hg.Violation(hg.ViolationKind.ANNOTATION_MISMATCH, "l0{f:x=2}", "x",
                            "initial pin 2 is not 0") \
            in hg.validate_game(cli.parse_game(doc))

    def test_repeated_variable_flagged(self):
        g = worked_example()
        g2 = hg.Game(g.flavor, ("x", "x"), g.actions, g.obs, g.locations,
                     g.edges, g.init)
        assert hg.Violation(hg.ViolationKind.BAD_VARIABLE, "vars[1]", "x",
                            "repeated name") in hg.validate_game(g2)
        with pytest.raises(hg.InvalidGame, match="bad-variable at vars"):
            hg.build_chain(g2)

    @staticmethod
    def _with_variable_named(name):
        """The worked example with its one variable x renamed `name`."""
        g = worked_example()

        def renamed(m):
            return {name if var == "x" else var: v for var, v in m.items()}
        locations = {lid: dataclasses.replace(loc, flow=renamed(loc.flow))
                     for lid, loc in g.locations.items()}
        edges = {eid: dataclasses.replace(
                     e, guard=hg.Guard(renamed(e.guard.conjuncts)),
                     reset=hg.Reset(renamed(e.reset.assignments)))
                 for eid, e in g.edges.items()}
        return hg.Game(g.flavor, (name,), g.actions, g.obs, locations, edges,
                       g.init)

    def test_ill_formed_variable_flagged(self):
        # the command line refuses "x y" in a game file, and so in the files
        # of this game's lowered stages
        assert hg.validate_game(self._with_variable_named("y")) == []
        g = self._with_variable_named("x y")
        assert hg.validate_game(g) == [hg.Violation(
            hg.ViolationKind.BAD_VARIABLE, "vars[0]", "x y", "not a valid name")]
        with pytest.raises(hg.InvalidGame):
            hg.build_chain(g)

    def test_classify_refuses_invalid_input(self):
        with pytest.raises(hg.InvalidGame):
            hg.classify_flavor(broken_initialization())


class TestClassification:
    def test_worked_example_is_general_flavor(self):
        assert hg.classify_flavor(worked_example()) is hg.Flavor.ISR

    def test_small_timed_is_timed(self):
        assert hg.classify_flavor(small_timed()) is hg.Flavor.TIMED

    def test_flavor_containment_shape(self):
        F_ = hg.Flavor
        for f in F_:
            assert hg.flavor_within(f, f)
            assert hg.flavor_within(f, F_.ISR)
        # timed games sit below updatable, both below stopwatch
        assert hg.flavor_within(F_.TIMED, F_.UPDATABLE)
        assert hg.flavor_within(F_.UPDATABLE, F_.STOPWATCH)
        assert hg.flavor_within(F_.ANNOTATED_STOPWATCH, F_.STOPWATCH)
        # annotations are required, so plain timed/updatable games are
        # not annotated-stopwatch games and the two branches are siblings
        assert not hg.flavor_within(F_.TIMED, F_.ANNOTATED_STOPWATCH)
        assert not hg.flavor_within(F_.UPDATABLE, F_.ANNOTATED_STOPWATCH)
        assert not hg.flavor_within(F_.ANNOTATED_STOPWATCH, F_.UPDATABLE)
        assert not hg.flavor_within(F_.ISR, F_.TIMED)
        assert not hg.flavor_within(F_.STOPWATCH, F_.UPDATABLE)

    def test_chain_stages_classify_within_their_class(self):
        ch = hg.build_chain(worked_example())
        assert hg.classify_flavor(ch.stopwatch) is hg.Flavor.STOPWATCH
        assert hg.classify_flavor(ch.annotated) is hg.Flavor.ANNOTATED_STOPWATCH
        assert hg.flavor_within(hg.classify_flavor(ch.updatable),
                                hg.Flavor.UPDATABLE)
        assert hg.classify_flavor(ch.timed) is hg.Flavor.TIMED

    def test_pin_off_the_reset_classifies_as_stopwatch(self):
        # the game test_pin_must_follow_the_reset refuses as annotated, which
        # is a valid stopwatch game
        doc = TestValidation._annotated_with("l3{f:x=1}", "l3{f:x=5}")
        doc["flavor"] = "stopwatch"
        g = cli.parse_game(doc)
        assert hg.validate_game(g) == []
        assert hg.classify_flavor(g) is hg.Flavor.STOPWATCH


@pytest.mark.parametrize("seed", range(12))
def test_stage_games_keep_the_rules_of_their_classified_flavor(seed):
    # whatever flavor classify names, validation under it finds at most
    # stale reset sets, which are bookkeeping
    for g in hg.build_chain(gen_isr_game(seed)).games():
        classified = dataclasses.replace(g, flavor=hg.classify_flavor(g))
        assert {v.kind for v in hg.validate_game(classified)} <= \
            {hg.ViolationKind.RESET_SET_MISMATCH}


def test_scale_to_integers_clears_denominators():
    g = small_timed()
    half = {}
    for eid, e in g.edges.items():
        conj = {v: hg.Interval(iv.lo / 2, iv.hi / 2)
                for v, iv in e.guard.conjuncts.items()}
        half[eid] = e.__class__(
            id=e.id, src=e.src, action=e.action, guard=hg.Guard(conj),
            reset=e.reset, dst=e.dst, reset_set=e.reset_set)
    halved = g.__class__(
        flavor=g.flavor, vars=g.vars, actions=g.actions, obs=g.obs,
        locations=g.locations, edges=half, init=g.init)
    scaled, factor = hg.scale_to_integers(halved)
    assert factor == 2
    for eid, e in scaled.edges.items():
        for v, iv in e.guard.conjuncts.items():
            assert iv.lo.denominator == 1 and iv.hi.denominator == 1
            assert iv.lo == halved.edges[eid].guard.conjuncts[v].lo * 2


def test_scale_to_integers_requires_timed():
    with pytest.raises(hg.InvalidGame):
        hg.scale_to_integers(worked_example())


def test_game_indexes_agree_with_tables():
    for g in hg.build_chain(worked_example()).games():
        for lid, loc in g.locations.items():
            assert g.owner(lid) is loc.owner
            assert g.slopes[lid] == tuple(loc.flow[var] for var in g.vars)
            for e in g.edges_from(lid):
                assert e.src == lid
        for eid, e in g.edges.items():
            guard, reset = g.guards[eid], g.resets[eid]
            # one entry per variable, in variable order
            assert [i for i, _, _ in guard] == sorted({i for i, _, _ in guard})
            assert [i for i, _ in reset] == sorted({i for i, _ in reset})
            assert {g.vars[i]: hg.Interval(lo, hi)
                    for i, lo, hi in guard} == e.guard.conjuncts
            assert {g.vars[i]: val for i, val in reset} == e.reset.assignments
        assert g.locations[g.init].owner is hg.Player.ONE
