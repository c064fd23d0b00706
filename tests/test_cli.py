"""Command line surface: parsing, emission, exit codes, pipelines."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hybridgames as hg
from hybridgames import cli
from hybridgames.chain import CHAIN_ORDER
from hybridgames.samples import small_timed, worked_example

from fixtures import broken_initialization, valid_fixtures
from gamegen import gen_isr_game, oracle_pool
from test_bisim import off_by_one_offsets, rewrite_hands_l1_to_player_one

SAMPLES = Path(__file__).resolve().parent.parent / "sample_games"
FLAVORS = [f.value for f in CHAIN_ORDER]


@pytest.fixture
def run(capsys):
    def _run(*argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


@pytest.fixture
def game_file(tmp_path):
    def _write(g, name="game.json"):
        p = tmp_path / name
        p.write_bytes(cli.game_to_bytes(g))
        return str(p)
    return _write


class TestDocuments:
    @pytest.mark.parametrize("name,game", valid_fixtures())
    def test_roundtrip_is_identity(self, name, game):
        doc = cli.emit_game(game)
        again = cli.parse_game(json.loads(json.dumps(doc)))
        assert cli.emit_game(again) == doc
        assert cli.game_to_bytes(again) == cli.game_to_bytes(game)

    def test_emission_is_deterministic(self):
        assert cli.game_to_bytes(worked_example()) == \
            cli.game_to_bytes(worked_example())

    def test_provenance_and_reset_sets_not_serialized(self):
        ch = hg.build_chain(worked_example())
        doc = cli.emit_game(ch.timed)
        for edge in doc["edges"]:
            assert "provenance" not in edge
            assert "reset_set" not in edge
        # both are rederived when reading the document back
        back = cli.parse_game(doc)
        for eid, e in back.edges.items():
            assert e.reset_set == ch.timed.edges[eid].reset_set

    def test_noncanonical_rational_rejected_with_path(self):
        doc = cli.emit_game(worked_example())
        doc["edges"][0]["guard"]["x"][0] = "4/2"
        with pytest.raises(cli.ParseError, match=r"\$\.edges\[0\]\.guard\.x\[0\]"):
            cli.parse_game(doc)

    def test_unknown_field_rejected_with_path(self):
        doc = cli.emit_game(worked_example())
        doc["locations"]["l0"]["color"] = "red"
        with pytest.raises(cli.ParseError,
                           match=r"\$\.locations\['l0'\]\.color"):
            cli.parse_game(doc)

    def test_missing_field_rejected(self):
        doc = cli.emit_game(worked_example())
        del doc["edges"][0]["reset"]
        with pytest.raises(cli.ParseError, match=r"\$\.edges\[0\]"):
            cli.parse_game(doc)

    def test_null_reset_means_keep(self):
        doc = cli.emit_game(worked_example())
        doc["edges"][0]["reset"]["x"] = None
        g = cli.parse_game(doc)
        assert "x" not in g.edges["e0"].reset.assignments

    def test_game_hash_tracks_content(self):
        a = cli.game_hash(worked_example())
        assert a == cli.game_hash(worked_example())
        assert a != cli.game_hash(small_timed())


class TestStrategyDocuments:
    def _solved(self):
        g = small_timed()
        objective = cli.parse_objective("reach:done")
        rg, result = cli.solve_timed_game(g, objective)
        doc = cli.strategy_file_for_source(g, hg.build_chain(g), rg, result,
                                           objective)
        return g, json.loads(cli.strategy_to_bytes(doc))

    def test_region_width_must_be_consistent(self):
        g, doc = self._solved()
        doc["entries"][0]["region"]["ints"] = [0]  # one clock short
        with pytest.raises(cli.ParseError, match="region"):
            cli._strategy_table(doc, hg.build_chain(g))

    def test_region_width_is_the_games_clock_count(self, run, game_file,
                                                   tmp_path):
        # a region one clock short in entry 0 is the region at fault, not
        # the entries that have the game's width
        g, doc = self._solved()
        assert len(g.vars) == 2
        doc["entries"][0]["region"] = {"ints": [0], "fracs": [0]}
        strat = tmp_path / "strat.json"
        strat.write_text(json.dumps(doc))
        code, out, err = run("simulate", game_file(g), "--strategy", str(strat))
        assert code == 1 and out == ""
        assert err == "error: bad region at $.entries[0].region.ints\n"

    def test_objective_strings(self):
        obj = cli.parse_objective("safe:b,a")
        assert obj.kind == "safe" and obj.obs == frozenset({"a", "b"})
        assert obj.text == "safe:a,b"
        for bad in ("win:a", "reach", ""):
            with pytest.raises(cli.ParseError):
                cli.parse_objective(bad)

    @pytest.mark.parametrize("kind", ["reach", "safe"])
    def test_objective_over_no_observations(self, run, kind):
        # the text the writer gives such an objective reads back as it
        obj = cli.parse_objective(f"{kind}:")
        assert obj == cli.Objective(kind, frozenset())
        assert obj.text == f"{kind}:"
        code, out, err = run("solve", str(SAMPLES / "patrol.json"),
                             "--objective", f"{kind}:")
        assert code == 1 and out == ""
        assert err == f"losing for player one: {kind}:\n"

    @pytest.mark.parametrize("text", ["reach:goal,", "reach:,", "safe:,start",
                                      "safe:a,,b"])
    def test_objective_rejects_empty_observation_name(self, run, text):
        with pytest.raises(cli.ParseError, match="objective must look like"):
            cli.parse_objective(text)
        code, out, err = run("solve", str(SAMPLES / "patrol.json"),
                             "--objective", text)
        assert code == 1 and out == ""
        assert "objective must look like" in err


class TestExitCodes:
    def test_validate_accepts(self, run, game_file):
        code, out, _ = run("validate", game_file(worked_example()))
        assert code == 0 and out.strip() == "ok"

    def test_validate_reports_each_violation(self, run, game_file):
        code, out, _ = run("validate", game_file(broken_initialization()))
        assert code == 1
        assert "initialization-broken" in out

    def test_classify_prints_flavor(self, run, game_file):
        code, out, _ = run("classify", game_file(small_timed()))
        assert code == 0 and out.strip() == "timed"

    def test_usage_error_is_exit_two(self, run):
        code, _, _ = run("transform")  # missing required arguments
        assert code == 2

    @pytest.mark.parametrize("exc,line", [
        (MemoryError(), "internal error: MemoryError\n"),
        (KeyError("x"), "internal error: KeyError: 'x'\n"),
    ])
    def test_internal_error_names_its_exception(self, run, monkeypatch, exc,
                                                line):
        def fail(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_validate", fail)
        code, out, err = run("validate", str(SAMPLES / "patrol.json"))
        assert (code, out, err) == (3, "", line)

    def test_unknown_file_is_data_error(self, run, tmp_path):
        code, _, err = run("validate", str(tmp_path / "missing.json"))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv", ["transform --to timed",
                                      "solve --objective reach:goal"])
    def test_unwritable_out_is_data_error(self, run, tmp_path, argv):
        command, *extra = argv.split()
        out = tmp_path / "no-such-dir" / "out.json"
        code, _, err = run(command, str(SAMPLES / "patrol.json"), *extra,
                           "--out", str(out))
        assert code == 1
        assert err.startswith(f"error: cannot write {out}: ")

    def test_backward_transform_refused(self, run, game_file, tmp_path):
        src = game_file(worked_example())
        out = str(tmp_path / "timed.json")
        assert run("transform", src, "--to", "timed", "--out", out)[0] == 0
        code, _, err = run("transform", out, "--to", "isr")
        assert code == 2
        assert "cannot transform" in err

    def test_solve_winning_and_losing(self, run, game_file, tmp_path):
        g = game_file(small_timed())
        win = run("solve", g, "--objective", "reach:done")
        assert win[0] == 0 and "winning" in win[2]
        lose = run("solve", g, "--objective", "safe:busy,idle")
        assert lose[0] == 1 and "losing" in lose[2]

    def test_solve_rejects_unknown_observation(self, run, game_file):
        code, _, err = run("solve", game_file(worked_example()),
                           "--objective", "reach:nosuch")
        assert code == 1
        assert "does not declare" in err

    @pytest.mark.parametrize("field", ["vars", "actions", "obs"])
    def test_name_listed_twice_rejected(self, run, tmp_path, field):
        doc = json.loads((SAMPLES / "patrol.json").read_text())
        doc[field].append(doc[field][0])
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, out, err = run("validate", str(path))
        assert code == 1 and out == ""
        assert f"$.{field}[{len(doc[field]) - 1}]" in err

    def test_bad_variable_name_rejected(self, run, tmp_path):
        # the name would reach annotated location ids, which refuse it
        doc = json.loads((SAMPLES / "patrol.json").read_text())
        doc["vars"] = ["x y"]
        for loc in doc["locations"].values():
            loc["flow"] = {"x y": loc["flow"]["x"]}
        for edge in doc["edges"]:
            for key in ("guard", "reset"):
                edge[key] = {"x y" if k == "x" else k: v
                             for k, v in edge[key].items()}
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)],
                     ["transform", str(path), "--to", "annotated-stopwatch"]):
            code, out, err = run(*argv)
            assert code == 1 and out == ""
            assert err == "error: bad variable name 'x y' at $.vars[0]\n"

    def test_pins_that_do_not_follow_the_resets_rejected(self, run, tmp_path):
        # e3 resets x to 1 on entering l3: a pin of 5 there is not bisimilar
        ann = tmp_path / "ann.json"
        assert run("transform", str(SAMPLES / "patrol.json"),
                   "--to", "annotated-stopwatch", "--out", str(ann))[0] == 0
        path = tmp_path / "game.json"
        path.write_text(ann.read_text().replace("l3{f:x=1}", "l3{f:x=5}"))
        for argv in (["validate", str(path)],
                     ["transform", str(path), "--to", "updatable"]):
            code, out, err = run(*argv)
            assert code == 1
            assert "annotation-mismatch at e3@{f:x=_} var=x" in out + err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("name", ["not-utf8", "too-deep", "lone-surrogate"])
    def test_text_that_is_not_json_is_a_data_error(self, run, tmp_path,
                                                   command, name):
        patrol = (SAMPLES / "patrol.json").read_bytes()
        path = tmp_path / f"{name}.json"
        path.write_bytes({
            "not-utf8": b"\xff\xfe" + patrol,
            "too-deep": b"[" * 100_000 + b"]" * 100_000,
            # a valid game once read, its goal observation renamed throughout
            "lone-surrogate": patrol.replace(b'"goal"', b'"\\ud800"')}[name])
        extra = ("--objective", "reach:start") if command == "solve" else ()
        code, out, err = run(command, str(path), *extra)
        assert code == 1 and out == ""
        assert err.startswith(f"error: not valid JSON: {path}: ")

    @pytest.mark.parametrize("argv", [
        "classify", "transform --to timed", "check-bisim",
        "solve --objective reach:goal", "pull-back --strategy strat.json",
        "simulate --strategy strat.json"])
    def test_invalid_game_lists_every_violation(self, run, tmp_path, argv):
        command, *extra = argv.split()
        doc = json.loads((SAMPLES / "patrol.json").read_text())
        doc["actions"], doc["obs"] = [], []
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        violations = hg.validate_game(cli.parse_game(doc))
        assert len(violations) == 9
        code, out, err = run(command, str(path), *extra)
        assert code == 1 and out == ""
        assert err == "error: invalid game:\n" + "".join(
            f"  {v.render()}\n" for v in violations)

    def test_pull_back_on_a_timed_game_is_a_usage_error(self, run, tmp_path):
        timed = str(tmp_path / "timed.json")
        assert run("transform", str(SAMPLES / "patrol.json"), "--to", "timed",
                   "--out", timed)[0] == 0
        code, out, err = run("pull-back", timed, "--strategy", "strat.json")
        assert code == 2 and out == ""
        assert err == ("error: pull-back needs a game with something above "
                       "the timed stage\n")

    @pytest.mark.parametrize("command,flag,value,expected", [
        ("check-bisim", "--samples", "-3", 2), ("check-bisim", "--samples", "0", 2),
        ("check-bisim", "--depth", "-1", 2), ("simulate", "--steps", "-4", 2),
        ("check-bisim", "--samples", "1", 0),
        ("check-bisim", "--depth", "0", 0), ("simulate", "--steps", "0", 0)])
    def test_counts_out_of_range_are_usage_errors(self, run, game_file, tmp_path,
                                                  command, flag, value, expected):
        src = game_file(worked_example())
        strat = str(tmp_path / "s.json")
        assert run("solve", src, "--objective", "reach:goal", "--out", strat)[0] == 0
        extra = ("--strategy", strat) if command == "simulate" else ()
        code, out, err = run(command, src, *extra, flag, value)
        assert code == expected
        if expected == 2:
            assert out == "" and flag in err

    @pytest.mark.parametrize("argv", [
        "validate", "transform --to timed", "check-bisim --samples 3 --depth 2"])
    def test_closed_stdout_is_a_data_error(self, argv):
        command, *extra = argv.split()
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(hg.__file__).resolve().parent.parent)}
        try:
            ran = subprocess.run(
                [sys.executable, "-m", "hybridgames.cli", command,
                 str(SAMPLES / "patrol.json"), *extra],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert ran.returncode == 1
        assert ran.stderr == b"error: standard output was closed\n"


class TestPipelines:
    def test_transform_steps_compose(self, run, game_file, tmp_path):
        # lowering to one stage, then from its file to a later one, writes
        # the file of lowering to the later one directly
        src = game_file(worked_example())
        direct = {}
        for flavor in FLAVORS:
            direct[flavor] = tmp_path / f"{flavor}.json"
            assert run("transform", src, "--to", flavor,
                       "--out", str(direct[flavor]))[0] == 0
        for i, first in enumerate(FLAVORS):
            for then in FLAVORS[i:]:
                code, out, err = run("transform", str(direct[first]),
                                     "--to", then)
                assert (code, err) == (0, ""), (first, then)
                assert out.encode() == direct[then].read_bytes(), (first, then)
            for earlier in FLAVORS[:i]:
                code, out, _ = run("transform", str(direct[first]),
                                   "--to", earlier)
                assert (code, out) == (2, ""), (first, earlier)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_each_stage_file_pulls_back_as_solved(self, run, tmp_path, flavor):
        # a stage file of the worked example (patrol.json) enters the chain
        # at its own flavor, so the strategy solved on its timed stage pulls
        # back to the file of solving it
        src = str(tmp_path / "stage.json")
        assert run("transform", str(SAMPLES / "patrol.json"), "--to", flavor,
                   "--out", src)[0] == 0
        timed = str(tmp_path / "timed.json")
        assert run("transform", src, "--to", "timed", "--out", timed)[0] == 0
        strat = tmp_path / "timed-strat.json"
        assert run("solve", timed, "--objective", "reach:goal",
                   "--out", str(strat))[0] == 0
        direct = tmp_path / "direct.json"
        assert run("solve", src, "--objective", "reach:goal",
                   "--out", str(direct))[0] == 0
        code, out, err = run("pull-back", src, "--strategy", str(strat))
        if flavor == "timed":
            assert code == 2 and out == ""
            assert direct.read_bytes() == strat.read_bytes()
        else:
            assert (code, err) == (0, "")
            assert out.encode() == direct.read_bytes()

    def test_check_bisim_reports_stages(self, run, game_file):
        code, out, _ = run("check-bisim", game_file(worked_example()),
                           "--samples", "8", "--depth", "5")
        assert code == 0
        assert out.count("pass") == 6

    def test_check_bisim_fails_a_stage_excluding_its_pairs(self, run,
                                                             monkeypatch):
        off_by_one_offsets(monkeypatch)
        code, out, _ = run("check-bisim", str(SAMPLES / "patrol.json"))
        assert code == 1
        assert "offset-shift: FAIL" in out
        assert "relation pair not in the relation" in out

    def test_check_bisim_reports_an_owner_mismatch_as_a_stage_fail(
            self, run, monkeypatch):
        rewrite_hands_l1_to_player_one(monkeypatch)
        code, out, _ = run("check-bisim", str(SAMPLES / "patrol.json"))
        assert code == 1
        statuses = [line.split(": ")[1].split()[0] for line in out.splitlines()
                    if not line.startswith(" ")]
        assert statuses == ["pass", "pass", "FAIL", "FAIL", "pass", "FAIL"]
        assert "  owner l1{f:x=_} owned by TWO" in out

    def test_solve_pull_back_simulate(self, run, game_file, tmp_path):
        src = game_file(worked_example())
        timed = str(tmp_path / "timed.json")
        run("transform", src, "--to", "timed", "--out", timed)

        timed_strat = str(tmp_path / "timed-strat.json")
        assert run("solve", timed, "--objective", "reach:goal",
                   "--out", timed_strat)[0] == 0

        pulled = str(tmp_path / "pulled.json")
        assert run("pull-back", src, "--strategy", timed_strat,
                   "--out", pulled)[0] == 0

        # solving the source directly produces the same pulled-back file
        direct = str(tmp_path / "direct.json")
        assert run("solve", src, "--objective", "reach:goal",
                   "--out", direct)[0] == 0
        assert open(pulled, "rb").read() == open(direct, "rb").read()

        code, out, _ = run("simulate", src, "--strategy", pulled,
                           "--seed", "3", "--steps", "12")
        assert code == 0
        lines = [json.loads(l) for l in out.strip().split("\n")]
        assert lines[0]["loc"] == "l0"
        assert any(rec["obs"] == "goal" for rec in lines)
        for rec in lines[:-1]:
            assert set(rec) == {"step", "loc", "obs", "val", "edge", "delay"}

    def test_simulate_rejects_foreign_strategy(self, run, game_file, tmp_path):
        src = game_file(worked_example())
        other = game_file(small_timed(), "other.json")
        strat = str(tmp_path / "s.json")
        assert run("solve", src, "--objective", "reach:goal",
                   "--out", strat)[0] == 0
        code, _, err = run("simulate", other, "--strategy", strat)
        assert code == 1
        assert err == _hash_refusal(small_timed(), worked_example())

    def test_pull_back_rejects_wrong_stage_hash(self, run, game_file, tmp_path):
        src = game_file(worked_example())
        strat = str(tmp_path / "s.json")
        # a strategy solved against the source carries the source's hash
        assert run("solve", src, "--objective", "reach:goal",
                   "--out", strat)[0] == 0
        code, _, err = run("pull-back", src, "--strategy", strat)
        assert code == 1
        assert err == _hash_refusal(hg.build_chain(worked_example()).timed,
                                    worked_example())

    def test_losing_source_file_simulates_with_player_one_halting(
            self, run, tmp_path):
        # a losing objective leaves the file empty; its stage is the game's
        src = str(SAMPLES / "patrol.json")
        strat = tmp_path / "strat.json"
        assert run("solve", src, "--objective", "safe:start",
                   "--out", str(strat))[0] == 1
        assert json.loads(strat.read_text())["entries"] == []
        code, out, err = run("simulate", src, "--strategy", str(strat))
        assert code == 0 and err == ""
        assert [json.loads(l)["step"] for l in out.splitlines()] == [0]

    def test_empty_timed_file_pulls_back_and_simulates(self, run, tmp_path):
        src = str(SAMPLES / "patrol.json")
        timed = str(tmp_path / "timed.json")
        assert run("transform", src, "--to", "timed", "--out", timed)[0] == 0
        strat = str(tmp_path / "timed-strat.json")
        assert run("solve", timed, "--objective", "safe:start",
                   "--out", strat)[0] == 1
        pulled = str(tmp_path / "pulled.json")
        assert run("pull-back", src, "--strategy", strat,
                   "--out", pulled)[0] == 0
        code, out, _ = run("simulate", src, "--strategy", pulled)
        assert code == 0 and len(out.splitlines()) == 1

    def test_pull_back_rejects_timed_location_in_timed_file(
            self, run, game_file, tmp_path):
        src, strat, doc = self._timed_strategy(run, game_file, tmp_path)
        doc["entries"][0]["note"]["timed_location"] = doc["entries"][0]["location"]
        strat.write_text(json.dumps(doc))
        code, out, err = run("pull-back", src, "--strategy", str(strat))
        assert code == 1 and out == ""
        assert "unexpected timed_location at $.entries[0].note" in err

    def test_simulate_rejects_source_file_missing_timed_location(
            self, run, tmp_path):
        src = str(SAMPLES / "patrol.json")
        strat = tmp_path / "strat.json"
        assert run("solve", src, "--objective", "reach:goal",
                   "--out", str(strat))[0] == 0
        doc = json.loads(strat.read_text())
        del doc["entries"][0]["note"]["timed_location"]
        strat.write_text(json.dumps(doc))
        code, out, err = run("simulate", src, "--strategy", str(strat))
        assert code == 1 and out == ""
        assert "missing timed_location at $.entries[0].note" in err

    def _timed_strategy(self, run, game_file, tmp_path):
        src = game_file(worked_example())
        timed = str(tmp_path / "timed.json")
        run("transform", src, "--to", "timed", "--out", timed)
        strat = tmp_path / "timed-strat.json"
        assert run("solve", timed, "--objective", "reach:goal",
                   "--out", str(strat))[0] == 0
        return src, strat, json.loads(strat.read_text())

    @pytest.mark.parametrize("field,value", [
        ("edge", "nope"), ("location", "l0{"),
        pytest.param("region", {"ints": [7], "fracs": [0]}, id="region-made-up")])
    def test_pull_back_rejects_bad_entry(self, run, game_file, tmp_path,
                                         field, value):
        src, strat, doc = self._timed_strategy(run, game_file, tmp_path)
        doc["entries"][1][field] = value
        strat.write_text(json.dumps(doc))
        code, _, err = run("pull-back", src, "--strategy", str(strat))
        assert code == 1
        assert "$.entries[1]" in err

    @pytest.mark.parametrize("where,value", [
        ("$.scale", True),
        ("$.entries[0].region.ints", [False]),
        ("$.entries[0].region.fracs", [False]),
        ("$.entries[0].note.succ.ints", [True]),
        ("$.entries[0].note.succ.fracs", [False]),
        ("$.locations['l0'].owner", True),
        ("$.locations['l0'].owner", 1.0),
        ("$.locations['l0'].owner", 2.0)])
    def test_integer_fields_reject_booleans_and_floats(self, run, game_file,
                                                       tmp_path, where, value):
        # each value equals a valid integer in Python, so only its type is wrong
        src, strat, _ = self._timed_strategy(run, game_file, tmp_path)
        target = Path(src) if where.startswith("$.locations") else strat
        doc = json.loads(target.read_text())
        *parents, last = [int(k) if k.isdigit() else k
                          for k in re.findall(r"\w+", where)]
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        target.write_text(json.dumps(doc))
        argv = ("pull-back", src, "--strategy", str(strat)) \
            if target == strat else ("validate", src)
        code, out, err = run(*argv)
        assert code == 1 and out == ""
        assert where in err

    @pytest.mark.parametrize("command", ["pull-back", "simulate"])
    def test_strategy_scale_must_match(self, run, game_file, tmp_path, command):
        src, strat, doc = self._timed_strategy(run, game_file, tmp_path)
        doc["scale"] += 1
        strat.write_text(json.dumps(doc))
        game = src if command == "pull-back" else str(tmp_path / "timed.json")
        code, out, err = run(command, game, "--strategy", str(strat))
        assert code == 1 and out == ""
        assert "scale does not match" in err

    def test_pull_back_rejects_edge_leaving_another_location(
            self, run, game_file, tmp_path):
        src, strat, doc = self._timed_strategy(run, game_file, tmp_path)
        other = next(e for e in doc["entries"]
                     if e["location"] != doc["entries"][0]["location"])
        doc["entries"][0]["edge"] = other["edge"]
        strat.write_text(json.dumps(doc))
        code, _, err = run("pull-back", src, "--strategy", str(strat))
        assert code == 1
        assert "$.entries[0]" in err

    @pytest.mark.parametrize("pulled", [False, True])
    def test_simulate_rejects_made_up_region(self, run, game_file, tmp_path,
                                             pulled):
        src, strat, _ = self._timed_strategy(run, game_file, tmp_path)
        if pulled:
            target = tmp_path / "pulled.json"
            assert run("pull-back", src, "--strategy", str(strat),
                       "--out", str(target))[0] == 0
            game = src
        else:
            target = strat
            game = str(tmp_path / "timed.json")
        doc = json.loads(target.read_text())
        doc["entries"][0]["region"] = {"ints": [7], "fracs": [0]}
        target.write_text(json.dumps(doc))
        code, out, err = run("simulate", game, "--strategy", str(target))
        assert code == 1 and out == ""
        assert "$.entries[0]" in err

    def test_pull_back_rejects_kind_that_is_not_an_objective(
            self, run, game_file, tmp_path):
        src, strat, doc = self._timed_strategy(run, game_file, tmp_path)
        doc["kind"] = "reach"
        strat.write_text(json.dumps(doc))
        code, out, err = run("pull-back", src, "--strategy", str(strat))
        assert code == 1 and out == ""
        assert "objective must look like" in err

    def test_pull_back_rejects_kind_over_undeclared_observations(
            self, run, game_file, tmp_path):
        src, strat, doc = self._timed_strategy(run, game_file, tmp_path)
        doc["kind"] = "reach:nowhere"
        strat.write_text(json.dumps(doc))
        code, out, err = run("pull-back", src, "--strategy", str(strat))
        assert code == 1 and out == ""
        assert "objective names observations the game does not declare: " \
            "nowhere" in err

    @pytest.mark.parametrize("kind,message", [
        ("reach", "objective must look like"),
        ("reach:nowhere",
         "objective names observations the game does not declare: nowhere")])
    @pytest.mark.parametrize("pulled", [False, True])
    def test_simulate_checks_kind(self, run, game_file, tmp_path, kind,
                                  message, pulled):
        src, strat, _ = self._timed_strategy(run, game_file, tmp_path)
        game = str(tmp_path / "timed.json")
        if pulled:
            game, target = src, tmp_path / "pulled.json"
            assert run("pull-back", src, "--strategy", str(strat),
                       "--out", str(target))[0] == 0
            strat = target
        doc = json.loads(strat.read_text())
        doc["kind"] = kind
        strat.write_text(json.dumps(doc))
        code, out, err = run("simulate", game, "--strategy", str(strat))
        assert code == 1 and out == ""
        assert message in err

    def test_simulate_reads_a_respelled_timed_location(self, run, game_file,
                                                       tmp_path):
        # a location id's annotation may list its variables in any order:
        # the file's entry is the same location however it is spelled
        src = game_file(gen_isr_game(301, profile="pipeline"))
        timed = str(tmp_path / "timed.json")
        assert run("transform", src, "--to", "timed", "--out", timed)[0] == 0
        strat = tmp_path / "timed-strat.json"
        assert run("solve", timed, "--objective", "safe:amber,green,red",
                   "--out", str(strat))[0] == 0
        doc = json.loads(strat.read_text())
        entry = doc["entries"][0]
        assert entry["location"] == "l0{f:x=0,y=_}{g:x=0,y=0}"
        entry["location"] = "l0{f:y=_,x=0}{g:x=0,y=0}"
        assert hg.parse_locid(entry["location"]) == \
            hg.parse_locid("l0{f:x=0,y=_}{g:x=0,y=0}")
        strat.write_text(json.dumps(doc))
        code, out, err = run("simulate", timed, "--strategy", str(strat))
        assert code == 0 and err == ""
        assert json.loads(out.splitlines()[0])["loc"] == \
            "l0{f:x=0,y=_}{g:x=0,y=0}"

    @pytest.mark.parametrize("field,value,where", [
        ("location", "l3", "$.entries[0].location"),
        ("timed_location", "zz", "$.entries[0]")])
    def test_simulate_checks_pulled_back_locations(self, run, tmp_path,
                                                   field, value, where):
        # an entry's location must be the one its timed_location stands for
        src = str(SAMPLES / "patrol.json")
        strat = tmp_path / "strat.json"
        assert run("solve", src, "--objective", "reach:goal",
                   "--out", str(strat))[0] == 0
        doc = json.loads(strat.read_text())
        entry = doc["entries"][0]
        assert entry["location"] == "l0"
        if field == "location":
            entry["location"] = value
        else:
            entry["note"]["timed_location"] = value
        strat.write_text(json.dumps(doc))
        code, out, err = run("simulate", src, "--strategy", str(strat))
        assert code == 1 and out == ""
        assert where in err

    @pytest.mark.parametrize("source,field,where", [
        (False, "location", "$.entries[0].location"),
        (True, "timed_location", "$.entries[0].note.timed_location")],
        ids=["timed-file", "source-file"])
    def test_bad_location_id_names_its_field(self, run, tmp_path, source,
                                             field, where):
        src = str(SAMPLES / "patrol.json")
        game = src
        if not source:
            game = str(tmp_path / "timed.json")
            assert run("transform", src, "--to", "timed", "--out", game)[0] == 0
        strat = tmp_path / "strat.json"
        assert run("solve", game, "--objective", "reach:goal",
                   "--out", str(strat))[0] == 0
        doc = json.loads(strat.read_text())
        entry = doc["entries"][0]
        (entry["note"] if source else entry)[field] = "???"
        strat.write_text(json.dumps(doc))
        code, out, err = run("simulate", game, "--strategy", str(strat))
        assert code == 1 and out == ""
        assert f"bad location id at {where}:" in err

    @pytest.mark.parametrize("command", ["pull-back", "simulate"])
    def test_duplicate_entry_rejected(self, run, game_file, tmp_path, command):
        src, strat, doc = self._timed_strategy(run, game_file, tmp_path)
        timed = str(tmp_path / "timed.json")
        scaled, factor = hg.scale_to_integers(cli.load_game(timed))
        rg = hg.build_region_graph(scaled, scale=factor)
        first = doc["entries"][0]
        width = len(scaled.vars)
        k = rg.node_ids[(hg.parse_locid(first["location"]),
                         cli._parse_region(first["region"], "$", width))]
        chosen = (cli._parse_region(first["note"]["succ"], "$", width), first["edge"])
        other = next(mv for mv in map(rg.move, rg.move_ids[k]) if mv != chosen)
        doc["entries"].append({"location": first["location"],
                               "region": first["region"], "edge": other.edge,
                               "note": {"succ": cli._region_doc(other.region)}})
        strat.write_text(json.dumps(doc))
        game = src if command == "pull-back" else timed
        code, out, err = run(command, game, "--strategy", str(strat))
        assert code == 1 and out == ""
        assert f"$.entries[{len(doc['entries']) - 1}]" in err

    @pytest.mark.parametrize("command,key", [
        ("validate", "l0"), ("solve", "l0"), ("validate", "x"),
        ("pull-back", "scale")])
    def test_duplicate_json_keys_rejected(self, run, game_file, tmp_path,
                                          command, key):
        # the first copy is valid too and the last one equals the original,
        # so only the repetition is wrong
        src, strat, doc = self._timed_strategy(run, game_file, tmp_path)
        game = json.loads(Path(src).read_text())
        opener, extra = {
            "l0": ('"locations": {', f'"l0": {json.dumps(game["locations"]["l0"])}, '),
            "x": ('"guard": {', '"x": ["0", "9"], '),
            "scale": ("{", f'"scale": {doc["scale"]}, ')}[key]
        target = strat if key == "scale" else Path(src)
        text = json.dumps(doc if key == "scale" else game)
        target.write_text(text.replace(opener, opener + extra, 1))
        extra_args = {"validate": (), "solve": ("--objective", "reach:goal"),
                      "pull-back": ("--strategy", str(strat))}[command]
        code, out, err = run(command, src, *extra_args)
        assert code == 1 and out == ""
        assert f"duplicate key {key!r}" in err


def _hash_refusal(expected, found):
    """What `pull-back` and `simulate` print for a file of game `found` read
    against game `expected`."""
    return (f"error: strategy file does not match the game (expected "
            f"{cli.game_hash(expected)}, file says {cli.game_hash(found)})\n")


def _objectives(target, safe):
    return [cli.Objective("reach", target), cli.Objective("safe", safe)]


class TestStrategyRoundTrip:
    """Every file is written by `strategy_file_for_source` and read back by
    `_strategy_table`, both through the relation from the file's game to its
    timed stage.  The reader gives back the strategy in the order the file
    lists it, node-id order; the attractor records its moves in join
    order, which differs on a few of these games.  The table's verdicts are
    the game's, so a reach target or a safe deadlock wins without an
    entry."""

    def test_timed_files_read_back_as_solved(self):
        for seed, g, target, safe in oracle_pool():
            for objective in _objectives(target, safe):
                rg, result = cli.solve_timed_game(g, objective)
                chain = hg.build_chain(g)
                doc = json.loads(cli.strategy_to_bytes(
                    cli.strategy_file_for_source(g, chain, rg, result, objective)))
                got, table_rg, table = cli._strategy_table(doc, chain)
                assert got == objective, seed
                assert list(table.strategy.items()) == \
                    sorted(result.strategy.items()), seed
                assert table.winning == result.winning, seed
                assert table.wins_from_init(table_rg) == \
                    result.wins_from_init(rg), seed

    def test_source_files_read_back_and_pull_back_alike(self, run, game_file,
                                                        tmp_path):
        for s in range(300, 320):
            g = gen_isr_game(s, profile="pipeline")
            chain = hg.build_chain(g)
            src = game_file(g)
            obs = sorted(g.obs)
            rng = random.Random(s)
            target = frozenset({rng.choice(obs)})
            safe = frozenset(obs) - {rng.choice(obs)}
            for objective in _objectives(target, safe):
                rg, result = cli.solve_timed_game(chain.timed, objective)
                write = cli.strategy_file_for_source
                direct = cli.strategy_to_bytes(
                    write(g, chain, rg, result, objective))
                got, _, table = cli._strategy_table(json.loads(direct), chain)
                assert got == objective, s
                assert list(table.strategy.items()) == \
                    sorted(result.strategy.items()), s
                strat = tmp_path / "timed-strat.json"
                strat.write_bytes(cli.strategy_to_bytes(
                    write(chain.timed, hg.build_chain(chain.timed), rg, result,
                          objective)))
                pulled = tmp_path / "pulled.json"
                assert run("pull-back", src, "--strategy", str(strat),
                           "--out", str(pulled)) == (0, "", ""), s
                assert pulled.read_bytes() == direct, s
