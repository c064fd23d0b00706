"""Command line surface: parsing, emission, exit codes, pipelines."""

import json

import pytest

import hybridgames as hg
from hybridgames import cli
from hybridgames.samples import broken_initialization, small_timed, worked_example

from fixtures import valid_fixtures


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
        rg, result = cli.solve_timed_game(
            g, cli.parse_objective("reach:done"))
        return g, cli.strategy_file_for_timed(
            g, rg, result, cli.parse_objective("reach:done"))

    def test_roundtrip(self):
        _, sf = self._solved()
        doc = json.loads(cli.strategy_to_bytes(sf))
        back = cli.parse_strategy(doc)
        assert cli.strategy_to_bytes(back) == cli.strategy_to_bytes(sf)

    def test_region_width_must_be_consistent(self):
        _, sf = self._solved()
        doc = json.loads(cli.strategy_to_bytes(sf))
        doc["entries"][0]["region"]["ints"] = [0]  # one clock short
        with pytest.raises(cli.ParseError, match="region"):
            cli.parse_strategy(doc)

    def test_objective_strings(self):
        obj = cli.parse_objective("safe:b,a")
        assert obj.kind == "safe" and obj.obs == frozenset({"a", "b"})
        assert obj.text == "safe:a,b"
        for bad in ("win:a", "reach", "reach:", ""):
            with pytest.raises(cli.ParseError):
                cli.parse_objective(bad)


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

    def test_unknown_file_is_data_error(self, run, tmp_path):
        code, _, err = run("validate", str(tmp_path / "missing.json"))
        assert code == 1
        assert "error" in err

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


class TestPipelines:
    def test_transform_steps_compose(self, run, game_file, tmp_path):
        src = game_file(worked_example())
        stop = str(tmp_path / "stop.json")
        timed = str(tmp_path / "timed.json")
        assert run("transform", src, "--to", "stopwatch", "--out", stop)[0] == 0
        assert run("transform", stop, "--to", "timed", "--out", timed)[0] == 0
        direct = str(tmp_path / "direct.json")
        assert run("transform", src, "--to", "timed", "--out", direct)[0] == 0
        assert open(timed, "rb").read() == open(direct, "rb").read()

    def test_check_bisim_reports_stages(self, run, game_file):
        code, out, _ = run("check-bisim", game_file(worked_example()),
                           "--samples", "8", "--depth", "5")
        assert code == 0
        assert out.count("pass") == 6

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
        assert "different game" in err

    def test_pull_back_rejects_wrong_stage_hash(self, run, game_file, tmp_path):
        src = game_file(worked_example())
        strat = str(tmp_path / "s.json")
        # a strategy solved against the source is already pulled back
        assert run("solve", src, "--objective", "reach:goal",
                   "--out", strat)[0] == 0
        code, _, err = run("pull-back", src, "--strategy", strat)
        assert code == 1
        assert "pulled back" in err or "does not match" in err

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

    @pytest.mark.parametrize("command", ["pull-back", "simulate"])
    def test_duplicate_entry_rejected(self, run, game_file, tmp_path, command):
        src, strat, doc = self._timed_strategy(run, game_file, tmp_path)
        timed = str(tmp_path / "timed.json")
        scaled, factor = hg.scale_to_integers(cli.load_game(timed))
        rg = hg.build_region_graph(scaled, scale=factor)
        first = doc["entries"][0]
        node = hg.RegionNode(hg.parse_locid(first["location"]),
                             cli._parse_region(first["region"], "$", None))
        chosen = hg.RegionMove(cli._parse_region(first["note"]["succ"], "$", None),
                               first["edge"])
        other = next(mv for mv in rg.moves[node] if mv != chosen)
        doc["entries"].append({"location": first["location"],
                               "region": first["region"], "edge": other.edge,
                               "note": {"succ": cli._region_doc(other.region)}})
        strat.write_text(json.dumps(doc))
        game = src if command == "pull-back" else timed
        code, out, err = run(command, game, "--strategy", str(strat))
        assert code == 1 and out == ""
        assert f"$.entries[{len(doc['entries']) - 1}]" in err
