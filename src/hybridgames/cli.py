"""Command-line front end: strict JSON round-tripping for games and
strategies, plus the validate / classify / transform / check-bisim / solve /
pull-back / simulate subcommands.

Exit codes: 0 success, 1 data problem (invalid game, failed check, losing
objective, closed stdout), 2 usage error, 3 internal error.  A command
refuses its input by raising; `main` alone reports the refusal as one
`error:` line on stderr and picks the exit code from the exception's class.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bisim import verify_chain
from .chain import CHAIN_ORDER, Chain, build_chain
from .core import (
    Edge,
    Flavor,
    Game,
    GameError,
    Guard,
    Interval,
    LocId,
    Location,
    Player,
    Reset,
    _NAME_RE,
    classify_flavor,
    format_rational,
    parse_locid,
    parse_rational,
    scale_to_integers,
    validate_game,
)
from .semantics import play
from .solver import (
    Region,
    RegionGame,
    RegionMove,
    RegionNode,
    SolveResult,
    build_region_graph,
    solve_reachability,
    solve_safety,
)
from .strategy import positional_strategy, pull_back_strategy, random_strategy


class ParseError(GameError):
    """A JSON document does not follow the expected schema; the message
    carries a JSONPath-style locator."""


class UsageError(GameError):
    """A well-formed request the command cannot serve (exit 2): lowering a
    game to an earlier stage, or pulling back to a timed game."""


# ---------------------------------------------------------------------------
# Game files


def _require_keys(obj: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object at {path}")
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(f"unknown field at {path}.{key}")
    for key in required:
        if key not in obj:
            raise ParseError(f"missing field at {path}.{key}")


def _rational(value, path: str) -> Fraction:
    if not isinstance(value, str):
        raise ParseError(f"expected a rational string at {path}")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ParseError(f"bad rational at {path}: {exc}") from None


def _string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ParseError(f"expected a nonempty string at {path}")
    return value


def _locid(value, path: str) -> LocId:
    try:
        return parse_locid(_string(value, path))
    except (ValueError, GameError) as exc:
        raise ParseError(f"bad location id at {path}: {exc}") from None


def parse_game(doc: dict) -> Game:
    """Parse a game document; schema errors raise ParseError, semantic
    problems are left to validate_game."""
    _require_keys(doc, "$", {"flavor", "vars", "actions", "obs", "init",
                             "locations", "edges"})
    flavor_text = _string(doc["flavor"], "$.flavor")
    try:
        flavor = Flavor(flavor_text)
    except ValueError:
        raise ParseError(f"unknown flavor at $.flavor: {flavor_text!r}") from None

    names: dict[str, dict[str, None]] = {}
    for key in ("vars", "actions", "obs"):
        if not isinstance(doc[key], list):
            raise ParseError(f"expected an array at $.{key}")
        names[key] = {}
        for i, value in enumerate(doc[key]):
            name = _string(value, f"$.{key}[{i}]")
            if name in names[key]:
                raise ParseError(f"duplicate name {name!r} at $.{key}[{i}]")
            if key == "vars" and not _NAME_RE.match(name):
                raise ParseError(f"bad variable name {name!r} at $.vars[{i}]")
            names[key][name] = None
    gvars = tuple(names["vars"])
    actions, obs = frozenset(names["actions"]), frozenset(names["obs"])

    if not isinstance(doc["locations"], dict):
        raise ParseError("expected an object at $.locations")
    locations: dict[LocId, Location] = {}
    for lid_text, body in doc["locations"].items():
        path = f"$.locations[{lid_text!r}]"
        lid = _locid(lid_text, path)
        _require_keys(body, path, {"owner", "obs", "flow"})
        if type(body["owner"]) is not int or body["owner"] not in (1, 2):
            raise ParseError(f"owner must be 1 or 2 at {path}.owner")
        owner = Player(body["owner"])
        lobs = _string(body["obs"], f"{path}.obs")
        if not isinstance(body["flow"], dict):
            raise ParseError(f"expected an object at {path}.flow")
        flow = {
            _string(var, f"{path}.flow"): _rational(val, f"{path}.flow.{var}")
            for var, val in body["flow"].items()
        }
        if lid in locations:
            raise ParseError(f"duplicate location id at {path}")
        locations[lid] = Location(lid, owner, lobs, flow)

    if not isinstance(doc["edges"], list):
        raise ParseError("expected an array at $.edges")
    edges: dict[str, Edge] = {}
    for i, body in enumerate(doc["edges"]):
        path = f"$.edges[{i}]"
        _require_keys(body, path, {"id", "src", "action", "guard", "reset", "dst"})
        eid = _string(body["id"], f"{path}.id")
        if eid in edges:
            raise ParseError(f"duplicate edge id at {path}.id")
        src = _locid(body["src"], f"{path}.src")
        dst = _locid(body["dst"], f"{path}.dst")
        action = _string(body["action"], f"{path}.action")
        if not isinstance(body["guard"], dict):
            raise ParseError(f"expected an object at {path}.guard")
        conjuncts = {}
        for var, pair in body["guard"].items():
            gpath = f"{path}.guard.{var}"
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError(f"expected a [lo, hi] pair at {gpath}")
            conjuncts[var] = Interval(_rational(pair[0], f"{gpath}[0]"),
                                      _rational(pair[1], f"{gpath}[1]"))
        if not isinstance(body["reset"], dict):
            raise ParseError(f"expected an object at {path}.reset")
        assignments = {}
        for var, val in body["reset"].items():
            if val is None:
                continue  # explicit "keep" marker, same as leaving it out
            assignments[var] = _rational(val, f"{path}.reset.{var}")
        reset_set = None
        if flavor is Flavor.TIMED:
            reset_set = frozenset(assignments)
        edges[eid] = Edge(eid, src, action, Guard(conjuncts),
                          Reset(assignments), dst, reset_set=reset_set)

    init = _locid(doc["init"], "$.init")
    return Game(flavor, gvars, actions, obs, locations, edges, init)


def emit_game(g: Game) -> dict:
    """Canonical document for a game; emitting then parsing is the identity
    up to edge provenance, which is derived data and not serialized."""
    locations = {}
    for lid in sorted(g.locations, key=lambda l: l.render()):
        loc = g.locations[lid]
        locations[lid.render()] = {
            "owner": loc.owner.value,
            "obs": loc.obs,
            "flow": {var: format_rational(loc.flow[var])
                     for var in sorted(loc.flow)},
        }
    edges = []
    for eid in sorted(g.edges):
        e = g.edges[eid]
        edges.append({
            "id": e.id,
            "src": e.src.render(),
            "action": e.action,
            "guard": {var: [format_rational(iv.lo), format_rational(iv.hi)]
                      for var, iv in sorted(e.guard.conjuncts.items())},
            "reset": {var: format_rational(val)
                      for var, val in sorted(e.reset.assignments.items())},
            "dst": e.dst.render(),
        })
    return {
        "flavor": g.flavor.value,
        "vars": list(g.vars),
        "actions": sorted(g.actions),
        "obs": sorted(g.obs),
        "init": g.init.render(),
        "locations": locations,
        "edges": edges,
    }


def game_to_bytes(g: Game) -> bytes:
    return (json.dumps(emit_game(g), indent=2, sort_keys=True) + "\n").encode()


def game_hash(g: Game) -> str:
    return hashlib.sha256(game_to_bytes(g)).hexdigest()


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refusing a key given twice rather than keeping the last."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicate key {key!r} in a JSON object")
        out[key] = value
    return out


def _load_json(path: str):
    """The JSON document at `path`; text that is not UTF-8, nests past the
    recursion limit or escapes a lone surrogate is not valid JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        json.dumps(doc, ensure_ascii=False).encode()
        return doc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeEncodeError:
        raise ParseError(f"not valid JSON: {path}: a string escapes a lone "
                         "surrogate") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {path}: {exc}") from None


def load_game(path: str) -> Game:
    return parse_game(_load_json(path))


# ---------------------------------------------------------------------------
# Strategy files


def _region_doc(r: Region) -> dict:
    return {"ints": list(r.ints), "fracs": list(r.fracs)}


def _parse_region(doc, path: str, nvars: int) -> Region:
    """A region over `nvars` clocks."""
    _require_keys(doc, path, {"ints", "fracs"})
    ints, fracs = doc["ints"], doc["fracs"]
    if not (isinstance(ints, list) and len(ints) == nvars
            and all(v is None or type(v) is int for v in ints)):
        raise ParseError(f"bad region at {path}.ints")
    if not (isinstance(fracs, list) and len(fracs) == nvars
            and all(type(v) is int for v in fracs)):
        raise ParseError(f"bad region at {path}.fracs")
    return Region(tuple(ints), tuple(fracs))


def strategy_to_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# ---------------------------------------------------------------------------
# Solving helpers shared by subcommands


@dataclass
class Objective:
    kind: str  # "reach" | "safe"
    obs: frozenset

    @property
    def text(self) -> str:
        return f"{self.kind}:{','.join(sorted(self.obs))}"


def parse_objective(text: str) -> Objective:
    kind, colon, rest = text.partition(":")
    names = rest.split(",") if rest else []  # "reach:" names no observation
    if kind not in ("reach", "safe") or not colon or "" in names:
        raise ParseError(
            f"objective must look like reach:OBS or safe:OBS,OBS: got {text!r}")
    return Objective(kind, frozenset(names))


def solve_timed_game(g: Game, objective: Objective) -> tuple[RegionGame, SolveResult]:
    scaled, factor = scale_to_integers(g)
    rg = build_region_graph(scaled, scale=factor)
    if objective.kind == "reach":
        result = solve_reachability(rg, objective.obs)
    else:
        result = solve_safety(rg, objective.obs)
    return rg, result


def _objective_over(text: str, g: Game) -> Objective:
    """The objective `text` names, over observations `g` declares."""
    objective = parse_objective(text)
    unknown = objective.obs - set(g.obs)
    if unknown:
        raise GameError("objective names observations the game does not "
                        "declare: " + ",".join(sorted(unknown)))
    return objective


def strategy_file_for_source(g: Game, chain: Chain, rg: RegionGame,
                             result: SolveResult, objective: Objective) -> dict:
    """The strategy file for `g` of `result`, solved on `rg` of g's timed
    stage, as the JSON document `strategy_to_bytes` writes; `chain` is g's
    chain.  Entries name g's locations and edges through the relation from
    `g` to its timed stage, in region-graph order, and a note names the
    timed location only when that stage is another game.  The name stays
    because the benchmark calls this writer by it."""
    w = chain.end_to_end
    entries = []
    for node in rg.nodes:
        mv = result.strategy.get(node)
        if mv is None:
            continue
        note = {"succ": _region_doc(mv.region)}
        if chain.timed is not g:
            note["timed_location"] = node.loc.render()
        entries.append({"location": w.loc_back[node.loc].render(),
                        "region": _region_doc(node.region),
                        "edge": w.edge_back[mv.edge], "note": note})
    return {"game": game_hash(g), "kind": objective.text, "scale": rg.scale,
            "entries": entries}


def _strategy_table(doc, chain: Chain) -> tuple[Objective, RegionGame, SolveResult]:
    """Read a strategy file for `chain.isr`, the JSON document `doc`, in one
    pass: the file's objective, the region graph of the chain's timed stage
    at the file's scale, and a `SolveResult` on it whose verdicts are the
    game's, solved for that objective, and whose strategy is the file's
    moves in file order.  The file must carry the game's hash, and each
    region one integer per clock of the game.  Each entry must name a node
    and one of its moves, no node twice, and a timed location must stand
    for its entry's location as an id, whatever its spelling.  Whether the
    file's moves win is not checked: a tool may write any legal table."""
    _require_keys(doc, "$", {"game", "kind", "scale", "entries"})
    expected, found = game_hash(chain.isr), _string(doc["game"], "$.game")
    if found != expected:
        raise GameError("strategy file does not match the game "
                        f"(expected {expected}, file says {found})")
    objective = _objective_over(_string(doc["kind"], "$.kind"), chain.isr)
    if type(doc["scale"]) is not int or doc["scale"] < 1:
        raise ParseError("expected a positive integer at $.scale")
    if not isinstance(doc["entries"], list):
        raise ParseError("expected an array at $.entries")
    rg, solved = solve_timed_game(chain.timed, objective)
    if rg.scale != doc["scale"]:
        raise GameError("strategy file scale does not match the game")
    w, nvars = chain.end_to_end, len(chain.timed.vars)
    noted = chain.timed is not chain.isr
    strategy = {}
    for i, body in enumerate(doc["entries"]):
        path = f"$.entries[{i}]"
        _require_keys(body, path, {"location", "region", "edge", "note"})
        note = body["note"]
        _require_keys(note, f"{path}.note", {"succ"}, {"timed_location"})
        if ("timed_location" in note) != noted:
            raise ParseError(f"{'missing' if noted else 'unexpected'} "
                             f"timed_location at {path}.note")
        loc = _locid(body["location"], f"{path}.location")
        tloc = _locid(note["timed_location"], f"{path}.note.timed_location") \
            if noted else loc
        node = RegionNode(tloc, _parse_region(body["region"], f"{path}.region", nvars))
        edge = _string(body["edge"], f"{path}.edge")
        mv = RegionMove(_parse_region(note["succ"], f"{path}.note.succ", nvars),
                        w.edge_fwd.get((tloc, edge)))
        k = rg.node_ids.get(node)
        m = None if k is None else \
            next((m for m in rg.move_ids[k] if rg.move(m) == mv), None)
        if m is None:
            raise ParseError(f"no such region move in the game at {path}")
        if w.loc_back[tloc] != loc:
            raise ParseError("timed_location stands for another location at "
                             f"{path}.location")
        if k in strategy:
            raise ParseError(f"second entry for one region node at {path}")
        strategy[k] = m
    return objective, rg, SolveResult(rg, solved.wins, strategy)


# ---------------------------------------------------------------------------
# Subcommands


def _write_out(data: bytes, out: Optional[str]):
    if out is None:
        sys.stdout.write(data.decode())
        return
    try:
        with open(out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise GameError(f"cannot write {out}: {exc}") from None


def cmd_validate(args) -> int:
    g = load_game(args.game)
    violations = validate_game(g)
    if violations:
        for v in violations:
            print(v.render())
        return 1
    print("ok")
    return 0


def cmd_classify(args) -> int:
    print(classify_flavor(load_game(args.game)).value)
    return 0


def cmd_transform(args) -> int:
    chain = build_chain(load_game(args.game))
    flavor = chain.isr.flavor
    k = CHAIN_ORDER.index(Flavor(args.to))
    if k < CHAIN_ORDER.index(flavor):
        raise UsageError(f"cannot transform {flavor.value} back to {args.to}")
    _write_out(game_to_bytes(chain.games()[k]), args.out)
    return 0


def cmd_check_bisim(args) -> int:
    report = verify_chain(load_game(args.game), samples=args.samples,
                          depth=args.depth, seed=args.seed)
    print(report.render())
    return 0 if report.passed else 1


def cmd_solve(args) -> int:
    chain = build_chain(load_game(args.game))
    objective = _objective_over(args.objective, chain.isr)
    rg, result = solve_timed_game(chain.timed, objective)
    winning = result.wins_from_init(rg)
    doc = strategy_file_for_source(chain.isr, chain, rg, result, objective)
    if args.out is not None or winning:
        _write_out(strategy_to_bytes(doc), args.out)
    print(f"{'winning' if winning else 'losing'} for player one: "
          f"{objective.text}", file=sys.stderr)
    return 0 if winning else 1


def cmd_pull_back(args) -> int:
    chain = build_chain(load_game(args.game))
    if chain.isr.flavor is Flavor.TIMED:
        raise UsageError("pull-back needs a game with something above the "
                         "timed stage")
    # the file is the timed stage's, so it is read against that stage's chain
    objective, rg, table = _strategy_table(_load_json(args.strategy),
                                           build_chain(chain.timed))
    out = strategy_file_for_source(chain.isr, chain, rg, table, objective)
    _write_out(strategy_to_bytes(out), args.out)
    return 0


def cmd_simulate(args) -> int:
    chain = build_chain(load_game(args.game))
    g = chain.isr
    _, rg, table = _strategy_table(_load_json(args.strategy), chain)
    sigma = pull_back_strategy(chain, positional_strategy(rg, table))
    opponent = random_strategy(g, args.seed)
    run = play(g, sigma, opponent, args.steps)
    for i, q in enumerate(run.configs()):
        record = {
            "step": i,
            "loc": q.loc.render(),
            "obs": g.locations[q.loc].obs,
            "val": {var: format_rational(q.val[g.var_index(var)])
                    for var in g.vars},
        }
        if i < len(run.steps):
            mv = run.steps[i].move
            record["edge"] = mv.edge
            record["delay"] = format_rational(mv.delay)
        print(json.dumps(record, sort_keys=True))
    return 0


def _count(least: int):
    """An argparse type for an integer count of at least `least`; other
    values are usage errors (exit 2)."""
    def count(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}: {text}")
        return n
    return count


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hybridgames",
        description="Turn-based hybrid games: validation, the lowering chain "
                    "to timed games, bisimulation checking, region solving, "
                    "and strategy pull-back.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a game file's invariants")
    q.add_argument("game")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("classify", help="print the most specific flavor")
    q.add_argument("game")
    q.set_defaults(fn=cmd_classify)

    q = sub.add_parser("transform", help="lower a game along the chain")
    q.add_argument("game")
    q.add_argument("--to", required=True,
                   choices=[f.value for f in CHAIN_ORDER])
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_transform)

    q = sub.add_parser("check-bisim",
                       help="sample plays and check every stage witness")
    q.add_argument("game")
    q.add_argument("--samples", type=_count(1), default=25)
    q.add_argument("--depth", type=_count(0), default=6)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_check_bisim)

    q = sub.add_parser("solve", help="solve reach/safe on the timed stage")
    q.add_argument("game")
    q.add_argument("--objective", required=True,
                   help="reach:OBS[,OBS...] or safe:OBS[,OBS...]")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_solve)

    q = sub.add_parser("pull-back",
                       help="rewrite a timed-stage strategy file for the "
                            "source game")
    q.add_argument("game")
    q.add_argument("--strategy", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_pull_back)

    q = sub.add_parser("simulate",
                       help="play a strategy file against a random opponent")
    q.add_argument("game")
    q.add_argument("--strategy", required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--steps", type=_count(0), default=10)
    q.set_defaults(fn=cmd_simulate)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nothing reads stdout any more.  What is still buffered goes to
        # the null device, so the interpreter's flush at exit cannot fail.
        print("error: standard output was closed", file=sys.stderr)
        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
