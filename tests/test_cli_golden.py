"""Golden digests of the command line's artifacts on the shipped samples.

Each case runs one subcommand on a `sample_games/*.json` file, or on the
timed stage `transform` wrote from it, and pins its exit code and the
sha256 of the bytes it writes: the `--out` file when the case passes one,
else standard output.  A refactor that keeps the outputs byte-identical
keeps every digest.  The `simulate` cases pin the delays the region
strategy concretizes, each the first probe that lands in its region.

After an intended output change, rewrite the digest file with
`PYTHONPATH=src python tests/test_cli_golden.py` and review its diff.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from hybridgames import cli

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_games"
DIGESTS = Path(__file__).resolve().parent / "cli_golden.json"

STAGES = ("isr", "stopwatch", "annotated-stopwatch", "updatable", "timed")
# one winning-leaning reach and one safety objective per sample
OBJECTIVES = {
    "dispatcher": ("reach:done", "safe:busy,idle"),
    "patrol": ("reach:goal", "safe:charge,mid,start"),
}


def _run(argv: list, out: Path = None) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv]
                        + (["--out", str(out)] if out is not None else []))
    data = out.read_bytes() if out is not None and out.exists() else buf.getvalue().encode()
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest()}


def _cases(name: str, work: Path) -> dict:
    game = SAMPLES / f"{name}.json"
    reach, safe = OBJECTIVES[name]
    got = {}
    for stage in STAGES:
        got[f"transform --to {stage}"] = _run(
            ["transform", game, "--to", stage], work / f"{stage}.json")
    got["check-bisim"] = _run(["check-bisim", game])
    # many more seeded draws than the defaults, so that many of them repeat
    # a window's probe or an earlier draw and meet the sampler's dedupe
    got["check-bisim --samples 200 --depth 10"] = _run(
        ["check-bisim", game, "--samples", "200", "--depth", "10"])
    for objective in (reach, safe):
        got[f"solve {objective}"] = _run(
            ["solve", game, "--objective", objective], work / f"{objective}.json")
    timed_strat = work / "timed-strat.json"
    _run(["solve", work / "timed.json", "--objective", reach], timed_strat)
    got["pull-back"] = _run(["pull-back", game, "--strategy", timed_strat],
                            work / "pulled.json")
    got["simulate"] = _run(["simulate", game, "--strategy", work / f"{reach}.json",
                            "--seed", "3", "--steps", "12"])
    # both samples lose their safety objective from the initial node, so
    # this play halts at once, on the initial node's missing entry
    got[f"simulate {safe} --steps 40"] = _run(
        ["simulate", game, "--strategy", work / f"{safe}.json",
         "--seed", "3", "--steps", "40"])
    # the timed stage played with its own strategy, with no pull-back between
    got["simulate timed stage"] = _run(["simulate", work / "timed.json",
                                        "--strategy", timed_strat,
                                        "--seed", "3", "--steps", "12"])
    return got


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_cli_outputs_match_golden_digests(name, tmp_path):
    want = json.loads(DIGESTS.read_text())[name]
    assert _cases(name, tmp_path) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for name in sorted(OBJECTIVES):
            work = Path(tmp) / name
            work.mkdir()
            digests[name] = _cases(name, work)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
