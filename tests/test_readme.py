"""The README's quick start and command-line transcript run as shown."""

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hybridgames import cli
from hybridgames.samples import small_timed, worked_example

ROOT = Path(__file__).resolve().parent.parent


def test_quick_start_prints_what_the_readme_shows():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```\s*```\n(.*?)```", readme, re.S)
    code, shown = block.group(1), block.group(2)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ran = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, env=env, timeout=120)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout == shown


def _transcript(readme: str) -> list[tuple[list[str], str]]:
    """Each `$ hybridgames ...` line of the sh blocks, in order, with its
    arguments and the lines shown after it."""
    steps = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            program, *argv = shlex.split(command)
            assert program == "hybridgames", command
            steps.append((argv, shown))
    return steps


def test_command_line_transcript_prints_what_the_readme_shows(
        tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    steps = _transcript(readme)
    assert steps
    shutil.copytree(ROOT / "sample_games", tmp_path / "sample_games")
    monkeypatch.chdir(tmp_path)
    for argv, shown in steps:
        assert cli.main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.out + captured.err == shown, argv


@pytest.mark.parametrize("name,game", [("patrol", worked_example),
                                       ("dispatcher", small_timed)])
def test_sample_files_are_the_sample_games(name, game):
    # the quick start builds the worked example in code, and the command
    # transcript reads patrol.json
    path = ROOT / "sample_games" / f"{name}.json"
    assert path.read_bytes() == cli.game_to_bytes(game())
