"""Fuzzing the command-line readers: a malformed file is a data problem.

One field of one of four documents of the worked example (the source game,
its timed stage, the timed-stage strategy for reach:goal and that strategy
pulled back) is replaced by a random JSON value, and every command that
reads the document runs on it.  Whatever the value, the exit code must be
one of the documented 0/1/2; exit 3 would mean the package itself failed.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import hybridgames as hg
from hybridgames import cli
from hybridgames.samples import worked_example


def _documents() -> dict:
    g = worked_example()
    chain = hg.build_chain(g)
    objective = cli.parse_objective("reach:goal")
    rg, result = cli.solve_timed_game(chain.timed, objective)
    return {
        "source": cli.emit_game(g),
        "timed-game": cli.emit_game(chain.timed),
        "timed-strategy": cli.strategy_file_for_source(
            chain.timed, hg.build_chain(chain.timed), rg, result, objective),
        "pulled-strategy": cli.strategy_file_for_source(
            g, chain, rg, result, objective),
    }


DOCS = _documents()

# Each command line names the documents it reads.
COMMANDS = [
    ["validate", "source"], ["classify", "source"],
    ["transform", "source", "--to", "timed"],
    ["validate", "timed-game"], ["classify", "timed-game"],
    ["transform", "timed-game", "--to", "timed"],
    ["pull-back", "source", "--strategy", "timed-strategy"],
    ["simulate", "timed-game", "--strategy", "timed-strategy"],
    ["simulate", "source", "--strategy", "pulled-strategy"],
]


def _paths(doc, prefix=()):
    """Every key path below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


FIELDS = [(name, path) for name in sorted(DOCS) for path in _paths(DOCS[name])]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@given(st.sampled_from(FIELDS), JSON_VALUES)
def test_malformed_field_never_exits_three(field, value):
    name, path = field
    docs = dict(DOCS, **{name: _replaced(DOCS[name], path, value)})
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for doc_name, doc in docs.items():
            files[doc_name] = str(Path(tmp) / f"{doc_name}.json")
            Path(files[doc_name]).write_text(json.dumps(doc))
        for argv in COMMANDS:
            if name not in argv:
                continue
            argv = [files.get(arg, arg) for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), (argv, err.getvalue())
