"""Malformed bundle-map files through the command line.

Every mutant of a valid Z3 bundle-map file (a key dropped, a leaf replaced
by a string, null, a huge or fractional number or a list, a list
truncated) must end `gns` and `pd-check` with exit code 0, 1 or 2 and a
printed verdict, never with an uncaught exception, and with the same exit
code and report through the object reader as through its oracle, json.load.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from unittest import mock

from hypothesis import given, settings, strategies as st

from fellbundles import cli, serialize as sz
from fellbundles.bundles import group_bundle
from fellbundles.groups import make_cyclic
from fellbundles.pdmaps import identity_bundle_map

from test_object_reader import json_load

VALID = sz.bundle_map_to_json(identity_bundle_map(group_bundle(make_cyclic(3))))
LEAVES = st.sampled_from(["abc", None, 10 ** 400, 1e308, -1e308, 0.5, 2.5, -1.5,
                          [], [1], [[0.0, 0.0]]])


def _paths(node, path=()):
    """The path of every node below `node`, as tuples of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutants(draw):
    doc = copy.deepcopy(VALID)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        how = draw(st.sampled_from(("drop", "truncate", "replace")))
        if how == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif how == "truncate" and isinstance(node, list) and node:
            parent[path[-1]] = node[:draw(st.integers(0, len(node) - 1))]
        else:
            parent[path[-1]] = draw(LEAVES)
    return doc


def _exit_code(command: str, doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.json"
        path.write_text(json.dumps(doc))
        results = []
        for reader in (cli._load, json_load):
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(cli, "_load", reader), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([command, str(path), "-o", str(Path(tmp) / "out")])
            assert "Traceback" not in out.getvalue() + err.getvalue()
            assert out.getvalue() or err.getvalue()
            results.append((code, out.getvalue()))
    assert results[0] == results[1], command
    return results[0][0]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(mutants())
def test_mutated_bundle_map_files_end_in_an_exit_code(doc):
    for command in ("gns", "pd-check"):
        assert _exit_code(command, doc) in (0, 1, 2), command
