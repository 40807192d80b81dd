"""The object-file reader against its oracle, json.load plus serialize.

`cli._load` cuts the array leaves out of an object file's text and reads each
distinct leaf once; `json_load` below is the reader it replaced, whose lists
serialize decodes.  Every object file the command line writes must parse to
bitwise the same objects through both readers and write back to its own
text, and every broken file must give the same exit code and report.
"""

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fellbundles import cli, serialize as sz
from fellbundles.bundles import dynamical_bundle, group_bundle
from fellbundles.groups import make_cyclic, symmetric_group

from test_bundles_batched import crossed_system


def json_load(path: str):
    """The reader cli._load replaced: the file as json.load gives it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise cli.CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise cli.CliInputError(f"{path} is not valid JSON: {exc}") from exc


def both_readers(*argv) -> list[tuple[int, str]]:
    """(exit code, stdout) of the command line through cli._load and through
    json_load."""
    results = []
    for reader in (cli._load, json_load):
        out = io.StringIO()
        with mock.patch.object(cli, "_load", reader), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        results.append((code, out.getvalue()))
    return results


def contents(obj, path="", seen=None):
    """Every value an object holds, arrays as (dtype, shape, bytes), by
    attribute path; each fellbundles object is walked once."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        yield path, obj.dtype.str, obj.shape, obj.tobytes()
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from contents(item, f"{path}[{i}]", seen)
    elif type(obj).__module__.startswith("fellbundles."):
        if id(obj) in seen:
            yield path, "seen"
            return
        seen.add(id(obj))
        for key, value in sorted(vars(obj).items()):
            yield from contents(value, f"{path}.{key}", seen)
    else:
        yield path, repr(obj)


# -- the files the command line writes ------------------------------------------------

KINDS = ("l2_bundle", "l2_action", "regular_action", "self_equivalence")


@pytest.fixture(scope="module")
def object_files(tmp_path_factory) -> dict[str, str]:
    """Every kind of object file the command line writes, over S3 and M2 x Z2:
    bundle, map, the l2 bundle and action, the regular action, the
    self-equivalence and the three gns files."""
    tmp = tmp_path_factory.mktemp("objects")
    files = {}
    bundles = {"S3": group_bundle(symmetric_group(3)),
               "M2xZ2": dynamical_bundle(*crossed_system(2, 2))}
    for label, bundle in bundles.items():
        path = tmp / f"{label}.bundle.json"
        path.write_text(sz.object_text(sz.bundle_tree(bundle)) + "\n")
        files[f"{label} bundle"] = str(path)
        bjson = sz.bundle_to_json(bundle)
        specs = {kind: {"kind": kind, "bundle": bjson} for kind in KINDS}
        specs["map"] = {"kind": "identity_bundle_map", "bundle": bjson}
        for kind, spec in specs.items():
            spec_path = tmp / f"{label}.{kind}.spec.json"
            spec_path.write_text(json.dumps(spec))
            out = tmp / f"{label}.{kind}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["build", str(spec_path), "-o", str(out)]) == 0
            files[f"{label} {kind}"] = str(out)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gns", files[f"{label} map"], "-o", str(tmp / f"{label}.gns")]) == 0
        for part in ("bundle", "action", "vector"):
            files[f"{label} gns {part}"] = str(tmp / f"{label}.gns.{part}.json")
    return files


def _parsed(tree):
    if tree.get("type") == "vector":
        return sz.vector_payload_from_json(tree)
    return sz.parse_object(tree, sz.DEFAULT_TOL)[1]


def test_every_object_file_parses_to_the_oracles_objects(object_files):
    for name, path in object_files.items():
        got, want = _parsed(cli._load(path)), _parsed(json_load(path))
        assert list(contents(got)) == list(contents(want)), name


def test_every_object_file_writes_back_to_its_own_text(object_files):
    for name, path in object_files.items():
        assert sz.object_text(cli._load(path)) + "\n" == Path(path).read_text(), name


def test_truncated_texts_are_read_by_json_whole(object_files):
    text = Path(object_files["S3 l2_action"]).read_text()
    whole = text[:len(text) // 2]
    with mock.patch.object(cli.json, "loads", wraps=json.loads) as loads, \
            pytest.raises(json.JSONDecodeError):
        sz._ObjectReader().tree(whole)
    loads.assert_called_once_with(whole)


def test_leaves_are_shared_read_only_arrays(object_files):
    tree = cli._load(object_files["S3 map"])
    leaves = [leaf for side in ("source", "target") for leaf in tree[side]["fibers"].values()]
    assert all(isinstance(leaf, np.ndarray) and leaf.dtype == np.float64
               and not leaf.flags.writeable for leaf in leaves)
    # a map into its own source bundle: each target leaf is its source leaf
    assert all(tree["target"]["fibers"][g] is leaf for g, leaf in tree["source"]["fibers"].items())


@pytest.mark.parametrize("sevenths", range(1, 7))
def test_truncated_object_files_report_as_the_oracle(object_files, tmp_path, sevenths):
    for name, path in object_files.items():
        text = Path(path).read_text()
        cut = tmp_path / "cut.json"
        cut.write_text(text[:len(text) * sevenths // 7])
        (code, out), oracle = both_readers("validate", str(cut))
        assert (code, out) == oracle, name
        assert code == 2 and "is not valid JSON" in out, name


# -- leaves that stay text -------------------------------------------------------------

def _long_numbers_bundle() -> str:
    """A Z2 bundle file in M_6 whose fiber entries are random full-precision
    floats, none of them repeated."""
    data = sz.bundle_to_json(group_bundle(make_cyclic(2)))
    rng = np.random.default_rng(7)
    data["ambient_dim"] = 6
    data["fibers"] = {g: rng.standard_normal((2, 6, 6, 2)).tolist() for g in ("0", "1")}
    del data["unital"]
    return json.dumps(data, sort_keys=True)


# bundle files whose fiber "1" leaf gets one entry or row replaced: the Z2
# leaf holds distinct full-precision numbers, the Z12 leaf short repeated ones
BASES = {"Z2": _long_numbers_bundle(),
         "Z12": json.dumps(sz.bundle_to_json(group_bundle(make_cyclic(12))), sort_keys=True)}
TOKENS = ("01", "+1", "1.", ".5", "1e", "1 2", "NaN", '"1.5"', "true", "-0", "-0.0",
          "1e400", "-1", "1" + "0" * 309, "1E-3", "")


def _broken(text: str) -> dict[str, str]:
    at = text.index('"1": ')
    row = text[at:].split("]")[0].split("[")[-1]  # the first row of fiber "1"
    entry = row.split(",")[0]

    def replaced(old: str, new: str) -> str:
        return text[:at] + text[at:].replace(old, new, 1)

    return {
        **{f"entry {token!r}": replaced(f"[{row}]", f"[{token},{row[len(entry):]}]")
           for token in TOKENS},
        "row [1 2]": replaced(f"[{row}]", "[1 2]"),
        "ragged row": replaced(f"[{row}]", f"[{entry}]"),
        "empty row": replaced(f"[{row}]", "[]"),
        "number beside a row": replaced(f"[{row}]", f"[{row}] 1.0"),
        "digits after a row": replaced(f"[{row}]", "[1, 2]3"),
        "digits before a row": replaced(f"[{row}]", "3[1, 2]"),
        "no comma after a leaf": text.replace(']]]], "1": ', ']]]] "1": ', 1),
        "no comma after the last leaf": text.replace(']]]]}, "group"', ']]]]} "group"', 1),
        "indented": json.dumps(json.loads(text), indent=2),
        "a key with an escaped quote": text.replace('"1": ', '"x\\"1": ', 1),
        "a string placeholders are made of": text.replace('"bundle"', '"bundle", "x": "\\u00000"'),
    }


BROKEN = {f"{label} {name}": text for label, base in BASES.items()
          for name, text in _broken(base).items()}


@pytest.mark.parametrize("text", BROKEN.values(), ids=BROKEN.keys())
def test_leaves_json_refuses_or_reads_differently_report_as_the_oracle(tmp_path, text):
    path = tmp_path / "bundle.json"
    path.write_text(text)
    for command in ("validate", "report"):
        (code, out), oracle = both_readers(command, str(path))
        assert (code, out) == oracle, command


@pytest.mark.parametrize("token", TOKENS)
def test_a_leaf_is_read_to_what_json_and_numpy_give(token):
    """A leaf of JSON numbers (an integer one as json reads it, as an int) is
    read to the float64 array numpy makes of json's value; any other leaf,
    one holding an integer past the largest float included, is read by json,
    which gives its value or refuses the text as it does without the cut."""
    text = f'{{"1": [[0.0, 0.5], [{token}, 0.0], [-0.0, 0.5]]}}'
    try:
        want = json.loads(text)["1"]
    except json.JSONDecodeError as exc:
        with pytest.raises(json.JSONDecodeError) as got:
            sz._ObjectReader().tree(text)
        assert str(got.value) == str(exc)
        return
    got = sz._ObjectReader().tree(text)["1"]
    if token in ("-0", "-0.0", "1e400", "-1", "1E-3"):
        want = np.array(want, dtype=np.float64)
        assert isinstance(got, np.ndarray) and not got.flags.writeable
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    else:
        assert type(got) is list and repr(got) == repr(want)
