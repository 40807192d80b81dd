"""The CLI's report writer against its oracle, json.dumps(sort_keys=True,
indent=2): the same text for every JSON-like payload, and the same refusals."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellbundles import serialize as sz
from fellbundles.actions import regularize_action, trivial_action
from fellbundles.bundles import group_bundle
from fellbundles.cli import main, report_text
from fellbundles.correspondences import trivial_self_equivalence
from fellbundles.groups import identity_hom, make_cyclic
from fellbundles.pdmaps import identity_bundle_map, scalar_bundle_map


def oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 5e-324,
                  1e16, 1e-5, 0.1, 2.0 ** 53]
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
scalars = (st.none() | st.booleans() | st.integers() | floats
           | floats.map(np.float64) | st.text())


@st.composite
def float_nests(draw):
    """A rectangular nest of floats, the form of every encoded array, some
    with one leaf or one row swapped for something that leaves the fast path:
    an int, a bool, a non-finite or numpy float, a shorter row or a string."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    flat = draw(st.lists(floats.filter(math.isfinite), min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    nest = np.array(flat, dtype=object).reshape(shape).tolist()
    if draw(st.booleans()):
        row = nest
        for n in shape[:-1]:
            row = row[draw(st.integers(0, n - 1))]
        swap = draw(st.sampled_from([1, True, False, None, "x", math.nan, math.inf,
                                     np.float64(0.25), "short row", "tuple row"]))
        if swap == "short row":
            row.pop()
        elif swap == "tuple row":
            row[:] = [tuple(row)]
        else:
            row[draw(st.integers(0, shape[-1] - 1))] = swap
    return nest


payloads = st.recursive(
    scalars | float_nests(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_report_text_is_json_dumps_indent_2(payload):
    assert report_text(payload) == oracle(payload)


@pytest.mark.parametrize("payload", [
    [], {}, [[]], [[], []], {"a": []}, {"a": {}}, [[1.0], []], [[1.0, 2.0], [3.0]],
    [1.0, 2], [1.0, True], [[1.0, math.nan]], [-0.0, 5e-324, 1e308], [np.float64(1.5)],
    [[1.0, 2.0], (3.0, 4.0)], ((1.0,),), [[[1.0, 2.0]], [[3.0, 4.0]]],
    {"é\n\"\\": ["☃", "\x00\t", "\U0001f600"]}, [float("1e16"), 1e-5],
], ids=repr)
def test_report_text_edge_cases(payload):
    assert report_text(payload) == oracle(payload)


OBJECT = object()


def stable_id(payload):
    """repr, except a bare object() (whose repr holds its address) is named by
    how it was made, so the test's name is the same on every run."""
    if isinstance(payload, list) and any(item is OBJECT for item in payload):
        return "[object()]"
    return repr(payload)


@pytest.mark.parametrize("payload", [
    np.float64(2.0) ** 0.5, [np.int64(3)], [1.0, np.array([2.0])], [np.array([1.0])],
    {"a": {1, 2}}, [[1.0], np.array([2.0])], {"a": np.bool_(True)}, [OBJECT],
], ids=stable_id)
def test_report_text_refuses_what_json_refuses(payload):
    try:
        want = oracle(payload)
    except TypeError:
        with pytest.raises(TypeError):
            report_text(payload)
    else:
        assert report_text(payload) == want


def test_report_text_refuses_non_string_keys():
    with pytest.raises(TypeError):
        report_text({1: 1.0})


# -- every command's stdout is its own json.dumps(indent=2) re-encoding ---------


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _z3_files(tmp_path) -> dict:
    b = group_bundle(make_cyclic(3))
    hom = identity_hom(b.group)
    rho = regularize_action(trivial_action(b))
    e = b.group.identity
    x = np.zeros(rho.target.dims[e], dtype=complex)
    x[e * b.dims[e]:(e + 1) * b.dims[e]] = b.unit_coords
    huge = sz.bundle_map_to_json(scalar_bundle_map(b, b, hom, [1.0, 0.5, 0.5]))
    huge["blocks"]["1"] = [[[1e308, 0.0]]]
    objects = {
        "bundle": sz.bundle_to_json(b),
        "map": sz.bundle_map_to_json(identity_bundle_map(b)),
        "non_pd": sz.bundle_map_to_json(scalar_bundle_map(b, b, hom, [1.0, 2.0, 2.0])),
        "huge": huge,
        "action": sz.action_to_json(rho),
        "vector": sz.vector_payload_to_json(x, e),
        "equivalence": sz.equivalence_to_json(trivial_self_equivalence(b)),
        "spec": {"kind": "l2_action", "bundle": sz.bundle_to_json(b)},
    }
    return {name: _write(tmp_path, f"{name}.json", obj) for name, obj in objects.items()}


def test_every_command_prints_json_dumps_indent_2(tmp_path, capsys):
    f = _z3_files(tmp_path)
    runs = [
        (0, "validate", f["bundle"]),
        (0, "report", f["bundle"]),
        (0, "build", f["spec"], "-o", str(tmp_path / "l2.json")),
        (0, "validate", str(tmp_path / "l2.json")),
        (0, "pd-check", f["map"], "--full"),
        (1, "pd-check", f["non_pd"]),
        (1, "pd-check", f["non_pd"], "--full"),
        (0, "report", f["non_pd"]),
        (0, "report", f["non_pd"], "--full"),
        (1, "pd-check", f["huge"]),
        (0, "report", f["huge"]),
        (0, "gns", f["map"], "-o", str(tmp_path / "z3.gns")),
        (0, "correspond", f["action"], "--vector", f["vector"]),
        (0, "morita", f["equivalence"]),
    ]
    for want, *argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == want, argv
        assert out == oracle(json.loads(out)) + "\n", argv
