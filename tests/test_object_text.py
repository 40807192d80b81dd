"""Object files against their oracle, json.dumps(lists, sort_keys=True).

The command line writes each object's tree (`serialize.*_tree`, complex
arrays left as float64 [re, im] views) with `serialize.object_text`; the public
`serialize.*_to_json` give the same tree with its leaves turned to lists.
The file must be exactly json.dumps(sz.X_to_json(obj), sort_keys=True) plus
a newline, and every public result must be JSON-native.  The bundle whose
fibers are all empty is both the writer's zero-size case and a regression
input for the exit-code contract.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fellbundles import serialize as sz
from fellbundles.actions import l2_action, regularize_action, trivial_action
from fellbundles.bundles import FellBundle, dynamical_bundle, group_bundle
from fellbundles.cli import main
from fellbundles.correspondences import trivial_self_equivalence
from fellbundles.groups import identity_hom, make_cyclic
from fellbundles.hilbundles import l2_bundle, regularize_bundle, trivial_hilbert_bundle
from fellbundles.pdmaps import gelfand_raikov, identity_bundle_map, scalar_bundle_map
from fellbundles.serialize import object_text


def lists(tree):
    """`tree` with every array leaf turned to nested lists."""
    if isinstance(tree, dict):
        return {k: lists(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [lists(v) for v in tree]
    return tree.tolist() if isinstance(tree, np.ndarray) else tree


def oracle(tree) -> str:
    return json.dumps(lists(tree), sort_keys=True)


def empty_fiber_bundle():
    return FellBundle(make_cyclic(2), 2, [np.zeros((0, 2, 2))] * 2)


# -- the writer on random trees ----------------------------------------------------

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 1e+16,
                  0.1, 2.0 ** 53]
floats = st.floats(width=64) | st.sampled_from(SPECIAL_FLOATS)
# every entry drawn on its own, so that values such as -0.0 and 0.0 meet
arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, min_side=0,
                                                 max_side=3),
                    elements=floats, fill=st.nothing())
scalars = st.none() | st.booleans() | st.integers() | floats | st.text(max_size=4)
trees = st.recursive(
    scalars | arrays | arrays.map(np.ndarray.tolist),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_object_text_is_json_dumps(tree):
    assert object_text(tree) == oracle(tree)


@pytest.mark.parametrize("tree", [
    np.zeros((0, 2)), np.zeros((2, 0, 2)), np.zeros((2, 3, 0)), {"a": np.zeros((0,))},
    [np.zeros((1, 2)), np.zeros((0, 2)), np.ones((2, 1))],
    np.array([[-0.0, 0.0], [0.0, -0.0]]), np.array([math.nan, -math.inf, math.inf]),
    {"b": np.array([1e-05, 1e+16]), "a": [np.array([5e-324]), 3, "x"]},
], ids=repr)
def test_object_text_edge_cases(tree):
    assert object_text(tree) == oracle(tree)


def test_object_text_refuses_what_json_refuses():
    for tree in ([np.int64(3)], {1: np.zeros(2)}, [object()]):
        with pytest.raises(TypeError):
            object_text(tree)


# -- every object kind the command line writes ---------------------------------------

def _bundles(corpus_bundles):
    return {**{k: corpus_bundles[k] for k in ("z2", "s3", "m2_ad")},
            "empty": empty_fiber_bundle()}


def _kinds(b):
    """(name, tree, public encoding) of every object kind written from `b`."""
    rho = l2_action(b)
    e = b.group.identity
    return [
        ("bundle", sz.bundle_tree(b), sz.bundle_to_json(b)),
        ("identity map", sz.bundle_map_tree(identity_bundle_map(b)),
         sz.bundle_map_to_json(identity_bundle_map(b))),
        ("l2 bundle", sz.hilbert_tree(rho.target), sz.hilbert_to_json(rho.target)),
        ("l2 action", sz.action_tree(rho), sz.action_to_json(rho)),
        ("self-equivalence", sz.equivalence_tree(trivial_self_equivalence(b)),
         sz.equivalence_to_json(trivial_self_equivalence(b))),
        ("vector", sz.vector_payload_tree(np.arange(b.dims[e]) - 0.5j, e),
         sz.vector_payload_to_json(np.arange(b.dims[e]) - 0.5j, e)),
    ]


@pytest.mark.parametrize("name", ["z2", "s3", "m2_ad", "empty"])
def test_every_object_kind_is_written_as_json_dumps(corpus_bundles, name):
    for kind, tree, public in _kinds(_bundles(corpus_bundles)[name]):
        assert object_text(tree) == json.dumps(public, sort_keys=True), kind


def test_gns_objects_are_written_as_json_dumps(corpus_bundles):
    hb, rho, xi = gelfand_raikov(identity_bundle_map(corpus_bundles["m2_ad"]))
    for tree, public in ((sz.hilbert_tree(hb), sz.hilbert_to_json(hb)),
                         (sz.action_tree(rho), sz.action_to_json(rho)),
                         (sz.vector_payload_tree(xi, 0), sz.vector_payload_to_json(xi, 0))):
        assert object_text(tree) == json.dumps(public, sort_keys=True)


# -- build -o against the public encoders ---------------------------------------------

def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured


def _build_cases(b):
    """(build spec, the object the spec names, its public encoder)."""
    bj = sz.bundle_to_json(b)
    ad = np.diag([1.0, -1.0, -1.0, 1.0])
    m2 = np.eye(4).reshape(4, 2, 2)
    z2 = make_cyclic(2)
    return [
        ({"kind": "cyclic_group", "n": 3}, make_cyclic(3), sz.group_to_json),
        ({"kind": "group_bundle", "group": sz.group_to_json(z2)}, group_bundle(z2),
         sz.bundle_to_json),
        ({"kind": "dynamical_bundle", "group": sz.group_to_json(z2),
          "algebra": [sz.matrix_to_json(m) for m in m2],
          "automorphisms": [sz.matrix_to_json(np.eye(4)), sz.matrix_to_json(ad)]},
         dynamical_bundle(m2, z2, [np.eye(4), ad]), sz.bundle_to_json),
        ({"kind": "trivial_hilbert_bundle", "bundle": bj}, trivial_hilbert_bundle(b),
         sz.hilbert_to_json),
        ({"kind": "l2_bundle", "bundle": bj}, l2_bundle(b), sz.hilbert_to_json),
        ({"kind": "regular_hilbert_bundle", "bundle": bj},
         regularize_bundle(trivial_hilbert_bundle(b)), sz.hilbert_to_json),
        ({"kind": "trivial_action", "bundle": bj}, trivial_action(b), sz.action_to_json),
        ({"kind": "l2_action", "bundle": bj}, l2_action(b), sz.action_to_json),
        ({"kind": "regular_action", "bundle": bj}, regularize_action(trivial_action(b)),
         sz.action_to_json),
        ({"kind": "identity_bundle_map", "bundle": bj}, identity_bundle_map(b),
         sz.bundle_map_to_json),
        ({"kind": "self_equivalence", "bundle": bj}, trivial_self_equivalence(b),
         sz.equivalence_to_json),
    ]


@pytest.mark.parametrize("name", ["z2", "s3", "m2_ad", "empty"])
def test_build_files_are_json_dumps_of_the_public_encoding(corpus_bundles, tmp_path,
                                                           capsys, name):
    b = _bundles(corpus_bundles)[name]
    for i, (spec, obj, encode) in enumerate(_build_cases(b)):
        public = encode(obj)
        # JSON-native: plain json.dumps needs no default=
        want = json.dumps(public, sort_keys=True) + "\n"
        spec_path, out = tmp_path / f"{i}.spec.json", tmp_path / f"{i}.json"
        spec_path.write_text(json.dumps(spec))
        assert _run(capsys, "build", str(spec_path), "-o", str(out))[0] == 0, spec["kind"]
        assert out.read_text() == want, spec["kind"]
        assert _run(capsys, "build", str(spec_path))[1].out == want, spec["kind"]


def test_build_scalar_map_file_is_json_dumps(tmp_path, capsys):
    b = group_bundle(make_cyclic(3))
    values = [1.0, 0.25, 0.25]
    bj = sz.bundle_to_json(b)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "scalar_bundle_map", "source": bj, "target": bj,
                                "phi": [0, 1, 2], "values": [[v, 0.0] for v in values]}))
    out = tmp_path / "map.json"
    assert _run(capsys, "build", str(spec), "-o", str(out))[0] == 0
    t = scalar_bundle_map(b, b, identity_hom(b.group), values)
    assert out.read_text() == json.dumps(sz.bundle_map_to_json(t), sort_keys=True) + "\n"


def test_gns_files_are_json_dumps_of_the_public_encoding(corpus_bundles, tmp_path, capsys):
    t = identity_bundle_map(corpus_bundles["s3"])
    path = tmp_path / "id.json"
    path.write_text(json.dumps(sz.bundle_map_to_json(t)))
    assert _run(capsys, "gns", str(path), "-o", str(tmp_path / "out"))[0] == 0
    hb, rho, xi = gelfand_raikov(t)
    for part, public in (("bundle", sz.hilbert_to_json(hb)), ("action", sz.action_to_json(rho)),
                         ("vector", sz.vector_payload_to_json(xi, hb.bundle.group.identity))):
        text = (tmp_path / f"out.{part}.json").read_text()
        assert text == json.dumps(public, sort_keys=True) + "\n", part


# -- the exit-code contract on a bundle whose fibers are all empty ----------------------

EMPTY_GRID = [
    ("validate", "bundle"), ("report", "bundle"),
    ("validate", "map"), ("report", "map"), ("pd-check", "map"), ("gns", "map"),
    ("validate", "l2_bundle"), ("report", "l2_bundle"),
    ("validate", "l2_action"), ("report", "l2_action"), ("correspond", "l2_action"),
    ("validate", "self_equivalence"), ("report", "self_equivalence"),
    ("morita", "self_equivalence"),
]


@pytest.fixture(scope="module")
def empty_fiber_files(tmp_path_factory):
    b = empty_fiber_bundle()
    objects = {"bundle": sz.bundle_to_json(b),
               "map": sz.bundle_map_to_json(identity_bundle_map(b)),
               "l2_bundle": sz.hilbert_to_json(l2_bundle(b)),
               "l2_action": sz.action_to_json(l2_action(b)),
               "self_equivalence": sz.equivalence_to_json(trivial_self_equivalence(b))}
    root = tmp_path_factory.mktemp("empty")
    for name, obj in objects.items():
        (root / f"{name}.json").write_text(json.dumps(obj, sort_keys=True))
    return root


@pytest.mark.parametrize("command, obj", EMPTY_GRID, ids=" ".join)
def test_empty_fiber_objects_keep_the_exit_code_contract(empty_fiber_files, capsys,
                                                         command, obj):
    extra = ("-o", str(empty_fiber_files / "gns")) if command == "gns" else ()
    code, captured = _run(capsys, command, str(empty_fiber_files / f"{obj}.json"), *extra)
    assert code in (0, 1), captured.out
    assert json.loads(captured.out)["ok"] is (code == 0)
