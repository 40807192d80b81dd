import json

import numpy as np
import pytest

from fellbundles import serialize as sz
from fellbundles.actions import l2_action
from fellbundles.bundles import dynamical_bundle, group_bundle
from fellbundles.correspondences import trivial_self_equivalence
from fellbundles.groups import GroupHom, identity_hom, make_cyclic, symmetric_group
from fellbundles.hilbundles import l2_bundle
from fellbundles.pdmaps import identity_bundle_map, pd_check_exact, scalar_bundle_map

from test_bundles import swap_system


def roundtrip(obj, to_json, from_json):
    encoded = json.dumps(to_json(obj), sort_keys=True)
    return from_json(json.loads(encoded))


def test_group_roundtrip():
    g = symmetric_group(3)
    back = roundtrip(g, sz.group_to_json, sz.group_from_json)
    assert np.array_equal(back.table, g.table)
    assert back.identity == g.identity


def test_group_rejects_bad_payload():
    with pytest.raises(sz.FormatError):
        sz.group_from_json({"order": 2})


def test_bundle_roundtrip_is_identity_on_data():
    for b in (group_bundle(make_cyclic(3)), dynamical_bundle(*swap_system())):
        back = roundtrip(b, sz.bundle_to_json, sz.bundle_from_json)
        assert back.dims == b.dims
        for g in b.group.elements():
            assert np.allclose(back.fibers[g], b.fibers[g], atol=0)
        assert back.unital == b.unital


def test_bundle_map_roundtrip_preserves_certificate():
    b = group_bundle(make_cyclic(4))
    t = scalar_bundle_map(b, b, identity_hom(b.group), [1.0, 0.3, -0.2, 0.3])
    back = roundtrip(t, sz.bundle_map_to_json, sz.bundle_map_from_json)
    c1, c2 = pd_check_exact(t), pd_check_exact(back)
    assert c1.ok == c2.ok
    assert c1.margin == pytest.approx(c2.margin, abs=1e-14)


def test_hilbert_roundtrip():
    x = l2_bundle(group_bundle(make_cyclic(2)))
    back = roundtrip(x, sz.hilbert_to_json, sz.hilbert_from_json)
    assert back.dims == x.dims
    grp = x.bundle.group
    for r in grp.elements():
        for s in grp.elements():
            assert np.allclose(back.inner[r][s], x.inner[r][s], atol=0)
            assert np.allclose(back.act[r][s], x.act[r][s], atol=0)


def test_action_roundtrip():
    rho = l2_action(group_bundle(make_cyclic(2)))
    back = roundtrip(rho, sz.action_to_json, sz.action_from_json)
    grp = rho.source.group
    for g in grp.elements():
        for h in grp.elements():
            assert np.allclose(back.ops[g][h], rho.ops[g][h], atol=0)


def test_equivalence_roundtrip():
    e = trivial_self_equivalence(group_bundle(make_cyclic(2)))
    back = roundtrip(e, sz.equivalence_to_json, sz.equivalence_from_json)
    grp = e.left_bundle.group
    for r in grp.elements():
        for s in grp.elements():
            assert np.allclose(back.linner[r][s], e.linner[r][s], atol=0)


def test_identity_map_roundtrip():
    b = dynamical_bundle(*swap_system())
    t = identity_bundle_map(b)
    back = roundtrip(t, sz.bundle_map_to_json, sz.bundle_map_from_json)
    for g in b.group.elements():
        assert np.allclose(back.mats[g], t.mats[g], atol=0)


def test_map_into_its_source_shares_one_bundle():
    b = dynamical_bundle(*swap_system())
    back = roundtrip(identity_bundle_map(b), sz.bundle_map_to_json, sz.bundle_map_from_json)
    assert back.target is back.source
    # a map into another bundle parses both bundles on their own
    z4, z2 = group_bundle(make_cyclic(4)), group_bundle(make_cyclic(2))
    t = scalar_bundle_map(z4, z2, GroupHom(z4.group, z2.group, np.array([0, 1, 0, 1])),
                          [1.0, 0.2, 0.1, 0.2])
    back = roundtrip(t, sz.bundle_map_to_json, sz.bundle_map_from_json)
    assert back.target is not back.source
    assert (back.source.group.order, back.target.group.order) == (4, 2)
    for g in z4.group.elements():
        assert np.array_equal(back.mats[g], t.mats[g])


def test_malformed_matrix_rejected():
    with pytest.raises(sz.FormatError):
        sz.matrix_from_json([[1.0, 2.0]])
    with pytest.raises(sz.FormatError):
        sz.matrix_from_json([[[1.0, 0.0]]], shape=(2, 2))


def _counting_parses(monkeypatch) -> list:
    parses = []
    real = sz.bundle_from_json
    monkeypatch.setattr(sz, "bundle_from_json",
                        lambda data, tol=None: parses.append(1) or real(data, tol))
    return parses


def _negated_fibers(bundle_json: dict) -> dict:
    """The same bundle written with every basis matrix negated: equal spans,
    unequal JSON."""
    return {**bundle_json, "fibers": {
        g: (-np.array(f)).tolist() for g, f in bundle_json["fibers"].items()}}


@pytest.mark.parametrize("kind", ["action", "equivalence"])
def test_object_over_its_own_bundle_parses_it_once(monkeypatch, kind):
    b = group_bundle(make_cyclic(4))
    if kind == "action":
        obj, to_json, from_json = l2_action(b), sz.action_to_json, sz.action_from_json
        outer, inner = "source", "target"
    else:
        obj, to_json, from_json = (trivial_self_equivalence(b), sz.equivalence_to_json,
                                   sz.equivalence_from_json)
        outer, inner = "left_bundle", "right"
    data = json.loads(json.dumps(to_json(obj)))
    parses = _counting_parses(monkeypatch)
    back = from_json(data)
    assert len(parses) == 1
    assert getattr(back, outer) is getattr(back, inner).bundle
    assert to_json(back) == data
    # a Hilbert bundle over an unequally written bundle is parsed on its own
    data[inner]["bundle"] = _negated_fibers(data[inner]["bundle"])
    parses.clear()
    back = from_json(data)
    assert len(parses) == 2
    assert getattr(back, outer) is not getattr(back, inner).bundle
    assert to_json(back) == data


_A = np.array([[0.5, -0.0], [1.0, 0.0]])
SAME_CASES = {
    "one array object": (_A, _A),
    "equal arrays": (_A, _A.copy()),
    "-0.0 against 0.0": (_A, np.abs(_A)),
    "unequal arrays": (_A, _A + 1.0),
    "unequal shapes": (_A, _A.ravel()),
    "an array against its lists": (_A, _A.tolist()),
    "an array against int lists": (np.array([1.0, 0.0]), [1, 0]),
    "an array against other nesting": (np.array([[1.0, 0.0]]), [1.0, 0.0]),
    "arrays in dicts": ({"0": _A, "n": 2}, {"0": _A.copy(), "n": 2}),
    "arrays in dicts in lists": ([{"0": _A}], [{"0": _A + 1.0}]),
    "unequal keys": ({"0": _A}, {"1": _A}),
    "plain lists": ([[1, 2], [3]], [[1, 2], [3]]),
    "a dict against a list": ({"0": _A}, [_A]),
}


def _deep_lists(tree):
    if isinstance(tree, dict):
        return {k: _deep_lists(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_deep_lists(v) for v in tree]
    return tree.tolist() if isinstance(tree, np.ndarray) else tree


@pytest.mark.parametrize("a, b", SAME_CASES.values(), ids=SAME_CASES.keys())
def test_trees_compare_as_their_lists(a, b):
    assert sz._same(a, b) is (_deep_lists(a) == _deep_lists(b))
