"""The stored form of the bundle objects.

Fell bundles, Hilbert bundles, actions and equivalence bundles store each
nested tensor family once, as a read-only zero-padded array, and expose the
nested names as tuples of read-only views of its blocks.  The oracle is the
old route, `numerics.padded` of the nested blocks, which every verdict path
used to rebuild per call.
"""

import numpy as np
import pytest

from fellbundles.actions import l2_action
from fellbundles.correspondences import trivial_self_equivalence
from fellbundles.hilbundles import l2_bundle
from fellbundles.numerics import padded

from test_validators_batched import _gns_zero_fiber

# (array attribute, nested attribute, nesting depth) per object kind
FIELDS = {
    "bundle": (("fiber_array", "fibers", 1), ("prod_array", "prod", 2),
               ("star_array", "star_tensor", 1)),
    "hilbert": (("act_array", "act", 2), ("inner_array", "inner", 2)),
    "action": (("ops_array", "ops", 2),),
    "equivalence": (("lact_array", "lact", 2), ("linner_array", "linner", 2)),
}


@pytest.fixture(scope="module")
def objects(corpus_bundles):
    out = []
    for name in ("z2", "s3", "m2_ad"):
        b = corpus_bundles[name]
        out += [(name, "bundle", b), (f"{name} l2", "hilbert", l2_bundle(b)),
                (f"{name} l2 action", "action", l2_action(b)),
                (f"{name} self-equivalence", "equivalence", trivial_self_equivalence(b))]
    # the reconstruction over a bundle with a zero fiber: every family is padded
    hb, rho = _gns_zero_fiber()
    out += [("gns bundle", "bundle", hb.bundle), ("gns hilbert", "hilbert", hb),
            ("gns action", "action", rho)]
    return out


def _stored(objects):
    """(label, array, nested views, depth) of every stored family."""
    for name, kind, obj in objects:
        for arr_name, views_name, depth in FIELDS[kind]:
            yield f"{name} {views_name}", getattr(obj, arr_name), getattr(obj, views_name), depth


def _mask(arr, views, depth):
    """True on the entries of arr that some block view covers."""
    mask = np.zeros(arr.shape, dtype=bool)
    rows = [views] if depth == 1 else views
    for i, row in enumerate(rows):
        for j, blk in enumerate(row):
            index = (j,) if depth == 1 else (i, j)
            mask[(*index, *map(slice, blk.shape))] = True
    return mask


def test_stored_arrays_are_the_padded_nested_views(objects):
    for label, arr, views, depth in _stored(objects):
        if depth == 1:
            want = padded([list(views)], arr.shape[1:])[0]
        else:
            want = padded([list(row) for row in views], arr.shape[2:])
        assert want.shape == arr.shape and want.tobytes() == arr.tobytes(), label
        blocks = views if depth == 1 else [blk for row in views for blk in row]
        assert all(np.shares_memory(blk, arr) for blk in blocks if blk.size), label


def test_stored_arrays_are_zero_outside_their_blocks(objects):
    padding_seen = False
    for label, arr, views, depth in _stored(objects):
        outside = ~_mask(arr, views, depth)
        padding_seen = padding_seen or bool(outside.any())
        assert not arr[outside].any(), label
    assert padding_seen


def test_stored_arrays_are_read_only(objects):
    for label, arr, views, depth in _stored(objects):
        assert not arr.flags.writeable, label
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
        blk = views[0] if depth == 1 else views[0][0]
        if blk.size:
            with pytest.raises(ValueError):
                blk[(0,) * blk.ndim] = 1.0


def test_nested_containers_refuse_item_assignment(objects):
    for label, arr, views, depth in _stored(objects):
        assert isinstance(views, tuple), label
        with pytest.raises(TypeError):
            views[0] = np.zeros(0)
        if depth == 2:
            assert all(isinstance(row, tuple) for row in views), label
            with pytest.raises(TypeError):
                views[0][0] = np.zeros(0)
