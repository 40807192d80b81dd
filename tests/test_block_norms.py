"""The norms of the Hilbert-bundle battery, read off the blocks of A_e.

`FellBundle.fiber_norms` reads the norm of an element of A_e off its
compressions to the irreducible types of A_e, and that of any other b as
||b* b||^(1/2), when the bundle stands at rounding; otherwise it takes the
SVDs of the ambient matrices.  Here the ambient norms are the oracle: on
the group-bundle ladder, crossed products, S4 (built in blocks), a bundle
embedded in a corner of its ambient algebra and one whose fibers are all
empty, the block norms equal them to 1e-12 relative to max(1, norm).  A
bundle bent between `numerics.ROUNDING` and the membership bound takes the
ambient route, and gives the verdicts of the loop oracle.  A unitary
conjugation of every fiber leaves every item of the battery as it was.

The action battery reads the norms of contractivity and Gram domination's
||a|| through the same routine; on the conjugated bundles both residuals
equal the ambient loop oracle's, and over the bent bundle the battery takes
the ambient route and gives the loop oracle's report.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellbundles import bundles as bundles_module
from fellbundles import hilbundles
from fellbundles.actions import SAMPLES, Action, l2_action, regularize_action, trivial_action, \
    validate_action
from fellbundles.bundles import FellBundle, dynamical_bundle, group_bundle
from fellbundles.groups import make_cyclic, symmetric_group
from fellbundles.hilbundles import SemiInnerBundle, l2_bundle, regularize_bundle, \
    trivial_hilbert_bundle, validate_hilbert_bundle, validate_semi_inner_bundle
from fellbundles.numerics import ROUNDING, membership_bound, opnorm

from test_bundles import M2_BASIS
from test_gns_separation import m3_z2
from test_pdmaps_batched import m2_z4, m3_z3
from test_validators_batched import _bumped, assert_same_report, inequality_items, \
    reference_validate, reference_validate_action, sampled_action_items


def close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def m2_ad():
    return dynamical_bundle(M2_BASIS, make_cyclic(2), [np.eye(4), np.diag([1.0, -1.0, -1.0, 1.0])])


def corner(bundle, pad):
    """`bundle` in the upper left corner of an ambient algebra `pad` sides
    larger: A_e no longer holds the ambient unit."""
    fibers = [np.pad(f, ((0, 0), (0, pad), (0, pad))) for f in bundle.fibers]
    return FellBundle(bundle.group, bundle.ambient_dim + pad, fibers)


BUNDLES = {
    **{f"Z{n}": functools.partial(lambda n: group_bundle(make_cyclic(n)), n)
       for n in (2, 3, 5, 8, 12)},
    "S3": lambda: group_bundle(symmetric_group(3)),
    "S4": lambda: group_bundle(symmetric_group(4)),
    "M2xZ2": m2_ad,
    "M2xZ4": m2_z4,
    "M3xZ2": m3_z2,
    "M3xZ3": m3_z3,
    "Z3 corner": lambda: corner(group_bundle(make_cyclic(3)), 2),
    "M2xZ2 corner": lambda: corner(m2_ad(), 3),
    "empty fibers": lambda: FellBundle(make_cyclic(3), 2, [np.zeros((0, 2, 2))] * 3),
}


MODULES = {"trivial": trivial_hilbert_bundle, "l2": l2_bundle,
           "regular": lambda b: regularize_bundle(trivial_hilbert_bundle(b))}


@functools.lru_cache(maxsize=None)
def built(name):
    return BUNDLES[name]()


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_block_norms_are_the_ambient_norms(name):
    """Three random elements of every fiber, drawn as the battery draws b."""
    b = built(name)
    assert b._norms_in_blocks()
    rng = np.random.default_rng(5)
    db = max(b.dims, default=0)
    fibers, coords = [], []
    for g in b.group.elements():
        for _ in range(3):
            c = np.zeros(db, dtype=np.complex128)
            c[:b.dims[g]] = b.random_coords(g, rng)
            fibers.append(g)
            coords.append(c)
    got = b.fiber_norms(np.array(fibers), np.array(coords).reshape(len(fibers), db))
    for g, c, norm in zip(fibers, coords, got):
        assert close(norm, opnorm(b.element(g, c[:b.dims[g]]))), (g, norm)


def test_a_type_of_size_one_takes_no_svd():
    """Over a scalar A_e (here Z12's, one type of size 1 and multiplicity 12)
    the battery's norms are moduli: no SVD at all."""
    x = l2_bundle(group_bundle(make_cyclic(12)))
    with mock.patch.object(bundles_module, "opnorms", side_effect=AssertionError("an SVD")):
        rep = validate_hilbert_bundle(x)
    assert rep.ok


def _sides(shapes):
    real = bundles_module.opnorms

    def recorded(stack):
        shapes.append(np.shape(stack)[-2:])
        return real(stack)
    return recorded


def test_a_type_of_size_two_takes_svds_of_its_side():
    """M2 x| Z2: A_e is one type of size 2, so its norms are SVDs of 2 x 2
    compressions, not of the ambient 4 x 4 matrices."""
    shapes = []
    with mock.patch.object(bundles_module, "opnorms", side_effect=_sides(shapes)):
        validate_hilbert_bundle(trivial_hilbert_bundle(built("M2xZ2")))
    assert shapes and set(shapes) == {(2, 2)}


def bent_s3():
    """The S3 group bundle with every fiber moved by 3e-10: its grading
    residual lies between ROUNDING and the membership bound."""
    b = group_bundle(symmetric_group(3))
    rng = np.random.default_rng(3)
    bent = FellBundle(b.group, b.ambient_dim,
                      [f + 3e-10 * rng.standard_normal(f.shape) for f in b.fibers])
    assert ROUNDING < bent.grading_residual.max() <= membership_bound(bent.tolerance)
    return bent


@pytest.mark.parametrize("kind", ["trivial", "l2", "regular", "trivial bumped", "l2 bumped"])
def test_a_bent_bundle_takes_the_ambient_route(kind):
    b = bent_s3()
    x = MODULES[kind.split()[0]](b)
    if kind.endswith("bumped"):
        x = SemiInnerBundle(b, x.dims, x.act, _bumped(x.inner, (1, 1), 1e-3,
                                                      np.random.default_rng(1)))
    assert not b._norms_in_blocks()
    shapes = []
    with mock.patch.object(bundles_module, "opnorms", side_effect=_sides(shapes)):
        rep = validate_hilbert_bundle(x)
    assert set(shapes) == {(6, 6)}
    want = reference_validate(x)
    assert [(i.name, i.ok) for i in rep.items] == [(i.name, i.ok) for i in want.items]
    for got, ref in zip(rep.items, want.items):
        assert close(got.residual, ref.residual), (got.name, got.residual, ref.residual)


@pytest.mark.parametrize("name", ["S4", "M3xZ3", "Z3 corner", "M2xZ2 corner"])
def test_the_kept_items_equal_the_loop_oracle(name):
    x = trivial_hilbert_bundle(built(name))
    items = {i.name: i for i in validate_hilbert_bundle(x).items}
    for ref in inequality_items(x).items:
        assert items[ref.name].ok == ref.ok
        assert close(items[ref.name].residual, ref.residual), (ref.name,)


def test_an_all_empty_fiber_bundle_reads_zero_norms():
    """Module fibers over a bundle whose fibers are all empty: every inner
    product and every b is zero, so both kept items read 0 (before, the
    battery raised on the empty action blocks)."""
    b = built("empty fibers")
    dims = [2, 1, 0]
    x = SemiInnerBundle(b, dims, [[np.zeros((0, dims[(r + h) % 3], dims[r])) for h in range(3)]
                                  for r in range(3)],
                        [[np.zeros((dims[r], dims[s], 0)) for s in range(3)] for r in range(3)])
    items = {i.name: i for i in validate_semi_inner_bundle(x).items}
    assert items["||xb|| <= ||x|| ||b||"].residual == 0.0
    assert items["Cauchy-Schwarz"].residual == 0.0


# -- unitary invariance -------------------------------------------------------------

KEPT = ("||xb|| <= ||x|| ||b||", "Cauchy-Schwarz")


def rotated(b, seed):
    """Every fiber of b conjugated by one random unitary of its ambient side."""
    rng = np.random.default_rng(seed)
    n = b.ambient_dim
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return FellBundle(b.group, n, [u @ f @ u.conj().T for f in b.fibers])


def module(b, kind, at):
    """The `kind` Hilbert bundle of b, with the inner block `at` moved by
    1e-3 (None: unperturbed)."""
    x = MODULES[kind](b)
    if at is None:
        return x
    return SemiInnerBundle(b, x.dims, x.act, _bumped(x.inner, at, 1e-3, np.random.default_rng(0)))


@functools.lru_cache(maxsize=None)
def unrotated_items(name, kind, at):
    return items(validate_hilbert_bundle(module(built(name), kind, at)))


def items(rep):
    return [(i.name, i.ok, i.residual) for i in rep.items]


def ambient_items(x):
    """The two norm items of the battery on the ambient route: `fiber_norms`
    told that the bundle does not stand at rounding.  The exact identities
    read no norm, so they are skipped (read as 0)."""
    with mock.patch.object(FellBundle, "_norms_in_blocks", return_value=False), \
            mock.patch.object(hilbundles, "worst_relative", return_value=0.0):
        return [item for item in items(validate_hilbert_bundle(x)) if item[0] in KEPT]


def assert_same(got, want):
    assert [item[:2] for item in got] == [item[:2] for item in want]
    for (item, _, res), (_, _, ref) in zip(got, want):
        assert close(res, ref), (item, res, ref)


def conjugation_keeps_every_item(name, kind, seed, at):
    """Unperturbed and with the inner block `at` moved: every item as on
    the unrotated bundle, and the norm items as on the ambient route."""
    order = built(name).group.order
    b = rotated(built(name), seed)
    assert b._norms_in_blocks()
    for bump in (None, (at[0] % order, at[1] % order)):
        x = module(b, kind, bump)
        got = items(validate_hilbert_bundle(x))
        assert_same(got, unrotated_items(name, kind, bump))
        assert_same([item for item in got if item[0] in KEPT], ambient_items(x))


SEEDS = st.integers(0, 2 ** 32 - 1)
BLOCKS = st.tuples(st.integers(0, 23), st.integers(0, 23))


@pytest.mark.parametrize("name", ["Z3", "S3", "M2xZ2"])
@pytest.mark.parametrize("kind", sorted(MODULES))
@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=SEEDS, at=BLOCKS)
def test_a_unitary_conjugation_leaves_every_item_as_it_was(name, kind, seed, at):
    conjugation_keeps_every_item(name, kind, seed, at)


@pytest.mark.parametrize("kind", sorted(MODULES))
@settings(derandomize=True, max_examples=1, deadline=None)
@given(seed=SEEDS, at=BLOCKS)
def test_a_unitary_conjugation_of_s4_leaves_every_item_as_it_was(kind, seed, at):
    """S4 is built in blocks; its l2 and regular bundles (fibers of
    dimension 24) cost a second each, so one example."""
    conjugation_keeps_every_item("S4", kind, seed, at)


# -- the action battery ------------------------------------------------------------

ACTIONS = {"trivial": trivial_action, "l2": l2_action,
           "regular": lambda b: regularize_action(trivial_action(b))}
ACTION_KEPT = ("contractivity ||rho(a)x|| <= ||a|| ||x||", "Gram domination S <= ||a||^2 R")


def action(b, kind, at):
    """The `kind` action of b, with the operator block `at` moved by 1e-3
    (None: unperturbed)."""
    rho = ACTIONS[kind](b)
    if at is None:
        return rho
    return Action(b, rho.hom, rho.target, _bumped(rho.ops, at, 1e-3, np.random.default_rng(0)))


@functools.lru_cache(maxsize=None)
def unrotated_action_items(name, kind, at):
    return items(validate_action(action(built(name), kind, at)))


@pytest.mark.parametrize("name", ["Z3", "S3", "M2xZ2"])
@pytest.mark.parametrize("kind", sorted(ACTIONS))
@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=SEEDS, at=BLOCKS)
def test_a_unitary_conjugation_leaves_every_action_item_as_it_was(name, kind, seed, at):
    """Every item as on the unrotated bundle, and contractivity and Gram
    domination as the loop oracle reads them from ambient matrices."""
    order = built(name).group.order
    b = rotated(built(name), seed)
    assert b._norms_in_blocks()
    for bump in (None, (at[0] % order, at[1] % order)):
        rho = action(b, kind, bump)
        got = items(validate_action(rho))
        assert_same(got, unrotated_action_items(name, kind, bump))
        assert_same([item for item in got if item[0] in ACTION_KEPT],
                    items(sampled_action_items(rho, samples=SAMPLES)))


@pytest.mark.parametrize("kind", ["trivial", "l2", "regular", "trivial bumped", "l2 bumped"])
def test_an_action_over_a_bent_bundle_takes_the_ambient_route(kind):
    b = bent_s3()
    rho = action(b, kind.split()[0], (1, 2) if kind.endswith("bumped") else None)
    shapes = []
    with mock.patch.object(bundles_module, "opnorms", side_effect=_sides(shapes)):
        rep = validate_action(rho)
    assert set(shapes) == {(6, 6)}
    assert_same_report(rep, reference_validate_action(rho, samples=SAMPLES), kind)
