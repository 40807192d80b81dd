"""The regular representations and the adjoint products against the loops
they replaced.

`bundles.regular_representations` and `FellBundle.adjoint_products` are
each built once; `l2_bundle`, `l2_action`, `regularize_bundle`,
`regularize_action`, `RegRep`, `trivial_hilbert_bundle` and
`condexp_raw_semibundle` read them.  The per-block loops and per-pair
einsums they replaced are kept here verbatim as oracles.  Every stored
array must agree with its oracle bit for bit, the sign of a zero included:
the object files write -0.0 apart from 0.0.
"""

from __future__ import annotations

import numpy as np
import pytest

from fellbundles.actions import Action, l2_action, regularize_action, trivial_action
from fellbundles.bundles import FellBundle, dynamical_bundle, group_bundle, \
    projection_expectation, regular_representations
from fellbundles.crosssec import RegRep
from fellbundles.groups import identity_hom, make_cyclic, make_from_table, symmetric_group
from fellbundles.hilbundles import HilbertBundle, SemiInnerBundle, condexp_raw_semibundle, \
    l2_bundle, regularize_bundle, trivial_hilbert_bundle
from fellbundles.numerics import direct_sum_slots

# -- the loops, verbatim -------------------------------------------------------


def loop_l2_bundle(bundle: FellBundle) -> HilbertBundle:
    grp = bundle.group
    n = grp.order
    d = bundle.dims
    offs = np.concatenate([[0], np.cumsum(d)]).astype(int)
    total = int(offs[-1])
    dims = [total] * n
    # the right action by b_i in B_s does not depend on the tag r; its block
    # from tsrc = t s^-1 to t reads slice [:, i] of the product tensor
    act_by = []
    for s in grp.elements():
        mats = np.zeros((d[s], total, total), dtype=np.complex128)
        for t in grp.elements():
            tsrc = grp.mul(t, grp.inv(s))
            mats[:, offs[t]:offs[t + 1], offs[tsrc]:offs[tsrc + 1]] = \
                bundle.prod[tsrc][s].transpose(1, 2, 0)
        act_by.append(mats)
    act = [act_by] * n
    inner = [[None] * n for _ in grp.elements()]
    for r in grp.elements():
        for s in grp.elements():
            k = grp.mul(grp.inv(r), s)
            out = np.zeros((total, total, d[k]), dtype=np.complex128)
            for t in grp.elements():
                t2 = grp.mul(grp.mul(t, grp.inv(r)), s)
                tinv = grp.inv(t)
                # <delta_t b_i (tag r), delta_t2 b_j (tag s)> = b_i* b_j
                tensor = np.einsum("iw,wjk->ijk", bundle.star_tensor[t], bundle.prod[tinv][t2])
                out[offs[t]:offs[t + 1], offs[t2]:offs[t2 + 1], :] = tensor
            inner[r][s] = out
    return HilbertBundle(bundle, dims, act, inner)


def loop_l2_action(bundle: FellBundle) -> Action:
    grp = bundle.group
    y = loop_l2_bundle(bundle)
    offs = np.concatenate([[0], np.cumsum(bundle.dims)]).astype(int)
    total = int(offs[-1])
    ops = []
    for r in grp.elements():
        # the block of b_i in A_r from tsrc = r^-1 t to t reads slice i of the
        # product tensor; the operator does not depend on the target fiber
        mats = np.zeros((bundle.dims[r], total, total), dtype=np.complex128)
        for t in grp.elements():
            tsrc = grp.mul(grp.inv(r), t)
            mats[:, offs[t]:offs[t + 1], offs[tsrc]:offs[tsrc + 1]] = \
                bundle.prod[r][tsrc].transpose(0, 2, 1)
        ops.append([mats] * grp.order)
    return Action(bundle, identity_hom(grp), y, ops)


def loop_regularize_bundle(x: SemiInnerBundle) -> HilbertBundle:
    grp = x.bundle.group
    n = grp.order
    dims = [n * m for m in x.dims]
    act = [[np.kron(np.eye(n), blk) for blk in row] for row in x.act]
    inner = [[None] * n for _ in grp.elements()]
    for r in grp.elements():
        for s in grp.elements():
            k = x.inner[r][s].shape[2]
            out = np.zeros((dims[r], dims[s], k), dtype=np.complex128)
            mr, ms = x.dims[r], x.dims[s]
            for t in range(n):
                out[t * mr:(t + 1) * mr, t * ms:(t + 1) * ms, :] = x.inner[r][s]
            inner[r][s] = out
    return HilbertBundle(x.bundle, dims, act, inner)


def loop_regularize_action(rho: Action) -> Action:
    src = rho.source
    tgt = rho.target.bundle.group
    reg = loop_regularize_bundle(rho.target)
    phi = rho.hom
    n = tgt.order
    ops = []
    for g in src.group.elements():
        shift = np.zeros((n, n))
        for t in tgt.elements():
            shift[tgt.mul(phi(g), t), t] = 1.0
        ops.append([np.kron(shift, blk) for blk in rho.ops[g]])
    return Action(src, phi, reg, ops)


class LoopRegRep:
    def __init__(self, bundle: FellBundle):
        self.bundle = bundle
        grp = bundle.group
        self.dim = bundle.total_dim
        self.offsets = np.concatenate([[0], np.cumsum(bundle.dims)]).astype(int)
        self.generators: dict[tuple[int, int], np.ndarray] = {}
        for g in grp.elements():
            for i in range(bundle.dims[g]):
                m = np.zeros((self.dim, self.dim), dtype=np.complex128)
                unit = np.eye(bundle.dims[g])[i]
                for h in grp.elements():
                    gh = grp.mul(g, h)
                    blk = bundle.left_mult_matrix(g, unit, h)
                    m[self.offsets[gh]:self.offsets[gh + 1],
                      self.offsets[h]:self.offsets[h + 1]] = blk
                self.generators[(g, i)] = m


def loop_trivial_inner(bundle: FellBundle):
    grp = bundle.group
    # <b_u, b_v> = b_u* b_v via the star and product tensors
    inner = [[np.einsum("uw,wvk->uvk", bundle.star_tensor[r], bundle.prod[grp.inv(r)][s])
              for s in grp.elements()] for r in grp.elements()]
    return inner


def loop_condexp_inner(exp):
    sup = exp.source
    grp = sup.group
    inner = [[None] * grp.order for _ in grp.elements()]
    for g in grp.elements():
        for g2 in grp.elements():
            k = grp.mul(grp.inv(g), g2)
            emap = np.asarray(exp.mats[k])
            star_prod = np.einsum("uw,wvk->uvk", sup.star_tensor[g], sup.prod[grp.inv(g)][g2])
            inner[g][g2] = np.einsum("uvk,lk->uvl", star_prod, emap)
    return inner


# -- the corpus ----------------------------------------------------------------


def relabelled(group, seed: int):
    """The same group with element g renamed perm[g], for a random
    permutation that moves the identity away from 0; returns (group, perm)."""
    perm = np.random.default_rng(seed).permutation(group.order)
    if perm[group.identity] == 0:
        perm = np.roll(perm, 1)
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return make_from_table(table.tolist()), perm


def ad_diag_crossed(k: int, m: int) -> FellBundle:
    """M_k x| Z_m, Z_m relabelled, acting by Ad(diag(1, w, .., w^(k-1))) with
    w = e^(2 pi i/m) on the matrix units of M_k."""
    group, perm = relabelled(make_cyclic(m), 10 * k + m)
    basis = np.eye(k * k, dtype=complex).reshape(k * k, k, k)
    w = np.exp(2j * np.pi / m)
    autos = [None] * m
    for g in range(m):
        autos[perm[g]] = np.diag([w ** ((i - j) * g) for i in range(k) for j in range(k)])
    return dynamical_bundle(basis, group, autos)


def empty_fiber_bundle() -> FellBundle:
    """Z3 with the zero fiber over both non-identity elements, in M_2."""
    z = np.zeros((0, 2, 2))
    return FellBundle(make_cyclic(3), 2, [np.eye(2)[None] / np.sqrt(2), z, z])


CORPUS = {
    **{f"Z{n}": lambda n=n: group_bundle(make_cyclic(n)) for n in range(1, 13)},
    "S3": lambda: group_bundle(symmetric_group(3)),
    "S4": lambda: group_bundle(symmetric_group(4)),
    "S3 relabelled": lambda: group_bundle(relabelled(symmetric_group(3), 3)[0]),
    **{f"M{k}xZ{m}": lambda k=k, m=m: ad_diag_crossed(k, m)
       for k, m in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]},
    "empty fiber": empty_fiber_bundle,
}


@pytest.fixture(scope="module", params=list(CORPUS))
def bundle(request):
    return CORPUS[request.param]()


def assert_same_bits(got, want, what=""):
    """Equal shapes and equal float64 bit patterns, sign bits included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.complex128, what
    assert got.shape == want.shape, what
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64)), what


def assert_same_module(got: SemiInnerBundle, want: SemiInnerBundle):
    assert type(got) is type(want)
    assert got.bundle is want.bundle and got.dims == want.dims
    assert_same_bits(got.act_array, want.act_array, "act")
    assert_same_bits(got.inner_array, want.inner_array, "inner")


def assert_same_action(got: Action, want: Action):
    assert got.source is want.source and got.hom.target == want.hom.target
    assert np.array_equal(got.hom.map, want.hom.map)
    assert_same_bits(got.ops_array, want.ops_array, "ops")
    assert_same_module(got.target, want.target)


# -- the tests -----------------------------------------------------------------


def test_the_corpus_holds_signed_zeros_and_a_relabelled_identity():
    """The bitwise comparisons below can see a mask applied by
    multiplication: the crossed products have negative coordinates, so their
    l2 inner products hold entries whose zero would come out as -0.0."""
    b = CORPUS["M2xZ3"]()
    assert b.group.identity != 0
    assert (b.adjoint_products.real < 0).any()
    assert CORPUS["S3 relabelled"]().group.identity != 0


def test_direct_sum_slots():
    t, a = direct_sum_slots([2, 0, 3])
    assert t.tolist() == [0, 0, 2, 2, 2] and a.tolist() == [0, 1, 0, 1, 2]
    t, a = direct_sum_slots([])
    assert t.shape == a.shape == (0,)


def test_adjoint_products_match_the_per_pair_einsums(bundle):
    sp = bundle.adjoint_products
    assert not sp.flags.writeable and sp is bundle.adjoint_products
    grp, d = bundle.group, bundle.dims
    for r, row in enumerate(loop_trivial_inner(bundle)):
        for s, blk in enumerate(row):
            k = grp.mul(grp.inv(r), s)
            assert_same_bits(sp[r, s, :d[r], :d[s], :d[k]], blk, (r, s))


def test_trivial_hilbert_bundle_matches_its_einsums(bundle):
    want = HilbertBundle(bundle, list(bundle.dims),
                         [[p.transpose(1, 2, 0) for p in row] for row in bundle.prod],
                         loop_trivial_inner(bundle))
    assert_same_module(trivial_hilbert_bundle(bundle), want)


def test_l2_bundle_matches_its_loop(bundle):
    assert_same_module(l2_bundle(bundle), loop_l2_bundle(bundle))


def test_l2_action_matches_its_loop(bundle):
    assert_same_action(l2_action(bundle), loop_l2_action(bundle))


def test_regularize_bundle_matches_its_loop(bundle):
    x = trivial_hilbert_bundle(bundle)
    assert_same_module(regularize_bundle(x), loop_regularize_bundle(x))


def test_regularize_action_matches_its_loop(bundle):
    rho = trivial_action(bundle)
    assert_same_action(regularize_action(rho), loop_regularize_action(rho))


def test_regrep_matches_its_loop(bundle):
    got, want = RegRep(bundle), LoopRegRep(bundle)
    assert got.dim == want.dim
    assert list(got.generators) == list(want.generators)
    for key, m in want.generators.items():
        assert_same_bits(got.generators[key], m, key)


def test_regular_representations_are_commuting_representations(bundle):
    """Independent of the loops: left and right multiplication commute
    (associativity), b_i^g (b_j^h x) = (b_i^g b_j^h) x and
    (x b_i^g) b_j^h = x (b_i^g b_j^h)."""
    left, right = regular_representations(bundle)
    assert left.shape == right.shape == (bundle.group.order, max(bundle.dims),
                                         bundle.total_dim, bundle.total_dim)
    lhs, rhs = left[:, :, None, None], right[None, None]
    assert np.allclose(lhs @ rhs, rhs @ lhs, atol=1e-12)
    # both products as (g, i, h, j): the coordinates of b_i^g b_j^h in A_gh
    prod, gh = bundle.prod_array, bundle.group.table
    assert np.allclose(lhs @ left[None, None],
                       np.einsum("ghijk,ghkpq->gihjpq", prod, left[gh]), atol=1e-12)
    assert np.allclose(right[None, None] @ right[:, :, None, None],
                       np.einsum("ghijk,ghkpq->gihjpq", prod, right[gh]), atol=1e-12)


@pytest.mark.parametrize("which", ["identity", "corner"])
def test_condexp_inner_matches_its_einsums(bundle, which):
    if which == "identity":
        exp = projection_expectation(bundle, bundle)
    else:
        triv = make_cyclic(1)
        m2 = np.eye(4).reshape(4, 2, 2)
        exp = projection_expectation(FellBundle(triv, 2, [m2]),
                                     FellBundle(triv, 2, [np.array([np.diag([1.0, 0.0])])]))
    got = condexp_raw_semibundle(exp)
    want = SemiInnerBundle(exp.target, list(exp.source.dims), got.act, loop_condexp_inner(exp))
    assert_same_bits(got.inner_array, want.inner_array)
