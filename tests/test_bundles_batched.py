"""Whole-array bundle construction against the per-element loops it replaced.

`reference_dynamical_bundle`, `reference_build_structure`,
`reference_check_saturated` and `reference_regular_unitary` keep the loop
`dynamical_bundle` (with its one-matrix `_subalgebra_coords`),
`FellBundle._build_structure`, `check_saturated` and `regular_unitary`
verbatim.  Fibers must be bitwise equal, structure tensors equal within
1e-12 and residuals within 1e-15, saturation verdicts equal, and every
defective dynamical system must raise the exception, type and message,
that the loop raises first.
"""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from fellbundles.bundles import FellBundle, NotActionError, NotAutomorphismError, \
    check_saturated, dynamical_bundle, group_bundle, regular_unitary, validate_bundle
from fellbundles.groups import FiniteGroup, make_cyclic, make_from_table, symmetric_group
from fellbundles.numerics import DEFAULT_TOL, Tolerance, frob, stored

from test_bundles import E11, E22, M2_BASIS, ad_diag_system, swap_system
from test_numerics import numerical_rank


# -- the loop oracles ----------------------------------------------------------------

def reference_regular_unitary(group: FiniteGroup, g: int) -> np.ndarray:
    """Left-regular permutation matrix of g on C^|G|."""
    u = np.zeros((group.order, group.order), dtype=np.complex128)
    for h in group.elements():
        u[group.mul(g, h), h] = 1.0
    return u


def _subalgebra_coords(basis_flat: np.ndarray, mat: np.ndarray) -> tuple[np.ndarray, float]:
    c, *_ = np.linalg.lstsq(basis_flat.T, mat.ravel(), rcond=None)
    res = float(np.linalg.norm(basis_flat.T @ c - mat.ravel()))
    nm = float(np.linalg.norm(mat))
    return c, res / nm if nm else 0.0


def reference_dynamical_bundle(algebra_basis, group: FiniteGroup, alpha,
                               tol: Tolerance = DEFAULT_TOL) -> FellBundle:
    """Bundle of a dynamical system (A, G, alpha), realized covariantly.

    algebra_basis: (k, m, m) linearly independent matrices spanning a unital
    *-subalgebra A of M_m.  alpha[g] is the k x k matrix of the automorphism
    alpha_g in that basis.  The fiber over g is spanned by the matrices
    (sum_h alpha_{h^-1}(a) (x) E_hh) . (1 (x) u_g) inside M_{m|G|}, which
    reproduces the crossed-product multiplication rule.
    """
    basis = np.asarray(algebra_basis, dtype=np.complex128)
    k, m, _ = basis.shape
    flat = basis.reshape(k, -1)
    if k and numerical_rank(flat, tol) != k:
        raise ValueError("algebra basis must be linearly independent")
    alpha = [np.asarray(a, dtype=np.complex128) for a in alpha]
    if len(alpha) != group.order or any(a.shape != (k, k) for a in alpha):
        raise NotActionError("need one k x k matrix per group element")

    def apply(g, coeffs):
        return np.tensordot(alpha[g] @ coeffs, basis, axes=(0, 0))

    # each alpha_g must be a *-automorphism of A
    scale = max(frob(basis[i]) for i in range(k))
    for g in group.elements():
        for i in range(k):
            a_i = basis[i]
            img_star = apply(g, np.eye(k)[i]).conj().T
            want_star, res = _subalgebra_coords(flat, img_star)
            if res > 1e-8:
                raise NotAutomorphismError(f"alpha_{g} image of a* leaves A")
            star_src, res2 = _subalgebra_coords(flat, a_i.conj().T)
            if res2 > 1e-8:
                raise ValueError("algebra basis is not *-closed")
            if frob(apply(g, star_src) - img_star) > 1e-8 * scale:
                raise NotAutomorphismError(f"alpha_{g} is not *-preserving")
            for j in range(k):
                prod_src, res3 = _subalgebra_coords(flat, a_i @ basis[j])
                if res3 > 1e-8:
                    raise ValueError("algebra basis is not multiplicatively closed")
                lhs = apply(g, prod_src)
                rhs = apply(g, np.eye(k)[i]) @ apply(g, np.eye(k)[j])
                if frob(lhs - rhs) > 1e-8 * max(scale * scale, 1.0):
                    raise NotAutomorphismError(f"alpha_{g} is not multiplicative")
    e = group.identity
    if frob(alpha[e] - np.eye(k)) > 1e-10 * k:
        raise NotActionError("alpha_e must be the identity")
    for g in group.elements():
        for h in group.elements():
            if frob(alpha[g] @ alpha[h] - alpha[group.mul(g, h)]) > 1e-8 * k:
                raise NotActionError("alpha is not a group action")

    ng = group.order
    fibers = []
    for g in group.elements():
        v_g = np.kron(np.eye(m), regular_unitary(group, g))
        mats = []
        for i in range(k):
            d = np.zeros((m * ng, m * ng), dtype=np.complex128)
            for h in group.elements():
                e_hh = np.zeros((ng, ng))
                e_hh[h, h] = 1.0
                d += np.kron(apply(group.inv(h), np.eye(k)[i]), e_hh)
            mats.append(d @ v_g)
        fibers.append(np.array(mats))
    return FellBundle(group, m * ng, fibers, tol)


def reference_build_structure(self):
    grp = self.group
    n, size = grp.order, self.ambient_dim ** 2
    flat = [f.reshape(len(f), size) for f in self.fibers]
    conj = [f.conj() for f in flat]

    def project(g, rows):
        """`coords` in A_g of every flattened matrix in `rows` at once (the
        einsum keeps the sums of `coords`, so the coordinates are bitwise
        the same), and the HS norm of what each leaves out."""
        c = np.einsum("kx,...x->...k", conj[g], rows)
        return c, np.linalg.norm(rows - c @ flat[g], axis=-1)

    # product tensor: prod[g][h][i, j, :] = coords of b_i^g b_j^h in A_{gh},
    # one batched product and one projection per pair (g, h); the grading
    # residual is absolute, i.e. relative to the HS-unit factors, so a
    # product that vanishes up to rounding stays small
    prod = [[None] * n for _ in range(n)]
    self.grading_residual = np.zeros((n, n))
    for g in grp.elements():
        for h in grp.elements():
            p = self.fibers[g][:, None] @ self.fibers[h][None, :]
            prod[g][h], miss = project(
                grp.mul(g, h), p.reshape(self.dims[g], self.dims[h], size))
            self.grading_residual[g, h] = miss.max(initial=0.0)
    # star tensor: star[g][i, :] = coords of (b_i^g)^* in A_{g^-1}, with the
    # residual relative to each adjoint
    star = []
    self.involution_residual = np.zeros(n)
    for g in grp.elements():
        adj = self.fibers[g].conj().transpose(0, 2, 1).reshape(self.dims[g], size)
        c, miss = project(grp.inv(g), adj)
        scale = np.linalg.norm(adj, axis=-1)
        star.append(c)
        self.involution_residual[g] = np.divide(
            miss, scale, out=np.zeros_like(miss), where=scale > 0).max(initial=0.0)
    # stored in the padded read-only form
    db = max(self.dims, default=0)
    self.prod_array, self.prod = stored(prod, (db, db, db))
    star_array, star_views = stored([star], (db, db))
    self.star_array, self.star_tensor = star_array[0], star_views[0]
    eye = np.eye(self.ambient_dim, dtype=np.complex128)
    self.unit_coords, self.unit_residual = self.coords(grp.identity, eye)
    self.unital = self.unital_at(self._tol)


def reference_check_saturated(bundle: FellBundle, tol: Tolerance | None = None) -> bool:
    """True iff span(A_g.A_h) = A_gh for every pair (rank test on the
    product tensor)."""
    tol = tol or DEFAULT_TOL
    for g in bundle.group.elements():
        for h in bundle.group.elements():
            gh = bundle.group.mul(g, h)
            dgh = bundle.dims[gh]
            if dgh == 0:
                continue
            t = bundle.prod[g][h].reshape(-1, dgh)
            if t.shape[0] == 0:
                return False
            if numerical_rank(t, tol) < dgh:
                return False
    return True


# -- the corpus ----------------------------------------------------------------------

CROSSED = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))


def relabeled(group: FiniteGroup, seed: int):
    """The same group with its elements renamed by a seeded permutation (the
    identity moves too); returns the group and the renaming."""
    perm = np.random.default_rng(seed).permutation(group.order)
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return make_from_table(table.tolist()), perm


def crossed_system(k: int, m: int):
    """M_k x| Z_m with Z_m acting by Ad(diag(1, w, .., w^(k-1))) on the
    matrix units, over a relabeled Z_m, as the benchmark builds it."""
    group, perm = relabeled(make_cyclic(m), 10 * k + m)
    basis = np.zeros((k * k, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            basis[i * k + j, i, j] = 1.0
    w = np.exp(2j * np.pi / m)
    autos = [None] * m
    for g in range(m):
        autos[perm[g]] = np.diag([w ** ((i - j) * g) for i in range(k) for j in range(k)])
    return basis, group, autos


SYSTEMS = {"swap": swap_system, "ad": ad_diag_system,
           **{f"M{k}xZ{m}": (lambda k=k, m=m: crossed_system(k, m)) for k, m in CROSSED}}


def _non_graded():
    g = make_cyclic(2)
    rng = np.random.default_rng(1)
    bad = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return FellBundle(g, 2, [regular_unitary(g, 0)[None], bad[None]])


def _unsaturated():
    """Z2 graded M_3 with A_e the diagonal and A_1 = span(E12, E21):
    A_1 A_1 = span(E11, E22) is not all of A_e."""
    unit = np.eye(3)
    diag = np.array([np.outer(unit[i], unit[i]) for i in range(3)])
    odd = np.array([np.outer(unit[0], unit[1]), np.outer(unit[1], unit[0])])
    return FellBundle(make_cyclic(2), 3, [diag, odd])


@pytest.fixture(scope="module")
def bundles():
    out = {f"Z{n}": group_bundle(make_cyclic(n)) for n in range(2, 13)}
    out["S3"] = group_bundle(symmetric_group(3))
    out["S4"] = group_bundle(symmetric_group(4))
    out["relabeled S3"] = group_bundle(relabeled(symmetric_group(3), 5)[0])
    out.update({name: dynamical_bundle(*system()) for name, system in SYSTEMS.items()})
    out["zero fiber"] = FellBundle(make_cyclic(2), 1, [np.ones((1, 1, 1)), np.zeros((0, 1, 1))])
    out["zero fibers in M_2"] = FellBundle(
        make_cyclic(3), 2, [M2_BASIS, np.zeros((0, 2, 2)), np.zeros((0, 2, 2))])
    out["non-graded"] = _non_graded()
    out["unsaturated"] = _unsaturated()
    return out


# -- construction agrees with the loops ----------------------------------------------

def test_dynamical_fibers_are_bitwise_those_of_the_loop():
    for name, system in SYSTEMS.items():
        got, want = dynamical_bundle(*system()), reference_dynamical_bundle(*system())
        assert got.dims == want.dims, name
        for g in got.group.elements():
            assert got.fibers[g].tobytes() == want.fibers[g].tobytes(), (name, g)


def test_regular_unitaries_match_the_loop():
    for group in (make_cyclic(5), symmetric_group(4), relabeled(symmetric_group(3), 2)[0]):
        for g in group.elements():
            assert np.array_equal(regular_unitary(group, g), reference_regular_unitary(group, g))
        got = group_bundle(group)
        root = np.sqrt(group.order)
        want = FellBundle(group, group.order, [reference_regular_unitary(group, g)[None] / root
                                               for g in group.elements()])
        # the bundle orthonormalizes unnormalized unitaries with one SVD per
        # fiber; group_bundle passes them normalized, equal up to rounding
        svd = FellBundle(group, group.order, [reference_regular_unitary(group, g)[None]
                                              for g in group.elements()])
        for g in group.elements():
            assert got.fibers[g].tobytes() == want.fibers[g].tobytes()
            assert np.abs(got.fibers[g] - svd.fibers[g]).max() <= 1e-15


def test_structure_tensors_match_the_loop(bundles):
    for name, got in bundles.items():
        want = copy.copy(got)
        reference_build_structure(want)
        grp = got.group
        for g in grp.elements():
            assert got.star_tensor[g].shape == want.star_tensor[g].shape, (name, g)
            assert np.abs(got.star_tensor[g] - want.star_tensor[g]).max(initial=0.0) <= 1e-12
            for h in grp.elements():
                assert got.prod[g][h].shape == want.prod[g][h].shape, (name, g, h)
                assert np.abs(got.prod[g][h] - want.prod[g][h]).max(initial=0.0) <= 1e-12, \
                    (name, g, h)
        assert np.abs(got.grading_residual - want.grading_residual).max() <= 1e-15, name
        assert np.abs(got.involution_residual - want.involution_residual).max() <= 1e-15, name
        assert got.unit_residual == want.unit_residual and got.unital == want.unital, name
    assert not validate_bundle(bundles["non-graded"]).ok
    assert bundles["non-graded"].grading_residual.max() > 0.1


def test_saturation_matches_the_loop(bundles):
    verdicts = {}
    for name, b in bundles.items():
        verdicts[name] = check_saturated(b)
        assert verdicts[name] == reference_check_saturated(b), name
        loose = Tolerance(rel_rank=0.5)
        assert check_saturated(b, loose) == reference_check_saturated(b, loose), name
    assert not verdicts["zero fiber"] and not verdicts["zero fibers in M_2"]
    assert not verdicts["unsaturated"]
    assert verdicts["S4"] and verdicts["M4xZ2"] and verdicts["swap"]


# -- the automorphism battery raises the loop's first error --------------------------

def _c2():
    return np.array([E11, E22])


UPPER = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])  # span(1, E12): not *-closed
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

DEFECTIVE = {
    "dependent basis": (np.array([E11, E11]), make_cyclic(2), [np.eye(2)] * 2),
    "wrong alpha shape": (_c2(), make_cyclic(2), [np.eye(2), np.eye(3)]),
    "too few automorphisms": (_c2(), make_cyclic(3), [np.eye(2)] * 2),
    "image of a* leaves A": (UPPER, make_cyclic(2), [np.eye(2)] * 2),
    # alpha_0 sends both basis elements to 1, so its images stay in A and
    # the basis's own adjoint is the first defect
    "not *-closed": (UPPER, make_cyclic(2), [np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2)]),
    "not *-preserving": (_c2(), make_cyclic(2), [np.eye(2), 1j * np.eye(2)]),
    "not multiplicatively closed": (np.array([E11, SWAP]), make_cyclic(2), [np.eye(2)] * 2),
    "not multiplicative": (_c2(), make_cyclic(2), [np.eye(2), SHEAR]),
    "alpha_e not the identity": (_c2(), make_cyclic(2), [SWAP, np.eye(2)]),
    "not an action": (_c2(), make_cyclic(3), [np.eye(2), SWAP, SWAP]),
    # two defects: alpha_1 fails multiplicativity (the last check of g = 1),
    # alpha_2 the *-preservation (an earlier check, of a later g)
    "two defects across g": (_c2(), make_cyclic(3), [np.eye(2), SHEAR, 1j * np.eye(2)]),
    # two defects: i = 0 fails multiplicativity at j = 1, i = 1 fails the
    # *-preservation, and the action law fails too
    "two defects across i": (_c2(), make_cyclic(2),
                             [np.eye(2), np.array([[1.0, 0.0], [1.0, 1j]])]),
    "identity relabeled": (_c2(), relabeled(make_cyclic(3), 1)[0], [np.eye(2), SHEAR, SWAP]),
    # two defects: the basis (1, E11, E12 + E21) is not multiplicatively
    # closed at i = 1, a check of g = 0, while alpha_1 already fails the
    # *-preservation at i = 0
    "two defects across g and i": (np.array([np.eye(2), E11, SWAP]), make_cyclic(2),
                                   [np.eye(3), 1j * np.eye(3)]),
    # two defects: alpha_0 = 2 fails multiplicativity at (i, j) = (0, 0),
    # before the basis fails closure at (0, 1)
    "two defects across j": (np.array([E11, SWAP]), make_cyclic(2), [2 * np.eye(2), np.eye(2)]),
}


def _raised(build, system):
    with pytest.raises(ValueError) as info:
        build(*system)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", list(DEFECTIVE))
def test_defective_systems_raise_the_first_error_of_the_loop(name):
    system = DEFECTIVE[name]
    assert _raised(dynamical_bundle, system) == _raised(reference_dynamical_bundle, system)


def test_each_check_of_the_battery_is_covered():
    seen = {_raised(reference_dynamical_bundle, system) for system in DEFECTIVE.values()}
    messages = {msg.replace("alpha_1", "alpha_g").replace("alpha_0", "alpha_g")
                for _, msg in seen}
    assert messages == {
        "algebra basis must be linearly independent",
        "need one k x k matrix per group element",
        "alpha_g image of a* leaves A",
        "algebra basis is not *-closed",
        "alpha_g is not *-preserving",
        "algebra basis is not multiplicatively closed",
        "alpha_g is not multiplicative",
        "alpha_e must be the identity",
        "alpha is not a group action",
    }
    assert _raised(reference_dynamical_bundle, DEFECTIVE["two defects across g"]) == \
        (NotAutomorphismError, "alpha_1 is not multiplicative")
    assert _raised(reference_dynamical_bundle, DEFECTIVE["two defects across g and i"]) == \
        (ValueError, "algebra basis is not multiplicatively closed")


# -- memory and huge entries -----------------------------------------------------------

def test_group_bundle_construction_memory_is_small():
    group = symmetric_group(4)
    tracemalloc.start()
    try:
        group_bundle(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, peak


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_finite_fiber_entries_build_without_overflow_warnings():
    group = make_cyclic(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b = FellBundle(group, 2, [1e308 * regular_unitary(group, g)[None]
                                  for g in group.elements()])
    for g in group.elements():
        assert np.allclose(b.fibers[g][0], regular_unitary(group, g) / np.sqrt(2))
    assert validate_bundle(b).ok
