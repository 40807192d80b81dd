"""The guards that check tensor identities over all group elements at once,
against the per-element loops they replaced.

Each `loop_*` function keeps the old loops verbatim as the oracle.  On a
passing input and on broken ones, both routes must raise the same exception
class with the same message (or return the same verdict); for
check_subbundle_and_expectation every item must also give the same verdict
and detail, with residuals within 1e-12 relative to max(1, |residual|).  Its
positivity item reads the certificate, which scales every basis element to
unit operator norm, so that residual is held to the certificate's ambient
route instead of the loop's Gram of HS-normalized elements.
"""

import numpy as np
import pytest

from fellbundles.actions import CompatibilityViolationError, NotStarRepError, dynsys_action, \
    l2_action, rep_action
from fellbundles.bundles import BundleMap, FellBundle, bundles_equal, dynamical_bundle, \
    group_bundle, projection_expectation, regular_unitary
from fellbundles.correspondences import InvalidBundleError, _check_invariant, \
    _generating_vectors, attach_left_action, build_module
from fellbundles.groups import GroupHom, identity_hom, make_cyclic, symmetric_group, trivial_hom
from fellbundles.hilbundles import HilbertModule, ShapeMismatchError, check_unitary_bundle_map, \
    l2_bundle, trivial_hilbert_bundle, trivial_module
from fellbundles.numerics import DEFAULT_TOL, frob, one_block, orthonormal_basis, relative
from fellbundles.pdmaps import check_subbundle_and_expectation, pd_check_exact
from fellbundles.reports import Report

from test_actions import hilbert_space_module
from test_bundles import swap_system
from test_numerics import numerical_rank, psd_verdict


def outcome(fn, *args):
    """(exception class, message) of a guard, or ("returned", its value)."""
    try:
        out = fn(*args)
    except (ValueError, InvalidBundleError) as exc:
        return type(exc), str(exc)
    return "returned", out if isinstance(out, bool) else None


# -- actions.rep_action ---------------------------------------------------------

def loop_rep_action_checks(source, pi, module):
    grp = source.group
    pi = [np.asarray(p, dtype=np.complex128) for p in pi]
    for g in grp.elements():
        if pi[g].shape != (source.dims[g], module.dim, module.dim):
            raise NotStarRepError(f"pi[{g}] has the wrong shape")
    # multiplicativity
    for g in grp.elements():
        for g2 in grp.elements():
            comp = np.einsum("iuw,jwv->ijuv", pi[g], pi[g2])
            via = np.einsum("ijk,kuv->ijuv", source.prod[g][g2], pi[grp.mul(g, g2)])
            if frob(comp - via) > 1e-8 * max(frob(comp), 1.0):
                raise NotStarRepError("pi is not multiplicative")
    # adjoint: <pi_g(a)x, y>_B = <x, pi_{g^-1}(a*)y>_B
    for g in grp.elements():
        ginv = grp.inv(g)
        lhs = np.einsum("iwu,wvk->iuvk", pi[g].conj(), module.inner)
        rhs = np.einsum("il,lwv,uwk->iuvk", source.star_tensor[g], pi[ginv], module.inner)
        if frob(lhs - rhs) > 1e-8 * max(frob(lhs), 1.0):
            raise NotStarRepError("pi is not adjoint-compatible")


def _rep_cases():
    g4 = make_cyclic(4)
    v = np.diag([1.0, 1j])
    pi = [np.array([np.linalg.matrix_power(v, g) / 2.0]) for g in range(4)]
    hom = GroupHom(g4, make_cyclic(2), [g % 2 for g in range(4)])
    src, mod = group_bundle(g4), hilbert_space_module(2)
    # conjugating by an invertible non-unitary keeps pi multiplicative
    s = np.array([[1.0, 0.5], [0.0, 1.0]])
    bent = [s @ p @ np.linalg.inv(s) for p in pi]
    s3 = symmetric_group(3)
    sign = group_bundle(s3)
    units = [np.array([regular_unitary(s3, g)]) / np.sqrt(6) for g in s3.elements()]
    return {
        "z4 to z2": (src, pi, mod, hom),
        "non-multiplicative pi": (src, [2.0 * p for p in pi], mod, hom),
        "perturbed pi": (src, [p + 1e-3 * (g == 3) for g, p in enumerate(pi)], mod, hom),
        "not adjoint-compatible pi": (src, bent, mod, hom),
        "s3 regular": (sign, units, hilbert_space_module(6), trivial_hom(s3, make_cyclic(1))),
        "s3 wrong shape": (sign, units[:5] + [units[5][:, :5]], hilbert_space_module(6),
                           trivial_hom(s3, make_cyclic(1))),
    }


@pytest.mark.parametrize("name", list(_rep_cases()))
def test_rep_action_guard_matches_its_loops(name):
    src, pi, mod, hom = _rep_cases()[name]
    want = outcome(loop_rep_action_checks, src, pi, mod)
    got = outcome(rep_action, src, pi, mod, hom)
    assert got[0] == want[0] and (got[0] == "returned" or got[1] == want[1]), (name, got, want)
    assert (want[0] == "returned") == (name in ("z4 to z2", "s3 regular")), (name, want)


# -- actions.dynsys_action ------------------------------------------------------

def loop_dynsys_checks(module, gamma, sigma, omega, hom):
    _, grp_g, alpha = sigma
    _, _, beta = omega
    gamma = [np.asarray(gm, dtype=np.complex128) for gm in gamma]
    mx = module.dim
    e = grp_g.identity
    if frob(gamma[e] - np.eye(mx)) > 1e-10 * mx:
        raise CompatibilityViolationError("gamma_e must be the identity")
    for g in grp_g.elements():
        for g2 in grp_g.elements():
            if frob(gamma[g] @ gamma[g2] - gamma[grp_g.mul(g, g2)]) > 1e-8 * mx:
                raise CompatibilityViolationError("gamma is not a homomorphism")
    alpha = [np.asarray(a) for a in alpha]
    beta = [np.asarray(b) for b in beta]
    ka, kb = len(module.left), module.right.shape[0]
    for g in grp_g.elements():
        hg = hom(g)
        for i in range(ka):
            lhs = gamma[g] @ module.left[i]
            rhs = np.einsum("k,kuv->uv", alpha[g][:, i], module.left) @ gamma[g]
            if frob(lhs - rhs) > 1e-8 * max(frob(lhs), 1.0):
                raise CompatibilityViolationError("gamma(a.x) = alpha(a).gamma(x) fails")
        for j in range(kb):
            lhs = gamma[g] @ module.right[j]
            rhs = np.einsum("k,kuv->uv", beta[hg][:, j], module.right) @ gamma[g]
            if frob(lhs - rhs) > 1e-8 * max(frob(lhs), 1.0):
                raise CompatibilityViolationError("gamma(x.b) = gamma(x).beta(b) fails")
        lhs = np.einsum("uw,uvk,vz->wzk", gamma[g].conj(), module.inner, gamma[g])
        rhs = np.einsum("uvk,lk->uvl", module.inner, beta[hg])
        if frob(lhs - rhs) > 1e-8 * max(frob(rhs), 1.0):
            raise CompatibilityViolationError("<gamma x, gamma y> = beta(<x,y>) fails")


def _dynsys_cases():
    basis, grp, alpha = swap_system()
    swap = (basis, grp, alpha)
    still = (basis, grp, [np.eye(2), np.eye(2)])
    mod = trivial_module(basis)
    rng = np.random.default_rng(3)
    bump = 1e-3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    hom = identity_hom(grp)
    # scalars on C^2 through an involution that is not unitary: every
    # compatibility holds but the isometry
    scalars = np.array([[[1.0]]])
    plain = [np.eye(1), np.eye(1)]
    c2 = hilbert_space_module(2)
    c2 = HilbertModule(scalars, 2, c2.right, c2.inner, left_basis=scalars, left=np.eye(2)[None])
    tilt = np.array([[1.0, 1.0], [0.0, -1.0]])
    z4 = make_cyclic(4)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    return {
        "swap": (mod, [np.eye(2), alpha[1]], swap, swap, hom),
        "perturbed gamma": (mod, [np.eye(2), alpha[1] + bump], swap, swap, hom),
        "gamma_e not the identity": (mod, [np.eye(2) + bump, alpha[1]], swap, swap, hom),
        "left action not covariant": (mod, [np.eye(2), np.eye(2)], swap, swap, hom),
        "right action not covariant": (mod, [np.eye(2), np.eye(2)], still, swap, hom),
        "not isometric": (c2, [np.eye(2), tilt], (scalars, grp, plain), (scalars, grp, plain),
                          hom),
        "z4 rotation": (c2, [np.linalg.matrix_power(quarter, g) for g in range(4)],
                        (scalars, z4, [np.eye(1)] * 4), (scalars, z4, [np.eye(1)] * 4),
                        identity_hom(z4)),
        "z4 rotation scaled at 3": (c2, [np.linalg.matrix_power(quarter, g) * (1.5 if g == 3
                                                                             else 1.0)
                                         for g in range(4)],
                                    (scalars, z4, [np.eye(1)] * 4),
                                    (scalars, z4, [np.eye(1)] * 4), identity_hom(z4)),
    }


@pytest.mark.parametrize("name", list(_dynsys_cases()))
def test_dynsys_action_guard_matches_its_loops(name):
    args = _dynsys_cases()[name]
    want = outcome(loop_dynsys_checks, *args)
    got = outcome(dynsys_action, *args)
    assert got[0] == want[0] and (got[0] == "returned" or got[1] == want[1]), (name, got, want)
    assert (want[0] == "returned") == (name in ("swap", "z4 rotation")), (name, want)


# -- hilbundles.check_unitary_bundle_map ----------------------------------------

def loop_check_unitary_bundle_map(u_maps, x, x2):
    if not bundles_equal(x.bundle, x2.bundle):
        raise ShapeMismatchError("bundles must agree")
    grp = x.bundle.group
    u = [np.asarray(m, dtype=np.complex128) for m in u_maps]
    for g in grp.elements():
        if u[g].shape != (x2.dims[g], x.dims[g]):
            raise ShapeMismatchError(f"U_{g} has the wrong shape")
        if x.dims[g] != x2.dims[g]:
            return False
        if x.dims[g] and numerical_rank(u[g]) < x.dims[g]:
            return False
    for g in grp.elements():
        for h in grp.elements():
            gh = grp.mul(g, h)
            lhs = np.einsum("iuv,vw->iuw", x2.act[g][h], u[g])
            rhs = np.einsum("uv,ivw->iuw", u[gh], x.act[g][h])
            if relative(frob(lhs - rhs), frob(rhs)) > 1e-7:
                return False
        for s in grp.elements():
            lhs = np.einsum("wu,wzk,zv->uvk", u[g].conj(), x2.inner[g][s], u[s])
            if relative(frob(lhs - x.inner[g][s]), frob(x.inner[g][s])) > 1e-7:
                return False
    return True


def _unitary_cases():
    x = trivial_hilbert_bundle(dynamical_bundle(*swap_system()))
    y = l2_bundle(group_bundle(symmetric_group(3)))
    rng = np.random.default_rng(5)
    eye = [np.eye(d) for d in x.dims]
    phase = [np.exp(0.3j) * np.eye(d) for d in y.dims]
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    return {
        "identity": (eye, x, x),
        "global phase": (phase, y, y),
        "non-unitary U": ([2.0 * m for m in eye], x, x),
        "slightly non-unitary U": ([m * (1 + 1e-6 * (g == 1)) for g, m in enumerate(eye)], x, x),
        "unitary not intertwining": ([q] * 6, y, y),
        "singular U": ([np.zeros_like(m) for m in eye], x, x),
    }


@pytest.mark.parametrize("name", list(_unitary_cases()))
def test_unitary_bundle_map_guard_matches_its_loops(name):
    args = _unitary_cases()[name]
    want = outcome(loop_check_unitary_bundle_map, *args)
    got = outcome(check_unitary_bundle_map, *args)
    assert got == want, (name, got, want)
    assert want == ("returned", name in ("identity", "global phase")), (name, want)


# -- correspondences.subcorrespondence ------------------------------------------

def loop_check_invariant(y, basis):
    grp = y.bundle.group
    hb = y.hbundle
    rho = y.action
    for r in grp.elements():
        for h in grp.elements():
            rh = grp.mul(r, h)
            for i in range(y.bundle.dims[h]):
                img = hb.act[r][h][i] @ basis[r]
                res = img - basis[rh] @ (basis[rh].conj().T @ img)
                if frob(res) > 1e-7 * max(1.0, frob(img)):
                    raise InvalidBundleError("span is not right-invariant")
    src = rho.source
    for g in src.group.elements():
        for h in grp.elements():
            out_f = grp.mul(rho.hom(g), h)
            for i in range(src.dims[g]):
                img = rho.ops[g][h][i] @ basis[h]
                res = img - basis[out_f] @ (basis[out_f].conj().T @ img)
                if frob(res) > 1e-7 * max(1.0, frob(img)):
                    raise InvalidBundleError("span is not left-invariant")


def _correspondence(bundle, seed):
    rho = l2_action(bundle)
    return attach_left_action(build_module(rho.target), rho, seed=seed)


def _invariance_cases():
    s3 = _correspondence(group_bundle(symmetric_group(3)), 21)
    swap = _correspondence(dynamical_bundle(*swap_system()), 22)
    rng = np.random.default_rng(23)

    def random_spans(y, k):
        return [np.linalg.qr(rng.standard_normal((m, min(k, m))))[0] for m in y.hbundle.dims]

    e = s3.bundle.group.identity
    unit = np.zeros(s3.hbundle.dims[e])
    unit[0] = 1.0
    full = [np.eye(m) for m in swap.hbundle.dims]
    # the right action of a group bundle moves fibers without mixing
    # coordinates, so the same coordinate subspace in every fiber is
    # right-invariant; the left action mixes it
    diagonal = [np.eye(m)[:, :2] for m in s3.hbundle.dims]
    return {
        "s3 full fibers": (s3, [np.eye(m) for m in s3.hbundle.dims]),
        "swap full fibers": (swap, full),
        "s3 random spans": (s3, random_spans(s3, 3)),
        "swap random spans": (swap, random_spans(swap, 2)),
        "s3 coordinate spans": (s3, diagonal),
        "s3 zero spans": (s3, [np.zeros((m, 0)) for m in s3.hbundle.dims]),
        "s3 generated by a unit vector": (s3, [orthonormal_basis(v, DEFAULT_TOL).T
                                               for v in _generating_vectors(s3, unit)]),
    }


@pytest.mark.parametrize("name", list(_invariance_cases()))
def test_invariance_guard_matches_its_loops(name):
    y, basis = _invariance_cases()[name]
    want = outcome(loop_check_invariant, y, basis)
    got = outcome(_check_invariant, y, basis)
    assert got[0] == want[0] and (got[0] == "returned" or got[1] == want[1]), (name, got, want)
    invariant = ("s3 full fibers", "swap full fibers", "s3 zero spans",
                 "s3 generated by a unit vector")
    assert (want[0] == "returned") == (name in invariant), (name, want)


# -- pdmaps.check_subbundle_and_expectation -------------------------------------

def loop_check_subbundle_and_expectation(exp, tol=DEFAULT_TOL):
    sup, sub = exp.source, exp.target
    grp = sup.group
    rep = Report("conditional expectation")

    worst = 0.0
    for g in grp.elements():
        for b in sub.fibers[g]:
            _, res = sup.coords(g, b)
            worst = max(worst, res)
    rep.add("sub-bundle containment B_g in A_g", worst <= 10 * tol.rel_rank, worst)

    worst = 0.0
    for g in grp.elements():
        for j in range(sub.dims[g]):
            c, _ = sup.coords(g, sub.fibers[g][j])
            diff = exp.apply(g, c) - np.eye(sub.dims[g])[j]
            worst = max(worst, float(np.linalg.norm(diff)))
    rep.add("idempotence: E restricted to B is the identity",
            worst <= 1e-8, worst)

    worst = 0.0
    for gl in grp.elements():
        for g in grp.elements():
            for gr in grp.elements():
                out = grp.mul(grp.mul(gl, g), gr)
                for b in sub.fibers[gl]:
                    for a in sup.fibers[g]:
                        for b2 in sub.fibers[gr]:
                            lhs = exp.apply_ambient(out, b @ a @ b2)
                            rhs = b @ exp.apply_ambient(g, a) @ b2
                            scale = max(frob(b @ a @ b2), 1.0)
                            worst = max(worst, frob(lhs - rhs) / scale)
    rep.add("bimodularity E(b a b') = b E(a) b'", worst <= 1e-7, worst)

    pairs = [(g, i) for g in grp.elements() for i in range(sup.dims[g])]
    namb = sup.ambient_dim
    big = np.zeros((len(pairs) * namb, len(pairs) * namb), dtype=np.complex128)
    for p, (g, i) in enumerate(pairs):
        for q, (g2, i2) in enumerate(pairs):
            k = grp.mul(grp.inv(g), g2)
            val = exp.apply_ambient(k, sup.fibers[g][i].conj().T @ sup.fibers[g2][i2])
            big[p * namb:(p + 1) * namb, q * namb:(q + 1) * namb] = val
    ok, residual, hermitian = psd_verdict(big, tol)
    rep.add("positivity of induced semi-inner product", ok, residual,
            "" if hermitian else "Gram is not Hermitian")
    return rep


def _expectation_cases():
    z2 = group_bundle(make_cyclic(2))
    sup = dynamical_bundle(*swap_system())
    grp = sup.group
    sub = FellBundle(grp, 4, [np.eye(4)[None],
                              np.kron(np.eye(2), regular_unitary(grp, 1))[None]])
    onto_group = projection_expectation(sup, sub)
    rng = np.random.default_rng(31)
    # add a map that kills B_g's coordinates but not the rest of A_g:
    # idempotent on B, no longer bimodular
    skew = []
    for g, m in enumerate(onto_group.mats):
        c, _ = sup.coords(g, sub.fibers[g][0])
        w = rng.standard_normal(sup.dims[g]) + 1j * rng.standard_normal(sup.dims[g])
        w -= (c.conj() @ w) / (c.conj() @ c) * c
        skew.append(m + 0.5 * np.outer(np.ones(sub.dims[g]), w.conj()))
    s3 = group_bundle(symmetric_group(3))
    return {
        "identity on z2": projection_expectation(z2, z2),
        "onto the group bundle of the swap product": onto_group,
        "identity on s3": projection_expectation(s3, s3),
        "not idempotent": BundleMap(z2, z2, identity_hom(z2.group), [
            0.5 * m for m in projection_expectation(z2, z2).mats]),
        "not bimodular": BundleMap(sup, sub, identity_hom(grp), skew),
        "not a sub-bundle": projection_expectation(sub, FellBundle(
            grp, 4, [np.eye(4)[None], np.kron(np.diag([1.0, -1.0]), np.eye(2))[None]])),
        "not positive": not_positive_expectation(),
    }


def not_positive_expectation():
    """Over the one-point group, E(x1 E11 + x2 E22) = (2 x1 - x2) 1 from the
    diagonal of M_2 onto the scalars: the identity on the scalars and
    bimodular over them, but E(E22) = -1."""
    point = make_cyclic(1)
    diagonal = FellBundle(point, 2, [np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])])
    scalars = FellBundle(point, 2, [np.eye(2)[None] / np.sqrt(2)])
    return BundleMap(diagonal, scalars, identity_hom(point),
                     [np.array([[2.0, -1.0]]) * np.sqrt(2)])


@pytest.mark.parametrize("name", list(_expectation_cases()))
def test_expectation_guard_matches_its_loops(name):
    exp = _expectation_cases()[name]
    want = loop_check_subbundle_and_expectation(exp)
    got = check_subbundle_and_expectation(exp)
    assert [i.name for i in got.items] == [i.name for i in want.items]
    ambient = pd_check_exact(exp, blocks=one_block(exp.target.ambient_dim))
    positivity = max(0.0, -ambient.margin) if ambient.hermitian else ambient.hermitian_defect
    for g, w in zip(got.items, want.items):
        assert g.ok == w.ok and g.detail == w.detail, (name, g.name)
        residual = positivity if g.name.startswith("positivity") else w.residual
        assert abs(g.residual - residual) <= 1e-12 * max(1.0, abs(residual)), (
            name, g.name, g.residual, residual)
    failing = {i.name.split(":")[0].split(" ")[0] for i in want.items if not i.ok}
    assert failing == {"identity on z2": set(), "identity on s3": set(),
                       "onto the group bundle of the swap product": set(),
                       "not idempotent": {"idempotence"},
                       "not bimodular": {"bimodularity", "positivity"},
                       "not a sub-bundle": {"sub-bundle", "idempotence", "bimodularity"},
                       "not positive": {"positivity"},
                       }[name], (name, failing)


def test_idempotent_and_bimodular_are_not_enough():
    exp = not_positive_expectation()
    assert exp.apply_ambient(0, np.diag([0.0, 1.0])) == pytest.approx(-np.eye(2))
    rep = check_subbundle_and_expectation(exp)
    assert [item.name for item in rep.failures()] == ["positivity of induced semi-inner product"]
    assert rep.failures()[0].residual == pytest.approx(1.0, rel=1e-12)
    cert = pd_check_exact(exp)
    assert cert.margin == pytest.approx(-1.0, rel=1e-12)
    assert cert.witness is not None
    assert np.linalg.eigvalsh((cert.witness_sum + cert.witness_sum.conj().T) / 2)[0] < 0
