"""Left actions of one bundle on a Hilbert bundle over another.

An action stores one operator tensor per (source element g, target fiber
h): ops[g][h] has shape (dim A_g, m_{phi(g)h}, m_h), giving the matrix of
every source basis element from fiber h into fiber phi(g)h.  Validation is
then a finite family of tensor identities: multiplicativity, adjoint
symmetry against the inner products, commutation with the right action,
and the contractivity/Gram-domination bounds on random data.  On a Hilbert
module the identities imply both bounds (Lance, Hilbert C*-Modules, 1995,
ch. 1), but both stay.  The validator does not judge its target, and the
identities are linear in the target's inner products: an action whose
target has every inner product negated passes them, and Gram domination,
whose a = 0 case is positivity of the target's Grams, refuses it when A_e
is not scalar.  Contractivity reads a one-block perturbation against the
sampled vectors, not the whole tensor, so within a factor of three of the
identity bound it can refuse what every identity passes.  Both bounds draw
from one fixed seed, so no verdict reads the command line's seed.

The operators are stored once, in the padded graded layout of `hilbundles`:
ops_array is one read-only array of shape (|G_A|, |G_B|, da, dm, dm),
zero-padded to the largest source fiber dimension da and target fiber
dimension dm, and ops[g][h] are tuples of views of its blocks.  The
validator reads it next to the stored act, inner, prod, star_tensor and
fiber bases.  Each identity is one gather through the Cayley tables,
grp.inverse and phi plus one batched matmul over all tuples (g, g', h) or
(g, h, h'); the random-data bounds draw their samples in the order of the
per-sample loop, then evaluate them together.  Batches are chunked so
their intermediates stay near numerics.CHUNK_BYTES (4 MiB).  `l2_action`
reads its operators from `bundles.regular_representations`.
`validate_module` judges a Hilbert module and its left action as bundles
over the one-point group; `coefficient_map` returns a `bundles.BundleMap`.
"""

from __future__ import annotations

import numpy as np

from .bundles import BundleMap, FellBundle, NotAutomorphismError, dynamical_bundle, \
    regular_representations, regular_unitaries
from .groups import GroupHom, identity_hom, make_cyclic
from .hilbundles import HilbertModule, SemiInnerBundle, ambient_inners, check_shapes, \
    check_unitary_bundle_map, crossed_coords, l2_bundle, module_bundle_from_dynsys, \
    regularize_bundle, separate, trivial_hilbert_bundle, validate_hilbert_bundle
from .numerics import DEFAULT_TOL, Tolerance, chunks, frob, identity_bound, judge_psd, opnorms, \
    padded, relative_residuals, stack_spectra, stored, unit_bound, worst_relative
from .reports import Report

SAMPLES = 8  # the random draws of each sampled bound of validate_action

class CompatibilityViolationError(ValueError):
    pass


class NotStarRepError(ValueError):
    pass


class NotUnitaryError(ValueError):
    pass


class WrongFiberError(ValueError):
    pass


class Action:
    """(source, hom)-action on a Hilbert bundle over the hom's target group.

    ops_array (|G_A|, |G_B|, da, dm, dm) is the stored, read-only,
    zero-padded operator tensor; ops is the tuple of views of its blocks."""

    def __init__(self, source: FellBundle, hom: GroupHom, target: SemiInnerBundle, ops):
        if hom.source != source.group or hom.target != target.bundle.group:
            raise CompatibilityViolationError("homomorphism does not connect the groups")
        self.source = source
        self.hom = hom
        self.target = target
        src, tgt = source.group, target.bundle.group
        check_shapes(ops, (src.order, tgt.order), lambda g, h: (
            source.dims[g], target.dims[tgt.mul(hom(g), h)], target.dims[h]), "ops",
            CompatibilityViolationError)
        dm = max(target.dims, default=0)
        self.ops_array, self.ops = stored(ops, (max(source.dims, default=0), dm, dm))

    def op_matrix(self, g: int, acoords, h: int) -> np.ndarray:
        """Matrix of x -> rho(a)x from X_h to X_{phi(g)h}."""
        return np.einsum("i,iuv->uv", np.asarray(acoords), self.ops[g][h])

    def apply(self, g: int, acoords, h: int, x) -> np.ndarray:
        return self.op_matrix(g, acoords, h) @ np.asarray(x)


def validate_action(rho: Action, tol: Tolerance | None = None) -> Report:
    tol = tol or DEFAULT_TOL
    bound = identity_bound(tol)
    rep = Report("action axioms")
    src = rho.source
    x = rho.target
    bundle = x.bundle
    grp, tgt = src.group, bundle.group
    order_a, order_b = grp.order, tgt.order
    tab_a, tab_b, inv_a, phi = grp.table, tgt.table, grp.inverse, rho.hom.map
    quot = tab_b[tgt.inverse]  # quot[h, h2] = h^-1 h2
    prod, star, src_fibers = src.prod_array, src.star_array, src.fiber_array
    fibers, act, inner, ops = bundle.fiber_array, x.act_array, x.inner_array, rho.ops_array
    da, db, dm = star.shape[-1], fibers.shape[1], act.shape[-1]
    ns, n = src.ambient_dim, bundle.ambient_dim

    # (i) fiber targeting and bilinearity hold by the tensor layout
    rep.add("fiber targeting (by construction)", True, 0.0)

    # (ii) rho(a a') = rho(a) rho(a')
    def multiplicative(idx):
        g, g2, h = np.unravel_index(idx, (order_a, order_a, order_b))
        comp = ops[g, tab_b[phi[g2], h]][:, :, None] @ ops[g2, h][:, None]  # (i, j, u, v)
        via = prod[g, g2].reshape(-1, da * da, da) @ ops[tab_a[g, g2], h].reshape(-1, da, dm * dm)
        return comp, via

    worst = worst_relative(order_a ** 2 * order_b, (da * dm) ** 2, multiplicative)
    rep.add("multiplicativity rho(aa') = rho(a)rho(a')", worst <= bound, worst)

    # (iii) <rho(a)x, y> = <x, rho(a*)y>; so[g, h2] = rho(a_i^{g*}) on X_h2
    so = (star[:, None] @ ops[inv_a].reshape(order_a, order_b, da, dm * dm)).reshape(
        order_a, order_b, da, dm, dm)

    def adjoint(idx):
        g, h, h2 = np.unravel_index(idx, (order_a, order_b, order_b))
        lhs = ops[g, h].conj().transpose(0, 1, 3, 2) \
            @ inner[tab_b[phi[g], h], h2].reshape(-1, 1, dm, dm * db)  # (i, u, (v, k))
        back = tab_b[phi[inv_a[g]], h2]
        rhs = inner[h, back].transpose(0, 1, 3, 2).reshape(-1, 1, dm * db, dm) \
            @ so[g, h2]  # (i, (u, k), v)
        return lhs, rhs.reshape(-1, da, dm, db, dm).transpose(0, 1, 2, 4, 3)

    worst = worst_relative(order_a * order_b ** 2, da * dm * dm * db, adjoint)
    rep.add("adjoint symmetry <rho(a)x,y> = <x,rho(a*)y>", worst <= bound, worst)

    # (iv) (rho(a)x) b = rho(a)(x b)
    def commuting(idx):
        g, h, h2 = np.unravel_index(idx, (order_a, order_b, order_b))
        lhs = act[tab_b[phi[g], h], h2][:, None] @ ops[g, h][:, :, None]  # (i, j, w, v)
        rhs = ops[g, tab_b[h, h2]][:, :, None] @ act[h, h2][:, None]
        return lhs, rhs

    worst = worst_relative(order_a * order_b ** 2, da * db * dm * dm, commuting)
    rep.add("right-module commutation (rho(a)x)b = rho(a)(xb)", worst <= bound, worst)

    def applied(g, a, h, v):
        """rho(a_t) v_t from X_{h_t} to X_{phi(g_t) h_t}, per sample."""
        return ((a[:, None] @ ops[g, h].reshape(-1, da, dm * dm)).reshape(-1, dm, dm)
                @ v[:, :, None])[..., 0]

    def norms(g, a):
        """||a_t|| for a_t in A_{g_t}, per sample."""
        return opnorms((a[:, None] @ src_fibers[g].reshape(-1, da, ns * ns)).reshape(-1, ns, ns))

    def grams(hs, vecs):
        """The 3 x 3 matrices of ambient blocks [<v_i, v_j>]_ij, v_i in X_{h_i}."""
        left, right = np.repeat([0, 1, 2], 3), np.tile([0, 1, 2], 3)
        vals = ambient_inners(inner, fibers, quot, hs[:, left].ravel(),
                              vecs[:, left].reshape(-1, dm), hs[:, right].ravel(),
                              vecs[:, right].reshape(-1, dm))
        return vals.reshape(-1, 3, 3, n, n).transpose(0, 1, 3, 2, 4).reshape(-1, 3 * n, 3 * n)

    # ||rho(a)x|| <= ||a|| ||x|| on random data, drawn in loop order from a
    # fixed seed
    rng = np.random.default_rng(0)
    draws = []
    for _ in range(SAMPLES):
        g = int(rng.integers(grp.order))
        h = int(rng.integers(tgt.order))
        if src.dims[g] == 0 or x.dims[h] == 0:
            continue
        draws.append((g, h, src.random_coords(g, rng), x.random_vector(h, rng)))
    gs, hs = (np.array([d[k] for d in draws], dtype=int) for k in (0, 1))
    a = padded([[d[2] for d in draws]], (da,))[0]
    v = padded([[d[3] for d in draws]], (dm,))[0]
    worst = 0.0
    for idx in chunks(len(draws), 2 * (n * n + dm * dm * db) + da * dm * dm):
        g, h = gs[idx], hs[idx]
        out, w = tab_b[phi[g], h], applied(g, a[idx], h, v[idx])
        nvv, nww = opnorms(np.concatenate([
            ambient_inners(inner, fibers, quot, h, v[idx], h, v[idx]),
            ambient_inners(inner, fibers, quot, out, w, out, w)])).reshape(2, -1)
        limit = norms(g, a[idx]) * np.sqrt(nvv)
        slack = (np.sqrt(nww) - limit) / np.maximum(limit, 1.0)
        worst = max(worst, float(slack.max(initial=0.0)))
    rep.add("contractivity ||rho(a)x|| <= ||a|| ||x||", worst <= bound, worst)

    # Gram domination S <= ||a||^2 R for a in the unit fiber, judged on the
    # 3 x 3 matrices of ambient blocks (one fiber element per block:
    # faithful) divided by the size of the two compared blocks,
    # max(1, ||a||^2 ||R||, ||S||)
    worst = 0.0
    ok = True
    e = grp.identity
    if src.dims[e] and bundle.total_dim and dm:
        draws = []
        for _ in range(SAMPLES):
            ae = src.random_coords(e, rng)
            he = [phi[int(rng.integers(grp.order))] for _ in range(3)]
            draws.append((ae, he, [x.random_vector(h, rng) for h in he]))
        a = np.array([d[0] for d in draws])
        hs = np.array([d[1] for d in draws], dtype=int)
        xs = padded([d[2] for d in draws], (dm,))
        # per sample: nine gathered (dm, dm, db) blocks per Gram, three ops
        # blocks and a few 3n x 3n block matrices
        for idx in chunks(SAMPLES, 9 * dm * dm * db + 3 * da * dm * dm + 4 * (3 * n) ** 2):
            k = len(idx)
            ys = applied(np.full(3 * k, e), np.repeat(a[idx], 3, axis=0), hs[idx].ravel(),
                         xs[idx].reshape(-1, dm)).reshape(k, 3, dm)
            big_r, big_s = grams(hs[idx], xs[idx]), grams(hs[idx], ys)
            na2 = norms(np.full(k, e), a[idx]) ** 2
            scale = np.maximum(1.0, np.maximum(na2 * opnorms(big_r), opnorms(big_s)))
            _, slack, hermitian = judge_psd(*stack_spectra(
                (na2[:, None, None] * big_r - big_s) / scale[:, None, None]), tol)
            slack = np.where(hermitian, slack, np.inf)
            ok = ok and bool((slack <= bound).all())
            worst = max(worst, float(slack.max(initial=0.0)))
    rep.add("Gram domination S <= ||a||^2 R", ok, worst)
    return rep


def left_multiplication(bundle: FellBundle):
    """The operators of left multiplication of the bundle on itself, nested
    by (g, h): x -> b_i x from A_h to A_gh reads slice i of the product
    tensor."""
    return [[p.transpose(0, 2, 1) for p in row] for row in bundle.prod]


def trivial_action(bundle: FellBundle) -> Action:
    """Left multiplication of the bundle on itself."""
    return Action(bundle, identity_hom(bundle.group), trivial_hilbert_bundle(bundle),
                  left_multiplication(bundle))


def regularize_action(rho: Action) -> Action:
    """Shifted block-diagonal action on the regularized bundle: a in A_g
    acts as the left-regular shift of phi(g) (x) rho(a)."""
    shifts = regular_unitaries(rho.target.bundle.group).real[rho.hom.map]
    ops = [[np.kron(shift, blk) for blk in row] for shift, row in zip(shifts, rho.ops)]
    return Action(rho.source, rho.hom, regularize_bundle(rho.target), ops)


def l2_action(bundle: FellBundle) -> Action:
    """Regular-representation action on the square-summable bundle: b_i in
    A_r acts as the left regular representation, whatever the target
    fiber."""
    grp = bundle.group
    left = regular_representations(bundle)[0]
    ops = [[left[r, :d]] * grp.order for r, d in enumerate(bundle.dims)]
    return Action(bundle, identity_hom(grp), l2_bundle(bundle), ops)


def dynsys_action(module: HilbertModule, gamma, sigma, omega, hom: GroupHom,
                  tol: Tolerance | None = None) -> Action:
    """Action of the crossed-product bundle of sigma = (A, G, alpha) on the
    module bundle of omega = (B, H, beta), induced by a compatible family
    gamma of invertible isometries of the A-B correspondence:

        rho((a, g))(x, h) = (a . gamma_g(x), phi(g) h).

    sigma and omega are (algebra_basis, group, automorphism mats) triples.
    """
    tol = tol or DEFAULT_TOL
    a_basis, grp_g, alpha = sigma
    b_basis, grp_h, beta = omega
    if module.left is None:
        raise CompatibilityViolationError("module carries no left action")
    gamma = [np.asarray(gm, dtype=np.complex128) for gm in gamma]
    mx = module.dim

    e = grp_g.identity
    if frob(gamma[e] - np.eye(mx)) > unit_bound(mx, tol):
        raise CompatibilityViolationError("gamma_e must be the identity")
    order, phi = grp_g.order, hom.map
    gamma, alpha, beta = np.array(gamma), np.array(alpha), np.array(beta)
    g, g2 = np.divmod(np.arange(order * order), order)
    if worst_relative(order * order, mx * mx, lambda t: (gamma[g[t]] @ gamma[g2[t]],
                      gamma[grp_g.table[g[t], g2[t]]], np.full(len(t), mx))) > identity_bound(tol):
        raise CompatibilityViolationError("gamma is not a homomorphism")

    # gamma_g c_i = (sum_k coefs[g][k, i] c_k) gamma_g for the left and right
    # operators c_i, then <gamma_g x, gamma_g y> = beta_phi(g)(<x,y>): the
    # error of the first failing check in (g, check, i) order
    def covariant(ops, coefs):
        g, i = np.divmod(np.arange(order * len(ops)), len(ops))
        return relative_residuals(len(g), mx * mx, lambda t: (
            gamma[g[t]] @ ops[i[t]],
            np.einsum("tk,kuv->tuv", coefs[g[t], :, i[t]], ops) @ gamma[g[t]])).reshape(order, -1)

    left, inner = np.asarray(module.left, dtype=np.complex128), module.inner
    fails = np.hstack([covariant(left, alpha), covariant(module.right, beta[phi]),
                       relative_residuals(order, inner.size, lambda t: (
                           np.einsum("uvk,tlk->tuvl", inner, beta[phi[t]]),
                           np.einsum("tuw,uvk,tvz->twzk", gamma[t].conj(), inner, gamma[t]))
                       )[:, None]]) > identity_bound(tol)
    if fails.any():
        check, ka = int(np.argmax(fails)) % fails.shape[1], len(left)
        raise CompatibilityViolationError(
            "gamma(a.x) = alpha(a).gamma(x) fails" if check < ka else
            "<gamma x, gamma y> = beta(<x,y>) fails" if check == fails.shape[1] - 1 else
            "gamma(x.b) = gamma(x).beta(b) fails")

    source = dynamical_bundle(a_basis, grp_g, alpha, tol)
    target = module_bundle_from_dynsys(module, grp_h, beta)

    # the algebra coordinates of the fiber basis over g: the pseudo-inverse
    # of the fiber coordinates of the elements (a_i, g)
    coords = crossed_coords(source, a_basis, alpha)
    ops = []
    for g in grp_g.elements():
        mats = np.linalg.pinv(coords[g, :source.dims[g]]).T @ left.reshape(len(left), -1)
        # the operator does not depend on the target fiber
        ops.append([mats.reshape(source.dims[g], mx, mx) @ gamma[g]] * grp_h.order)
    return Action(source, hom, target, ops)


def validate_module(x: HilbertModule, tol: Tolerance | None = None) -> Report:
    """The Hilbert-module axioms, as the bundle axioms over the one-point
    group: the items of validate_hilbert_bundle on the module as a Hilbert
    bundle (module_bundle_from_dynsys with beta = 1), then, for a module
    with a left action, the items of validate_action on that action of the
    left algebra as a one-point bundle (dynsys_action with gamma = 1).  A
    basis that is not *-closed raises ValueError("algebra basis is not
    *-closed"); one not closed under products, dynamical_bundle's."""
    tol = tol or DEFAULT_TOL
    point, rep = make_cyclic(1), Report("hilbert-module axioms")
    ident = [np.eye(len(x.algebra_basis))]  # the one automorphism of the one-point group
    try:
        if x.left is None:
            target = module_bundle_from_dynsys(x, point, ident)
        else:
            left = (x.left_basis, point, [np.eye(len(x.left_basis))])
            rho = dynsys_action(x, [np.eye(x.dim)], left, (x.algebra_basis, point, ident),
                                identity_hom(point), tol)
            target = rho.target
    except NotAutomorphismError as exc:
        # the identity sends a* out of A exactly when the basis is not *-closed
        raise ValueError("algebra basis is not *-closed") from exc
    rep.items = validate_hilbert_bundle(target, tol).items
    if x.left is not None:
        rep.items += validate_action(rho, tol).items
    return rep


def rep_action(source: FellBundle, pi, module: HilbertModule, hom: GroupHom,
               tol: Tolerance | None = None) -> Action:
    """Action induced by a *-representation of the source bundle on a
    Hilbert module: rho(a)(x, h) = (pi_g(a) x, phi(g) h).

    pi[g] has shape (dim A_g, module.dim, module.dim).  The target bundle is
    the crossed product of the module's algebra by the trivial action of the
    hom's target group.  The action must pass validate_action: the first
    failing item raises NotStarRepError.
    """
    tol = tol or DEFAULT_TOL
    grp = source.group
    pi = [np.asarray(p, dtype=np.complex128) for p in pi]
    for g in grp.elements():
        if pi[g].shape != (source.dims[g], module.dim, module.dim):
            raise NotStarRepError(f"pi[{g}] has the wrong shape")
    tgt = hom.target
    trivial_beta = [np.eye(len(module.algebra_basis))] * tgt.order
    target = module_bundle_from_dynsys(module, tgt, trivial_beta)
    rho = Action(source, GroupHom(grp, target.bundle.group, hom.map), target,
                 [[pi[g]] * tgt.order for g in grp.elements()])
    validate_action(rho, tol).refuse(NotStarRepError, "pi", _REP_ERRORS)
    return rho


# the messages of rep_action for the first failing item of validate_action
_REP_ERRORS = {
    "multiplicativity rho(aa') = rho(a)rho(a')": "pi is not multiplicative",
    "adjoint symmetry <rho(a)x,y> = <x,rho(a*)y>": "pi is not adjoint-compatible",
}


def action_to_star_rep(rho: Action):
    """Over a one-point target group, an action is exactly a *-representation;
    return its operator tensors."""
    if rho.target.bundle.group.order != 1:
        raise WrongFiberError("target group must be trivial")
    return [rho.ops[g][0] for g in rho.source.group.elements()]


def coefficient_map(rho: Action, x) -> BundleMap:
    """Diagonal matrix coefficient of an action at a unit-fiber vector:
    T_g(a) = <x, rho(a) x>."""
    tgt = rho.target.bundle.group
    e = tgt.identity
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (rho.target.dims[e],):
        raise WrongFiberError("coefficient vectors must lie in the unit fiber")
    mats = []
    for g in rho.source.group.elements():
        hg = rho.hom(g)
        cols = []
        for i in range(rho.source.dims[g]):
            img = rho.ops[g][e][i] @ x
            cols.append(rho.target.inner_coords(e, x, hg, img))
        mats.append(np.stack(cols, axis=1) if cols else
                    np.zeros((rho.target.bundle.dims[hg], 0)))
    return BundleMap(rho.source, rho.target.bundle, rho.hom, mats)


def separate_pre_action(rho0: Action, tol: Tolerance | None = None) -> Action:
    """Descend a pre-action on a semi-inner bundle to the separated bundle.

    Pre-actions must satisfy the contractivity inequality
    <rho(a)x, rho(a)x> <= ||a||^2 <x, x>  (which also sends null vectors to
    null vectors).  validate_action covers it: Gram domination on A_e with
    multiplicativity and adjoint symmetry gives it for a in A_g through a*a.
    Its first failing item raises CompatibilityViolationError.
    """
    validate_action(rho0, tol).refuse(CompatibilityViolationError, "pre-action")
    hil, quotients = separate(rho0.target, tol)
    return compress_action(rho0, [q.conj().T for q in quotients], hil)


def compress_action(rho: Action, bases, target: SemiInnerBundle) -> Action:
    """Restrict rho to the fiber subspaces spanned by the orthonormal
    columns of bases[h] (K_{phi(g)h}* rho(a) K_h, as batched matmuls),
    acting on `target`, the bundle compressed by the same bases."""
    tgt = rho.target.bundle.group
    adj = [k.conj().T for k in bases]
    ops = [[adj[tgt.mul(rho.hom(g), h)] @ rho.ops[g][h] @ bases[h] for h in tgt.elements()]
           for g in rho.source.group.elements()]
    return Action(rho.source, rho.hom, target, ops)


def transport_action(u_maps, rho: Action, x2: SemiInnerBundle | None = None,
                     tol: Tolerance | None = None) -> Action:
    """Conjugate an action through a unitary bundle map: rho'(a) U_h = U_{gh} rho(a)."""
    tol = tol or DEFAULT_TOL
    x = rho.target
    x2 = x2 if x2 is not None else x
    if not check_unitary_bundle_map(u_maps, x, x2, tol):
        raise NotUnitaryError("bundle map is not unitary")
    tgt = x.bundle.group
    phi = rho.hom
    inv = [np.linalg.pinv(np.asarray(u, dtype=np.complex128)) for u in u_maps]
    ops = [[None] * tgt.order for _ in rho.source.group.elements()]
    for g in rho.source.group.elements():
        for h in tgt.elements():
            out = tgt.mul(phi(g), h)
            ops[g][h] = np.einsum("uw,iwz,zv->iuv",
                                  np.asarray(u_maps[out]), rho.ops[g][h], inv[h])
    return Action(rho.source, phi, x2, ops)
