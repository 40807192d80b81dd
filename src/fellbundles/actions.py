"""Left actions of one bundle on a Hilbert bundle over another.

An action stores one operator tensor per (source element g, target fiber
h): ops[g][h] has shape (dim A_g, m_{phi(g)h}, m_h), giving the matrix of
every source basis element from fiber h into fiber phi(g)h.  Validation is
then a finite family of tensor identities: multiplicativity, adjoint
symmetry against the inner products, commutation with the right action,
and the contractivity/Gram-domination bounds.
"""

from __future__ import annotations

import numpy as np

from .bundles import FellBundle, crossed_extract, dynamical_bundle
from .groups import GroupHom, identity_hom
from .hilbundles import HilbertModule, SemiInnerBundle, algebra_coords_map, \
    check_unitary_bundle_map, l2_bundle, module_bundle_from_dynsys, \
    regularize_bundle, trivial_hilbert_bundle
from .numerics import DEFAULT_TOL, Tolerance, frob, hermitian_psd_check, opnorm, relative
from .reports import Report


class CompatibilityViolationError(ValueError):
    pass


class NotStarRepError(ValueError):
    pass


class NotUnitaryError(ValueError):
    pass


class WrongFiberError(ValueError):
    pass


class Action:
    """(source, hom)-action on a Hilbert bundle over the hom's target group."""

    def __init__(self, source: FellBundle, hom: GroupHom, target: SemiInnerBundle, ops):
        if hom.source != source.group or hom.target != target.bundle.group:
            raise CompatibilityViolationError("homomorphism does not connect the groups")
        self.source = source
        self.hom = hom
        self.target = target
        self.ops = ops
        src, tgt = source.group, target.bundle.group
        for g in src.elements():
            for h in tgt.elements():
                out = tgt.mul(hom(g), h)
                want = (source.dims[g], target.dims[out], target.dims[h])
                if ops[g][h].shape != want:
                    raise CompatibilityViolationError(
                        f"ops[{g}][{h}] must have shape {want}")

    def op_matrix(self, g: int, acoords, h: int) -> np.ndarray:
        """Matrix of x -> rho(a)x from X_h to X_{phi(g)h}."""
        return np.einsum("i,iuv->uv", np.asarray(acoords), self.ops[g][h])

    def apply(self, g: int, acoords, h: int, x) -> np.ndarray:
        return self.op_matrix(g, acoords, h) @ np.asarray(x)


def validate_action(rho: Action, tol: Tolerance | None = None,
                    seed: int = 0, samples: int = 8) -> Report:
    tol = tol or DEFAULT_TOL
    rep = Report("action axioms")
    src = rho.source
    x = rho.target
    bundle = x.bundle
    grp, tgt = src.group, bundle.group
    phi = rho.hom

    # (i) fiber targeting and bilinearity hold by the tensor layout
    rep.add("fiber targeting (by construction)", True, 0.0)

    # (ii) rho(a a') = rho(a) rho(a')
    worst = 0.0
    for g in grp.elements():
        for g2 in grp.elements():
            gg2 = grp.mul(g, g2)
            for h in tgt.elements():
                mid = tgt.mul(phi(g2), h)
                comp = np.einsum("iuw,jwv->ijuv", rho.ops[g][mid], rho.ops[g2][h])
                via = np.einsum("ijk,kuv->ijuv", src.prod[g][g2], rho.ops[gg2][h])
                worst = max(worst, relative(frob(comp - via), frob(comp)))
    rep.add("multiplicativity rho(aa') = rho(a)rho(a')", worst <= 1e-8, worst)

    # (iii) <rho(a)x, y> = <x, rho(a*)y>
    worst = 0.0
    for g in grp.elements():
        ginv = grp.inv(g)
        for h in tgt.elements():
            out = tgt.mul(phi(g), h)
            for h2 in tgt.elements():
                back = tgt.mul(phi(ginv), h2)
                lhs = np.einsum("iwu,wvk->iuvk", rho.ops[g][h].conj(), x.inner[out][h2])
                rhs = np.einsum("il,lwv,uwk->iuvk", src.star_tensor[g],
                                rho.ops[ginv][h2], x.inner[h][back])
                worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
    rep.add("adjoint symmetry <rho(a)x,y> = <x,rho(a*)y>", worst <= 1e-8, worst)

    # (iv) (rho(a)x) b = rho(a)(x b)
    worst = 0.0
    for g in grp.elements():
        for h in tgt.elements():
            out = tgt.mul(phi(g), h)
            for h2 in tgt.elements():
                lhs = np.einsum("jwu,iuv->ijwv", x.act[out][h2], rho.ops[g][h])
                rhs = np.einsum("iwz,jzv->ijwv", rho.ops[g][tgt.mul(h, h2)], x.act[h][h2])
                worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
    rep.add("right-module commutation (rho(a)x)b = rho(a)(xb)", worst <= 1e-8, worst)

    # ||rho(a)x|| <= ||a|| ||x|| on random data
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        g = int(rng.integers(grp.order))
        h = int(rng.integers(tgt.order))
        if src.dims[g] == 0 or x.dims[h] == 0:
            continue
        a = src.random_coords(g, rng)
        v = x.random_vector(h, rng)
        na = src.fiber_norm(g, a)
        nv = x.norm(h, v)
        out = tgt.mul(phi(g), h)
        slack = x.norm(out, rho.apply(g, a, h, v)) - na * nv
        worst = max(worst, relative(slack, na * nv))
    rep.add("contractivity ||rho(a)x|| <= ||a|| ||x||", worst <= 1e-8, max(worst, 0.0))

    # Gram domination S <= ||a||^2 R for a in the unit fiber, judged on the
    # 3 x 3 matrix of ambient blocks (one fiber element per block: faithful)
    worst = 0.0
    ok = True
    e = grp.identity
    if src.dims[e] and bundle.total_dim:
        for _ in range(samples):
            a = src.random_coords(e, rng)
            na = src.fiber_norm(e, a)
            gs = [int(rng.integers(grp.order)) for _ in range(3)]
            hs = [phi(g) for g in gs]
            xs = [x.random_vector(h, rng) for h in hs]
            ys = [rho.apply(e, a, h, v) for h, v in zip(hs, xs)]
            big = np.block([[na * na * x.inner_ambient(hs[i], xs[i], hs[j], xs[j])
                             - x.inner_ambient(hs[i], ys[i], hs[j], ys[j])
                             for j in range(3)] for i in range(3)])
            _, slack, hermitian = hermitian_psd_check(big, tol)
            slack = slack if hermitian else np.inf
            scale = max(1.0, na * na * opnorm(big))
            ok = ok and slack <= 1e-8 * scale
            worst = max(worst, slack / scale)
    rep.add("Gram domination S <= ||a||^2 R", ok, worst)
    return rep


def trivial_action(bundle: FellBundle) -> Action:
    """Left multiplication of the bundle on itself."""
    grp = bundle.group
    x = trivial_hilbert_bundle(bundle)
    ops = [[None] * grp.order for _ in grp.elements()]
    for g in grp.elements():
        for h in grp.elements():
            ops[g][h] = np.stack([
                bundle.left_mult_matrix(g, np.eye(bundle.dims[g])[i], h)
                for i in range(bundle.dims[g])
            ]) if bundle.dims[g] else np.zeros(
                (0, bundle.dims[grp.mul(g, h)], bundle.dims[h]))
    return Action(bundle, identity_hom(grp), x, ops)


def regularize_action(rho: Action) -> Action:
    """Shifted block-diagonal action on the regularized bundle."""
    src = rho.source
    tgt = rho.target.bundle.group
    reg = regularize_bundle(rho.target)
    phi = rho.hom
    n = tgt.order
    ops = [[None] * n for _ in src.group.elements()]
    for g in src.group.elements():
        shift = np.zeros((n, n))
        for t in tgt.elements():
            shift[tgt.mul(phi(g), t), t] = 1.0
        for h in tgt.elements():
            base = rho.ops[g][h]
            ops[g][h] = np.stack([np.kron(shift, base[i]) for i in range(base.shape[0])]) \
                if base.shape[0] else np.zeros(
                    (0, reg.dims[tgt.mul(phi(g), h)], reg.dims[h]))
    return Action(src, phi, reg, ops)


def l2_action(bundle: FellBundle) -> Action:
    """Regular-representation action on the square-summable bundle."""
    grp = bundle.group
    y = l2_bundle(bundle)
    offs = np.concatenate([[0], np.cumsum(bundle.dims)]).astype(int)
    total = int(offs[-1])
    ops = [[None] * grp.order for _ in grp.elements()]
    for r in grp.elements():
        mats = np.zeros((bundle.dims[r], total, total), dtype=np.complex128)
        for i in range(bundle.dims[r]):
            unit = np.eye(bundle.dims[r])[i]
            for t in grp.elements():
                tsrc = grp.mul(grp.inv(r), t)
                blk = bundle.left_mult_matrix(r, unit, tsrc)
                mats[i, offs[t]:offs[t + 1], offs[tsrc]:offs[tsrc + 1]] = blk
        for s in grp.elements():
            ops[r][s] = mats
    return Action(bundle, identity_hom(grp), y, ops)


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

    source = dynamical_bundle(a_basis, grp_g, alpha)
    target = module_bundle_from_dynsys(module, grp_h, beta)
    m_a = np.asarray(a_basis).shape[1]

    ops = [[None] * grp_h.order for _ in grp_g.elements()]
    pinv_a = algebra_coords_map(a_basis)
    for g in grp_g.elements():
        mats = []
        for i in range(source.dims[g]):
            amat = crossed_extract(source, m_a, g, np.eye(source.dims[g])[i])
            acoords = pinv_a @ amat.ravel()
            mats.append(np.einsum("k,kuv->uv", acoords, module.left) @ gamma[g])
        stacked = np.stack(mats) if mats else np.zeros((0, mx, mx))
        for h in grp_h.elements():
            ops[g][h] = stacked
    return Action(source, hom, target, ops)


def rep_action(source: FellBundle, pi, module: HilbertModule, hom: GroupHom,
               tol: Tolerance | None = None) -> Action:
    """Action induced by a *-representation of the source bundle on a
    Hilbert module: rho(a)(x, h) = (pi_g(a) x, phi(g) h).

    pi[g] has shape (dim A_g, module.dim, module.dim).  The target bundle is
    the crossed product of the module's algebra by the trivial action of the
    hom's target group.
    """
    tol = tol or DEFAULT_TOL
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

    tgt = hom.target
    kb = module.right.shape[0]
    trivial_beta = [np.eye(kb) for _ in tgt.elements()]
    target = module_bundle_from_dynsys(module, tgt, trivial_beta)
    ops = [[pi[g] for _ in tgt.elements()] for g in grp.elements()]
    return Action(source, GroupHom(grp, target.bundle.group, hom.map), target, ops)


def action_to_star_rep(rho: Action):
    """Over a one-point target group, an action is exactly a *-representation;
    return its operator tensors."""
    if rho.target.bundle.group.order != 1:
        raise WrongFiberError("target group must be trivial")
    return [rho.ops[g][0] for g in rho.source.group.elements()]


def coefficient_map(rho: Action, x, y=None):
    """Diagonal (or off-diagonal, when y is given) matrix coefficient of an
    action at unit-fiber vectors: T_g(a) = <x, rho(a) y>."""
    from .pdmaps import BundleMap

    tgt = rho.target.bundle.group
    e = tgt.identity
    x = np.asarray(x, dtype=np.complex128)
    yy = x if y is None else np.asarray(y, dtype=np.complex128)
    if x.shape != (rho.target.dims[e],) or yy.shape != (rho.target.dims[e],):
        raise WrongFiberError("coefficient vectors must lie in the unit fiber")
    mats = []
    for g in rho.source.group.elements():
        hg = rho.hom(g)
        cols = []
        for i in range(rho.source.dims[g]):
            img = rho.ops[g][e][i] @ yy
            cols.append(rho.target.inner_coords(e, x, hg, img))
        mats.append(np.stack(cols, axis=1) if cols else
                    np.zeros((rho.target.bundle.dims[hg], 0)))
    return BundleMap(rho.source, rho.target.bundle, rho.hom, mats)


def separate_pre_action(rho0: Action, tol: Tolerance | None = None,
                        seed: int = 0, checks: int = 12) -> Action:
    """Descend a pre-action on a semi-inner bundle to the separated bundle.

    Pre-actions must satisfy the contractivity inequality
    <rho(a)x, rho(a)x> <= ||a||^2 <x, x>  (which also sends null vectors to
    null vectors); it is validated on random data before quotienting.
    """
    from .hilbundles import separate
    from .numerics import psd_check

    tol = tol or DEFAULT_TOL
    x = rho0.target
    src = rho0.source
    grp, tgt = src.group, x.bundle.group
    rng = np.random.default_rng(seed)
    for _ in range(checks):
        g = int(rng.integers(grp.order))
        h = int(rng.integers(tgt.order))
        if src.dims[g] == 0 or x.dims[h] == 0:
            continue
        a = src.random_coords(g, rng)
        v = x.random_vector(h, rng)
        na = src.fiber_norm(g, a)
        out = tgt.mul(rho0.hom(g), h)
        w = rho0.apply(g, a, h, v)
        diff = na * na * x.inner_ambient(h, v, h, v) - x.inner_ambient(out, w, out, w)
        res = psd_check((diff + diff.conj().T) / 2, tol)
        if res.margin < -1e-8 * max(1.0, na * na):
            raise CompatibilityViolationError(
                "pre-action violates the contractivity inequality")
    hil, quotients = separate(x, tol)
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
