"""The whole-array tensor-identity validators against the loops they replaced.

`reference_validate`, `reference_validate_action` and
`reference_verify_imprimitivity` keep the per-tuple loop implementations of
`hilbundles._validate`, `actions.validate_action` and
`correspondences.verify_imprimitivity` as oracles, verbatim except that
the Gram domination is judged on the block matrix scaled by the size of the
two compared blocks, max(1, ||a||^2 ||R||, ||S||), as the library now does.
The batched routes must draw the same random data, report the same check
names, order, verdicts and notes, and agree on every residual to 1e-12
relative to max(1, |residual|).

The random-data items of each oracle (`inequality_items`,
`sampled_action_items`, `section_items`) take a seed, 0 being the
library's; `retired_imprimitivity_items` keeps, as a loop, the random-data
re-check the library no longer judges (`RETIRED`).
`test_refusal_coverage.py` runs them at other seeds.
"""

import itertools

import numpy as np
import pytest

from fellbundles.actions import Action, l2_action, regularize_action, trivial_action, \
    validate_action
from fellbundles.bundles import FellBundle, dynamical_bundle, group_bundle, \
    projection_expectation
from fellbundles.correspondences import Correspondence, EquivalenceBundle, left_inner_section, \
    trivial_self_equivalence, verify_imprimitivity
from fellbundles.crosssec import cstar_norm
from fellbundles.groups import make_cyclic, symmetric_group
from fellbundles.hilbundles import HilbertBundle, SemiInnerBundle, condexp_raw_semibundle, \
    l2_bundle, regularize_bundle, trivial_hilbert_bundle, validate_hilbert_bundle, \
    validate_semi_inner_bundle
from fellbundles.numerics import DEFAULT_TOL, frob, opnorm, relative
from fellbundles.pdmaps import gelfand_raikov, identity_bundle_map
from fellbundles.reports import Report

from test_actions import z4_to_z2_rep_action
from test_bundles import M2_BASIS
from test_numerics import definite_verdict, numerical_rank, psd_verdict


# -- the loop oracles ----------------------------------------------------------------

# the item that re-checks, on random data, a consequence of the exact items;
# the library does not report it
RETIRED = frozenset({"norm equality of the two inner products"})


def block_gram(x, r):
    """Fiber Gram as one ambient block matrix [ <u,v> ]_{uv}; PSD of this
    matrix is positivity of the Gram in the block matrix algebra."""
    m, n = x.dims[r], x.bundle.ambient_dim
    out = np.zeros((m * n, m * n), dtype=np.complex128)
    e = x.bundle.group.identity
    for u in range(m):
        for v in range(m):
            out[u * n:(u + 1) * n, v * n:(v + 1) * n] = x.bundle.element(
                e, x.inner[r][r][u, v]
            )
    return out


def reference_validate(x, tol=DEFAULT_TOL, definite=True, subject="hilbert-bundle axioms"):
    """hilbundles._validate as one einsum per tuple of group elements."""
    bundle = x.bundle
    grp = bundle.group
    rep = Report(subject)

    # (1)+(d): action composes with the bundle product, (xb)c = x(bc)
    worst = 0.0
    for r in grp.elements():
        for h in grp.elements():
            rh = grp.mul(r, h)
            for h2 in grp.elements():
                comp = np.einsum("jab,ibc->ijac", x.act[rh][h2], x.act[r][h])
                via_prod = np.einsum("ijk,kac->ijac", bundle.prod[h][h2], x.act[r][grp.mul(h, h2)])
                worst = max(worst, relative(frob(comp - via_prod), frob(comp)))
    rep.add("(xb)c = x(bc)", worst <= 1e-8, worst)

    # (3) first part: <x, yb> = <x,y> b
    worst = 0.0
    for r in grp.elements():
        for s in grp.elements():
            rs = grp.mul(grp.inv(r), s)
            for h in grp.elements():
                sh = grp.mul(s, h)
                lhs = np.einsum("uwk,iwv->iuvk", x.inner[r][sh], x.act[s][h])
                rhs = np.einsum("uvk,kil->iuvl", x.inner[r][s], bundle.prod[rs][h])
                worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
    rep.add("<x, yb> = <x,y>b", worst <= 1e-8, worst)

    # (3) second part: <x,y>* = <y,x>
    worst = 0.0
    for r in grp.elements():
        for s in grp.elements():
            rs = grp.mul(grp.inv(r), s)
            starred = np.einsum("uvk,kl->uvl", x.inner[r][s].conj(), bundle.star_tensor[rs])
            flipped = x.inner[s][r].transpose(1, 0, 2)
            worst = max(worst, relative(frob(starred - flipped), frob(flipped)))
    rep.add("<x,y>* = <y,x>", worst <= 1e-8, worst)

    # derived (a): <xb, y> = b* <x,y>
    worst = 0.0
    for r in grp.elements():
        for s in grp.elements():
            rs = grp.mul(grp.inv(r), s)
            for h in grp.elements():
                rh = grp.mul(r, h)
                hinv = grp.inv(h)
                lhs = np.einsum("iwu,wvk->iuvk", x.act[r][h].conj(), x.inner[rh][s])
                rhs = np.einsum("il,uvk,lkm->iuvm", bundle.star_tensor[h],
                                x.inner[r][s], bundle.prod[hinv][rs])
                worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
    rep.add("<xb, y> = b*<x,y>", worst <= 1e-8, worst)

    # (4) positivity of each fiber Gram, in block form
    worst = 0.0
    ok_pos = True
    for r in grp.elements():
        ok, residual, _ = psd_verdict(block_gram(x, r), tol)
        ok_pos &= ok
        worst = max(worst, residual)
    rep.add("fiber Grams PSD", ok_pos, worst)

    # definiteness: localized Gram of each fiber has full rank; the residual
    # is the worst shortfall of a failing Gram's smallest eigenvalue below
    # rel_rank * max(largest, 1), relative to that bound
    if definite:
        ok_def, worst = True, 0.0
        for r in grp.elements():
            gram = x.trace_gram(r)
            if not definite_verdict(gram, tol)[0]:
                ok_def = False
                ev = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
                worst = max(worst, 1.0 - ev[0] / (tol.rel_rank * max(ev[-1], 1.0)))
        rep.add("definiteness (localized Grams full rank)", ok_def, worst)

    rep.items += inequality_items(x).items
    return rep


def reference_validate_action(rho, tol=None, samples=8):
    """actions.validate_action as one einsum per tuple and one norm per sample."""
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

    rep.items += sampled_action_items(rho, tol, samples=samples).items
    return rep


def reference_verify_imprimitivity(e, tol=None):
    """Full two-sided verification: both module structures, the compatibility
    identity, fullness on both sides and the section-level imprimitivity
    identity."""
    tol = tol or DEFAULT_TOL
    rep = Report("imprimitivity bimodule")
    grp = e.left_bundle.group
    a_bundle = e.left_bundle
    hb = e.right

    right_rep = reference_validate(hb, tol or DEFAULT_TOL)
    rep.add("right Hilbert bundle axioms", right_rep.ok, right_rep.worst)

    act_rep = reference_validate_action(e.left_action(), tol)
    rep.add("left action axioms", act_rep.ok, act_rep.worst)

    # left inner product: hermitian symmetry and left-linearity
    worst = 0.0
    for r in grp.elements():
        for s in grp.elements():
            k = grp.mul(r, grp.inv(s))
            starred = np.einsum("uvk,kl->uvl", e.linner[r][s].conj(),
                                a_bundle.star_tensor[k])
            flipped = e.linner[s][r].transpose(1, 0, 2)
            worst = max(worst, relative(frob(starred - flipped), frob(flipped)))
    rep.add("[x,y]* = [y,x]", worst <= 1e-8, worst)

    worst = 0.0
    for g in grp.elements():
        for r in grp.elements():
            gr = grp.mul(g, r)
            for s in grp.elements():
                rs = grp.mul(r, grp.inv(s))
                lhs = np.einsum("iwu,wvk->iuvk", e.lact[g][r], e.linner[gr][s])
                rhs = np.einsum("uvk,ikm->iuvm", e.linner[r][s], a_bundle.prod[g][rs])
                worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
    rep.add("[ax, y] = a[x,y]", worst <= 1e-8, worst)

    # left positivity and definiteness via the fiber Grams
    ok_pos, worst = True, 0.0
    n_a = a_bundle.ambient_dim
    for r in grp.elements():
        m = hb.dims[r]
        if m == 0:
            continue
        big = np.zeros((m * n_a, m * n_a), dtype=np.complex128)
        for u in range(m):
            for v in range(m):
                big[u * n_a:(u + 1) * n_a, v * n_a:(v + 1) * n_a] = \
                    a_bundle.element(grp.identity, e.linner[r][r][u, v])
        ok, residual, _ = psd_verdict(big, tol)
        ok_pos &= ok
        worst = max(worst, residual)
    rep.add("left fiber Grams PSD", ok_pos, worst)

    # compatibility [x, y] z = x <y, z>
    worst = 0.0
    for r in grp.elements():
        for s in grp.elements():
            for tt in grp.elements():
                rs = grp.mul(r, grp.inv(s))
                st = grp.mul(grp.inv(s), tt)
                # both sides indexed [u, v, out-component, z-coordinate]
                lhs = np.einsum("uvk,kwz->uvwz", e.linner[r][s], e.lact[rs][tt])
                rhs = np.einsum("vzk,kwu->uvwz", hb.inner[s][tt], hb.act[r][st])
                worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
    rep.add("[x,y]z = x<y,z>", worst <= 1e-8, worst)

    # fullness on both sides; the residual is the worst shortfall of the
    # dk-th singular value of the stacked rows below rel_rank * max(largest,
    # 1), relative to that bound
    def full(rows, dk):
        sv = np.linalg.svd(np.array(rows), compute_uv=False)
        kth = sv[dk - 1] if len(sv) >= dk else 0.0
        return numerical_rank(np.array(rows), tol) >= dk, \
            max(1.0 - kth / (tol.rel_rank * max(sv[0], 1.0)), 0.0)

    def full_right():
        ok, worst = True, 0.0
        for k in grp.elements():
            dk = hb.bundle.dims[k]
            if dk == 0:
                continue
            rows = []
            for s in grp.elements():
                tt = grp.mul(s, k)
                rows.extend(hb.inner[s][tt].reshape(-1, dk))
            ok_k, res = full(rows, dk)
            ok, worst = ok and ok_k, max(worst, res)
        return ok, worst

    def full_left():
        ok, worst = True, 0.0
        for k in grp.elements():
            dk = a_bundle.dims[k]
            if dk == 0:
                continue
            rows = []
            for s in grp.elements():
                r = grp.mul(k, s)
                rows.extend(e.linner[r][s].reshape(-1, dk))
            ok_k, res = full(rows, dk)
            ok, worst = ok and ok_k, max(worst, res)
        return ok, worst

    rep.add("right fullness", *full_right())
    rep.add("left fullness", *full_left())

    rep.items += section_items(e).items
    return rep


def inequality_items(x, seed=0):
    """The random-data items of the Hilbert-bundle oracle: seed 0 is the
    library's."""
    bundle = x.bundle
    grp = bundle.group
    rep = Report("hilbert-bundle inequalities")

    # derived (b) and (c): ||xb|| <= ||x|| ||b||, Cauchy-Schwarz, random data
    rng = np.random.default_rng(seed)
    worst_b = 0.0
    worst_c = 0.0
    for r in grp.elements():
        for s in grp.elements():
            if x.dims[r] == 0 or x.dims[s] == 0:
                continue
            for _ in range(3):
                u = x.random_vector(r, rng)
                v = x.random_vector(s, rng)
                nu, nv = x.norm(r, u), x.norm(s, v)
                cs = opnorm(x.inner_ambient(r, u, s, v)) - nu * nv
                worst_c = max(worst_c, relative(cs, nu * nv))
                if bundle.dims[s]:
                    b = bundle.random_coords(s, rng)
                    nb = bundle.fiber_norm(s, b)
                    xb = x.act_matrix(r, s, b) @ u
                    slack = x.norm(grp.mul(r, s), xb) - nu * nb
                    worst_b = max(worst_b, relative(slack, nu * nb))
    rep.add("||xb|| <= ||x|| ||b||", worst_b <= 1e-8, max(worst_b, 0.0))
    rep.add("Cauchy-Schwarz", worst_c <= 1e-8, max(worst_c, 0.0))
    return rep


def sampled_action_items(rho, tol=None, seed=0, samples=8):
    """The random-data items of the action oracle, one norm per sample; the
    contractivity samples draw first.  Seed 0 is the library's."""
    tol = tol or DEFAULT_TOL
    rep = Report("action bounds")
    src = rho.source
    x = rho.target
    bundle = x.bundle
    grp, tgt = src.group, bundle.group
    phi = rho.hom

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
            big_r = np.block([[x.inner_ambient(hs[i], xs[i], hs[j], xs[j])
                               for j in range(3)] for i in range(3)])
            big_s = np.block([[x.inner_ambient(hs[i], ys[i], hs[j], ys[j])
                               for j in range(3)] for i in range(3)])
            scale = max(1.0, na * na * opnorm(big_r), opnorm(big_s))
            _, slack, hermitian = psd_verdict((na * na * big_r - big_s) / scale, tol)
            slack = slack if hermitian else np.inf
            ok = ok and slack <= 1e-8
            worst = max(worst, slack)
    rep.add("Gram domination S <= ||a||^2 R", ok, worst)
    return rep


def section_items(e, seed=0, checks=6):
    """The section-level imprimitivity identity on random sections; seed 0
    is the library's."""
    rep = Report("imprimitivity on sections")
    y = Correspondence(e.right, action=e.left_action())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(checks):
        xi, eta, zeta = y.random(rng), y.random(rng), y.random(rng)
        lhs = y.left_mul(left_inner_section(e, y, xi, eta), zeta)
        rhs = y.right_mul(xi, y.inner(eta, zeta))
        worst = max(worst, relative(float(np.linalg.norm(lhs - rhs)), float(np.linalg.norm(lhs))))
    rep.add("imprimitivity identity on sections", worst <= 1e-8, worst)
    return rep


def retired_imprimitivity_items(e, seed=0, checks=6):
    """Equality of the two induced norms ||[xi,xi]|| = ||<xi,xi>|| on random
    sections, drawn as triples like the section identity's."""
    rep = Report("retired imprimitivity items")
    y = Correspondence(e.right, action=e.left_action())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(checks):
        xi, _, _ = y.random(rng), y.random(rng), y.random(rng)
        na = cstar_norm(left_inner_section(e, y, xi, xi))
        nb = cstar_norm(y.inner(xi, xi))
        worst = max(worst, relative(abs(na - nb), max(na, nb)))
    rep.add("norm equality of the two inner products", worst <= 1e-8, worst)
    return rep


# -- the corpus ----------------------------------------------------------------------

def _m2_z3():
    from test_pdmaps_batched import crossed
    return crossed(2, 3, [1.0, np.exp(2j * np.pi / 3)])


def _c3_s3():
    """C^3 x| S3, S3 permuting the three points: a non-abelian bundle whose
    right actions depend on the fiber they act from."""
    grp = symmetric_group(3)
    perms = list(itertools.permutations(range(3)))
    autos = [np.eye(3)[:, list(p)] for p in perms]  # e_k -> e_p(k)
    return dynamical_bundle(np.array([np.diag(np.eye(3)[k]) for k in range(3)]), grp, autos)


def _gns_zero_fiber():
    """The reconstruction of the identity map of a Z2 bundle with a zero fiber."""
    flat = FellBundle(make_cyclic(2), 1, [np.eye(1)[None], np.zeros((0, 1, 1))])
    hb, rho, _ = gelfand_raikov(identity_bundle_map(flat))
    assert hb.dims == [1, 0]
    return hb, rho


def _condexp_raw():
    """A semi-inner bundle that is not definite: M2 with <a, a'> = E(a* a'),
    E the compression to diag(1, 0)."""
    triv = make_cyclic(1)
    sup = FellBundle(triv, 2, [M2_BASIS])
    sub = FellBundle(triv, 2, [np.array([np.diag([1.0, 0.0])])])
    return condexp_raw_semibundle(projection_expectation(sup, sub))


def _bumped(blocks, pos, scale, rng):
    """A copy of a nested tensor list with blocks[r][s] perturbed by a random
    complex tensor of Frobenius norm `scale`."""
    out = [[np.array(b, dtype=np.complex128) for b in row] for row in blocks]
    r, s = pos
    if out[r][s].size:
        noise = rng.standard_normal(out[r][s].shape) + 1j * rng.standard_normal(out[r][s].shape)
        out[r][s] = out[r][s] + scale * noise / np.linalg.norm(noise)
    return out


def _perturbed_at(name, order):
    """Where to perturb the tensors of the named object: the first and the
    last pair of group elements (the first and last tuples of the batched
    identities), only the last on the large Z12 objects."""
    where = {"first": (0, 0), "last": (order - 1, order - 1)}
    return {"last": where["last"]} if name.startswith("z12") else where


@pytest.fixture(scope="module")
def corpus(corpus_bundles):
    bundles = {"z2": corpus_bundles["z2"], "s3": corpus_bundles["s3"],
               "z12": group_bundle(make_cyclic(12)), "m2_ad": corpus_bundles["m2_ad"],
               "m2_z3": _m2_z3(), "c3_s3": _c3_s3()}
    rng = np.random.default_rng(2024)
    hilbert, actions, equivalences = {}, {}, {}
    for name, b in bundles.items():
        if name != "c3_s3":
            hilbert[f"{name} l2"] = l2_bundle(b)
            actions[f"{name} l2"] = l2_action(b)
    hilbert["c3_s3 trivial"] = trivial_hilbert_bundle(bundles["c3_s3"])
    actions["c3_s3 trivial"] = trivial_action(bundles["c3_s3"])
    hilbert["z2 trivial"] = trivial_hilbert_bundle(bundles["z2"])
    hilbert["m2_z3 trivial"] = trivial_hilbert_bundle(bundles["m2_z3"])
    hilbert["s3 regularized"] = regularize_bundle(trivial_hilbert_bundle(bundles["s3"]))
    hilbert["m2_ad regularized"] = regularize_bundle(trivial_hilbert_bundle(bundles["m2_ad"]))
    hilbert["gns zero fiber"], actions["gns zero fiber"] = _gns_zero_fiber()
    actions["m2_ad trivial"] = trivial_action(bundles["m2_ad"])
    actions["s3 regularized"] = regularize_action(trivial_action(bundles["s3"]))
    actions["z4 to z2"] = z4_to_z2_rep_action()
    for name in ("s3 l2", "z12 l2", "m2_ad l2", "c3_s3 trivial"):
        x = hilbert[name]
        order = x.bundle.group.order
        for where, pos in _perturbed_at(name, order).items():
            for key in ("inner", "act"):
                bad = _bumped(getattr(x, key), pos, 0.3, rng)
                tensors = {"act": x.act, "inner": x.inner, key: bad}
                hilbert[f"{name} {key} {where}"] = SemiInnerBundle(
                    x.bundle, x.dims, tensors["act"], tensors["inner"])
            rho = actions[name]
            actions[f"{name} ops {where}"] = Action(rho.source, rho.hom, rho.target,
                                                   _bumped(rho.ops, pos, 0.3, rng))
        rho = actions[name]
        actions[f"{name} doubled"] = Action(rho.source, rho.hom, rho.target,
                                           [[2.0 * op for op in row] for row in rho.ops])
    for name in ("s3", "z12", "m2_ad", "c3_s3"):
        equivalences[name] = trivial_self_equivalence(bundles[name])
    equivalences["z3"] = trivial_self_equivalence(group_bundle(make_cyclic(3)))
    for name in ("s3", "c3_s3"):
        e = equivalences[name]
        for where, pos in _perturbed_at(name, e.left_bundle.group.order).items():
            for key in ("lact", "linner"):
                tensors = {"lact": e.lact, "linner": e.linner}
                tensors[key] = _bumped(tensors[key], pos, 0.3, rng)
                equivalences[f"{name} {key} {where}"] = EquivalenceBundle(
                    e.left_bundle, e.right, tensors["lact"], tensors["linner"])
    return hilbert, actions, equivalences


def assert_same_report(got, want, label):
    assert got.subject == want.subject, label
    assert [i.name for i in got.items] == [i.name for i in want.items], label
    assert [i.ok for i in got.items] == [i.ok for i in want.items], label
    assert [i.detail for i in got.items] == [i.detail for i in want.items], label
    assert got.notes == want.notes, label
    for g, w in zip(got.items, want.items):
        if np.isinf(w.residual):
            assert g.residual == w.residual, (label, w.name)
        else:
            assert abs(g.residual - w.residual) <= 1e-12 * max(1.0, abs(w.residual)), \
                (label, w.name, g.residual, w.residual)


# -- the batched validators agree with the loops -------------------------------------

def test_hilbert_bundle_validator_matches_the_loops(corpus):
    hilbert, _, _ = corpus
    failing = set()
    for name, x in hilbert.items():
        got = validate_hilbert_bundle(x)
        assert_same_report(got, reference_validate(x), name)
        if not got.ok:
            failing.add(name)
    assert failing == {n for n in hilbert if n.endswith(("first", "last"))}


def test_semi_inner_validator_matches_the_loops_on_a_non_definite_bundle():
    x = _condexp_raw()
    got = validate_semi_inner_bundle(x)
    assert_same_report(got, reference_validate(x, DEFAULT_TOL, False, "semi-inner-bundle axioms"),
                       "condexp raw")
    assert got.ok
    got = validate_hilbert_bundle(x)
    assert_same_report(got, reference_validate(x), "condexp raw, definite")
    assert [i.name for i in got.failures()] == ["definiteness (localized Grams full rank)"]


def test_definiteness_residual_is_the_shortfall_of_the_smallest_eigenvalue(corpus_bundles):
    def definiteness(x):
        return {i.name: i for i in validate_hilbert_bundle(x).items}[
            "definiteness (localized Grams full rank)"]

    def smallest(x):
        return min(np.linalg.eigvalsh(x.trace_gram(r))[0]
                   for r in x.bundle.group.elements() if x.dims[r])

    # a singular Gram falls short of its bound by all of it
    x = _condexp_raw()
    item = definiteness(x)
    assert not item.ok
    assert smallest(x) == pytest.approx(0.0, abs=1e-15)
    assert item.residual == pytest.approx(1.0, abs=1e-6)
    # inner products scaled so that the smallest eigenvalue is half the bound
    # rel_rank (every Gram then lies below 1, so the bound is rel_rank)
    x = l2_bundle(corpus_bundles["z2"])
    assert definiteness(x).ok and definiteness(x).residual == 0.0
    # the Gram of an empty fiber is definite and falls short of nothing
    empty = FellBundle(make_cyclic(2), 2, [np.zeros((0, 2, 2))] * 2)
    for y in (_gns_zero_fiber()[0], trivial_hilbert_bundle(empty)):
        assert definiteness(y).ok and definiteness(y).residual == 0.0
    c = 0.5 * DEFAULT_TOL.rel_rank / smallest(x)
    faint = SemiInnerBundle(x.bundle, x.dims, x.act, [[c * blk for blk in row] for row in x.inner])
    got = validate_hilbert_bundle(faint)
    assert_same_report(got, reference_validate(faint), "faint inner product")
    item = definiteness(faint)
    assert not item.ok
    assert item.residual == pytest.approx(0.5, rel=1e-9)


def test_fullness_residual_is_the_rank_shortfall(corpus_bundles):
    e = trivial_self_equivalence(corpus_bundles["z3"])
    items = {i.name: i for i in verify_imprimitivity(e).items}
    assert items["left fullness"].ok and items["left fullness"].residual == 0.0
    faint = EquivalenceBundle(e.left_bundle, e.right, e.lact,
                              [[1e-12 * blk for blk in row] for row in e.linner])
    got = verify_imprimitivity(faint)
    assert_same_report(got, reference_verify_imprimitivity(faint), "faint left inner product")
    items = {i.name: i for i in got.items}
    assert items["right fullness"].ok and items["right fullness"].residual == 0.0
    assert not items["left fullness"].ok
    # every left Gram row is 1e-12 of a unit row: the smallest singular
    # value is about 1e-12, short of its bound rel_rank by nearly all of it
    assert 0.99 < items["left fullness"].residual < 1.0


def test_action_validator_matches_the_loops(corpus):
    _, actions, _ = corpus
    failing = set()
    for name, rho in actions.items():
        got = validate_action(rho)
        assert_same_report(got, reference_validate_action(rho), name)
        if not got.ok:
            failing.add(name)
    assert failing == {n for n in actions if n.endswith(("first", "last", "doubled"))}


def test_imprimitivity_matches_the_loops(corpus):
    _, _, equivalences = corpus
    for name, e in equivalences.items():
        got = verify_imprimitivity(e)
        assert_same_report(got, reference_verify_imprimitivity(e), name)
        assert got.ok == (name in ("s3", "z12", "m2_ad", "c3_s3", "z3")), name


def test_validators_read_the_nested_lists_on_every_call(corpus_bundles):
    """A perturbed block given to a constructor lands in the stored array
    that the validators read: inner[1][2] doubled and ops[2][1] times 1j
    are both rejected."""
    x = l2_bundle(corpus_bundles["s3"])
    assert validate_hilbert_bundle(x).ok
    inner = [list(row) for row in x.inner]
    inner[1][2] = 2.0 * inner[1][2]
    assert not validate_hilbert_bundle(HilbertBundle(x.bundle, x.dims, x.act, inner)).ok
    rho = l2_action(corpus_bundles["s3"])
    assert validate_action(rho).ok
    ops = [list(row) for row in rho.ops]
    ops[2][1] = ops[2][1] * 1j
    assert not validate_action(Action(rho.source, rho.hom, rho.target, ops)).ok
