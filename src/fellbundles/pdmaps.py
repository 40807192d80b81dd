"""Constructors of graded maps between bundles (`bundles.BundleMap`),
positivity certificates, conditional expectations, and the reconstruction
of an action from a positive definite map.

Positive definiteness quantifies over all finite tuples; at finite
dimension it collapses to one Hermitian certificate matrix over the full
fiber-basis enumeration.  The reduction: any tuple's Gram factors through
the basis Gram as X M X*, so M >= 0 is equivalent to the quantified
condition.  The sampled checker draws the quantified form directly as a
guard on that reduction.  The certificate, the sampled check and the
reconstruction all read one positivity form, t_values_ambient, whose
blocks are concrete matrices in the target's ambient algebra.  The
certificate and the sampled check read it per irreducible block of the
algebra spanned by the target's fibers (`FellBundle.blocks`), from the
compressed fibers; the decomposition's own self-check guards that
reduction (`Blocks.residual`), and `numerics.one_block` gives the ambient
route.  The witness of a failed certificate is read off the same block
forms, as the canonical lowest eigenvector of the localized form, and its
sum as unit-fiber coordinates; the ambient certificate is formed only when
it is read, and the tuple sum of a refuting sample only when read.  The
reconstruction quotients its elementary tensors blockwise: the bases of the
separation rule compress the structure tensors directly, and no raw action
or shift is formed.  A conditional expectation is an idempotent, bimodular,
positive bundle map over the identity (Tomiyama, Proc. Japan Acad. 33,
1957): its positivity is the verdict of its certificate.
"""

from __future__ import annotations

import weakref

import numpy as np

from .actions import Action, coefficient_map
from .bundles import BundleMap, BundleMapMismatchError, FellBundle
from .crosssec import RegRep, Section
from .groups import GroupHom, identity_hom
from .hilbundles import HilbertBundle, InvariantViolationError, compress_inner, \
    separating_bases, trace_localize
from .numerics import CHUNK_BYTES, DEFAULT_TOL, ROUNDING, Blocks, Tolerance, block_spectra, \
    canonical_min_vector, dagger, frob, identity_bound, judge_psd, membership_bound, opnorms, \
    overflow_scale, padded, product_bound, worst_relative
from .reports import Report


class NotUnitalError(ValueError):
    pass


class NotPositiveDefiniteError(ValueError):
    pass


_rep_cache: "weakref.WeakKeyDictionary[FellBundle, RegRep]" = weakref.WeakKeyDictionary()


def cached_rep(bundle: FellBundle) -> RegRep:
    """The regular representation of a bundle, built once per bundle; an
    oracle for the ambient route, which no verdict reads."""
    rep = _rep_cache.get(bundle)
    if rep is None:
        rep = RegRep(bundle)
        _rep_cache[bundle] = rep
    return rep


def identity_bundle_map(bundle: FellBundle) -> BundleMap:
    return BundleMap(bundle, bundle, identity_hom(bundle.group),
                     [np.eye(d) for d in bundle.dims])


def scalar_bundle_map(source: FellBundle, target: FellBundle, hom: GroupHom,
                      values) -> BundleMap:
    """For group bundles: T_g(u_g) = f(g) u_{phi(g)}, from one value f(g) per
    source element.  The sqrt factors convert between the HS-normalized
    bases of the two bundles; any other bundle, or another number of values,
    is refused (BundleMapMismatchError)."""
    for side, bundle in (("source", source), ("target", target)):
        g = next((g for g, d in enumerate(bundle.dims) if d != 1), None)
        if g is not None:
            raise BundleMapMismatchError(
                f"a scalar bundle map needs one-dimensional fibers, but the {side} fiber "
                f"over {g} has dimension {bundle.dims[g]}")
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != (source.group.order,):
        raise BundleMapMismatchError(
            f"a scalar bundle map needs one value per source element ({source.group.order}), "
            f"but got values of shape {vals.shape}")
    scale = np.sqrt(target.group.order / source.group.order)
    mats = [vals[g] * scale * np.ones((1, 1)) for g in source.group.elements()]
    return BundleMap(source, target, hom, mats)


def conjugation_bundle_map(bundle: FellBundle, a_coords) -> BundleMap:
    """T_g(b) = a* b a for a fixed unit-fiber element a."""
    grp = bundle.group
    e = grp.identity
    a = bundle.element(e, a_coords)
    mats = []
    for g in grp.elements():
        cols = [bundle.coords(g, a.conj().T @ bundle.fibers[g][i] @ a)[0]
                for i in range(bundle.dims[g])]
        mats.append(np.stack(cols, axis=1) if cols else np.zeros((0, 0)))
    return BundleMap(bundle, bundle, identity_hom(grp), mats)


def perturb_bundle_map(t: BundleMap, scale: float, rng) -> BundleMap:
    mats = [
        m + scale * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
        for m in t.mats
    ]
    return BundleMap(t.source, t.target, t.hom, mats)


def phi_t(t: BundleMap, f: Section) -> Section:
    """Graded push-forward of sections: sum_g T_g(f(g)) placed at phi(g)."""
    if f.bundle is not t.source:
        raise BundleMapMismatchError("section does not live over the source bundle")
    mats = padded([t.mats], (max(t.target.dims, default=0), max(t.source.dims, default=0)))[0]
    out = np.zeros((t.target.group.order, mats.shape[1]), dtype=np.complex128)
    np.add.at(out, t.hom.map, (mats @ f.coeff_array[..., None])[..., 0])
    return Section(t.target, out)


class PdCertificate:
    """The verdict of the exact certificate, with its margin, the scale
    max(1, norm) the margin is judged against, its Hermitian defect and that
    defect's verdict.  `gram` is the certificate matrix in the target's
    ambient algebra, formed on first read when it is given as a function; a
    failed certificate may carry a violating tuple (g, a_matrix, b_matrix)
    per position and the sum it attains."""

    def __init__(self, ok: bool, margin: float, gram, hermitian_defect: float,
                 witness: list | None = None, witness_sum: np.ndarray | None = None,
                 scale: float = 1.0, hermitian: bool = True):
        self.ok, self.margin, self._gram = ok, margin, gram
        self.hermitian_defect, self.scale, self.hermitian = hermitian_defect, scale, hermitian
        self.witness, self.witness_sum = witness, witness_sum

    @property
    def gram(self) -> np.ndarray:
        if callable(self._gram):
            self._gram = self._gram()
        return self._gram

    def __bool__(self):
        return self.ok


def _basis_pairs(bundle: FellBundle):
    return [(g, i) for g in bundle.group.elements() for i in range(bundle.dims[g])]


def _unit_norm_scales(bundle: FellBundle) -> np.ndarray:
    """Rescale enumeration elements to unit ambient operator norm, so the
    certificate margin is normalization-independent (and agrees with the
    circulant oracle on group bundles); in the order of `_basis_pairs`."""
    return 1.0 / np.maximum(opnorms(np.concatenate(bundle.fibers)), 1e-300)


def _localized_forms(forms: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Compress the k x k blocks G_pq of each form (L, P*k, P*k) by the
    bases beta[p] (padded, shape (P, Z, L, k, k), the last two axes one
    type's blocks): entry [l, (p, z), (q, w)] is
    tr(beta_pzl* G_lpq beta_qwl), shape (L, P*Z, P*Z)."""
    size, dbm, count, k = beta.shape[:4]
    b = beta.transpose(2, 0, 1, 3, 4)  # (l, p, z, a, b)
    right = forms.reshape(count, size * k, size, k).transpose(0, 2, 1, 3) \
        @ b.transpose(0, 1, 3, 2, 4).reshape(count, size, k, dbm * k)  # (l, q, (p, a), (w, b))
    right = right.reshape(count, size, size, k, dbm, k).transpose(0, 2, 3, 5, 1, 4)
    local = b.conj().reshape(count, size, dbm, k * k) \
        @ right.reshape(count, size, k * k, size * dbm)  # (l, p, z, (q, w))
    return local.reshape(count, size * dbm, size * dbm)


def _certificate_forms(t: BundleMap, fiber_stacks) -> tuple[list[np.ndarray], float]:
    """The certificate over each of the target fiber arrays `fiber_stacks`
    (|G_B|, dbm, ..., nb, nb), and mu.  Each is the positivity form of
    `t_values_ambient` on its unpadded rows (g, i, .), every row and column
    scaled by the unit-norm scale of a_i^g, over the power of two mu
    (numerics.overflow_scale, the largest over the stacks), which keeps huge
    finite entries from overflowing and leaves every verdict and margin as
    it is: shape (..., side, side), side = (source dimension) * nb."""
    src = t.source
    dm, scales = max(src.dims, default=0), _unit_norm_scales(src)
    forms = []
    for fibers in fiber_stacks:
        # unpadded rows (g, x, a), x < dims[g], in the order of `_basis_pairs`
        rows = np.flatnonzero(np.repeat(np.arange(dm) < np.asarray(src.dims)[:, None],
                                        fibers.shape[-1]))
        form = t_values_ambient(t, fibers)
        forms.append(form[..., rows[:, None], rows] if len(rows) < form.shape[-1] else form)
    mu = max(overflow_scale(form, "positivity form") for form in forms)
    for form, fibers in zip(forms, fiber_stacks):
        row_scales = np.repeat(scales, fibers.shape[-1])
        form *= row_scales[:, None] / mu
        form *= row_scales
    return forms, mu


def _certify(t: BundleMap, tol: Tolerance, blocks: Blocks | None = None):
    """The verdict, margin and Hermitian defect of the exact certificate,
    judged per irreducible block of the target: `FellBundle.blocks` unless
    `blocks` is given (`numerics.one_block` is the ambient route).  The
    certificate matrix itself is formed on first read of `gram`.  Returns
    the certificate and what its witness reads: the compressed target
    fibers per type size, (multiplicities, fibers), their forms and mu.

    The certificate M has one block row/column per pair p = (g, basis
    element a_p of A_g), rescaled to unit operator norm; block (p, q) is
    T(a_p* a_q), an element of the algebra B spanned by the target's fibers.
    B is unitarily the sum of m_i copies of each type W_i* B W_i, plus zero
    where B vanishes, so M is the sum of m_i copies of each
    M_i = [W_i* T(a_p* a_q) W_i]_pq, the form of the compressed fibers.  So
    the margin (the smallest eigenvalue) is the minimum over the blocks, the
    norm is the maximum, and the Frobenius norms of M and M - M* add up the
    blocks' weighted by m_i; `numerics.judge_psd` decides, with the floor
    1 / mu of the form M / mu."""
    groups = (blocks or t.target.blocks).compress(t.target.fiber_array)
    forms, mu = _certificate_forms(t, [fibers for _, fibers in groups])
    defect, low, high = (float(x[0]) for x in block_spectra(
        [(mult, form[None]) for (mult, _), form in zip(groups, forms)], 1 / mu))
    ok, _, hermitian = judge_psd(defect, low, high, tol, 1 / mu)
    # an empty certificate (no basis pair) has low = +inf and reports margin 0
    margin = _unscaled(low, mu, "certificate margin") if np.isfinite(low) else 0.0
    cert = PdCertificate(bool(ok), margin, lambda: _ambient_gram(t), defect,
                         scale=max(1 / mu, -low, high) * mu, hermitian=bool(hermitian))
    return cert, (groups, forms, mu)


def _ambient_certificate(t: BundleMap) -> tuple[np.ndarray, float]:
    """The certificate in the target's ambient algebra over mu, and mu."""
    forms, mu = _certificate_forms(t, [t.target.fiber_array])
    return forms[0], mu


def _ambient_gram(t: BundleMap) -> np.ndarray:
    """The certificate in the target's ambient algebra."""
    form, mu = _ambient_certificate(t)
    return form if mu == 1 else form * mu


def pd_check_exact(t: BundleMap, tol: Tolerance | None = None,
                   blocks: Blocks | None = None) -> PdCertificate:
    """Certify positive definiteness by one Hermitian matrix, judged per
    irreducible block of the target (`_certify`).

    The reduction: any tuple's Gram factors through the basis Gram as
    X M X*, so M >= 0 is the quantified condition.  Each block of M holds
    one element of the fiber over phi(g_p)^-1 phi(g_q), and such block
    matrices are faithful as concrete matrices whether or not the target's
    fiber sum is direct.  A failed certificate carries a witness
    (`_attach_witness`).
    """
    tol = tol or DEFAULT_TOL
    cert, forms = _certify(t, tol, blocks)
    if not cert.ok:
        _attach_witness(t, cert, tol, *forms)
    return cert


def _attach_witness(t: BundleMap, cert: PdCertificate, tol: Tolerance, groups, forms,
                    mu: float) -> None:
    """Read the witness of a failed certificate off the block forms of
    `_certify`.  Compressed by the fiber bases of B_{phi(g_p)^-1}, the
    certificate is the localized module form over the tuple (phi(g_p))_p:
    the sum over the types of m_i times the localized block forms.  Its
    canonical lowest eigenvector (`numerics.canonical_min_vector`) is
    folded back into an explicit violating tuple, rescaled so that its
    defect is at least as negative as the margin.  The tuple's sum
    S = sum_pq c_p* M_pq c_q lies in B_e: it is formed type by type and read
    as unit-fiber coordinates, sum_i m_i <W_i* b W_i, W_i* S W_i> for the
    basis b of B_e, or as it is when the blocks are the ambient M_n.  The
    ambient certificate is formed only when `cert.gram` is read."""
    src, tgt = t.source, t.target
    pairs = _basis_pairs(src)
    n, e = tgt.ambient_dim, tgt.group.identity
    labels = tgt.group.inverse[t.hom.map[[g for g, _ in pairs]]]
    dbm = max(tgt.dims[h] for h in labels)
    cols = np.flatnonzero(np.arange(dbm) < np.asarray(tgt.dims)[labels][:, None])
    if not len(cols):
        return
    size = len(pairs)
    local = sum(np.tensordot(mult, _localized_forms(form, fibers[labels, :dbm]), axes=1)
                for (mult, fibers), form in zip(groups, forms))[np.ix_(cols, cols)]
    coeffs = np.zeros(size * dbm, dtype=np.complex128)
    coeffs[cols] = canonical_min_vector((local + dagger(local)) / 2, tol, 1 / mu) * np.sqrt(n)
    coeffs = coeffs.reshape(size, 1, dbm)
    # c_p = sum_z coeffs[p, z] beta_z in B_{phi(g_p)^-1}; the tuple carries b_p = c_p*
    cs = (coeffs @ tgt.fiber_array[labels, :dbm].reshape(size, dbm, n * n)).reshape(size, n, n)
    scales = _unit_norm_scales(src)
    cert.witness = [(g, scales[p] * src.fibers[g][i], c.conj().T)
                    for p, ((g, i), c) in enumerate(zip(pairs, cs))]
    total = np.zeros(tgt.dims[e], dtype=np.complex128)
    for (mult, fibers), form in zip(groups, forms):
        count, k = fibers.shape[2], fibers.shape[-1]
        # x[l]: the blocks W_l* c_p W_l stacked over p, (size * k, k)
        x = (coeffs @ fibers[labels, :dbm].reshape(size, dbm, -1)).reshape(size, count, k, k)
        x = x.transpose(1, 0, 2, 3).reshape(count, size * k, k)
        part = x.conj().swapaxes(-1, -2) @ form @ x  # W_l* S W_l
        if k == n:  # the ambient M_n
            cert.witness_sum = _unscaled(part[0], mu, "witness sum")
            return
        total += np.einsum("jlab,lab,l->j", fibers[e, :tgt.dims[e]].conj(), part, mult)
    cert.witness_sum = _unscaled(tgt.element(e, total), mu, "witness sum")


def _unscaled(value, mu: float, what: str):
    """mu * value, refused as an OverflowError when it leaves the
    floating-point range."""
    out = value * mu
    if not np.isfinite(out).all():
        raise OverflowError(f"the {what} exceeds the floating-point range")
    return float(out) if np.ndim(out) == 0 else out


def check_subbundle_and_expectation(exp: BundleMap, tol: Tolerance | None = None) -> Report:
    """Verify B_g <= A_g, E restricted to B is the identity, bimodularity
    over basis triples, and positivity of <a, a'> = E_{g^-1 g'}(a* a'): the
    certificate of exp (`pd_check_exact`).  A map into another ambient
    algebra, or over another homomorphism than the identity, raises
    ValueError.  The first three checks are whole-array over the padded
    fiber arrays and maps (whose zero rows and columns add zero residuals):
    E_k(x) is the HS projection of x onto A_k, mapped by mats[k]."""
    tol = tol or DEFAULT_TOL
    sup, sub = exp.source, exp.target
    order, tab = sup.group.order, sup.group.table
    if sup.ambient_dim != sub.ambient_dim or (exp.hom.map != np.arange(order)).any():
        raise ValueError("sub-bundle must live in the same ambient algebra, over the identity")
    fa, fb, n = sup.fiber_array, sub.fiber_array, sup.ambient_dim
    da, db = fa.shape[1], fb.shape[1]
    maps = padded([exp.mats], (db, da))[0]
    rep = Report("conditional expectation")

    def coords(k, x):
        """HS coordinates in A_k (T, da) of ambient matrices x (T, n, n)."""
        return np.einsum("tiab,tab->ti", fa[k].conj(), x)

    def expect(k, x):
        """E_k(x) of ambient matrices x (T, n, n), ambient."""
        return np.einsum("tj,tjab->tab", np.einsum("tji,ti->tj", maps[k], coords(k, x)), fb[k])

    # containment: each b_j in B_g against its HS projection onto A_g
    g, j = np.divmod(np.arange(order * db), db)
    worst = worst_relative(len(g), (da + 4) * n * n, lambda t: (
        fb[g[t], j[t]], np.einsum("ti,tiab->tab", coords(g[t], fb[g[t], j[t]]), fa[g[t]])))
    rep.add("sub-bundle containment B_g in A_g", worst <= membership_bound(tol), worst)

    # idempotence: E_g(b_j) in coordinates against e_j, absolute
    unit = np.eye(db)[j] * (j < np.asarray(sub.dims)[g])[:, None]
    worst = worst_relative(len(g), (da + 1) * n * n, lambda t: (
        np.einsum("tji,ti->tj", maps[g[t]], coords(g[t], fb[g[t], j[t]])), unit[t],
        np.ones(len(t))))
    rep.add("idempotence: E restricted to B is the identity",
            worst <= identity_bound(tol), worst)

    # bimodularity over (gl, g, gr, i, j, l): E(b_i a_j b_l) against
    # b_i E(a_j) b_l, relative to max(||b_i a_j b_l||_F, 1)
    ea = expect(np.repeat(np.arange(order), da), fa.reshape(-1, n, n)).reshape(fa.shape)
    triples = (order, order, order, db, da, db)

    def bimodular(t):
        gl, g, gr, i, j, l = np.unravel_index(t, triples)
        b, b2 = fb[gl, i], fb[gr, l]
        x = b @ fa[g, j] @ b2
        return expect(tab[tab[gl, g], gr], x), b @ ea[g, j] @ b2, np.linalg.norm(x, axis=(1, 2))

    worst = worst_relative(int(np.prod(triples)), (da + db + 6) * n * n, bimodular)
    rep.add("bimodularity E(b a b') = b E(a) b'", worst <= product_bound(tol), worst)

    # positivity: the residual of judge_psd, read off the certificate
    cert = pd_check_exact(exp, tol)
    rep.add("positivity of induced semi-inner product", cert.ok,
            max(0.0, -cert.margin) if cert.hermitian else cert.hermitian_defect,
            "" if cert.hermitian else "Gram is not Hermitian")
    return rep


class SampledCheck:
    """The verdict of the sampled check and its worst margin.  A refuted map
    carries the first tuple (g, a_matrix, b_matrix) per position attaining
    it, and its sum in the target's ambient algebra, `witness_sum`, formed
    on first read when it is given as a function."""

    def __init__(self, ok: bool, worst_margin: float, witness: list | None = None,
                 witness_sum=None):
        self.ok, self.worst_margin = ok, worst_margin
        self.witness, self._witness_sum = witness, witness_sum

    @property
    def witness_sum(self) -> np.ndarray | None:
        if callable(self._witness_sum):
            self._witness_sum = self._witness_sum()
        return self._witness_sum

    def __bool__(self):
        return self.ok


def _tuple_sum(t: BundleMap, witness: list) -> np.ndarray:
    """sum_ij b_i T(a_i* a_j) b_j* over a tuple (g_i, a_i, b_i) of ambient
    matrices."""
    grp = t.source.group
    with np.errstate(over="ignore", invalid="ignore"):  # a sum beyond the float range reads inf
        return sum(b1 @ t.apply_ambient(grp.mul(grp.inv(g1), g2), a1.conj().T @ a2) @ b2.conj().T
                   for g1, a1, b1 in witness for g2, a2, b2 in witness)


def t_values_ambient(t: BundleMap, fibers=None) -> np.ndarray:
    """The positivity form of t as one padded square array.

    Entry [(k, x, a), (k2, y, b)] is entry (a, b) of the ambient value of
    T(a_x^{k*} a_y^{k2}), with k, k2 source group elements, x, y basis
    indices zero-padded to the largest source fiber and a, b ambient
    indices of the target: shape (G*dmax*n, G*dmax*n).  It reads the stored
    structure tensors of the source and fiber bases of the target, and pads
    only the blocks of t, which stay nested.  `fibers` replaces the target's
    fiber array by a stack (|G_B|, dbm, ..., nb, nb) of compressed fiber
    bases, such as their irreducible blocks W* b W; the forms of all of them
    come at once, shape (..., G*dmax*nb, G*dmax*nb).  The form is built afresh on
    each call.
    """
    src, tgt = t.source, t.target
    grp = src.group
    order = grp.order
    fibers = tgt.fiber_array if fibers is None else fibers
    batch, nb = fibers.shape[2:-2], fibers.shape[-1]
    count = int(np.prod(batch))
    dm, dbm = max(src.dims, default=0), max(tgt.dims, default=0)
    quot = grp.table[grp.inverse]  # quot[k, k2] = k^-1 k2
    mats = padded([t.mats], (dbm, dm))[0]
    # coords of a_x^{k*} a_y^{k2} in A_{k^-1 k2}, then of its image under T
    coords = src.adjoint_products.reshape(order, order, dm * dm, dm) \
        @ mats[quot].transpose(0, 1, 3, 2)  # (G, G, dm*dm, dbm)
    fibers = fibers.reshape(len(fibers), dbm, count * nb * nb)
    phi_quot = t.hom.map[quot]
    tt = np.empty((count, order, dm, nb, order, dm, nb), dtype=np.complex128)
    for k in grp.elements():
        vals = (coords[k] @ fibers[phi_quot[k]]).reshape(order, dm, dm, count, nb, nb)
        tt[:, k] = vals.transpose(3, 1, 4, 0, 2, 5)
    side = order * dm * nb
    return tt.reshape(*batch, side, side)


def _sample_tuples(rng, samples: int, da: np.ndarray, db: np.ndarray):
    """Random tuples (labels g_i, coordinates of the a_i in A_{g_i} and of
    the b_i in B_{phi(g_i)}), where da[g] and db[g] are the dimensions of
    A_g and B_{phi(g)}.  One call each draws the tuple lengths, the labels
    of all positions, and the real and imaginary parts of all a's, then of
    all b's, as (positions, 2, width) arrays zeroed past each fiber's
    dimension.  Tuples touching a zero fiber are drawn and dropped.
    Returns the lengths of the kept tuples and their positions'
    concatenated labels (P,), a's (P, dm) and b's (P, dbm)."""
    order = len(da)
    dm, dbm = int(da.max(initial=0)), int(db.max(initial=0))
    lengths = rng.integers(1, max(1, order * dm) + 1, size=samples)
    labels = rng.integers(order, size=int(lengths.sum()))
    a, b = ((z[:, 0] + 1j * z[:, 1]) * (np.arange(width) < dims[labels][:, None])
            for z, width, dims in ((rng.standard_normal((len(labels), 2, dm)), dm, da),
                                   (rng.standard_normal((len(labels), 2, dbm)), dbm, db)))
    sid = np.repeat(np.arange(samples), lengths)
    dropped = np.zeros(samples, dtype=bool)
    dropped[sid[(da[labels] == 0) | (db[labels] == 0)]] = True
    keep = ~dropped[sid]
    return lengths[~dropped], labels[keep], a[keep], b[keep]


def _summed_outer(key: np.ndarray, a: np.ndarray, b: np.ndarray, rows: int) -> np.ndarray:
    """sum over positions i with key[i] = r of conj(a_i) (x) b_i, for every
    row r < rows: (rows, len(a_i) * len(b_i)), from one stable sort of the
    keys and one np.add.reduceat over their runs."""
    perm = np.argsort(key, kind="stable")
    key = key[perm]
    runs = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    out = np.zeros((rows, a.shape[1] * b.shape[1]), dtype=np.complex128)
    if len(key):
        outer = (a[perm].conj()[:, :, None] * b[perm][:, None, :]).reshape(len(key), -1)
        out[key[runs]] = np.add.reduceat(outer, runs, axis=0)
    return out


def pd_check_sampled(t: BundleMap, samples: int = 200, seed: int = 0,
                     tol: Tolerance | None = None, blocks: Blocks | None = None) -> SampledCheck:
    """Evaluate the quantified positivity condition on random tuples.

    Each sample draws a tuple (g_i, a_i in A_{g_i}, b_i in B_{phi(g_i)}) and
    tests the sum  S = sum_ij b_i T(a_i* a_j) b_j*  for positivity.  S lies
    in the algebra B spanned by the target's fibers, so it is judged per
    irreducible block W* S W of B, as the certificate is (`_certify`):
    `FellBundle.blocks` unless `blocks` is given (`numerics.one_block` is
    the ambient route).  The compression is a faithful *-representation of
    B, so the smallest eigenvalue of S, leaving out the corner that B
    annihilates, is the smallest over the blocks, its operator norm is the
    largest, and the Frobenius norms of S and S - S* add up the blocks'
    weighted by their multiplicities.  Sampling can miss violations but
    refutes at a strictly looser bound than the exact certificate
    (`numerics.judge_psd` with refute=10), so it never contradicts an exact
    pass.

    Positions sharing a label are summed first: S = E T E*, with T from
    t_values_ambient on the compressed fibers and E = sum_i conj(a_i)^T (x)
    b_i placed in the column block of g_i.  Each row block (k, x) of E is a
    combination of the d_B compressed target fiber basis matrices
    beta_c^{phi(k)} (d_B the largest of them), so E T = coef y with
    y[(k, x, c), :] = beta_c^{phi(k)} T[(k, x), :], folded once per call.
    Per sample and block of side nb the folded product costs |G| d_A d_B nb
    side and the dense E T costs nb side^2 (side = |G| d_A nb), so T is
    folded exactly when d_B < nb; y holds d_B times the entries of T, and
    costs about d_B dense samples to build.  The right product with E*
    stays dense.  Samples are evaluated together in chunks whose
    intermediates stay near CHUNK_BYTES: per sample, the coefficients of E,
    the outer products a_i* (x) b_i of up to |G| d_A positions that they sum
    (`_summed_outer`) and their copy in key order, and four (L, nb, side)
    arrays of the largest group of blocks of one size.  The tuples are drawn
    at once (`_sample_tuples`) and sliced per chunk.  The margins, Hermitian
    defects and norms of a chunk come from one batched eigvalsh per size, on
    T divided by a power of two so huge finite entries cannot overflow: the
    norm of a sum that is Hermitian up to rounding is its largest
    |eigenvalue|, and only the other sums take singular values.  The
    witness is the first sample attaining the minimal margin; its sum S is
    formed in the ambient algebra on first read of `witness_sum`.
    """
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples}")
    tol = tol or DEFAULT_TOL
    src, tgt = t.source, t.target
    order = src.group.order
    da, db = np.asarray(src.dims), np.asarray(tgt.dims)[t.hom.map]
    dm, dbm = int(da.max(initial=0)), int(db.max(initial=0))
    groups = (blocks or tgt.blocks).compress(tgt.fiber_array)
    forms = [t_values_ambient(t, fibers) for _, fibers in groups]
    mu = max(overflow_scale(form, "positivity form") for form in forms)
    sizes, widest = [], 0
    for mult, fibers in groups:
        tt = forms.pop(0)  # so that T and its fold y are not both held
        if mu != 1:
            tt /= mu
        count, nb, side = len(mult), fibers.shape[-1], tt.shape[-1]
        fibers = fibers[t.hom.map, :dbm].transpose(2, 0, 1, 3, 4)  # (L, G, d_B, nb, nb)
        if dbm < nb:  # fold: tt becomes y,
            # y[l, (k, x, c), (r, col)] = sum_a beta_c^{phi(k)}_l[r, a] T_l[(k, x, a), col]
            tt = (fibers.reshape(count, order, 1, dbm * nb, nb)
                  @ tt.reshape(count, order, dm, nb, side)).reshape(
                count, order * dm * dbm, nb * side)
        fibers = fibers.transpose(1, 2, 0, 3, 4).reshape(order, dbm, count * nb * nb)
        sizes.append((mult, nb, fibers, tt))
        widest = max(widest, count * nb * side)
    # complex entries per sample: coef, the outer products summed into it
    # and their reordered copy, and e, its transpose and conjugate, and e @ tt
    live = order * dm * dbm * (1 + 2 * dm) + 4 * widest
    chunk = max(1, CHUNK_BYTES // max(16 * live, 1))
    lengths, labels, a_all, b_all = _sample_tuples(np.random.default_rng(seed), samples, da, db)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    worst, first, refuted = np.inf, None, False
    for lo in range(0, len(lengths), chunk):
        hi = min(lo + chunk, len(lengths))
        span = slice(starts[lo], ends[hi - 1])
        # coefficient of e_x (x) f_c in column block k of E, per sample
        sid = np.repeat(np.arange(hi - lo), lengths[lo:hi])
        coef = _summed_outer(sid * order + labels[span], a_all[span], b_all[span],
                             (hi - lo) * order).reshape(hi - lo, order, dm, dbm)
        sums = []
        for mult, nb, fibers, tt in sizes:
            count, side = len(mult), order * dm * nb
            # e[l, sample]: (nb, side), with columns (k, x, col)
            e = (coef @ fibers).reshape(hi - lo, order, dm, count, nb, nb)
            e = e.transpose(3, 0, 4, 1, 2, 5).reshape(count, hi - lo, nb, side)
            et = coef.reshape(hi - lo, -1) @ tt if dbm < nb else \
                e.reshape(count, -1, side) @ tt
            s = et.reshape(count, hi - lo, nb, side) @ e.conj().swapaxes(-1, -2)
            sums.append((mult, s.swapaxes(0, 1)))
        # the floors max(1, .) of the unscaled sums, over mu
        defect, low, high = block_spectra(sums, 1 / mu)
        # ||S||: the largest |eigenvalue| of a sum that is Hermitian up to
        # rounding, the largest singular value of its blocks otherwise
        top = np.maximum(np.maximum(-low, high), 0.0)
        skew = np.flatnonzero(defect > ROUNDING)
        if len(skew):
            top[skew] = np.max([opnorms(s[skew]).max(axis=-1) for _, s in sums], axis=0)
        ok, _, hermitian = judge_psd(defect, low, top, tol, 1 / mu, refute=10)
        margin = low / np.maximum(1 / mu, top)
        margin = np.where(hermitian, margin, np.minimum(margin, -defect))
        p = int(np.argmin(margin))
        if margin[p] < worst:
            worst, first = float(margin[p]), lo + p
        refuted = refuted or not ok.all()
    if not refuted:
        return SampledCheck(True, worst if np.isfinite(worst) else 0.0)
    span = slice(starts[first], ends[first])
    witness = [(int(g), src.element(g, ai[:da[g]]), tgt.element(t.hom(g), bi[:db[g]]))
               for g, ai, bi in zip(labels[span], a_all[span], b_all[span])]
    return SampledCheck(False, worst, witness, lambda: _tuple_sum(t, witness))


def _gns_slots(t: BundleMap):
    """The slot layout of the reconstruction: slot (k, i, j) of fiber r is
    a_i^{(k)} (x) b_j^{(phi(k)^-1 r)}, at flat index (k * da + i) * db + j of
    the padded (|G_A|, da, db) grid (da, db the largest source and target
    fiber dimensions).  Returns bleg[r, k] = phi(k)^-1 r and, per fiber r,
    the flat indices of its slots, ordered by k, i, j."""
    src, tgt = t.source, t.target
    tgrp = tgt.group
    da, db = max(src.dims, default=0), max(tgt.dims, default=0)
    bleg = tgrp.table[tgrp.inverse[t.hom.map]].T
    valid = (np.arange(da)[:, None] < np.asarray(src.dims)[:, None, None]) \
        & (np.arange(db) < np.asarray(tgt.dims)[bleg][..., None, None])
    return bleg, [np.flatnonzero(v) for v in valid]


def gns_raw_gram(t: BundleMap) -> list[list[np.ndarray]]:
    """Semi-inner products of the elementary tensors of the reconstruction.

    ip0[r][s][p, q] holds, in B_{r^-1 s} coordinates, b* T(a* a') b' for
    slot p = a (x) b of fiber r and slot q = a' (x) b' of fiber s, in the
    layout of `_gns_slots`.  With the padded fibers P_r[k, j] =
    b_j^{(phi(k)^-1 r)} and T from t_values_ambient, the entry is
    <P_r[k,j] c_z, T_{(k,x),(k2,y)} P_s[k2,J]> summed over the HS basis c_z
    of B_{r^-1 s}: T times P_s and P_r times c_z are batched matmuls, and
    one batched GEMM contracts the two over the ambient indices.
    """
    src, tgt = t.source, t.target
    order, tgrp = src.group.order, tgt.group
    n = tgt.ambient_dim
    dm, dbm = max(src.dims, default=0), max(tgt.dims, default=0)
    rows = order * dm * n
    cols = order * dm * dbm
    # tt as (k2, (k, x, b, y), c): the right-hand ambient index last
    tt = t_values_ambient(t).reshape(rows, order, dm, n).transpose(1, 0, 2, 3) \
        .reshape(order, rows * dm, n)
    fibers = tgt.fiber_array
    bleg, slots = _gns_slots(t)
    ip0 = [[None] * tgrp.order for _ in tgrp.elements()]
    for s in tgrp.elements():
        ps = fibers[bleg[s]]  # (k2, J, c, d)
        right = (tt @ ps.transpose(0, 2, 1, 3).reshape(order, n, dbm * n)).reshape(
            order, order, dm, n, dm, dbm, n)  # (k2, k, x, b, y, J, d)
        right = right.transpose(1, 2, 3, 6, 0, 4, 5).reshape(order, dm, n * n, cols)
        for r in tgrp.elements():
            rs = tgrp.mul(tgrp.inv(r), s)
            brs = tgt.fibers[rs]
            left = (fibers[bleg[r]][:, :, None] @ brs).conj()  # (k, j, z, b, d)
            vals = left.reshape(order, 1, dbm * len(brs), n * n) @ right
            vals = vals.reshape(order, dm, dbm, len(brs), cols).transpose(0, 1, 2, 4, 3)
            ip0[r][s] = vals.reshape(cols, cols, len(brs))[np.ix_(slots[r], slots[s])]
    return ip0


def gelfand_raikov(t: BundleMap, tol: Tolerance | None = None):
    """Reconstruct (Hilbert bundle, action, cyclic vector) from a positive
    definite map between unital bundles, so that T_g(a) = <xi, rho(a) xi>.

    Construction: the fiber over r is the span of the elementary tensors
    a (x) b of `_gns_slots`, with the semi-inner product `gns_raw_gram`, the
    right action on the second leg and the left tensor shift on the first.
    The separation rule of `hilbundles.separate` turns the trace-localized
    raw Grams into quotient bases K_r.  Scattered into the padded slot grid,
    they compress blockwise, as batched matmuls over k: the action to
    K_rh* (B-product on the second leg) K_r, the shift to K_{phi(g)r}*
    (A-product on the first leg) K_r, the inner products to K_r* ip0 K_s.
    The exact certificate covers contractivity, so the shift runs through
    no random guard.  Completion is vacuous here.
    """
    tol = tol or DEFAULT_TOL
    src, tgt, hom = t.source, t.target, t.hom
    if not (src.unital and tgt.unital):
        raise NotUnitalError("both bundles must be unital")
    cert, _ = _certify(t, tol)
    if not cert.ok:
        raise NotPositiveDefiniteError(
            f"map is not positive definite (margin {cert.margin:.3e})")
    grp, tgrp = src.group, tgt.group
    order, da, db = grp.order, max(src.dims), max(tgt.dims)
    bleg, slots = _gns_slots(t)
    ip0 = gns_raw_gram(t)
    try:
        keep = separating_bases([trace_localize(tgt, ip0[r][r]) for r in tgrp.elements()], tol)
    except InvariantViolationError as exc:
        raise NotPositiveDefiniteError(f"map is not positive definite ({exc})") from exc
    # K_r scattered into the padded slot grid: kpad[r] is (k, i, j, z)
    dims, side = [k.shape[1] for k in keep], order * da * db
    kpad = [np.zeros((order, da, db, m), dtype=np.complex128) for m in dims]
    for pad, rows, k in zip(kpad, slots, keep):
        pad.reshape(side, -1)[rows] = k

    # right action: (xi . b)(k) = xi(k) . b on the second tensor leg
    prod_b = tgt.prod_array.transpose(0, 1, 3, 4, 2)  # (f, h, u, j2, j1)
    act = [[None] * tgrp.order for _ in tgrp.elements()]
    for r in tgrp.elements():
        kr = kpad[r].transpose(0, 2, 1, 3).reshape(order, db, da * dims[r])  # (k, j1, (i, z))
        for h in tgrp.elements():
            moved = (prod_b[bleg[r], h].reshape(order, db * db, db) @ kr).reshape(
                order, db, db, da, dims[r]).transpose(1, 0, 3, 2, 4)  # (u, k, i, j2, z)
            out = kpad[tgrp.mul(r, h)].reshape(side, -1)
            act[r][h] = (out.conj().T @ moved.reshape(db, side, dims[r]))[:tgt.dims[h]]

    # left action: (rho(a) xi)(gk) = a . xi(k) on the first tensor leg
    prod_a = src.prod_array.transpose(0, 1, 2, 4, 3)  # (g, k, u, i2, i)
    ops = [[None] * tgrp.order for _ in grp.elements()]
    for g in grp.elements():
        for r in tgrp.elements():
            moved = (prod_a[g].reshape(order, da * da, da)
                     @ kpad[r].reshape(order, da, db * dims[r])).reshape(
                order, da, da * db, dims[r]).transpose(1, 0, 2, 3)  # (u, k, (i2, j), z)
            out = kpad[tgrp.mul(hom(g), r)][grp.table[g]].reshape(side, -1)  # rows (gk, i2, j)
            ops[g][r] = (out.conj().T @ moved.reshape(da, side, dims[r]))[:src.dims[g]]

    hbundle = HilbertBundle(tgt, dims, act, compress_inner(ip0, keep))
    # xi is the class of 1 (x) 1, in slots (e, i, j) of the unit fiber
    e_s, e_t = grp.identity, tgrp.identity
    unit = np.outer(src.unit_coords, tgt.unit_coords).ravel()
    xi = kpad[e_t][e_s, :src.dims[e_s], :tgt.dims[e_t]].reshape(unit.size, -1).conj().T @ unit
    return hbundle, Action(src, hom, hbundle, ops), xi


def roundtrip_residual(t: BundleMap, hbundle: HilbertBundle, rho: Action, xi) -> float:
    """max over g of ||T_g - C_g||_F, C_g the matrix of a -> <xi, rho(a) xi>:
    both in the HS-orthonormal fiber coordinates, not in the ambient algebra."""
    back = coefficient_map(rho, xi)
    worst = 0.0
    for g in t.source.group.elements():
        worst = max(worst, frob(back.mats[g] - t.mats[g]))
    return worst

