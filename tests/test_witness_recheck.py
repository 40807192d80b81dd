"""A refuting witness, written in fiber coordinates, re-checks without the
library's block forms.

`pd_check_exact` writes a failed certificate's witness as one triple
(g, coordinates of a in A_g, coordinates of b in B_{phi(g)}) per position
and its tuple sum S = sum_pq b_p T(a_p* a_q) b_q* as unit-fiber
coordinates.  Expanded to ambient matrices (`oracles`), the tuple re-sums to
the stored S, which has a negative eigenvalue.  Read from the stored JSON
as exact rationals (every float is one), the tuple sums in
`fractions.Fraction` to an S with <v, S v> < 0 for the float lowest
eigenvector v: the map as stored is not positive definite.  A tampered
witness, every b zeroed but the identity's, sums to a positive S.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from fellbundles import serialize as sz
from fellbundles.bundles import group_bundle
from fellbundles.groups import identity_hom, make_cyclic, symmetric_group
from fellbundles.pdmaps import pd_check_exact, scalar_bundle_map

from oracles import ambient_sum, witness_value
from test_pdmaps_batched import crossed, indefinite_identity


SCALAR = {**{f"Z{n}": make_cyclic(n) for n in range(2, 7)}, "S3": symmetric_group(3)}


def refuted_maps():
    """f(e) = 1 and f(g) = 2 elsewhere on the groups of SCALAR, and an
    indefinite identity on M2 x Z2: none is positive definite."""
    maps = {}
    for name, grp in SCALAR.items():
        b = group_bundle(grp)
        values = [1.0 if g == grp.identity else 2.0 for g in grp.elements()]
        maps[name] = scalar_bundle_map(b, b, identity_hom(grp), values)
    maps["M2xZ2 indefinite"] = indefinite_identity(crossed(2, 2, [1.0, -1.0]), 53)
    return maps


@pytest.fixture(scope="module")
def refuted():
    """Each refuted map with its certificate, and both as stored JSON."""
    out = {}
    for name, t in refuted_maps().items():
        cert = pd_check_exact(t)
        assert not cert.ok and cert.witness, name
        stored = json.loads(json.dumps({"map": sz.bundle_map_to_json(t),
                                        "certificate": sz.certificate_to_json(cert)}))
        out[name] = (t, cert, stored)
    return out


# -- exact arithmetic on the stored floats ---------------------------------------

_fraction = np.vectorize(Fraction, otypes=[object])


def rational(stored):
    """A stored complex array, [re, im] pairs, as exact (re, im) arrays of
    Fractions."""
    x = np.asarray(stored, dtype=np.float64)
    return _fraction(x[..., 0]), _fraction(x[..., 1])


def mul(x, y):
    return x[0] @ y[0] - x[1] @ y[1], x[0] @ y[1] + x[1] @ y[0]


def add(x, y):
    return x[0] + y[0], x[1] + y[1]


def adjoint(x):
    return x[0].T, -x[1].T


def combine(coeffs, basis):
    """sum_k coeffs[k] basis[k]."""
    return mul((coeffs[0][None], coeffs[1][None]),
               (basis[0].reshape(len(basis[0]), -1), basis[1].reshape(len(basis[1]), -1)))


def exact_tuple_sum(stored, witness):
    """S = sum_pq b_p T(a_p* a_q) b_q* over a witness in fiber coordinates
    (g, a, b as stored), in exact rationals from the stored map: T_k(x) is
    the stored block T_k on the HS coordinates tr(beta_i* x) of x in A_k,
    placed on the target fiber basis over phi(k)."""
    source, target = stored["source"], stored["target"]
    n = target["ambient_dim"]
    table = np.asarray(source["group"]["table"])
    identity = int(np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0])
    inverse = np.argmax(table == identity, axis=1)
    phi = stored["phi"]
    src = {int(g): rational(f) for g, f in source["fibers"].items() if f}
    tgt = {int(g): rational(f) for g, f in target["fibers"].items() if f}
    blocks = {int(g): rational(m) for g, m in stored["blocks"].items()}

    def element(fibers, g, coords):
        return tuple(part.reshape(n, n) for part in combine(rational(coords), fibers[g]))

    def apply(k, x):
        beta = tuple(part.reshape(len(part), n * n) for part in src[k])
        x = tuple(part.reshape(n * n) for part in x)
        hs = (beta[0] @ x[0] + beta[1] @ x[1], beta[0] @ x[1] - beta[1] @ x[0])
        image = mul(blocks[k], (hs[0][:, None], hs[1][:, None]))
        return tuple(part.reshape(n, n) for part in combine(
            (image[0][:, 0], image[1][:, 0]), tgt[phi[k]]))

    tuples = [(int(w["g"]), element(src, int(w["g"]), w["a"]),
               element(tgt, phi[int(w["g"])], w["b"])) for w in witness]
    zero = np.full((n, n), Fraction(0), dtype=object)
    total = (zero, zero)
    for g1, a1, b1 in tuples:
        row = (zero, zero)
        for g2, a2, b2 in tuples:
            row = add(row, mul(apply(int(table[inverse[g1], g2]), mul(adjoint(a1), a2)),
                               adjoint(b2)))
        total = add(total, mul(b1, row))
    return total


def exact_quadratic_form(s, v):
    """Re <v, S v> for a float vector v read as rationals."""
    vr, vi = _fraction(v.real), _fraction(v.imag)
    sv = mul(s, (vr[:, None], vi[:, None]))
    return vr @ sv[0][:, 0] + vi @ sv[1][:, 0]


def lowest_eigenvector(s):
    return np.linalg.eigh((s + s.conj().T) / 2)[1][:, 0]


# -- the checks ------------------------------------------------------------------

def test_the_expanded_witness_resums_to_its_stored_sum(refuted):
    for name, (t, cert, _) in refuted.items():
        s, stored = witness_value(t, cert.witness), ambient_sum(t, cert)
        assert np.abs(s - stored).max() <= 1e-12 * max(1.0, np.abs(stored).max()), name
        low = np.linalg.eigvalsh((s + s.conj().T) / 2)[0]
        assert low < 0 and low <= cert.margin + 1e-12, (name, low)


def test_the_stored_witness_refutes_the_stored_map_exactly(refuted):
    for name, (t, cert, stored) in refuted.items():
        witness = stored["certificate"]["witness"]
        exact = exact_tuple_sum(stored["map"], witness)
        approx = (exact[0] + 1j * exact[1]).astype(np.complex128)
        s = witness_value(t, cert.witness)
        assert np.abs(approx - s).max() <= 1e-12 * max(1.0, np.abs(s).max()), name
        v = lowest_eigenvector(ambient_sum(t, cert))
        value = exact_quadratic_form(exact, v)
        assert isinstance(value, Fraction) and value < 0, (name, float(value))


def test_a_tampered_witness_is_refused(refuted):
    """Every b zeroed but the identity position's: the sum is
    |a_e|^2 f(e) b_e b_e*, positive, in floats and exactly."""
    for name in SCALAR:
        t, cert, stored = refuted[name]
        e = t.source.group.identity
        witness = [(g, a, b if g == e else np.zeros_like(b)) for g, a, b in cert.witness]
        s = witness_value(t, witness)
        herm = (s + s.conj().T) / 2
        assert np.linalg.eigvalsh(herm)[0] >= -1e-12 * max(1.0, np.abs(s).max()), name
        tampered = [dict(w, b=w["b"] if w["g"] == e else [[0.0, 0.0]] * len(w["b"]))
                    for w in stored["certificate"]["witness"]]
        exact = exact_tuple_sum(stored["map"], tampered)
        v = lowest_eigenvector(ambient_sum(t, cert))
        assert exact_quadratic_form(exact, v) >= 0, name
