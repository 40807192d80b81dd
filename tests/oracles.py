"""Ambient oracles for the refuting tuples of the positivity checks.

`pdmaps` writes a witness in fiber coordinates: per position the source
element g, the coordinates of a in A_g and of b in B_{phi(g)}, and the
certificate's `witness_sum` as unit-fiber coordinates of B_e.  These helpers
expand a witness to ambient matrices and re-evaluate its tuple sum there,
one position pair at a time, independently of the block forms the library
reads it from.
"""

import numpy as np


def tuple_sum(t, witness) -> np.ndarray:
    """sum_ij b_i T(a_i* a_j) b_j* over a tuple (g_i, a_i, b_i) of ambient
    matrices."""
    grp = t.source.group
    with np.errstate(over="ignore", invalid="ignore"):  # a sum beyond the float range reads inf
        return sum(b1 @ t.apply_ambient(grp.mul(grp.inv(g1), g2), a1.conj().T @ a2) @ b2.conj().T
                   for g1, a1, b1 in witness for g2, a2, b2 in witness)


def ambient_witness(t, witness) -> list:
    """The tuple (g, a, b) of ambient matrices of a witness in fiber
    coordinates (g, coordinates of a in A_g, coordinates of b in B_{phi(g)})."""
    return [(g, t.source.element(g, a), t.target.element(t.hom(g), b)) for g, a, b in witness]


def witness_value(t, witness) -> np.ndarray:
    """The ambient tuple sum of a witness in fiber coordinates."""
    return tuple_sum(t, ambient_witness(t, witness))


def ambient_sum(t, cert) -> np.ndarray:
    """The certificate's `witness_sum`, unit-fiber coordinates of B_e, as an
    ambient matrix."""
    return t.target.element(t.target.group.identity, cert.witness_sum)
