"""Sections, convolution, and exact C*-norms through the ambient image.

Finitely supported graded functions on the group form a *-algebra under
convolution.  Summing a section's values in the ambient matrix algebra,
f -> sum_g f(g), is a *-homomorphism; when the fiber sum is direct it is
injective, hence isometric, and its operator norm is the exact C*-norm:
for cyclic groups this reproduces the largest modulus of the discrete
Fourier transform.  The regular representation on the direct sum of the
fibers gives the same norm.
"""

import numpy as np

from fellbundles.bundles import group_bundle, regular_unitary
from fellbundles.crosssec import Section, ambient_image, convolve, cstar_norm, regular_rep, \
    rep_matrix, star
from fellbundles.groups import make_cyclic
from fellbundles.numerics import opnorm

n = 6
grp = make_cyclic(n)
b = group_bundle(grp)
print("fiber sum is direct:", b.direct)

rng = np.random.default_rng(1)
vals = rng.standard_normal(n)
f = Section(b, vals[:, None] * np.sqrt(n))
print("section with values", np.round(vals, 3), "on Z/6")
print("C*-norm:", cstar_norm(f))
print("max |DFT|:", np.abs(np.fft.fft(vals)).max())
print("regular image norm:", opnorm(rep_matrix(regular_rep(b), f)))
print()

# the C*-identity ||f* f|| = ||f||^2 holds on the nose
lhs = cstar_norm(convolve(star(f), f))
print("||f* f|| =", lhs, " ||f||^2 =", cstar_norm(f) ** 2)
print()

# convolution in coordinates matches the ambient matrix arithmetic
g = Section.delta(b, 1, regular_unitary(grp, 1))
prod = convolve(g, g)
print("delta_1 * delta_1 is supported at", prod.support(),
      "with ambient value\n", np.round(prod.ambient(2).real, 6))
print()
print("the unit's ambient image is the identity:",
      np.allclose(ambient_image(Section.unit(b)), np.eye(b.ambient_dim)))
