"""From an action to a correspondence between cross-sectional algebras.

The section space of a Hilbert bundle carries an algebra-valued inner
product and a convolution-style right action; a bundle action on the left
turns it into a correspondence.  Amplifying by the left regular
representation of the acting group always yields a *-representation, with
the generator of (a, g) acting as  lambda_g (x) pi_g(a); it is checked
blockwise, since pi_g(a) has one nonzero block per fiber.
"""

import numpy as np

from fellbundles.actions import coefficient_map, l2_action, trivial_action
from fellbundles.bundles import group_bundle
from fellbundles.correspondences import (
    amplified_correspondence,
    amplified_is_star_rep,
    attach_left_action,
    build_module,
    check_cyclic,
    check_nondegenerate,
    subcorrespondence,
)
from fellbundles.crosssec import Section
from fellbundles.groups import make_cyclic, symmetric_group
from fellbundles.pdmaps import phi_t

b = group_bundle(symmetric_group(3))
rho = l2_action(b)
y = attach_left_action(build_module(rho.target), rho)
print("module dimension over C*(B):", y.dim)
print("left action nondegenerate:", check_nondegenerate(y))

amp = amplified_correspondence(y)
print("amplified dimension:", amp.dim, "=", b.group.order, "x", y.dim)
star_rep = amplified_is_star_rep(amp)
print("amplified assignment is a *-representation:", star_rep.ok,
      f"(worst residual {star_rep.residual:.1e}, bound {star_rep.bound:.0e})")
print()

# matrix coefficients through the module recover the graded push-forward
rng = np.random.default_rng(4)
e = b.group.identity
x = rho.target.random_vector(e, rng)
t = coefficient_map(rho, x)
xi_x = y.embed(e, x)
f = Section.random(b, rng)
lhs = y.inner(xi_x, y.left_mul(f, xi_x))
print("<xi_x, f.xi_x> equals the push-forward of f:",
      lhs.allclose(phi_t(t, f), atol=1e-10))
print()

# the subcorrespondence generated by a cyclic vector is everything
b2 = group_bundle(make_cyclic(2))
triv = trivial_action(b2)
y2 = attach_left_action(build_module(triv.target), triv)
sub = subcorrespondence(y2, b2.unit_coords)
print("generated by the unit:", sub.dim, "of", y2.dim, "dimensions;",
      "cyclic:", check_cyclic(y2, b2.unit_coords))
