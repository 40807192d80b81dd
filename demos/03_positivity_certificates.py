"""Certify positive definiteness of graded maps between bundles.

Positivity quantifies over all finite tuples; the exact checker collapses
it to one Hermitian certificate matrix over the fiber bases and reports
the minimal eigenvalue as a margin.  On scalar functions over cyclic
groups this is classical positive definiteness, and the margin equals the
smallest value of the discrete Fourier transform.  On failure the checker
folds the most negative eigenvector back into an explicit violating tuple.
"""

import numpy as np

from fellbundles.bundles import group_bundle
from fellbundles.groups import identity_hom, make_cyclic
from fellbundles.pdmaps import pd_check_exact, pd_check_sampled, scalar_bundle_map

b = group_bundle(make_cyclic(2))
hom = identity_hom(b.group)

for t in (0.5, 1.0, 2.0):
    cert = pd_check_exact(scalar_bundle_map(b, b, hom, [1.0, t]))
    print(f"f(e)=1, f(g)={t}: positive definite = {cert.ok}, margin = {cert.margin:+.6f}")
print()

# margins match the Fourier transform exactly
n = 8
b8 = group_bundle(make_cyclic(n))
rng = np.random.default_rng(2)
raw = rng.standard_normal(n)
f = np.array([(raw[g] + raw[(-g) % n]) / 2 for g in range(n)])  # symmetric
cert = pd_check_exact(scalar_bundle_map(b8, b8, identity_hom(b8.group), f))
print("random symmetric f on Z/8:")
print("  margin          ", cert.margin)
print("  min of the DFT  ", np.fft.fft(f).real.min())
print()

# the failure witness is a genuine tuple whose quantified sum goes negative;
# the tuple and its sum come in fiber coordinates, expanded here by element
bad = scalar_bundle_map(b, b, hom, [1.0, 2.0])
cert = pd_check_exact(bad)
s = b.element(b.group.identity, cert.witness_sum)
print("witness sum for f(g)=2 has eigenvalues",
      np.round(np.linalg.eigvalsh((s + s.conj().T) / 2), 6),
      "<= margin", cert.margin)
sampled = pd_check_sampled(bad, samples=500, seed=0)
print("sampled tuples also catch it:", not sampled.ok,
      f"(worst sampled margin {sampled.worst_margin:+.3f})")
