"""Geometry of the eigenvalue-maximizing Klein bottle, frequency by frequency.

The parameter ordering (1, 0, 2) reproduces the classical 5-component
parametrization with its exact rational amplitudes 1/2, 5/8, 3/8 and
negative modulus k^2 = -1/3; the canonical ordering (0, 1, 2) is the
same surface with the real modulus 1/4.  Both are checked against each
other, the half-period identification is located numerically, and the
surface is written out as a mesh.
"""

import math
import os
import tempfile

import numpy as np

from lawson import (
    Case,
    Triple,
    area_closed,
    canonicalize,
    coefficients,
    immersion,
    symmetry_residual,
    validate,
)

raw = Triple(Case.GENERALIZED, 1, 0, 2)
co = coefficients(raw)
print("Amplitudes of the (1, 0, 2) ordering (exact rationals):")
print(f"  c1^2 = {co.c1_sq}  (= 1/2: {co.c1_sq == 1 / 2})")
print(f"  c2^2 = {co.c2_sq}  (= 5/8: {co.c2_sq == 5 / 8})")
print(f"  c3^2 = {co.c3_sq}  (= 3/8: {co.c3_sq == 3 / 8})")
print(f"  k^2  = {co.k2}  (= -1/3: {co.k2 == -1 / 3})")

t = canonicalize(raw)
print(f"\nCanonical form: {t.label()}, coefficients "
      f"{coefficients(t).c1_sq}, {coefficients(t).c2_sq}, "
      f"{coefficients(t).c3_sq}, k^2 = {coefficients(t).k2}")

s_raw, _ = area_closed(raw)
s_can, _ = area_closed(t)
print(f"\nArea from either ordering (negative-modulus route vs real-modulus route):")
print(f"  {s_raw:.15f}  vs  {s_can:.15f}")

rng = np.random.default_rng(1)
x, y = rng.uniform(0, 2 * math.pi, 2000), rng.uniform(0, 2 * math.pi, 2000)
F = immersion(t, x, y)
print(f"\nUnit-sphere residual over 2000 random points: "
      f"{np.max(np.abs(np.sum(F * F, axis=0) - 1.0)):.2e}")

print("\nHalf-period identifications (residual of F(Phi(x,y)) = F(x,y)):")
for phi, r in symmetry_residual(t, 32).items():
    verdict = "<- the Klein bottle identification" if r < 1e-12 else ""
    print(f"  {phi.value}: {r:.3e} {verdict}")

# A mesh for inspection: project onto coordinates 2, 3, 5 of R^6.
path = os.path.join(tempfile.gettempdir(), "klein_bottle_012.obj")
from lawson.cli import main

main(["export", "0", "1", "2", "--nx", "96", "--ny", "96",
      "--format", "obj", "--axes", "2,3,5", "--out", path])
print(f"\nWrote a 96 x 96 mesh to {path} (double cover left uncollapsed).")
