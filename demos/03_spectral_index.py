"""The spectral story: counting eigenvalues below 2 recovers the index.

Each surface here is minimal in the unit 5-sphere, so its coordinate
functions are Laplace eigenfunctions with eigenvalue 2, and the metric
is extremal for the N(2)-th normalized eigenvalue functional, where
N(2) counts eigenvalues strictly below 2.  The count is computed from
scratch, sector filters and all, on the one Lame operator that every
frequency shares in the conformal coordinate, and compared with the
closed-form index.  A sector counts at each l below its stop (the
operator's edges, at l^2 < l_edge^2) and of the parity its symmetry
admits; "gap" is how far that operator's next eigenvalue lies above
the highest level the count compares with.
"""

from lawson import (
    Case,
    anchor_check,
    classify,
    count_N2,
    interlacing_check,
    sl_problem,
    sl_spectrum,
    takahashi_residual,
    validate,
)

print("Minimality certificate: Delta_h F ~ 2 F at second order")
print("-" * 64)
t = validate(Case.GENERALIZED, 1, 2, 3)
residuals = [takahashi_residual(t, n) for n in (128, 256, 512)]
print(f"{t.label()}: residuals {['%.3e' % r for r in residuals]}")
print(f"  doubling ratios: {residuals[0] / residuals[1]:.3f}, "
      f"{residuals[1] / residuals[2]:.3f}  (4 = clean second order)")

print("\nAnchor eigenvalues: three copies of 2 in the separated spectra")
print("-" * 64)
for params in [(0, 1, 2), (1, 2, 3)]:
    t = validate(Case.GENERALIZED, *params)
    r = anchor_check(t, 2048)[0]
    print(f"{t.label()}: |lambda_0(c)-2| = {r[0]:.2e}, "
          f"|lambda_1(max)-2| = {r[1]:.2e}, |lambda_2(min)-2| = {r[2]:.2e}")

print("\nSpectra of the Clifford triple are exactly 2 (m^2 + l^2):")
t = validate(Case.GENERALIZED, 0, 0, 1)
for l in (0, 1, 2):
    ev = sl_spectrum(sl_problem(t, l), 1024, count=5).eigenvalues
    print(f"  l={l}: {[round(float(v), 6) for v in ev]}")

print("\nIndependent recount of the extremal index")
print("-" * 64)
for case, params in [
    (Case.GENERALIZED, (0, 0, 1)),
    (Case.GENERALIZED, (0, 1, 2)),
    (Case.GENERALIZED, (1, 1, 2)),
    (Case.GENERALIZED, (1, 2, 3)),
    (Case.GENERALIZED, (3, 4, 6)),
    (Case.LAWSON, (2, 1)),
    (Case.LAWSON, (3, 1)),
]:
    t = validate(case, *params)
    j = classify(t).j
    report = count_N2(t, 2048)
    stops = ", ".join(f"{s}:{stop}" for s, stop in report.stops.items())
    even, odd = ("+".join(sectors) for sectors in report.sectors)
    flag = "agree" if report.agree else "MISMATCH"
    print(f"{t.label():>10}: closed-form j = {j:2d}, counted N(2) = {report.n2:2d}  [{flag}]")
    print(f"            stops {stops}; even l in {even}, odd l in {odd}  (gap {report.gap:.2f})")

print("\nOscillation orderings hold numerically:")
for params in [(0, 0, 1), (1, 1, 2), (1, 2, 4)]:
    t = validate(Case.GENERALIZED, *params)
    report = interlacing_check(t, 1024)
    print(f"  {t.label()}: smallest strict gaps "
          f"{', '.join(f'{gap:.3g} at l = {l:g}' for gap, l, *_ in report.gaps)}, "
          f"bar {report.bar:.2g}: {report.holds}")
