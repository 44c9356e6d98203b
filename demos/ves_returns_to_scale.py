"""Walkthrough: the VES production surface and its curvature sign.

The returns-to-scale parameter delta alone decides the sign of the
Gaussian curvature of the graph surface (u, v, Q(u, v)):

    delta = 1  ->  K = 0 everywhere (the surface is developable)
    delta < 1  ->  K > 0 everywhere
    delta > 1  ->  K < 0 everywhere

This script evaluates one parameter set per regime over a grid and
tabulates what the autodiff pipeline and the closed form both see.
"""

from prodgeo import (DEFAULT_GRID, build_grid_report, curvature,
                     emit_grid_report, ves_validate)

for delta in (0.6, 1.0, 2.5):
    p = ves_validate(k=1.5, beta=0.4, rho=0.7, delta=delta)
    regime, predicted = curvature.ves_theorem_verdict(p)
    report = build_grid_report(p, DEFAULT_GRID)
    signs = {sign for sign, valid in zip(report.sign, report.valid) if valid}
    print(f"delta = {delta:<4}  regime = {regime.value:<10}  "
          f"predicted sign = {predicted.value:<8}  "
          f"observed signs on grid = {sorted(signs)}  "
          f"max|K| = {report.summary['max_abs_k']:.3e}")

# The elasticity of substitution is linear in the capital-labor ratio
# (Revankar): sigma = 1 + (rho-1)/(1-beta*rho) * u/v.
p = ves_validate(k=1.0, beta=0.4, rho=0.7, delta=1.0)
print("\nsigma along u/v for beta=0.4, rho=0.7:")
for ratio in (0.25, 0.5, 1.0, 2.0):
    sigma = 1.0 + (p.rho - 1.0) / (1.0 - p.beta * p.rho) * ratio
    print(f"  u/v = {ratio:<5} sigma = {sigma:.4f}")

# Grid data equivalent to a surface plot, ready for any plotting tool:
csv = emit_grid_report(build_grid_report(p, DEFAULT_GRID), "csv")
with open("ves_surface.csv", "w") as fh:
    fh.write(csv)
print("\nwrote ves_surface.csv "
      f"({len(csv.splitlines()) - 1} rows of u,v,f,K,H,valid,sign)")
