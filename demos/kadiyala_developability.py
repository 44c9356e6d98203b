"""Walkthrough: when is the Kadiyala surface developable?

Exactly three parameter regimes flatten the Gaussian curvature to zero
everywhere: constant returns to scale (delta = 1), and two regimes that
collapse the function to perfect substitutes, (k1*u + k3*v)^delta.
Anything else curves somewhere, and a grid sweep finds it.
"""

from prodgeo import (DEFAULT_GRID, build_grid_report, kadiyala_is_developable,
                     kadiyala_specialize, kadiyala_validate,
                     random_kadiyala_params)

cases = {
    "constant returns": kadiyala_validate(0.3, 0.2, 0.3, 1.5, 0.8, 1.0),
    "k2=0, beta1+beta2=1": kadiyala_validate(0.4, 0.0, 0.6, 0.3, 0.7, 2.0),
    "beta=1, k2^2=k1*k3": kadiyala_validate(0.25, 0.25, 0.25, 1.0, 1.0, 2.0),
    "generic (seed 1)": random_kadiyala_params(1),
    "generic (seed 2)": random_kadiyala_params(2),
}

print(f"{'case':<22} {'developable?':<13} {'reason':<28} {'max|K| on grid':<15} family")
for name, p in cases.items():
    reason = kadiyala_is_developable(p)
    report = build_grid_report(p, DEFAULT_GRID)
    family = kadiyala_specialize(p)
    print(f"{name:<22} {str(reason.developable):<13} {reason.value:<28} "
          f"{report.summary['max_abs_k']:<15.3e} {family.tag.value}")

p = kadiyala_validate(0.4, 0.0, 0.6, 0.3, 0.7, 2.0)
print("\nperfect-substitutes reduction of the second case:")
print(" ", kadiyala_specialize(p).detail)
