"""Walkthrough: exact second-order derivatives vs finite differences.

A Jet2 carries value, gradient and Hessian through every arithmetic
operation, so the derivatives of a composite expression are exact to
rounding.  Central differences are a fully independent check: they only
ever call the expression at plain points.
"""

from prodgeo import jets

def field(u, v):
    # Q-like composite: u^0.6 * (0.5*u + v)^0.8, built from jet primitives
    return jets.mul(jets.powr(u, 0.6),
                    jets.powr(jets.add(jets.scale(u, 0.5), v), 0.8))

u0, v0 = 1.3, 2.1
hu, hv = 1e-5 * u0, 1e-5 * v0  # steps scale with the point

def f(i, j):
    """The field at (u0 + i*hu, v0 + j*hv), at a plain point."""
    return field(jets.constant(u0 + i * hu), jets.constant(v0 + j * hv)).val

jet = field(*jets.seed(u0, v0))
d1 = (f(1, 0) - f(-1, 0)) / (2.0 * hu)
d2 = (f(0, 1) - f(0, -1)) / (2.0 * hv)
d11 = (f(1, 0) - 2.0 * f(0, 0) + f(-1, 0)) / (hu * hu)
d12 = (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4.0 * hu * hv)
d22 = (f(0, 1) - 2.0 * f(0, 0) + f(0, -1)) / (hv * hv)

print(f"f({u0}, {v0}) = {jet.val:.12f}")
print(f"{'slot':<6} {'autodiff':>20} {'finite diff':>20} {'abs diff':>12}")
for name, exact, approx in (
        ("d1", jet.d1, d1),
        ("d2", jet.d2, d2),
        ("d11", jet.d11, d11),
        ("d12", jet.d12, d12),
        ("d22", jet.d22, d22)):
    print(f"{name:<6} {exact:>20.12f} {approx:>20.12f} {abs(exact - approx):>12.2e}")

print("\nThe gradient agrees to ~1e-10 and the Hessian to ~1e-6: exactly the")
print("truncation/rounding budget of central differences with h = 1e-5.")
