"""An independent reference for f, K and H, and the rounding bound that
judges prodgeo's double-precision results against it.

The height f(u, v) of each family is written out here in mpmath, apart
from prodgeo's jets and closed forms. Its partial derivatives come from
mpmath's own numerical differentiation at 50 digits, and K and H from
the Monge formulas for a graph surface:

    W^2 = 1 + f_u^2 + f_v^2
    K   = (f_uu f_vv - f_uv^2) / W^4
    H   = ((1 + f_u^2) f_vv - 2 f_u f_v f_uv + (1 + f_v^2) f_uu) / (2 W^3)

A double result x is accepted when |x - x*| <= C * EPS * scale, where x*
is the 50-digit value and the scale counts what rounding can lose:

    f:  scale = M
    K:  scale = S + |K*| c,   S = (M_uu M_vv + M_uv^2) / W^4
    H:  scale = S_H + |H*| c, S_H = ((1 + M_u^2) M_vv + 2 M_u M_v M_uv
                                     + (1 + M_v^2) M_uu) / (2 W^3)
    c = (1 + M_u^2)(1 + M_v^2) / W^2

M, M_u, ..., M_vv scale the rounding error of f and of its derivatives
as the program forms them: a first-order running error analysis along
the expression tree of f (``Magnitude``), which sums each quantity's
terms in absolute value, so that cancellation inside the chain rule, in
the VES aggregate (rho - 1) u + v and in the exponents formed from the
parameters all count. S and S_H are then the sizes of the terms that
cancel in the numerators of K and H, and c how much det I cancels. Where
the exact K is 0 (a developable surface) the bound is C * EPS * S, so the
same test holds at every magnitude of K. C is about the number of
rounded operations on the longest path of the tree; README.md gives the
worst multiples measured.
"""

from __future__ import annotations

import math
import sys

EPS = sys.float_info.epsilon
DIGITS = 50

#: Multiples of EPS * scale allowed, per quantity (the constant C).
LIMITS = {"f": 16.0, "K": 16.0, "H": 16.0, "K_closed": 16.0}


def _ves_height(p, mpf):
    k, b, r, d = (mpf(p.k), mpf(p.beta), mpf(p.rho), mpf(p.delta))
    return lambda u, v: k * u ** (d * (1 - b * r)) * ((r - 1) * u + v) ** (b * d * r)


def _kadiyala_height(p, mpf):
    k1, k2, k3 = mpf(p.k1), mpf(p.k2), mpf(p.k3)
    b1, b2, d = mpf(p.beta1), mpf(p.beta2), mpf(p.delta)
    s = b1 + b2
    return lambda u, v: (k1 * u ** s + 2 * k2 * u ** b1 * v ** b2
                         + k3 * v ** s) ** (d / s)


HEIGHTS = {"ves": _ves_height, "kadiyala": _kadiyala_height}


class Magnitude:
    """A value x with scales for the rounding error of x and of its first
    and second derivatives: a first-order running error analysis along
    the expression tree of f, in units of EPS.

    Each scale sums the terms that make up its quantity in absolute value,
    so cancellation between terms shows. A power also counts the error of
    its base, scaled by how much the base cancelled, and the rounding of
    its exponent, which the program forms from the parameters in double
    precision.
    """

    def __init__(self, val, m0, m1=0.0, m2=0.0, m11=0.0, m12=0.0, m22=0.0):
        self.val, self.m = val, (m0, m1, m2, m11, m12, m22)

    def __add__(self, other):
        return Magnitude(self.val + other.val, *(a + b for a, b in zip(self.m, other.m)))

    def scale(self, c):
        return Magnitude(c * self.val, *(abs(c) * a for a in self.m))

    def __mul__(self, other):
        x, a1, a2, a11, a12, a22 = self.m
        y, b1, b2, b11, b12, b22 = other.m
        return Magnitude(self.val * other.val, x * y, a1 * y + x * b1, a2 * y + x * b2,
                         a11 * y + 2 * a1 * b1 + x * b11,
                         a12 * y + a1 * b2 + a2 * b1 + x * b12,
                         a22 * y + 2 * a2 * b2 + x * b22)

    def __pow__(self, p):
        x = self.val                 # a positive base
        r, ln = self.m[0] / x, math.log(x)   # r: how much the base cancelled
        q = abs(p)
        g = x ** p * (1 + q * (r + abs(ln)))
        dg = q * x ** (p - 1) * (1 + abs(p - 1) * r + abs(1 + p * ln))
        ddg = (abs(p * (p - 1)) * x ** (p - 2) * (1 + abs(p - 2) * r)
               + q * x ** (p - 2) * abs(2 * p - 1 + p * (p - 1) * ln))
        _, a1, a2, a11, a12, a22 = self.m
        return Magnitude(x ** p, g, dg * a1, dg * a2, ddg * a1 * a1 + dg * a11,
                         ddg * a1 * a2 + dg * a12, ddg * a2 * a2 + dg * a22)


def _ves_magnitude(p, u, v):
    return ((u ** (p.delta * (1 - p.beta * p.rho)))
            * (u.scale(p.rho - 1) + v) ** (p.beta * p.delta * p.rho)).scale(p.k)


def _kadiyala_magnitude(p, u, v):
    s = p.beta1 + p.beta2
    return ((u ** s).scale(p.k1) + (u ** p.beta1 * v ** p.beta2).scale(2 * p.k2)
            + (v ** s).scale(p.k3)) ** (p.delta / s)


MAGNITUDES = {"ves": _ves_magnitude, "kadiyala": _kadiyala_magnitude}


def magnitude(family: str, params, u: float, v: float) -> Magnitude:
    return MAGNITUDES[family](params, Magnitude(u, u, 1.0), Magnitude(v, v, 0.0, 1.0))


def flat_scale(family: str, params, u: float, v: float, fu: float, fv: float) -> float:
    """S at (u, v), the whole bound scale of K where the exact K is 0."""
    _, _, _, m11, m12, m22 = magnitude(family, params, u, v).m
    return (m11 * m22 + m12 * m12) / (1.0 + fu * fu + fv * fv) ** 2


def reference(family: str, params, u: float, v: float) -> dict:
    """The 50-digit f, K and H at (u, v), with the scales of their bounds."""
    from mpmath import mp, mpf   # imported on first use, after the timed part
    m = magnitude(family, params, u, v)
    m0, m1, m2, m11, m12, m22 = m.m
    with mp.workdps(DIGITS):
        f = HEIGHTS[family](params, mpf)
        x, y = mpf(u), mpf(v)
        f0, fu, fv, fuu, fuv, fvv = (mp.diff(f, (x, y), order) for order in
                                     ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
        w2 = 1 + fu * fu + fv * fv
        w = mp.sqrt(w2)
        K = (fuu * fvv - fuv * fuv) / (w2 * w2)
        H = ((1 + fu * fu) * fvv - 2 * fu * fv * fuv + (1 + fv * fv) * fuu) / (2 * w2 * w)
        c = (1 + m1 * m1) * (1 + m2 * m2) / w2
        return {
            "f": f0, "K": K, "H": H,
            "scale_f": mpf(m0),
            "scale_K": (m11 * m22 + m12 * m12) / (w2 * w2) + abs(K) * c,
            "scale_H": (((1 + m1 * m1) * m22 + 2 * m1 * m2 * m12 + (1 + m2 * m2) * m11)
                        / (2 * w2 * w) + abs(H) * c),
        }


def violations(family: str, params, u: float, v: float, values: dict,
               worst: dict | None = None) -> list[str]:
    """Quantities outside their bound, one message each.

    ``values`` maps any of f, K, H, K_closed to the program's result;
    K_closed is judged on the scale of K. When ``worst`` is given it is
    updated with the largest multiple of EPS * scale seen per quantity,
    so a run can report how close it came to each limit.
    """
    from mpmath import mp, mpf
    ref = reference(family, params, u, v)
    problems = []
    for name, x in values.items():
        key = "K" if name == "K_closed" else name
        with mp.workdps(DIGITS):
            m = float(abs(mpf(x) - ref[key]) / (EPS * ref["scale_" + key]))
        if worst is not None:
            worst[name] = max(worst.get(name, 0.0), m)
        if not m <= LIMITS[name]:
            problems.append(
                f"{family} {name}={x!r} at ({u!r}, {v!r}) is {m:.3g} x EPS*scale "
                f"from the 50-digit value, over {LIMITS[name]:g}")
    return problems
