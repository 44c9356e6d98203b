"""Second-order forward-mode differentiation in two variables.

A ``Jet2`` carries the value of a scalar expression together with its
gradient and (symmetric) Hessian with respect to the two seeded
independent variables.  Every arithmetic operation propagates all six
slots exactly, so derivatives of composite expressions are correct to
floating-point rounding, with no truncation error.

The Hessian is stored as three slots (d11, d12, d22); symmetry is
structural and therefore exact.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from .errors import DomainError, NonFiniteError

Scalar = Union[int, float]


class Jet2(NamedTuple):
    val: float
    d1: float = 0.0
    d2: float = 0.0
    d11: float = 0.0
    d12: float = 0.0
    d22: float = 0.0

    # Arithmetic dunders delegate to the module-level functions so that
    # model code can be written naturally (a * b + c).
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p: Scalar) -> "Jet2":
        return powr(self, p)


def _coerce(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (int, float)):
        return constant(x)
    raise TypeError(f"cannot mix Jet2 with {type(x).__name__}")


def _checked(val, d1, d2, d11, d12, d22) -> Jet2:
    # No-NaN policy: never let a non-finite jet escape silently.
    if not (math.isfinite(val) and math.isfinite(d1) and math.isfinite(d2)
            and math.isfinite(d11) and math.isfinite(d12) and math.isfinite(d22)):
        raise NonFiniteError(
            f"non-finite jet: val={val}, grad=({d1}, {d2}), "
            f"hess=({d11}, {d12}, {d22})")
    return Jet2(val, d1, d2, d11, d12, d22)


def seed_u(u0: Scalar) -> Jet2:
    """Jet of the first independent variable at u = u0."""
    return _checked(float(u0), 1.0, 0.0, 0.0, 0.0, 0.0)


def seed_v(v0: Scalar) -> Jet2:
    """Jet of the second independent variable at v = v0."""
    return _checked(float(v0), 0.0, 1.0, 0.0, 0.0, 0.0)


def seed(u0: Scalar, v0: Scalar) -> tuple[Jet2, Jet2]:
    """Both variable jets at (u0, v0), in order."""
    return seed_u(u0), seed_v(v0)


def constant(c: Scalar) -> Jet2:
    """Jet of a constant: all derivative slots zero."""
    return _checked(float(c), 0.0, 0.0, 0.0, 0.0, 0.0)


def add(a: Jet2, b: Jet2) -> Jet2:
    return _checked(a.val + b.val, a.d1 + b.d1, a.d2 + b.d2,
                    a.d11 + b.d11, a.d12 + b.d12, a.d22 + b.d22)


def sub(a: Jet2, b: Jet2) -> Jet2:
    return _checked(a.val - b.val, a.d1 - b.d1, a.d2 - b.d2,
                    a.d11 - b.d11, a.d12 - b.d12, a.d22 - b.d22)


def neg(a: Jet2) -> Jet2:
    return Jet2(-a.val, -a.d1, -a.d2, -a.d11, -a.d12, -a.d22)


def scale(a: Jet2, c: Scalar) -> Jet2:
    c = float(c)
    return _checked(c * a.val, c * a.d1, c * a.d2,
                    c * a.d11, c * a.d12, c * a.d22)


def mul(a: Jet2, b: Jet2) -> Jet2:
    return _checked(
        a.val * b.val,
        a.d1 * b.val + a.val * b.d1,
        a.d2 * b.val + a.val * b.d2,
        a.d11 * b.val + 2.0 * a.d1 * b.d1 + a.val * b.d11,
        a.d12 * b.val + a.d1 * b.d2 + a.d2 * b.d1 + a.val * b.d12,
        a.d22 * b.val + 2.0 * a.d2 * b.d2 + a.val * b.d22,
    )


def div(a: Jet2, b: Jet2) -> Jet2:
    if b.val == 0.0:
        raise ZeroDivisionError("Jet2 division by zero")
    # q = a/b, so a = q*b; solve the product rule for the slots of q.
    inv = 1.0 / b.val
    q = a.val * inv
    q1 = (a.d1 - q * b.d1) * inv
    q2 = (a.d2 - q * b.d2) * inv
    q11 = (a.d11 - 2.0 * q1 * b.d1 - q * b.d11) * inv
    q12 = (a.d12 - q1 * b.d2 - q2 * b.d1 - q * b.d12) * inv
    q22 = (a.d22 - 2.0 * q2 * b.d2 - q * b.d22) * inv
    return _checked(q, q1, q2, q11, q12, q22)


def _compose(a: Jet2, g: float, dg: float, ddg: float) -> Jet2:
    # Chain rule through second order for g(a).
    return _checked(
        g,
        dg * a.d1,
        dg * a.d2,
        ddg * a.d1 * a.d1 + dg * a.d11,
        ddg * a.d1 * a.d2 + dg * a.d12,
        ddg * a.d2 * a.d2 + dg * a.d22,
    )


def powr(a: Jet2, p: Scalar) -> Jet2:
    """Real power a**p for a strictly positive base.

    Implemented with direct p*a**(p-1) chain terms rather than
    exp(p*ln a); the two must agree to rounding (asserted in tests).
    """
    if a.val <= 0.0:
        raise DomainError(f"powr requires a positive base, got {a.val}")
    p = float(p)
    try:
        g = a.val ** p
        dg = p * a.val ** (p - 1.0)
        ddg = p * (p - 1.0) * a.val ** (p - 2.0)
    except OverflowError:
        raise NonFiniteError(f"power overflow: {a.val} ** {p}") from None
    return _compose(a, g, dg, ddg)


def ln(a: Jet2) -> Jet2:
    if a.val <= 0.0:
        raise DomainError(f"ln requires a positive argument, got {a.val}")
    inv = 1.0 / a.val
    return _compose(a, math.log(a.val), inv, -inv * inv)


def exp(a: Jet2) -> Jet2:
    try:
        e = math.exp(a.val)
    except OverflowError:
        raise NonFiniteError(f"exp overflow at {a.val}") from None
    return _compose(a, e, e, e)


def sqrt(a: Jet2) -> Jet2:
    if a.val <= 0.0:
        raise DomainError(f"sqrt requires a positive argument, got {a.val}")
    r = math.sqrt(a.val)
    dg = 0.5 / r
    return _compose(a, r, dg, -0.5 * dg / a.val)
