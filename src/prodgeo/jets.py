"""Second-order forward-mode differentiation in two variables.

A ``Jet2`` carries the value of a scalar expression together with its
gradient and (symmetric) Hessian with respect to the two seeded
independent variables.  Every arithmetic operation propagates all six
slots exactly, so derivatives of composite expressions are correct to
floating-point rounding, with no truncation error.

The Hessian is stored as three slots (d11, d12, d22); symmetry is
structural and therefore exact.

A slot is a float, for one point, or an ndarray of floats, for a batch
of points (vector forward mode: Griewank & Walther, *Evaluating
Derivatives*, ch. 13).  The same functions serve both, so model code
written once evaluates a point or a whole grid.  A batch's slots need
not share a shape, only broadcast to the batch's: a slot that depends on
u alone may hold one value per u, and numpy's broadcasting then computes
it once per u, with the bits that one value per point gives.  On a
batch, a slot that is a float holds for every point, as the seeds' 0.0
and 1.0 do, and the ops keep it a float where they can: in the
derivative slots, a product with a 0.0 slot is 0.0, a product with a 1.0
slot is the other factor, and a sum of two float slots is a float.
Otherwise sums, scalings and products are correctly rounded in numpy as
in Python, so each element gets the bits its float form gives, but for
the sign of a zero: a folded product is 0.0 where the float form's is
-0.0 (x * 0.0 for x < 0), which a zero K or H can show.  Powers use
numpy's own power, which may round the last bit differently from the
libm ``pow`` behind a float's ``**``: a batch agrees with the float form
to within rounding, not bit for bit.  ``scale`` and ``powr`` on arrays
also take an array factor or exponent that broadcasts with the slots
(one per point, or one per trial of a verify batch); ``scale``'s factor
is never folded, so a zero weight keeps the NaN of 0 * inf.

No op checks its slots, on a point or a batch, its seeds and constants
included: inf and NaN travel on to the result, and no op turns a slot
that is not finite into a finite jet, since a product with 0.0 gives
NaN.  The one exception is ``powr``, which on a point raises for a base
not in (0, inf) and for a power that overflows, and on a batch writes
NaN into the value wherever its float form raises, since inf ** -p is
0.0 and would hide the inf before it.  So a jet whose point would raise
is left with a slot that is not finite, and is checked once, where it is
read: ``surface.curvatures``, the one check of a point's jet, raises for
a point's, and ``harness._sweep`` replays a batch's such cells on the
one-point path, which raises the point's own error; it reads the batch
under its domain mask, so a cell off the domain is never replayed.
numpy's warnings on overflow are the caller's to silence
(``np.errstate``), as ``harness`` does.

numpy is a batch's dependency only.  ``np`` is numpy loaded lazily: it
executes on its first attribute access, which a point never makes.
``isinstance(x, POINT)`` tells a point's float (or int) from a batch's
ndarray without touching numpy; every module tests a slot this one way.
A point's values and errors are thus computed without loading numpy,
and a batch loads it on its first operation.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from typing import NamedTuple, Union

from .errors import DomainError, NonFiniteError


def _lazy_import(name: str):
    """The module ``name``, executed on its first attribute access: the
    LazyLoader recipe of the importlib documentation.  It stands in
    sys.modules, so an ``import`` elsewhere, which reads its ``__spec__``,
    executes it there and gets the same module."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
#: The types of a point's slot or coordinate; a batch's is an ndarray.
POINT = (float, int)
Slot = Union[float, "np.ndarray"]

# Every op builds its tuple without the NamedTuple's generated __new__,
# which would add a Python-level call to each op on a point.
_new_tuple = tuple.__new__


class Jet2(NamedTuple):
    val: Slot
    d1: Slot = 0.0
    d2: Slot = 0.0
    d11: Slot = 0.0
    d12: Slot = 0.0
    d22: Slot = 0.0

    # A sum delegates to add, so model code can chain terms (a + b + c).
    def __add__(self, other):
        return add(self, _coerce(other))


def _coerce(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (int, float)):
        return constant(x)
    raise TypeError(f"cannot mix Jet2 with {type(x).__name__}")


def _leaf(x, d1: float, d2: float) -> Jet2:
    """The jet of x, a float or an ndarray, with gradient (d1, d2)."""
    val = float(x) if isinstance(x, POINT) else x.astype(float)
    return _new_tuple(Jet2, (val, d1, d2, 0.0, 0.0, 0.0))


def seed_u(u0) -> Jet2:
    """Jet of the first independent variable at u = u0 (a float or an ndarray)."""
    return _leaf(u0, 1.0, 0.0)


def seed_v(v0) -> Jet2:
    """Jet of the second independent variable at v = v0 (a float or an ndarray)."""
    return _leaf(v0, 0.0, 1.0)


def seed(u0, v0) -> tuple[Jet2, Jet2]:
    """Both variable jets at (u0, v0), in order."""
    return seed_u(u0), seed_v(v0)


def constant(c) -> Jet2:
    """Jet of a constant: all derivative slots zero."""
    return _leaf(c, 0.0, 0.0)


# --- Products on a batch, where a float slot holds for every point --------

def _times(x: Slot, y: Slot) -> Slot:
    """x * y, folding y only: a factor x that is 0.0 still turns an inf
    in y into NaN."""
    if isinstance(y, POINT):
        if not y:
            return 0.0
        if y == 1.0:
            return x
    return x * y


def _prod(x: Slot, y: Slot) -> Slot:
    """x * y, folding whichever factor is a float 0.0 or 1.0."""
    if isinstance(x, POINT) and (not x or x == 1.0):
        return _times(y, x)
    return _times(x, y)


# Each op tests its value slot for a point: a point's ops keep their float
# expressions, and a batch's fold.  Sums are never folded: a 0.0 added to
# an array turns its -0.0 into 0.0, as the float form's sum with the 0.0
# product it stands for does, and a K that underflows to zero keeps the
# sign the point path gives it.

def add(a: Jet2, b: Jet2) -> Jet2:
    return _new_tuple(Jet2, (a.val + b.val, a.d1 + b.d1, a.d2 + b.d2,
                             a.d11 + b.d11, a.d12 + b.d12, a.d22 + b.d22))


def scale(a: Jet2, c: Slot) -> Jet2:
    """c * a, for a number c or, on a batch, an array of factors that
    broadcasts with a's slots."""
    val = c * a.val
    if isinstance(val, POINT):
        return _new_tuple(Jet2, (val, c * a.d1, c * a.d2,
                                 c * a.d11, c * a.d12, c * a.d22))
    return _new_tuple(Jet2, (val, *(_times(c, s) for s in a[1:])))


def mul(a: Jet2, b: Jet2) -> Jet2:
    val = a.val * b.val
    if isinstance(val, POINT):
        return _new_tuple(Jet2, (
            val,
            a.d1 * b.val + a.val * b.d1,
            a.d2 * b.val + a.val * b.d2,
            a.d11 * b.val + 2.0 * a.d1 * b.d1 + a.val * b.d11,
            a.d12 * b.val + a.d1 * b.d2 + a.d2 * b.d1 + a.val * b.d12,
            a.d22 * b.val + 2.0 * a.d2 * b.d2 + a.val * b.d22,
        ))
    return _new_tuple(Jet2, (
        val,
        _prod(a.d1, b.val) + _prod(a.val, b.d1),
        _prod(a.d2, b.val) + _prod(a.val, b.d2),
        _prod(a.d11, b.val) + _prod(_prod(2.0, a.d1), b.d1) + _prod(a.val, b.d11),
        (_prod(a.d12, b.val) + _prod(a.d1, b.d2) + _prod(a.d2, b.d1)
         + _prod(a.val, b.d12)),
        _prod(a.d22, b.val) + _prod(_prod(2.0, a.d2), b.d2) + _prod(a.val, b.d22),
    ))


def _compose(a: Jet2, g: float, dg: float, ddg: float) -> Jet2:
    # Chain rule through second order for g(a), on one point.
    return _new_tuple(Jet2, (
        g,
        dg * a.d1,
        dg * a.d2,
        ddg * a.d1 * a.d1 + dg * a.d11,
        ddg * a.d1 * a.d2 + dg * a.d12,
        ddg * a.d2 * a.d2 + dg * a.d22,
    ))


def _compose_batch(a: Jet2, g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> Jet2:
    return _new_tuple(Jet2, (
        g,
        _prod(dg, a.d1),
        _prod(dg, a.d2),
        _prod(_prod(ddg, a.d1), a.d1) + _prod(dg, a.d11),
        _prod(_prod(ddg, a.d1), a.d2) + _prod(dg, a.d12),
        _prod(_prod(ddg, a.d2), a.d2) + _prod(dg, a.d22),
    ))


def _power(x: float, p: float) -> tuple[float, float, float]:
    if x <= 0.0:
        raise DomainError(f"powr requires a positive base, got {x}")
    if not x < math.inf:  # inf ** -p is 0.0, and would hide the inf
        raise NonFiniteError(f"powr requires a finite base, got {x}")
    try:
        return x ** p, p * x ** (p - 1.0), p * (p - 1.0) * x ** (p - 2.0)
    except OverflowError:
        for q in (p, p - 1.0):  # name the power that overflows
            try:
                x ** q
            except OverflowError:
                break
        else:
            q = p - 2.0
        raise NonFiniteError(f"power overflow: {x} ** {q}") from None


def _power_elements(x: np.ndarray, p: Slot) -> tuple:
    """_power on each element of x, by numpy's power, with p a float or
    an array of exponents that broadcasts with x, and g NaN wherever
    _power on floats raises: where the base is not in (0, inf) or a
    value is not finite."""
    g = np.power(x, p)
    dg = p * np.power(x, p - 1.0)
    ddg = p * (p - 1.0) * np.power(x, p - 2.0)
    if not (x.min(initial=math.inf) > 0.0 and x.max(initial=0.0) < math.inf
            and math.isfinite(g.sum() + dg.sum() + ddg.sum())):
        ok = ((x > 0.0) & (x < math.inf)
              & np.isfinite(g) & np.isfinite(dg) & np.isfinite(ddg))
        g = np.where(ok, g, math.nan)
    return g, dg, ddg


def powr(a: Jet2, p: Slot) -> Jet2:
    """Real power a**p for a strictly positive base; on a batch, p may
    be an array of exponents that broadcasts with a's slots.

    Implemented with direct p*a**(p-1) chain terms rather than
    exp(p*ln a); the two must agree to rounding (asserted in tests).
    """
    if isinstance(a.val, POINT):
        g, dg, ddg = _power(a.val, float(p))
        return _compose(a, g, dg, ddg)
    g, dg, ddg = _power_elements(a.val, float(p) if isinstance(p, POINT) else p)
    return _compose_batch(a, g, dg, ddg)
