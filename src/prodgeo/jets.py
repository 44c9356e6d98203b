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

Every op on one point checks its six slots and raises for one that is
not finite; seeds and constants check their input on a batch too.  Ops
on a batch check nothing: inf and NaN travel on to the result, and
``powr`` writes NaN into the value wherever its float form raises (a
base not in (0, inf), or a power that is not finite), since inf ** -p
is 0.0 and would hide the inf before it.  A batch is checked once, when
it is complete: the evaluators in ``models`` find its rows that are not
finite and replay them on the one-point path, which raises the point's
own error.  numpy's warnings on overflow are the caller's to silence
(``np.errstate``), as those evaluators do on a batch.

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

# Every op of every point ends in _checked, so it skips two Python-level
# calls: math.isfinite bound once, and the tuple built without the
# NamedTuple's generated __new__.
_isfinite = math.isfinite
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


def _at_first(bad, *slots):
    """None where ``bad`` holds nowhere; else the slots' values at the
    first point where it holds, as floats.  ``bad`` and the slots are
    one point's bools and floats or a batch's arrays, which broadcast to
    ``bad``'s shape (a slot may also be a float shared by the whole
    batch)."""
    if isinstance(bad, POINT):
        return slots if bad else None
    if not bad.any():
        return None
    i = int(bad.argmax())
    return tuple(s if isinstance(s, POINT) else np.broadcast_to(s, bad.shape).item(i)
                 for s in slots)


def _shape(*slots) -> tuple[int, ...]:
    """The shape that a batch's slots (and floats) broadcast to."""
    return np.broadcast_shapes(*map(np.shape, slots))


def _checked(val, d1, d2, d11, d12, d22) -> Jet2:
    # No-NaN policy: never let a non-finite jet escape silently.
    try:
        finite = (_isfinite(val) and _isfinite(d1) and _isfinite(d2)
                  and _isfinite(d11) and _isfinite(d12) and _isfinite(d22))
    except TypeError:  # ndarray slots: name the first point with a bad slot
        jet = _new_tuple(Jet2, (val, d1, d2, d11, d12, d22))
        bad = _bad_rows(jet)
        if not len(bad):
            return jet
        val, d1, d2, d11, d12, d22 = _row(jet, bad[0], _shape(*jet))
        finite = False
    if not finite:
        raise NonFiniteError(
            f"non-finite jet: val={val}, grad=({d1}, {d2}), "
            f"hess=({d11}, {d12}, {d22})")
    return _new_tuple(Jet2, (val, d1, d2, d11, d12, d22))


def _bad_rows(jet: Jet2):
    """The flat indices, in order, of a batch jet's rows with a slot that
    is not finite, in the shape its slots broadcast to.  A sum of finite
    terms is finite unless it overflows, so one sum per slot clears the
    batch, or else the rows are searched."""
    if _isfinite(sum(s if isinstance(s, POINT) else s.sum() for s in jet)):
        return ()
    return np.flatnonzero(~(np.isfinite(jet.val) & np.isfinite(jet.d1) & np.isfinite(jet.d2)
                            & np.isfinite(jet.d11) & np.isfinite(jet.d12)
                            & np.isfinite(jet.d22)))


def _row(jet: Jet2, i: int, shape: tuple[int, ...]) -> Jet2:
    """Row i, a flat index, of a batch of ``shape``, as one point's jet."""
    return _new_tuple(Jet2, tuple(s if isinstance(s, POINT) else np.broadcast_to(s, shape).item(i)
                                  for s in jet))


def seed_u(u0) -> Jet2:
    """Jet of the first independent variable at u = u0 (a float or an ndarray)."""
    u0 = float(u0) if isinstance(u0, POINT) else u0.astype(float)
    return _checked(u0, 1.0, 0.0, 0.0, 0.0, 0.0)


def seed_v(v0) -> Jet2:
    """Jet of the second independent variable at v = v0 (a float or an ndarray)."""
    v0 = float(v0) if isinstance(v0, POINT) else v0.astype(float)
    return _checked(v0, 0.0, 1.0, 0.0, 0.0, 0.0)


def seed(u0, v0) -> tuple[Jet2, Jet2]:
    """Both variable jets at (u0, v0), in order."""
    return seed_u(u0), seed_v(v0)


def constant(c) -> Jet2:
    """Jet of a constant: all derivative slots zero."""
    c = float(c) if isinstance(c, POINT) else c.astype(float)
    return _checked(c, 0.0, 0.0, 0.0, 0.0, 0.0)


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
# expressions and check each result; a batch's fold and check nothing.
# Sums are never folded: a 0.0 added to an array turns its -0.0 into 0.0,
# as the float form's sum with the 0.0 product it stands for does, and a
# K that underflows to zero keeps the sign the point path gives it.

def add(a: Jet2, b: Jet2) -> Jet2:
    val = a.val + b.val
    if isinstance(val, POINT):
        return _checked(val, a.d1 + b.d1, a.d2 + b.d2,
                        a.d11 + b.d11, a.d12 + b.d12, a.d22 + b.d22)
    return _new_tuple(Jet2, (val, a.d1 + b.d1, a.d2 + b.d2,
                             a.d11 + b.d11, a.d12 + b.d12, a.d22 + b.d22))


def scale(a: Jet2, c: Slot) -> Jet2:
    """c * a, for a number c or, on a batch, an array of factors that
    broadcasts with a's slots."""
    val = c * a.val
    if isinstance(val, POINT):
        return _checked(val, c * a.d1, c * a.d2,
                        c * a.d11, c * a.d12, c * a.d22)
    return _new_tuple(Jet2, (val, *(_times(c, s) for s in a[1:])))


def mul(a: Jet2, b: Jet2) -> Jet2:
    val = a.val * b.val
    if isinstance(val, POINT):
        return _checked(
            val,
            a.d1 * b.val + a.val * b.d1,
            a.d2 * b.val + a.val * b.d2,
            a.d11 * b.val + 2.0 * a.d1 * b.d1 + a.val * b.d11,
            a.d12 * b.val + a.d1 * b.d2 + a.d2 * b.d1 + a.val * b.d12,
            a.d22 * b.val + 2.0 * a.d2 * b.d2 + a.val * b.d22,
        )
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
    return _checked(
        g,
        dg * a.d1,
        dg * a.d2,
        ddg * a.d1 * a.d1 + dg * a.d11,
        ddg * a.d1 * a.d2 + dg * a.d12,
        ddg * a.d2 * a.d2 + dg * a.d22,
    )


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
    try:
        return x ** p, p * x ** (p - 1.0), p * (p - 1.0) * x ** (p - 2.0)
    except OverflowError:
        raise NonFiniteError(f"power overflow: {x} ** {p}") from None


def _power_elements(x: np.ndarray, p: Slot) -> tuple:
    """_power on each element of x, by numpy's power, with p a float or
    an array of exponents that broadcasts with x, and g NaN wherever
    _power on floats raises: where the base is not in (0, inf) or a
    value is not finite."""
    g = np.power(x, p)
    dg = p * np.power(x, p - 1.0)
    ddg = p * (p - 1.0) * np.power(x, p - 2.0)
    if not (x.min(initial=math.inf) > 0.0 and x.max(initial=0.0) < math.inf
            and _isfinite(g.sum() + dg.sum() + ddg.sum())):
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
