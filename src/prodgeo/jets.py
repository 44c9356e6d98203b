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
and 1.0 do.  Each op has one body, its float expressions, which are
correctly rounded in numpy as in Python: on arrays, each element gets the
bits its float form gives.  Powers use numpy's own power, which may round
the last bit differently from the libm ``pow`` behind a float's ``**``: a
batch agrees with the float form to within rounding, not bit for bit.
``scale`` and ``powr`` on arrays also take an array factor or exponent
that broadcasts with the slots (one per point, or one per trial of a
verify batch).

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

A family's jet runs as straight-line code (source transformation, ibid.
ch. 6): on its first seeded point, and its first batch of each pattern of
0.0 and 1.0 slots, ``_point_code`` runs the body once on recording slots
(``_Name``) and compiles the float expressions the ops perform, in order.
Each derivative slot that is a float 0.0 or 1.0, a seed's or a batch's
constant's, is a constant of the recording, and folds: a product with 0.0
is 0.0 (where the float form may give -0.0 or NaN) and one with 1.0 is the
other factor; float-on-float work is done while recording.  A parameter
never folds, so a zero weight keeps the NaN of 0 * inf, nor does a sum,
so -0.0 plus a constant 0.0 is 0.0.  The code drops lines nothing reads.
A batch's (``_batch_code``) calls ``_power`` for each power and frees each
array after its last read.  A point's (``_point_jet``) runs each power's
float expressions inline where the base is in (0, inf), and checks its six
slots once, at the end: where one is zero or not finite, where a power
overflows, and for any input but the seeds, the point runs the body on the
ops, whose bits and errors the folded code keeps everywhere else.  An op
rebound after a family's first seeded point or batch reaches only points
that run the ops.
"""

from __future__ import annotations

import functools
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


class _Name:
    """A slot of a jet while ``_point_code`` records it: the name of a local
    of the code it emits.  An arithmetic operation on it adds the line that
    computes its result and returns that result's name, as ``p.field`` does
    for a field of the parameter record p."""
    __slots__ = ("name", "lines")

    def __init__(self, name: str, lines: dict[str, tuple]):
        self.name, self.lines = name, lines

    def __repr__(self):
        return self.name

    def __getattr__(self, field):
        return self.emit(f"{self.name}.{field}")

    def emit(self, expr: str, *operands, n: int = 1):
        """The names of expr's n results, computed by one line for each expr,
        which reads self and the operands."""
        names, _ = self.lines.setdefault(expr, (
            [_Name(f"t{len(self.lines)}_{i}", self.lines) for i in range(n)],
            [x for x in (self, *operands) if type(x) is _Name]))
        return names if n > 1 else names[0]


for _op, _sym in (("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/")):
    setattr(_Name, f"__{_op}__", lambda a, b, s=_sym: a.emit(f"{a!r} {s} {b!r}", b))
    setattr(_Name, f"__r{_op}__", lambda a, b, s=_sym: a.emit(f"{b!r} {s} {a!r}", b))
# A float factor 0.0 or 1.0, which only a recording's constant slots and
# the floats computed from them give, folds: x * 0.0 is 0.0 and x * 1.0 is x.
for _mul in "__mul__", "__rmul__":
    setattr(_Name, _mul, lambda a, b, product=getattr(_Name, _mul): (
        (a if b else 0.0) if type(b) is float and b in (0.0, 1.0) else product(a, b)))

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
    if type(u0) is float and type(v0) is float:  # a point's, in one call
        return (_new_tuple(Jet2, (u0, 1.0, 0.0, 0.0, 0.0, 0.0)),
                _new_tuple(Jet2, (v0, 0.0, 1.0, 0.0, 0.0, 0.0)))
    return seed_u(u0), seed_v(v0)


def constant(c) -> Jet2:
    """Jet of a constant: all derivative slots zero."""
    return _leaf(c, 0.0, 0.0)


def add(a: Jet2, b: Jet2) -> Jet2:
    return _new_tuple(Jet2, (a.val + b.val, a.d1 + b.d1, a.d2 + b.d2,
                             a.d11 + b.d11, a.d12 + b.d12, a.d22 + b.d22))


def scale(a: Jet2, c: Slot) -> Jet2:
    """c * a, for a number c or, on a batch, an array of factors that
    broadcasts with a's slots."""
    return _new_tuple(Jet2, (c * a.val, c * a.d1, c * a.d2,
                             c * a.d11, c * a.d12, c * a.d22))


def mul(a: Jet2, b: Jet2) -> Jet2:
    return _new_tuple(Jet2, (
        a.val * b.val,
        a.d1 * b.val + a.val * b.d1,
        a.d2 * b.val + a.val * b.d2,
        a.d11 * b.val + 2.0 * a.d1 * b.d1 + a.val * b.d11,
        a.d12 * b.val + a.d1 * b.d2 + a.d2 * b.d1 + a.val * b.d12,
        a.d22 * b.val + 2.0 * a.d2 * b.d2 + a.val * b.d22,
    ))


def _compose(a: Jet2, g: float, dg: float, ddg: float) -> Jet2:
    # Chain rule through second order for g(a).
    return _new_tuple(Jet2, (
        g,
        dg * a.d1,
        dg * a.d2,
        ddg * a.d1 * a.d1 + dg * a.d11,
        ddg * a.d1 * a.d2 + dg * a.d12,
        ddg * a.d2 * a.d2 + dg * a.d22,
    ))


def _power(x: Slot, p: Slot) -> tuple:
    """x ** p and its first two derivatives in x: on a point, raising for a
    base not in (0, inf) and for a power that overflows; on a batch, by
    ``_power_elements``; while recording, as the line that calls this."""
    if type(x) is _Name:  # recorded as the call itself
        return x.emit(f"_power({x!r}, {p!r})", p, n=3)
    if not isinstance(x, POINT):
        return _power_elements(x, float(p) if isinstance(p, POINT) else p)
    p = float(p)
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
    return _compose(a, *_power(a.val, p))


#: u's and v's derivative slots as ``seed`` gives them
_SEEDS = (1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0)


@functools.cache
def _point_code(body, constants: tuple | None = None):
    """``body(p, u, v)``, a family's jet, as straight-line code that reads
    u's and v's value slots and p's fields; ``.source`` is the code.  For
    each of u's and v's ten derivative slots, ``constants`` has None or the
    repr of the float 0.0 or 1.0 the slot holds (``_batch_code``).  Without
    it, the code is a seeded point's, which returns None unless the six
    slots it computes are finite and nonzero (``_point_jet``)."""
    lines, point = {}, constants is None
    pattern = constants or tuple(map(repr, _SEEDS[0] + _SEEDS[1]))
    for x, k in ("u", 0), ("v", 5):
        slots = [_Name(f"{x}{i}", lines) if c is None else float(c)
                 for i, c in enumerate(pattern[k:k + 5], 1)]
        lines[x] = ([_Name(f"{x}0", lines), *slots], [])
    jet = body(p := _Name("p", lines), *(Jet2._make(lines[x][0]) for x in "uv"))
    live = {p, *jet}
    source = [f"return _new_tuple(Jet2, ({', '.join(map(repr, jet))}))"]
    if point:  # x - x is 0.0 for a finite x, and NaN for inf or NaN
        source = [f"    {source[0]}", f"if {' and '.join(map(repr, jet))} and "
                  f"{' + '.join(f'{x!r} - {x!r}' for x in jet)} == 0.0:"]
    for expr, (names, reads) in reversed(lines.items()):
        if live.isdisjoint(names):
            continue
        if not point and (freed := [x for x in dict.fromkeys([*names, *reads])
                                    if type(x) is _Name and x not in live]):
            source.append(f"del {', '.join(map(repr, freed))}")
        live.update(reads)
        targets = ", ".join(repr(x) if type(x) is _Name else "_" for x in names)
        source.append(f"{targets} = {expr}")
        if point and expr.startswith("_power("):  # _power's float branch, inline
            x, q = expr[7:-1].split(", ")
            source[-1:] = [f"else: {source[-1]}", f"if 0.0 < {x} < math.inf: {targets} = "
                           f"{x} ** {q}, {q} * {x} ** ({q} - 1.0), {q} * ({q} - 1.0) * {x} ** ({q} - 2.0)"]
    source = "\n    ".join([f"def {body.__name__}(p, u, v):", *reversed(source)])
    name = f"<{'point' if point else 'batch'} code of {body.__qualname__}>"
    exec(compile(source, name, "exec"), globals(), code := {})
    code[body.__name__].source = source
    return code[body.__name__]


def _point_jet(body, p, u: Jet2, v: Jet2) -> Jet2:
    """``body(p, u, v)`` on a point, with the bits and errors of the ops: by
    the recorded code where u and v are the seeds, and on the ops where
    they are not, where the code returns None or where a power overflows."""
    if u[1:] == _SEEDS[0] and v[1:] == _SEEDS[1]:
        try:
            return _point_code(body)(p, u, v) or body(p, u, v)
        except OverflowError:
            pass
    return body(p, u, v)


def _batch_code(body, u: Jet2, v: Jet2):
    """``_point_code`` of body for a batch's u and v: each derivative slot
    that is a float 0.0 or 1.0, as a seed's and a constant's are, is a
    constant of the recording."""
    return _point_code(body, tuple(repr(x) if type(x) is float and x in (0.0, 1.0) else None
                                   for x in (*u[1:], *v[1:])))
