"""Monge-patch geometry of a graph surface (u, v, f(u, v)).

Given a second-order jet of the height field at a point, these routines
produce the first and second fundamental forms and the Gaussian and mean
curvatures, using the standard graph-surface formulas:

    g11 = 1 + f_u^2      g12 = f_u f_v      g22 = 1 + f_v^2
    W   = sqrt(1 + f_u^2 + f_v^2)
    h_ij = f_ij / W
    N    = (-f_u, -f_v, 1) / W          (upward normal, n3 > 0)

    K = det II / det I
    H = (g11 h22 - 2 g12 h12 + g22 h11) / (2 det I)

h_ij are taken against the upward normal N, so H's sign rests on that
convention; N itself is not computed.  A jet whose slots are ndarrays
gives forms, K and H element by element, with the bits the one-point
computation gives on the same slots.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import NonFiniteError
from .jets import POINT, Jet2, Slot, _at_first, _checked, np

DEFAULT_CURVATURE_TOL = 1e-9


class SignClass(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"


class FundamentalForms(NamedTuple):
    g11: Slot
    g12: Slot
    g22: Slot
    h11: Slot
    h12: Slot
    h22: Slot
    #: det I = g11*g22 - g12^2, held as W^2 = 1 + f_u^2 + f_v^2: the
    #: difference cancels to 0.0 at steep points, the sum cannot.
    det_first: Slot

    @property
    def det_second(self) -> Slot:
        return self.h11 * self.h22 - self.h12 * self.h12


def fundamental_forms(jet: Jet2) -> FundamentalForms:
    """Fundamental forms from a height-field jet.

    Raises NonFiniteError for a point's non-finite slot and, on a point
    or a batch, for slopes so steep that W^2 = 1 + f_u^2 + f_v^2
    overflows (K would read 0 and H NaN).  A batch's slots are not
    checked again: every batch jet comes from an evaluator in
    ``models``, which has checked it.
    """
    if isinstance(jet.val, POINT) and not all(map(math.isfinite, jet)):
        _checked(*jet)
    fu, fv = jet.d1, jet.d2
    w2 = 1.0 + fu * fu + fv * fv
    bad = w2 == math.inf
    if bad is not False and (at := _at_first(bad, fu, fv)):
        raise NonFiniteError("1 + f_u^2 + f_v^2 overflows at slopes f_u={}, f_v={}".format(*at))
    w = math.sqrt(w2) if isinstance(w2, POINT) else np.sqrt(w2)
    inv_w = 1.0 / w
    return FundamentalForms(
        g11=1.0 + fu * fu,
        g12=fu * fv,
        g22=1.0 + fv * fv,
        h11=jet.d11 * inv_w,
        h12=jet.d12 * inv_w,
        h22=jet.d22 * inv_w,
        det_first=w2,
    )


def gaussian_curvature(forms: FundamentalForms) -> float:
    return forms.det_second / forms.det_first


def mean_curvature(forms: FundamentalForms) -> float:
    num = (forms.g11 * forms.h22 - 2.0 * forms.g12 * forms.h12
           + forms.g22 * forms.h11)
    return num / (2.0 * forms.det_first)


def curvature_from_jet(jet: Jet2) -> tuple[float, float]:
    """(K, H) of the graph surface at the jet's base point."""
    forms = fundamental_forms(jet)
    return gaussian_curvature(forms), mean_curvature(forms)


def classify_sign(K: np.ndarray, local_scale: float = 0.0,
                  tol_K: float = DEFAULT_CURVATURE_TOL) -> np.ndarray:
    """Sign of each curvature value under a scale-aware zero threshold, as
    an object array of SignClass.

    ``local_scale`` should be the curvature magnitude reference for the
    surface at hand (typically max |K| over the evaluated grid), so that
    "zero" is judged relative to how curved the surface actually is.
    """
    if not tol_K > 0.0:  # also rejects NaN
        raise ValueError("tol_K must be positive")
    zero = abs(K) <= tol_K * (1.0 + abs(local_scale))
    return np.where(zero, SignClass.ZERO,
                    np.where(K > 0.0, SignClass.POSITIVE, SignClass.NEGATIVE))
