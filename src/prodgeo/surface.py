"""Monge-patch geometry of a graph surface (u, v, f(u, v)).

Given a second-order jet of the height field at a point, ``curvatures``
reads the Gaussian and mean curvatures off the first and second
fundamental forms, using the standard graph-surface formulas:

    g11 = 1 + f_u^2      g12 = f_u f_v      g22 = 1 + f_v^2
    W   = sqrt(1 + f_u^2 + f_v^2)
    h_ij = f_ij / W
    N    = (-f_u, -f_v, 1) / W          (upward normal, n3 > 0)

    K = det II / det I
    H = (g11 h22 - 2 g12 h12 + g22 h11) / (2 det I)

h_ij are taken against the upward normal N, so H's sign rests on that
convention; N itself is not computed.  ``curvatures`` is the one routine
from a jet to K and H, for ``eval``, grids and verify runs alike.  A jet
whose slots are ndarrays gives K and H element by element, with the bits
the one-point computation gives on the same slots.  The jet ops check
nothing, so ``curvatures`` is the one check of a point's jet: a point
raises where its jet is not finite or W^2 overflows.  A batch checks
nothing, and leaves W^2 inf at each point whose W^2 would raise, which
``harness._sweep`` replays where it lies in the domain, as it does a
point whose jet is not finite.
"""

from __future__ import annotations

import enum
import math

from .errors import NonFiniteError
from .jets import POINT, Jet2, Slot, np

DEFAULT_CURVATURE_TOL = 1e-9


class SignClass(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"


#: each sign class's code, classify_sign's result: its place in SignClass
_CODE = {sign: code for code, sign in enumerate(SignClass)}


def curvatures(jet: Jet2) -> tuple[Slot, Slot, Slot]:
    """(K, H, W^2) of the graph surface at the jet's base point, W^2 being
    1 + f_u^2 + f_v^2 = det I (the sum cannot cancel to 0.0 at steep
    points, as g11*g22 - g12^2 does).

    On a point, raises NonFiniteError for a non-finite slot and for slopes
    so steep that W^2 overflows (K would read 0 and H NaN).  On a batch,
    W^2 is inf where it overflows, and the jet's own slots show where they
    are not finite.
    """
    fu, fv = jet.d1, jet.d2
    w2 = 1.0 + fu * fu + fv * fv
    point = isinstance(jet.val, POINT)
    inv_w = 1.0 / (math.sqrt(w2) if point else np.sqrt(w2))
    h11, h12, h22 = jet.d11 * inv_w, jet.d12 * inv_w, jet.d22 * inv_w
    K = (h11 * h22 - h12 * h12) / w2
    H = ((1.0 + fu * fu) * h22 - 2.0 * (fu * fv) * h12 + (1.0 + fv * fv) * h11) / (2.0 * w2)
    # K and H finite and W^2 < inf leave no slot of the jet inf or NaN
    if point and not (w2 < math.inf and jet.val - jet.val + K - K + H - H == 0.0):
        if not all(map(math.isfinite, jet)):
            val, d1, d2, d11, d12, d22 = jet
            raise NonFiniteError(f"non-finite jet: val={val}, grad=({d1}, {d2}), "
                                 f"hess=({d11}, {d12}, {d22})")
        if w2 == math.inf:
            raise NonFiniteError(f"1 + f_u^2 + f_v^2 overflows at slopes f_u={fu}, f_v={fv}")
    return K, H, w2


def curvature_from_jet(jet: Jet2) -> tuple[float, float]:
    """(K, H) of the graph surface at the jet's base point."""
    return curvatures(jet)[:2]


def check_tol(tol_K: float) -> float:
    """``tol_K``; raises ValueError unless it is finite and positive: an
    infinite band would class every K zero, and a NaN one none."""
    if not 0.0 < tol_K < math.inf:
        raise ValueError(f"tol_K must be finite and > 0, got {tol_K}")
    return tol_K


def classify_sign(K: np.ndarray, local_scale: float = 0.0,
                  tol_K: float = DEFAULT_CURVATURE_TOL) -> np.ndarray:
    """Sign of each curvature value under a scale-aware zero threshold, as
    an int array of codes: ``list(SignClass)[code]`` is the class.

    ``local_scale`` should be the curvature magnitude reference for the
    surface at hand (typically max |K| over the evaluated grid), so that
    "zero" is judged relative to how curved the surface actually is.
    """
    zero = abs(K) <= check_tol(tol_K) * (1.0 + abs(local_scale))
    return np.where(zero, _CODE[SignClass.ZERO],
                    np.where(K > 0.0, _CODE[SignClass.POSITIVE],
                             _CODE[SignClass.NEGATIVE]))
