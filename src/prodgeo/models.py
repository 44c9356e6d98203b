"""The two production-function families and their validated parameters.

VES (Revankar form):

    Q(u, v) = k * u^(delta*(1 - beta*rho)) * ((rho - 1)*u + v)^(beta*delta*rho)

Kadiyala:

    P(u, v) = (k1*u^(b1+b2) + 2*k2*u^b1*v^b2 + k3*v^(b1+b2))^(delta/(b1+b2))

Parameter records are immutable after validation, so their constraint
sets can be checked once and relied on everywhere.  Evaluators take
``Jet2`` inputs and hence deliver value, gradient and Hessian in one
pass; plain-float evaluation falls out by seeding constants.  Inputs
are one point's floats or a batch's ndarrays (see ``jets``), and domain
tests then hold element by element.  A point outside the domain raises
an error that names it, and so does a power that ``jets.powr`` rejects;
any other overflow leaves the point's jet not finite, for
``surface.curvatures``, the one check of a point's jet, to raise where it
reads the jet.  A batch raises nothing, and its jet is not finite at each
point in the domain that would raise, as the ops leave it (see
``jets``); its values off the domain are unspecified.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields

from . import jets
from .errors import ConstraintViolation, DomainError, NonPositiveInputError
from .jets import POINT, Jet2

PARAM_EQ_TOL = 1e-12  # tolerance for equality checks on user-supplied parameters


def _require(cond: bool, clause: str):
    if not cond:
        raise ConstraintViolation(clause)


def _require_finite(record):
    """Each field of ``record`` finite, checked before the clauses: an
    infinity passes one such as delta>0, and a NaN fails the first clause
    it meets, named after that clause rather than the field."""
    for name, value in vars(record).items():
        if not math.isfinite(value):
            raise ConstraintViolation(f"{name} finite",
                                      f"parameter {name} must be finite, got {value}")


@dataclass(frozen=True)
class VesParams:
    """VES parameters, validated against the constraint set:

    every field finite, k > 0, 0 < beta < 1, 0 < beta*rho < 1, delta > 0.

    The pointwise condition (rho-1)*u + v > 0 is a domain predicate
    (see :func:`ves_domain_valid`), not a parameter constraint.
    """

    k: float
    beta: float
    rho: float
    delta: float

    def __post_init__(self):
        _require_finite(self)
        _require(self.k > 0, "k>0")
        _require(0 < self.beta < 1, "0<beta<1")
        _require(0 < self.beta * self.rho < 1, "0<beta*rho<1")
        _require(self.delta > 0, "delta>0")


@dataclass(frozen=True)
class KadiyalaParams:
    """Kadiyala parameters, validated against the constraint set:

    every field finite, k1 + 2*k2 + k3 = 1 (to 1e-12, not rescaled),
    k_i >= 0, (k1, k2) != (0, 0), (k2, k3) != (0, 0),
    beta1*(beta1+beta2) > 0, beta2*(beta1+beta2) > 0, delta > 0.
    """

    k1: float
    k2: float
    k3: float
    beta1: float
    beta2: float
    delta: float

    def __post_init__(self):
        _require_finite(self)
        _require(abs(self.k1 + 2 * self.k2 + self.k3 - 1.0) <= PARAM_EQ_TOL,
                 "k1+2*k2+k3=1")
        _require(self.k1 >= 0 and self.k2 >= 0 and self.k3 >= 0, "k_i>=0")
        _require(self.k1 > 0 or self.k2 > 0, "(k1,k2)!=(0,0)")
        _require(self.k2 > 0 or self.k3 > 0, "(k2,k3)!=(0,0)")
        bsum = self.beta1 + self.beta2
        _require(self.beta1 * bsum > 0, "beta1*(beta1+beta2)>0")
        _require(self.beta2 * bsum > 0, "beta2*(beta1+beta2)>0")
        _require(self.delta > 0, "delta>0")


def ves_validate(k, beta, rho, delta) -> VesParams:
    """Validate raw VES parameters; raises ConstraintViolation on failure."""
    return VesParams(float(k), float(beta), float(rho), float(delta))


def kadiyala_validate(k1, k2, k3, beta1, beta2, delta) -> KadiyalaParams:
    """Validate raw Kadiyala parameters; the weight normalization is
    checked, never silently rescaled."""
    return KadiyalaParams(float(k1), float(k2), float(k3),
                          float(beta1), float(beta2), float(delta))


# --- JSON wire format (snake_case keys; unknown and repeated keys rejected) --

def params_to_json(p) -> str:
    return json.dumps({f.name: getattr(p, f.name) for f in fields(p)},
                      sort_keys=True)


def _params_from_dict(cls, data):
    if not isinstance(data, dict):
        raise ConstraintViolation(
            "object", f"parameters must be a JSON object, got {json.dumps(data)}")
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConstraintViolation(
            "unknown keys", f"unknown parameter keys: {sorted(unknown)}")
    missing = names - set(data)
    if missing:
        raise ConstraintViolation(
            "missing keys", f"missing parameter keys: {sorted(missing)}")
    values = {}
    for name, value in data.items():
        if type(value) not in (int, float):  # a bool is an int, but not a JSON number
            raise ConstraintViolation(
                f"{name} number", f"parameter {name} must be a number, got {json.dumps(value)}")
        try:
            values[name] = float(value)
        except OverflowError:  # an integer beyond float range, as 1e400 reads inf
            values[name] = math.inf if value > 0 else -math.inf
    return cls(**values)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice is an error."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConstraintViolation(
                "unique keys", f"parameter key {json.dumps(key)} is given twice")
        data[key] = value
    return data


def params_from_json(cls: type, text: str):
    """A ``cls`` record (VesParams or KadiyalaParams) from a JSON object."""
    return _params_from_dict(cls, json.loads(text, object_pairs_hook=_unique_keys))


# --- Domains ---------------------------------------------------------------

def _check_positive(u, v):
    """Raises NonPositiveInputError unless u > 0 and v > 0, on a point."""
    if isinstance(u, POINT) and (u <= 0 or v <= 0):
        raise NonPositiveInputError(f"inputs must be positive, got ({u}, {v})")


def _ves_aggregate(p: VesParams, u, v):
    """(rho-1)*u + v; on a point, raises DomainError unless it, u and v
    are all positive."""
    _check_positive(u, v)
    agg = (p.rho - 1.0) * u + v
    if isinstance(u, POINT) and agg <= 0:
        raise DomainError(f"(rho-1)*u + v = {agg} <= 0 at ({u}, {v})")
    return agg


def ves_domain_valid(p: VesParams, u: float, v: float,
                     strict: bool = True) -> bool:
    """Whether (u, v) is in the VES domain.

    Non-strict: (rho-1)*u + v > 0, the well-posedness condition (which
    is automatic when rho >= 1).  Strict: the economically relevant
    region v/u > (1-rho)/(1-beta*rho), a subset of the former on which
    the elasticity of substitution is positive.
    """
    _check_positive(u, v)
    if strict:
        return v / u > (1.0 - p.rho) / (1.0 - p.beta * p.rho)
    return (p.rho - 1.0) * u + v > 0


# --- Evaluators ------------------------------------------------------------

def ves_eval(p: VesParams, u: Jet2, v: Jet2) -> Jet2:
    """Jet of Q(u, v); on a point, raises DomainError outside the well-posed region."""
    if isinstance(u.val, POINT):
        _ves_aggregate(p, u.val, v.val)
    aggregate = jets.scale(u, p.rho - 1.0) + v
    return jets.scale(
        jets.mul(jets.powr(u, p.delta * (1.0 - p.beta * p.rho)),
                 jets.powr(aggregate, p.beta * p.delta * p.rho)),
        p.k)


def kadiyala_eval(p: KadiyalaParams, u: Jet2, v: Jet2) -> Jet2:
    """Jet of P(u, v); requires u, v > 0."""
    _check_positive(u.val, v.val)
    bsum = p.beta1 + p.beta2
    inner = (jets.scale(jets.powr(u, bsum), p.k1)
             + jets.scale(jets.mul(jets.powr(u, p.beta1),
                                   jets.powr(v, p.beta2)), 2.0 * p.k2)
             + jets.scale(jets.powr(v, bsum), p.k3))
    return jets.powr(inner, p.delta / bsum)


# --- Kadiyala specializations ---------------------------------------------
# The two perfect-substitutes reductions are also two of Theorem 2's three
# developability conditions (``curvature.kadiyala_is_developable``).

def _k2_zero_unit_sum(p: KadiyalaParams) -> bool:
    """k2 = 0 with beta1 + beta2 = 1: P = (k1*u + k3*v)^delta."""
    return abs(p.k2) <= PARAM_EQ_TOL and abs(p.beta1 + p.beta2 - 1.0) <= PARAM_EQ_TOL


def _beta_one_rank_one(p: KadiyalaParams) -> bool:
    """beta1 = beta2 = 1 with k2^2 = k1*k3: P = (sqrt(k1)*u + sqrt(k3)*v)^delta."""
    return (abs(p.beta1 - 1.0) <= PARAM_EQ_TOL and abs(p.beta2 - 1.0) <= PARAM_EQ_TOL
            and abs(p.k2 * p.k2 - p.k1 * p.k3) <= PARAM_EQ_TOL)


class Family(enum.Enum):
    GENERAL_KADIYALA = "general-kadiyala"
    CES_TYPE = "ces-type"
    LU_FLETCHER_TYPE = "lu-fletcher-type"
    COBB_DOUGLAS_TYPE = "cobb-douglas-type"
    VES_TYPE = "ves-type"
    PERFECT_SUBSTITUTES = "perfect-substitutes"


@dataclass(frozen=True)
class FamilyTag:
    tag: Family
    detail: str | None = None


def kadiyala_specialize(p: KadiyalaParams) -> FamilyTag:
    """Recognize which classical family a Kadiyala parameter set reduces to.

    Perfect-substitutes cases come with their explicit linear reduction.
    The VES-type match is structural only (k3 = 0, beta2 = 1); the full
    reduction involves a substitution-parameter relation that is not
    recoverable from the weights alone.
    """
    bsum = p.beta1 + p.beta2
    k2_zero = abs(p.k2) <= PARAM_EQ_TOL
    k1_zero = abs(p.k1) <= PARAM_EQ_TOL
    k3_zero = abs(p.k3) <= PARAM_EQ_TOL

    if _k2_zero_unit_sum(p):
        return FamilyTag(
            Family.PERFECT_SUBSTITUTES,
            f"P(u,v) = ({p.k1}*u + {p.k3}*v)^{p.delta}")
    if _beta_one_rank_one(p):
        return FamilyTag(
            Family.PERFECT_SUBSTITUTES,
            f"P(u,v) = ({math.sqrt(p.k1)}*u + {math.sqrt(p.k3)}*v)^{p.delta}")
    if k1_zero and k3_zero:  # 2*k2 = 1, so P = u^(beta1*delta/s) * v^(beta2*delta/s)
        return FamilyTag(Family.COBB_DOUGLAS_TYPE,
                         f"P(u,v) = u^{p.beta1 * p.delta / bsum}*v^{p.beta2 * p.delta / bsum}")
    if k2_zero:
        if bsum < 1.0:
            return FamilyTag(Family.CES_TYPE)
        return FamilyTag(Family.GENERAL_KADIYALA,
                         "k2=0 with beta1+beta2>1: outside the CES regime")
    if k3_zero:
        if abs(p.beta2 - 1.0) <= PARAM_EQ_TOL:
            return FamilyTag(Family.VES_TYPE, "structural match: k3=0, beta2=1")
        return FamilyTag(Family.LU_FLETCHER_TYPE)
    return FamilyTag(Family.GENERAL_KADIYALA)

