"""The two production-function families and their validated parameters.

VES (Revankar form):

    Q(u, v) = k * u^(delta*(1 - beta*rho)) * ((rho - 1)*u + v)^(beta*delta*rho)

Kadiyala:

    P(u, v) = (k1*u^(b1+b2) + 2*k2*u^b1*v^b2 + k3*v^(b1+b2))^(delta/(b1+b2))

Parameter records are immutable after validation, so their constraint
sets can be checked once and relied on everywhere.  Evaluators take
``Jet2`` inputs and hence deliver value, gradient and Hessian in one
pass; plain-float evaluation falls out by seeding constants.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields

from . import jets
from .errors import (ConstraintViolation, DomainError, NonPositiveInputError,
                     SingularPointError)
from .jets import Jet2

PARAM_EQ_TOL = 1e-12  # tolerance for equality checks on user-supplied parameters


def _require(cond: bool, clause: str):
    if not cond:
        raise ConstraintViolation(clause)


@dataclass(frozen=True)
class VesParams:
    """VES parameters, validated against the constraint set:

    k > 0, 0 < beta < 1, 0 < beta*rho < 1, delta > 0.

    The pointwise condition (rho-1)*u + v > 0 is a domain predicate
    (see :func:`ves_domain_valid`), not a parameter constraint.
    """

    k: float
    beta: float
    rho: float
    delta: float

    def __post_init__(self):
        _require(self.k > 0, "k>0")
        _require(0 < self.beta < 1, "0<beta<1")
        _require(0 < self.beta * self.rho < 1, "0<beta*rho<1")
        _require(self.delta > 0, "delta>0")


@dataclass(frozen=True)
class KadiyalaParams:
    """Kadiyala parameters, validated against the constraint set:

    k1 + 2*k2 + k3 = 1 (to 1e-12, not rescaled), k_i >= 0,
    (k1, k2) != (0, 0), (k2, k3) != (0, 0),
    beta1*(beta1+beta2) > 0, beta2*(beta1+beta2) > 0, delta > 0.
    """

    k1: float
    k2: float
    k3: float
    beta1: float
    beta2: float
    delta: float

    def __post_init__(self):
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


def kadiyala_normalized(k1, k2, k3, beta1, beta2, delta) -> KadiyalaParams:
    """Convenience constructor that rescales the weights explicitly so
    that k1 + 2*k2 + k3 = 1 before validating."""
    s = k1 + 2 * k2 + k3
    if s <= 0:
        raise ConstraintViolation("k1+2*k2+k3>0", "weights sum to a non-positive value")
    return kadiyala_validate(k1 / s, k2 / s, k3 / s, beta1, beta2, delta)


# --- JSON wire format (snake_case keys, unknown keys rejected) -------------

def params_to_json(p) -> str:
    return json.dumps({f.name: getattr(p, f.name) for f in fields(p)},
                      sort_keys=True)


def _params_from_dict(cls, data: dict):
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConstraintViolation(
            "unknown keys", f"unknown parameter keys: {sorted(unknown)}")
    missing = names - set(data)
    if missing:
        raise ConstraintViolation(
            "missing keys", f"missing parameter keys: {sorted(missing)}")
    return cls(**{k: float(v) for k, v in data.items()})


def ves_params_from_json(text: str) -> VesParams:
    return _params_from_dict(VesParams, json.loads(text))


def kadiyala_params_from_json(text: str) -> KadiyalaParams:
    return _params_from_dict(KadiyalaParams, json.loads(text))


# --- Domains ---------------------------------------------------------------

def _check_positive(u: float, v: float):
    if u <= 0 or v <= 0:
        raise NonPositiveInputError(f"inputs must be positive, got ({u}, {v})")


def _ves_aggregate(p: VesParams, u: float, v: float) -> float:
    """(rho-1)*u + v; raises DomainError unless it, u and v are all positive."""
    _check_positive(u, v)
    agg = (p.rho - 1.0) * u + v
    if agg <= 0:
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
    """Jet of Q(u, v); raises DomainError outside the well-posed region."""
    _ves_aggregate(p, u.val, v.val)
    aggregate = jets.scale(u, p.rho - 1.0) + v
    return jets.scale(
        jets.mul(jets.powr(u, p.delta * (1.0 - p.beta * p.rho)),
                 jets.powr(aggregate, p.beta * p.delta * p.rho)),
        p.k)


def ves_value(p: VesParams, u: float, v: float) -> float:
    return ves_eval(p, jets.constant(u), jets.constant(v)).val


def kadiyala_eval(p: KadiyalaParams, u: Jet2, v: Jet2) -> Jet2:
    """Jet of P(u, v); requires u, v > 0."""
    _check_positive(u.val, v.val)
    bsum = p.beta1 + p.beta2
    inner = (jets.scale(jets.powr(u, bsum), p.k1)
             + jets.scale(jets.mul(jets.powr(u, p.beta1),
                                   jets.powr(v, p.beta2)), 2.0 * p.k2)
             + jets.scale(jets.powr(v, bsum), p.k3))
    return jets.powr(inner, p.delta / bsum)


def kadiyala_value(p: KadiyalaParams, u: float, v: float) -> float:
    return kadiyala_eval(p, jets.constant(u), jets.constant(v)).val


# --- Elasticity of substitution -------------------------------------------

def ves_elasticity(p: VesParams, u: float, v: float) -> float:
    """Revankar's closed form: sigma = 1 + (rho-1)/(1-beta*rho) * u/v.

    Linear in the capital-labor ratio u/v, hence scale-invariant.
    """
    _check_positive(u, v)
    return 1.0 + (p.rho - 1.0) / (1.0 - p.beta * p.rho) * (u / v)


def elasticity_oracle(jet: Jet2, u: float, v: float) -> float:
    """Two-input Hicks elasticity of substitution from derivatives:

        sigma = - f_u f_v (u f_u + v f_v)
                / (u v (f_uu f_v^2 - 2 f_uv f_u f_v + f_vv f_u^2))

    Independent of any closed form; used to cross-check ves_elasticity.
    """
    fu, fv = jet.d1, jet.d2
    den = u * v * (jet.d11 * fv * fv - 2.0 * jet.d12 * fu * fv
                   + jet.d22 * fu * fu)
    if den == 0.0:
        raise SingularPointError(
            f"elasticity denominator vanishes at ({u}, {v})")
    return -fu * fv * (u * fu + v * fv) / den


# --- Kadiyala specializations ---------------------------------------------

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
    unit_sum = abs(bsum - 1.0) <= PARAM_EQ_TOL
    betas_one = abs(p.beta1 - 1.0) <= PARAM_EQ_TOL and abs(p.beta2 - 1.0) <= PARAM_EQ_TOL

    if k2_zero and unit_sum:
        return FamilyTag(
            Family.PERFECT_SUBSTITUTES,
            f"P(u,v) = ({p.k1}*u + {p.k3}*v)^{p.delta}")
    if betas_one and abs(p.k2 * p.k2 - p.k1 * p.k3) <= PARAM_EQ_TOL:
        return FamilyTag(
            Family.PERFECT_SUBSTITUTES,
            f"P(u,v) = ({math.sqrt(p.k1)}*u + {math.sqrt(p.k3)}*v)^{p.delta}")
    if k1_zero and k3_zero and abs(p.delta - 1.0) <= PARAM_EQ_TOL:
        return FamilyTag(Family.COBB_DOUGLAS_TYPE,
                         f"P(u,v) = u^{p.beta1 / bsum}*v^{p.beta2 / bsum}")
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

