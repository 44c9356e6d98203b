"""Shared test utilities: tolerance asserts, a generator of random
positive-valued composite expressions for oracle comparisons, and
helpers that only tests call."""

import json
import random

from prodgeo import harness, jets, models
from prodgeo.errors import ConstraintViolation, SingularPointError
from prodgeo.harness import GridReport, GridSpec
from prodgeo.jets import Jet2
from prodgeo.models import KadiyalaParams


def assert_close(actual, expected, rtol, label=""):
    err = abs(actual - expected)
    bound = rtol * (1.0 + abs(expected))
    assert err <= bound, (
        f"{label}: {actual!r} vs {expected!r} (err {err:.3e} > bound {bound:.3e})")


def random_expression(rng: random.Random, max_depth: int = 4):
    """A random composite expression over the jet operation set.

    Built so that every subexpression stays strictly positive on the
    positive quadrant, keeping powr/ln/sqrt inside their domains.
    Returns a callable (Jet2, Jet2) -> Jet2.
    """

    def build(depth):
        if depth >= max_depth or rng.random() < 0.25:
            leaf = rng.choice(("u", "v", "c"))
            if leaf == "u":
                return lambda u, v: u
            if leaf == "v":
                return lambda u, v: v
            c = rng.uniform(0.5, 2.0)
            return lambda u, v: jets.constant(c)
        op = rng.choice(("add", "mul", "div", "powr", "sqrt", "ln1p", "expneg"))
        a = build(depth + 1)
        if op in ("add", "mul", "div"):
            b = build(depth + 1)
            fn = {"add": jets.add, "mul": jets.mul, "div": jets.div}[op]
            return lambda u, v: fn(a(u, v), b(u, v))
        if op == "powr":
            p = rng.uniform(-1.5, 2.5)
            return lambda u, v: jets.powr(a(u, v), p)
        if op == "sqrt":
            return lambda u, v: jets.sqrt(a(u, v))
        if op == "ln1p":
            return lambda u, v: jets.ln(jets.add(a(u, v), jets.constant(1.0)))
        c = rng.uniform(0.1, 0.5)
        return lambda u, v: jets.exp(jets.scale(a(u, v), -c))

    return build(0)


def tame_expression(rng: random.Random, u0: float, v0: float,
                    val_cap: float = 50.0, deriv_cap: float = 1e3):
    """A random expression whose value and derivatives are moderate at
    (u0, v0), so finite differences are trustworthy there."""
    while True:
        expr = random_expression(rng)
        jet = expr(*jets.seed(u0, v0))
        if abs(jet.val) <= val_cap and all(abs(s) <= deriv_cap for s in jet):
            return expr


def as_scalar_field(expr):
    """Adapt a jet expression to a plain (float, float) -> float field."""
    return lambda u, v: expr(jets.constant(u), jets.constant(v)).val


def kadiyala_normalized(k1, k2, k3, beta1, beta2, delta) -> KadiyalaParams:
    """Kadiyala parameters with the weights rescaled explicitly so that
    k1 + 2*k2 + k3 = 1 before validating."""
    s = k1 + 2 * k2 + k3
    if s <= 0:
        raise ConstraintViolation("k1+2*k2+k3>0", "weights sum to a non-positive value")
    return models.kadiyala_validate(k1 / s, k2 / s, k3 / s, beta1, beta2, delta)


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


def grid_report_from_json(text: str) -> GridReport:
    """The report that emit_grid_report(report, "json") wrote."""
    data = json.loads(text)
    columns = (tuple(row[key] for row in data["rows"])
               for key in ("u", "v", "f", "K", "H", "valid", "sign"))
    return GridReport(data["model"], *columns, summary=data["summary"])


def sample_grid(spec: GridSpec) -> list[tuple[float, float]]:
    """All n_u*n_v sample points, ordered lexicographically by (u, v)."""
    us, vs = harness._grid_points(spec)
    return list(zip(us.tolist(), vs.tolist()))
