"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on a green run; pytest shows captured output on failure anyway).
"""

import math
import random
import subprocess
import sys
import time

import pytest

from helpers import (as_scalar_field, assert_close, elasticity_oracle, fd_oracle,
                     kadiyala_normalized, kadiyala_value, sample_grid, tame_expression,
                     ves_elasticity, ves_value)
from prodgeo import curvature, harness, jets, models, surface
from prodgeo.errors import SingularPointError
from prodgeo.surface import SignClass

ACCEPT_SEED = 20260824


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def scaled_to_unit_height(params, u0, v0):
    """Rescale a point along its ray so the model's height there is ~1;
    keeps finite differences trustworthy for arbitrary parameter draws."""
    if isinstance(params, models.VesParams):
        value = lambda u, v: ves_value(params, u, v)
    else:
        value = lambda u, v: kadiyala_value(params, u, v)
    lam = value(u0, v0) ** (-1.0 / params.delta)
    lam = min(max(lam, 0.05), 20.0)
    return u0 * lam, v0 * lam


def test_criterion_1_autodiff_vs_finite_differences():
    rng = random.Random(ACCEPT_SEED)
    t0 = time.perf_counter()
    checked = 0

    def check(jet, field, u0, v0, label):
        grad, hess = fd_oracle(field, u0, v0)
        assert_close(jet.d1, grad[0], 1e-6, f"{label} d1")
        assert_close(jet.d2, grad[1], 1e-6, f"{label} d2")
        assert_close(jet.d11, hess[0, 0], 1e-4, f"{label} d11")
        assert_close(jet.d12, hess[0, 1], 1e-4, f"{label} d12")
        assert_close(jet.d22, hess[1, 1], 1e-4, f"{label} d22")

    for i in range(600):
        u0, v0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        expr = tame_expression(rng, u0, v0)
        check(expr(*jets.seed(u0, v0)), as_scalar_field(expr), u0, v0,
              f"expr {i}")
        checked += 1

    ves_done = 0
    while ves_done < 200:
        p = harness.random_ves_params(rng.randrange(2**31))
        u0, v0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        if not models.ves_domain_valid(p, u0, v0, strict=True):
            continue
        # strict validity depends only on v/u, so it survives the rescale
        u0, v0 = scaled_to_unit_height(p, u0, v0)
        check(models.ves_eval(p, *jets.seed(u0, v0)),
              lambda u, v: ves_value(p, u, v), u0, v0, f"ves {ves_done}")
        ves_done += 1
        checked += 1

    for i in range(200):
        p = harness.random_kadiyala_params(rng.randrange(2**31))
        u0, v0 = scaled_to_unit_height(
            p, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        check(models.kadiyala_eval(p, *jets.seed(u0, v0)),
              lambda u, v: kadiyala_value(p, u, v), u0, v0, f"kad {i}")
        checked += 1

    elapsed = time.perf_counter() - t0
    report("criterion 1: autodiff vs finite-difference oracle",
           checked >= 1000 and elapsed < 10.0,
           f"{checked} evaluations in {elapsed:.1f}s")


def test_criterion_2_surface_kernel():
    rng = random.Random(ACCEPT_SEED + 1)
    # plane: exactly flat
    for _ in range(20):
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        u, v = jets.seed(rng.uniform(-5, 5), rng.uniform(-5, 5))
        jet = jets.add(jets.scale(u, a), jets.scale(v, b))
        K, H = surface.curvature_from_jet(jet)
        assert K == 0.0 and H == 0.0
    # hyperbolic paraboloid: closed form
    for _ in range(100):
        u0, v0 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        K, _ = surface.curvature_from_jet(jets.mul(*jets.seed(u0, v0)))
        assert_close(K, -1.0 / (1.0 + u0 * u0 + v0 * v0) ** 2, 1e-12)
    # unit sphere: K = 1
    for _ in range(100):
        r = rng.uniform(0.0, 0.9)
        th = rng.uniform(0.0, 2 * math.pi)
        u0, v0 = r * math.cos(th), r * math.sin(th)
        u, v = jets.seed(u0, v0)
        inside = jets.add(jets.constant(1.0),
                          jets.scale(jets.add(jets.mul(u, u), jets.mul(v, v)), -1.0))
        K, _ = surface.curvature_from_jet(jets.powr(inside, 0.5))
        assert_close(K, 1.0, 1e-10)
    report("criterion 2: surface kernel (plane, saddle, sphere)", True)


def test_criterion_3_theorem1_ves():
    t0 = time.perf_counter()
    summary = harness.run_verify_theorem1(300, ACCEPT_SEED)
    elapsed = time.perf_counter() - t0
    report("criterion 3: theorem 1 (VES sign vs returns to scale)",
           summary.ok and summary.passes == 300 and elapsed < 60.0,
           f"{summary.passes}/300 trials, worst closed-vs-autodiff "
           f"{summary.worst_closed_vs_autodiff:.2e}, {elapsed:.1f}s"
           + ("" if summary.ok else "; " + summary.failures[0]))


def test_criterion_4_theorem2_kadiyala():
    t0 = time.perf_counter()
    summary = harness.run_verify_theorem2(100, ACCEPT_SEED)
    elapsed = time.perf_counter() - t0
    report("criterion 4: theorem 2 (Kadiyala developability, forward + converse)",
           summary.ok and summary.passes == 400 and elapsed < 120.0,
           f"{summary.passes}/400 trials, worst closed-vs-autodiff "
           f"{summary.worst_closed_vs_autodiff:.2e}, {elapsed:.1f}s"
           + ("" if summary.ok else "; " + summary.failures[0]))


def test_criterion_5_denominator_positivity():
    rng = random.Random(ACCEPT_SEED + 2)
    grid = sample_grid(harness.DEFAULT_GRID)
    for s in range(40):
        p = harness.random_ves_params(rng.randrange(2**31))
        for u, v in grid[:: 7]:
            if models.ves_domain_valid(p, u, v, strict=False):
                assert curvature.ves_denf(p, u, v) > 0.0
    for s in range(40):
        p = harness.random_kadiyala_params(rng.randrange(2**31))
        for u, v in grid[:: 7]:
            terms = curvature._kad_deng_terms(p, u, v, curvature._kad_powers(p, u, v))
            assert all(t >= 0.0 for t in terms)
            assert curvature.kadiyala_deng(p, u, v) > 0.0
    report("criterion 5: Den_F > 0, Den_G > 0, all A_i >= 0", True)


def test_criterion_6_reductions_and_homogeneity():
    rng = random.Random(ACCEPT_SEED + 3)
    # k2 = 0, unit exponent sum -> linear aggregator
    p1 = models.kadiyala_validate(0.35, 0.0, 0.65, 0.25, 0.75, 1.7)
    # beta1 = beta2 = 1, rank-one weights -> linear aggregator in roots
    p2 = kadiyala_normalized(0.2, math.sqrt(0.2 * 0.45), 0.45, 1, 1, 1.7)
    # rho = 1 VES -> Cobb-Douglas
    pv = models.ves_validate(2.5, 0.35, 1.0, 1.3)
    for _ in range(200):
        u, v = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
        assert_close(kadiyala_value(p1, u, v),
                     (0.35 * u + 0.65 * v) ** 1.7, 1e-12, "P1")
        assert_close(kadiyala_value(p2, u, v),
                     (math.sqrt(p2.k1) * u + math.sqrt(p2.k3) * v) ** 1.7,
                     1e-12, "P2")
        assert_close(ves_value(pv, u, v),
                     2.5 * u ** (1.3 * 0.65) * v ** (0.35 * 1.3), 1e-12,
                     "rho=1 Cobb-Douglas")
    for s in range(50):
        pk = harness.random_kadiyala_params(rng.randrange(2**31))
        pv = harness.random_ves_params(rng.randrange(2**31))
        u, v = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
        base_k = kadiyala_value(pk, u, v)
        ves_ok = models.ves_domain_valid(pv, u, v, strict=False)
        base_v = ves_value(pv, u, v) if ves_ok else None
        for lam in (0.5, 2.0, 10.0):
            assert_close(kadiyala_value(pk, lam * u, lam * v),
                         lam ** pk.delta * base_k, 1e-10, "P homogeneity")
            if ves_ok:
                assert_close(ves_value(pv, lam * u, lam * v),
                             lam ** pv.delta * base_v, 1e-10, "Q homogeneity")
    report("criterion 6: closed-form reductions and degree-delta homogeneity", True)


def test_criterion_7_elasticity():
    rng = random.Random(ACCEPT_SEED + 4)
    checked = 0
    while checked < 1000:
        p = harness.random_ves_params(rng.randrange(2**31))
        u, v = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
        if not models.ves_domain_valid(p, u, v, strict=True):
            continue
        jet = models.ves_eval(p, *jets.seed(u, v))
        try:
            sigma_oracle = elasticity_oracle(jet, u, v)
        except SingularPointError:
            continue
        assert_close(ves_elasticity(p, u, v), sigma_oracle, 1e-8,
                     "sigma closed vs oracle")
        # exact scale invariance: power-of-two scaling keeps u/v bit-identical
        lam = 2.0 ** rng.randint(-3, 3)
        assert (ves_elasticity(p, lam * u, lam * v)
                == ves_elasticity(p, u, v))
        checked += 1
    report("criterion 7: elasticity closed form vs derivative oracle",
           True, f"{checked} points")


def test_criterion_8_cli(tmp_path):
    base = [sys.executable, "-m", "prodgeo.cli"]
    r1 = subprocess.run(base + ["verify-t1", "--trials", "30", "--seed", "5"],
                        capture_output=True, text=True)
    r2 = subprocess.run(base + ["verify-t2", "--trials", "10", "--seed", "5"],
                        capture_output=True, text=True)
    grid_args = base + ["grid", "--model", "ves", "--params",
                        '{"k": 1, "beta": 0.5, "rho": 0.5, "delta": 2}',
                        "--format", "csv"]
    g1 = subprocess.run(grid_args, capture_output=True)
    g2 = subprocess.run(grid_args, capture_output=True)
    ok = (r1.returncode == 0 and r2.returncode == 0
          and g1.returncode == 0 and g1.stdout == g2.stdout)
    report("criterion 8: CLI verify exit codes and byte-deterministic CSV", ok,
           f"verify-t1 rc={r1.returncode}, verify-t2 rc={r2.returncode}, "
           f"csv identical={g1.stdout == g2.stdout}")
