"""Can each verify check fail?  A matrix over family × magnitude band ×
corruption: the verify run with one quantity corrupted must fail, naming
the corrupted quantity at a point, where the clean run passes.  A run
that fails anyway detects nothing.

A cell where the checks are blind today is marked xfail(strict=True),
its reason naming the defect; the change that mends the defect flips it.
Never drop or narrow a band to make a cell pass."""

import dataclasses
import functools
import re

import pytest

from prodgeo import harness
from prodgeo.harness import GridSpec
from prodgeo.surface import SignClass

TRIALS, SEED, TOL_K, N = 8, 0, 1e-8, 5
BANDS = {"1e-12": (1e-12, 1e-11), "1e-3": (1e-3, 1e-2), "0.1": (0.1, 10.0),
         "1e3": (1e3, 1e4), "1e8": (1e8, 1e9)}
FLIPPED = {SignClass.POSITIVE: SignClass.NEGATIVE, SignClass.NEGATIVE: SignClass.POSITIVE,
           SignClass.ZERO: None, None: SignClass.ZERO}


def _closed_K_times(c):
    return lambda family: dataclasses.replace(
        family, closed_K=lambda p, u, v: family.closed_K(p, u, v) * c)


def _f_uu_scaled(family):
    def jet(p, u, v):
        j = family.jet(p, u, v)
        return j._replace(d11=j.d11 * 1.5)
    return dataclasses.replace(family, jet=jet)


def _expect_flipped(family):
    def verdict(p):
        v = family.verdict(p)
        return v._replace(expect=FLIPPED[v.expect])
    return dataclasses.replace(family, verdict=verdict)


POINT = r"at \(\S+, \S+\)"
CLOSED_K_TEXT = rf"closed-form K=\S+ vs autodiff K=\S+ {POINT}"
#: (corrupt the family, the failure text that names the corrupted quantity at a point)
CORRUPTIONS = {
    "closed_K*1.5": (_closed_K_times(1.5), CLOSED_K_TEXT),
    "closed_K*-1": (_closed_K_times(-1.0), CLOSED_K_TEXT),
    "closed_K*(1+1e-6)": (_closed_K_times(1.0 + 1e-6), CLOSED_K_TEXT),
    # the jet's f_uu slot: autodiff K, against the closed form or as a sign
    "jet-f_uu*1.5": (_f_uu_scaled, rf"autodiff K=\S+ {POINT}|{POINT} with K="),
    "expect-flipped": (_expect_flipped, rf"!= predicted \S+ {POINT}"),
}

CANCELS = ("the clean run fails: autodiff K's det Hess = f_uu*f_vv - f_uv^2 "
           "cancels where u, v ~ 1e-12")
ABSOLUTE = ("|K| << 1 here, and the absolute closed-vs-autodiff metric "
            "|a-b|/(1+|b|) cannot see a closed form off by any factor")
NO_POINT = ("Kadiyala's flatness and curvature verdicts report max|K| "
            "against the zero band, and name no point")
CONVERSE = ("the clean run fails: the converse trials' 'beyond 10x the zero band' "
            "rule misjudges a generic K with |K| << 1")
#: (family, band) or (family, band, corruption) -> the defect that blinds the cell
BLIND = {
    ("ves", "1e-12"): CANCELS,
    ("kadiyala", "1e-12"): CANCELS,
    ("kadiyala", "1e3"): CONVERSE,
    ("kadiyala", "1e8"): CONVERSE,
    **{("ves", band, c): ABSOLUTE for band in ("1e3", "1e8")
       for c in ("closed_K*1.5", "closed_K*-1", "closed_K*(1+1e-6)")},
    **{("kadiyala", band, "expect-flipped"): NO_POINT for band in ("1e-3", "0.1")},
}


def _cells():
    for family in ("ves", "kadiyala"):
        for band in BANDS:
            for corruption in CORRUPTIONS:
                reason = BLIND.get((family, band), BLIND.get((family, band, corruption)))
                marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
                yield pytest.param(family, band, corruption, marks=marks,
                                   id=f"{family}-{band}-{corruption}")


def _run(family, band):
    lo, hi = BANDS[band]
    return harness._run_verify(family, TRIALS, SEED, GridSpec(lo, hi, lo, hi, N, N), TOL_K)


@functools.cache
def _clean(name, band):
    return _run(harness.FAMILIES[name], band)


@pytest.mark.parametrize("name, band, corruption", _cells())
def test_verify_detects_the_corruption(name, band, corruption):
    clean = _clean(name, band)
    assert clean.ok, clean.describe()
    corrupt, text = CORRUPTIONS[corruption]
    out = _run(corrupt(harness.FAMILIES[name]), band)
    assert any(re.search(text, failure) for failure in out.failures), out.describe()
