"""Penalty-fit tests.

The expected fit degrees were frozen from a run of the fitting loop itself
and guard against regressions in the escalation logic; the quality bounds
(R^2, endpoint, residuals) are the contract the fits must keep meeting.
"""

import numpy as np
import pytest

from qfold import polyfit
from qfold.exceptions import EncodingError, QfoldError
from qfold.pb import PBPolynomial

EXPECTED_DEGREES = {2: 4, 3: 7, 4: 10, 5: 12, 6: 15, 7: 18, 8: 20, 9: 23, 10: 26, 11: 28}


def test_target_points():
    t = polyfit.PenaltyTarget(2)
    d, f = t.points()
    np.testing.assert_array_equal(d, [0, 2, 4, 6, 8])
    np.testing.assert_array_equal(f, [50, 0, 0, 0, 0])
    assert t.d_max == 8
    with pytest.raises(EncodingError):
        polyfit.PenaltyTarget(1)


def test_s2_fit_interpolates():
    fit = polyfit.fit_penalty(polyfit.PenaltyTarget(2))
    assert fit.degree == 4
    d, f = polyfit.PenaltyTarget(2).points()
    np.testing.assert_allclose(fit.evaluate(d), f, atol=1e-8)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_degrees_frozen_and_nondecreasing():
    degrees = {}
    for s in range(2, 12):
        degrees[s] = polyfit.fit_penalty(polyfit.PenaltyTarget(s)).degree
    assert degrees == EXPECTED_DEGREES
    seq = [degrees[s] for s in sorted(degrees)]
    assert seq == sorted(seq)


@pytest.mark.parametrize("s", range(3, 12))
def test_fit_quality(s):
    fit = polyfit.fit_penalty(polyfit.PenaltyTarget(s))
    d, _ = polyfit.PenaltyTarget(s).points()
    vals = fit.evaluate(d)
    assert fit.r2 >= 0.999
    assert abs(vals[0] - 50.0) <= 2.5
    assert np.abs(vals[1:]).max() <= 2.5


def test_fit_is_deterministic():
    a = polyfit.fit_penalty(polyfit.PenaltyTarget(5))
    b = polyfit.fit_penalty(polyfit.PenaltyTarget(5))
    assert a.coeffs_cheb == b.coeffs_cheb


def test_custom_p0():
    fit = polyfit.fit_penalty(polyfit.PenaltyTarget(3, p0=10.0))
    assert float(fit.evaluate(0.0)) == pytest.approx(10.0, abs=0.5)


@pytest.mark.parametrize("r2_tol", [0.0, -0.5, 1.5, float("nan"), float("inf")])
def test_fit_rejects_a_tolerance_outside_the_unit_interval(r2_tol):
    with pytest.raises(QfoldError):
        polyfit.fit_penalty(polyfit.PenaltyTarget(3), r2_tol=r2_tol)


def test_fit_at_tolerance_one_interpolates():
    target = polyfit.PenaltyTarget(3)
    fit = polyfit.fit_penalty(target, r2_tol=1.0)
    assert fit.degree == target.points()[0].size - 1


def test_required_separations():
    assert polyfit.required_separations(3) == []
    assert polyfit.required_separations(4) == [3]
    assert polyfit.required_separations(6) == [3, 4, 5]


def test_fit_family_shares_by_separation():
    fits = polyfit.fit_family(6)
    assert sorted(fits) == [3, 4, 5]
    assert all(fits[s].separation == s for s in fits)


def test_build_olap_penalty_composes_pointwise():
    # toy squared-distance polynomial over two bits with values 0, 2, 2, 4
    fit = polyfit.fit_penalty(polyfit.PenaltyTarget(2))
    dist = PBPolynomial.from_terms([([0], 2.0), ([1], 2.0)], 2)
    composed = polyfit.build_olap_penalty(fit, dist)
    for mask in range(4):
        d_val = dist.evaluate(mask)
        assert composed.evaluate(mask) == pytest.approx(
            float(fit.evaluate(d_val)), abs=1e-8
        )


def test_fit_report_shape():
    report = polyfit.fit_report(polyfit.fit_family(5))
    lines = report.strip().splitlines()
    assert lines[0].split("\t") == [
        "separation", "degree", "r2", "p_at_zero", "max_abs_rest",
    ]
    assert len(lines) == 3  # separations 3 and 4
