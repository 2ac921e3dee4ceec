"""Penalty polynomials that replace overlap inequality constraints.

A pair of beads at chain separation ``s`` can only realise squared distances
in ``{0, 2, 4, ..., 2 s^2}`` (FCC parity).  A slack-free overlap penalty is a
polynomial ``P`` with ``P(0) = P0`` (the collision penalty) and ``P(D) = 0``
on every other achievable value, so that composing ``P`` with the squared
distance polynomial of the pair penalises exactly the collisions.

``P`` is fitted by least squares in the Chebyshev basis on the affinely
mapped domain ``[0, 2 s^2] -> [-1, 1]``, starting at a low degree and
incrementing until the coefficient of determination reaches ``r2_tol``.  At
degree ``#points - 1`` the fit becomes interpolation, which bounds the loop.
Fits depend only on the separation (and ``P0``), so one fit per separation is
shared by all pairs at that separation.

A fit is composed with a pair's squared-distance polynomial pointwise: the
Chebyshev series is evaluated in float64 on the distance's value table and
the result transformed back to multilinear form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .exceptions import EncodingError, QfoldError
from .pb import PBPolynomial, compose_pointwise

#: Default collision penalty height at D = 0.
DEFAULT_P0 = 50.0

#: Default coefficient-of-determination threshold.
DEFAULT_R2_TOL = 0.999

#: Degree the escalation loop starts from.
START_DEGREE = 2


@dataclass(frozen=True)
class PenaltyTarget:
    """Target points for one chain separation: (0, P0) and (2k, 0), k = 1..s^2."""

    separation: int
    p0: float = DEFAULT_P0

    def __post_init__(self):
        if self.separation < 2:
            raise EncodingError(f"separation must be >= 2, got {self.separation}")

    @property
    def d_max(self) -> int:
        return 2 * self.separation**2

    def points(self):
        d = np.arange(0, self.d_max + 1, 2, dtype=float)
        f = np.zeros_like(d)
        f[0] = self.p0
        return d, f


@dataclass(frozen=True)
class ChebyshevFit:
    """A fitted penalty polynomial as a Chebyshev series.

    The coefficients live on the mapped variable ``t = d / s^2 - 1``, which
    keeps every achievable squared distance inside ``[-1, 1]``, where the
    series is well conditioned at every degree the loop reaches.
    """

    separation: int
    p0: float
    degree: int
    r2: float
    coeffs_cheb: tuple

    def _map(self, d):
        return np.asarray(d, dtype=float) / self.separation**2 - 1.0

    def evaluate(self, d):
        """The penalty at squared distance(s) ``d``."""
        return ncheb.chebval(self._map(d), np.asarray(self.coeffs_cheb))


def fit_penalty(target: PenaltyTarget, r2_tol: float = DEFAULT_R2_TOL) -> ChebyshevFit:
    """Fit the overlap penalty for one separation.

    Degrees are tried from ``START_DEGREE`` upward, one at a time, until the
    fit's R^2 reaches ``r2_tol``; the loop is capped at ``#points - 1`` where
    least squares interpolates the targets exactly.  An ``r2_tol`` outside
    (0, 1], NaN included, raises ``QfoldError``.
    """
    if not 0.0 < r2_tol <= 1.0:
        raise QfoldError(f"r2_tol must lie in (0, 1], got {r2_tol}")
    d_vals, f_vals = target.points()
    t_vals = d_vals / target.separation**2 - 1.0
    n_points = d_vals.size
    ss_tot = float(((f_vals - f_vals.mean()) ** 2).sum())

    degree = min(START_DEGREE, n_points - 1)
    while True:
        coeffs = ncheb.chebfit(t_vals, f_vals, degree)
        resid = f_vals - ncheb.chebval(t_vals, coeffs)
        r2 = 1.0 - float((resid**2).sum()) / ss_tot
        if r2 >= r2_tol or degree >= n_points - 1:
            break
        degree += 1

    return ChebyshevFit(
        separation=target.separation,
        p0=target.p0,
        degree=degree,
        r2=r2,
        coeffs_cheb=tuple(float(c) for c in coeffs),
    )


def required_separations(n_beads: int):
    """Separations needing an overlap penalty: pairs with n - m >= 3.

    Separation 2 needs none; a separation-2 collision is exactly a backtrack,
    which the backtrack term already penalises.
    """
    return list(range(3, n_beads))


def fit_family(
    n_beads: int,
    p0: float = DEFAULT_P0,
    r2_tol: float = DEFAULT_R2_TOL,
) -> dict:
    """One shared fit per required separation of an ``n_beads`` chain."""
    return {
        s: fit_penalty(PenaltyTarget(s, p0), r2_tol=r2_tol)
        for s in required_separations(n_beads)
    }


def build_olap_penalty(fit: ChebyshevFit, dist_poly: PBPolynomial) -> PBPolynomial:
    """Compose the fitted penalty with a squared-distance polynomial.

    Raises ``DegreeOverflowError`` when the distance's support is wider than
    ``pb.MAX_TABLE_VARS``.
    """
    return compose_pointwise(fit.evaluate, dist_poly)


def fit_report(fits: dict) -> str:
    """Tab-separated summary of a fit family, one row per separation."""
    lines = ["separation\tdegree\tr2\tp_at_zero\tmax_abs_rest"]
    for s in sorted(fits):
        fit = fits[s]
        d_vals, _ = PenaltyTarget(s, fit.p0).points()
        vals = fit.evaluate(d_vals)
        lines.append(
            f"{s}\t{fit.degree}\t{fit.r2:.6f}\t{vals[0]:.4f}\t"
            f"{np.abs(vals[1:]).max():.4f}"
        )
    return "\n".join(lines) + "\n"
