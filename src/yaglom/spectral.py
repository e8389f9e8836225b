"""Spectral radius estimation and Green functions.

Richardson extrapolation of survival-factor series (``estimate_rho``),
and the potential G_{x,y}(w) = sum_n w^n K^n(x,y) from one tridiagonal
solve (``green``).  The two-sided walk's closed forms (V = F_00(R),
E_0 R^zeta, the local asymptotics of K^{2n}(0,0)) live in ``measures``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import _MAX_SPAN
# not used here: kept only for callers that still read
# ``yaglom.spectral.TwoSidedParams`` (perfbench/workloads.py)
from .measures import TwoSidedParams  # noqa: F401

__all__ = ["SpectralEstimate", "estimate_rho", "green"]


@dataclass(frozen=True)
class SpectralEstimate:
    rho_hat: float
    error_bound: float

    @property
    def converged(self) -> bool:
        return math.isfinite(self.error_bound)


def _richardson(series: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """First-order extrapolants in 1/n of terms ``series`` taken at step
    indices ``steps``: e_i = (n_i s_i - n_{i-1} s_{i-1}) / (n_i - n_{i-1}),
    with e_0 = s_0.

    Exact for s_n = L + c/n.  The survival factors of the walks here decay
    with an n^(-3/2) local-limit prefactor, i.e. s_n ~ rho (1 - 3/(2n)),
    and the hhat ratios K^n(x,x0)/K^n(x0,x0) approach their limit like
    1 + b/n; this removes the 1/n term.  On consecutive steps the divisor
    is 1.0, so the extrapolants are k s_k - (k-1) s_{k-1} to the bit; a
    period-2 series passes its finite terms with gaps of 2.
    """
    e = np.empty(len(series))
    e[0] = series[0]
    e[1:] = (steps[1:] * series[1:] - steps[:-1] * series[:-1]) / np.diff(steps)
    return e


MIN_RHO_FACTORS = 200
# extrapolant spread above which a survival-factor series has not converged
_CAUCHY_TOL = 1e-3


def estimate_rho(trace) -> SpectralEstimate:
    """Extrapolated limit of the survival-factor series of ``trace``, a
    ``YaglomTrace`` or the series itself.

    The estimate is the median of the trailing Richardson extrapolants.
    The error bound is their spread over the last half of the series; if
    that spread exceeds ``_CAUCHY_TOL`` the series is declared
    non-convergent and the bound reported is infinite.
    """
    series = np.asarray(getattr(trace, "survival_factors", trace))
    if len(series) < MIN_RHO_FACTORS:
        raise ValueError(f"need at least {MIN_RHO_FACTORS} survival factors")
    extrap = _richardson(series, np.arange(1.0, len(series) + 1.0))
    tail = extrap[len(extrap) // 2 :]
    last = extrap[-min(50, len(extrap) // 4) :]
    rho_hat = float(np.median(last))
    spread = float(tail.max() - tail.min())
    if spread > _CAUCHY_TOL:
        return SpectralEstimate(rho_hat, math.inf)
    return SpectralEstimate(rho_hat, spread)


# a tail discriminant within this many ulps of b^2 is a branch point, and
# a tail ratio within them of 1 reaches 1
_SNAP = 16.0 * np.finfo(float).eps


def _tail_root(w: float, out: float, r: float, back: float) -> float:
    """Small root nu of (w back) t^2 - (1 - w r) t + w out = 0: past a hull
    edge, a tail with rates (out, r, back) gives mu(edge + j) = mu(edge) nu^j."""
    b = 1.0 - w * r
    disc = b * b - 4.0 * w * w * out * back
    if abs(disc) <= _SNAP * b * b:
        disc = 0.0  # a float R lies a few ulps from the sqrt(R - w) branch point
    elif b <= 0.0 or disc < 0.0:
        raise ValueError(f"w = {w!r} lies past a tail's branch point")
    return 2.0 * w * out / (b + math.sqrt(disc))


class _GreenPole(ValueError):
    """A Thomas pivot <= 0 in ``green``: w lies at or past a pole of G,
    inside both tails' branch points (an R-positive trap)."""


def green(kernel, x: int, y, w: float) -> float:
    """G_{x,y}(w) = sum_n w^n K^n(x,y), or G_{x,S}(w) for ``y = "S"``, exactly.

    mu = e_x (I - wK)^{-1} solves the column equations mu(y) = 1{y=x} +
    w [mu(y-1) p_{y-1} + mu(y) r_y + mu(y+1) q_{y+1}].  Past the hull [L, U]
    of the breakpoints, x and y, widened by one site, rates are constant,
    so mu(U+j) = mu(U) nu_R^j and mu(L-j) = mu(L) nu_L^j (``_tail_root``).
    That closes a tridiagonal system on [L, U], solved by one Thomas pass.
    Raises ValueError for a weight that is not a finite number >= 0, past
    the radius of convergence (a tail discriminant below 0; for the
    survival sum, a nu within ``_SNAP`` of 1 or above it), and when the
    hull spans more than ``_MAX_SPAN`` sites; ``_GreenPole``, a
    ValueError, for a pivot <= 0.
    """
    if not (math.isfinite(w) and w >= 0.0):
        raise ValueError(f"need a finite weight w >= 0, got {w!r}")
    want_S = isinstance(y, str)
    if want_S and y != "S":
        raise ValueError("y must be a site or 'S'")
    pts = kernel.breakpoints() + [x] + ([] if want_S else [y])
    L, U = min(pts) - 1, max(pts) + 1
    n = U - L + 1
    if n > _MAX_SPAN:
        raise ValueError(f"the Green solve's hull [{L}, {U}] spans more than {_MAX_SPAN} sites")
    up, stay, down = (a.tolist() for a in kernel.rows(L, U))
    nu_L = _tail_root(w, down[0], stay[0], up[0])
    nu_R = _tail_root(w, up[-1], stay[-1], down[-1])
    diag = [1.0 - w * r for r in stay]
    diag[0] -= w * up[0] * nu_L
    diag[-1] -= w * down[-1] * nu_R
    # forward elimination of -w p_{i-1} below and -w q_{i+1} above the diagonal
    e, d = [0.0] * n, [0.0] * n
    for i in range(n):
        a = w * up[i - 1] if i else 0.0  # at i = 0, a = 0 masks e[-1] and d[-1]
        piv = diag[i] - a * e[i - 1]
        if not piv > 0.0:
            raise _GreenPole(f"w = {w!r} lies past the radius: pivot {piv!r} at site {L + i}")
        e[i] = (w * down[i + 1] if i + 1 < n else 0.0) / piv
        d[i] = ((1.0 if i == x - L else 0.0) + a * d[i - 1]) / piv
    mu = d
    for i in range(n - 2, -1, -1):
        mu[i] += e[i] * mu[i + 1]
    if not want_S:
        return mu[y - L]
    if max(nu_L, nu_R) >= 1.0 - _SNAP:  # a float nu can miss 1 by an ulp or two
        raise ValueError(f"w = {w!r} lies past the survival radius: a tail ratio reaches 1")
    return math.fsum(mu) + mu[-1] * nu_R / (1.0 - nu_R) + mu[0] * nu_L / (1.0 - nu_L)
