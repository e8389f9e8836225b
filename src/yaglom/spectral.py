"""Spectral radius estimation, generating functions and closed forms.

Numerical side: Richardson extrapolation of survival-factor series and
partial sums of the potential G_{x,y}(w) = sum_n w^n K^n(x,y), whose
exact value comes from one tridiagonal solve.  Closed-form side, for the two-sided walk:
its return-time transform at the radius V = F_00(R), E_0 R^zeta and the
local asymptotics of K^{2n}(0,0); its parameters live in ``measures``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import _MAX_SPAN, _normalised_run
from .evolve import YaglomTrace
from .measures import TwoSidedParams

__all__ = [
    "SpectralEstimate",
    "GreenPartial",
    "estimate_rho",
    "closed_form_V",
    "e0_r_zeta",
    "green_partial",
    "k2n00_asymptotic",
]


@dataclass(frozen=True)
class SpectralEstimate:
    rho_hat: float
    error_bound: float

    @property
    def converged(self) -> bool:
        return math.isfinite(self.error_bound)


def _richardson(series: np.ndarray) -> np.ndarray:
    """First-order extrapolants in 1/n: e_k = k s_k - (k-1) s_{k-1}.

    Exact for s_k = L + c/k; the survival factors of the walks here decay
    with an n^(-3/2) local-limit prefactor, i.e. s_n ~ rho (1 - 3/(2n)),
    which this removes.
    """
    k = np.arange(1.0, len(series) + 1.0)
    e = np.empty(len(series))
    e[0] = series[0]
    e[1:] = k[1:] * series[1:] - k[:-1] * series[:-1]
    return e


MIN_RHO_FACTORS = 200
# extrapolant spread above which a survival-factor series has not converged
_CAUCHY_TOL = 1e-3


def estimate_rho(trace: YaglomTrace | np.ndarray) -> SpectralEstimate:
    """Extrapolated limit of the survival-factor series.

    The estimate is the median of the trailing Richardson extrapolants.
    The error bound is their spread over the last half of the series; if
    that spread exceeds ``_CAUCHY_TOL`` the series is declared
    non-convergent and the bound reported is infinite.
    """
    series = trace.survival_factors if isinstance(trace, YaglomTrace) else np.asarray(trace)
    if len(series) < MIN_RHO_FACTORS:
        raise ValueError(f"need at least {MIN_RHO_FACTORS} survival factors")
    extrap = _richardson(series)
    tail = extrap[len(extrap) // 2 :]
    last = extrap[-min(50, len(extrap) // 4) :]
    rho_hat = float(np.median(last))
    spread = float(tail.max() - tail.min())
    if spread > _CAUCHY_TOL:
        return SpectralEstimate(rho_hat, math.inf)
    return SpectralEstimate(rho_hat, spread)


def closed_form_V(params: TwoSidedParams) -> float:
    """V = F_00(R) = 1/2 + (1 - sqrt(1 - ab/pq))/2 < 1.

    The return-time transform is F_00(z) = (1 - sqrt(1 - 4pq z^2))/2 +
    (1 - sqrt(1 - 4ab z^2))/2, and R^2 = 1/(4pq) is substituted exactly:
    evaluated at a rounded R, 1 - 4pqR^2 lands a few ulps off 0, and its
    square root costs half the digits.
    """
    return 0.5 + 0.5 * (1 - math.sqrt(1 - params.a * params.b / (params.p * params.q)))


def e0_r_zeta(params: TwoSidedParams) -> float:
    """E_0 R^zeta = (1 - b - p) R / (1 - V) for the two-sided walk."""
    return params.kappa * params.R / (1.0 - closed_form_V(params))


@dataclass(frozen=True)
class GreenPartial:
    """Partial sum of the potential and its exact remainder.

    ``tail_estimate`` is G - ``value``, with G from ``_green``'s
    tridiagonal solve, so ``total`` is the potential itself.
    """

    value: float
    tail_estimate: float
    terms: int

    @property
    def total(self) -> float:
        return self.value + self.tail_estimate


def green_partial(kernel, x: int, y, w: float, N: int) -> GreenPartial:
    """sum_{n<=N} w^n K^n(x,y) by a forward run, plus the exact remainder.

    ``y`` may be a site or the string ``"S"`` for the full survival mass.
    A site outside [x-N, x+N] is out of reach in N steps: its partial sum
    is 0 and its remainder the whole of G_{x,y}(w).  Raises ValueError if
    w lies past the radius of convergence (see ``_green``).
    """
    if w < 0.0:
        raise ValueError("need w >= 0")
    if N < 1:
        raise ValueError("need N >= 1")
    G = _green(kernel, x, y, w)
    want_S = y == "S"
    lo, hi = x - N, x + N
    if not (want_S or lo <= y <= hi):
        return GreenPartial(0.0, G, N + 1)
    up, stay, down = kernel.rows(lo, hi)
    v = np.zeros(hi - lo + 1)
    v[x - lo] = 1.0
    logw = math.log(w) if w > 0.0 else -math.inf
    terms = np.zeros(N + 1)
    terms[0] = 1.0 if (want_S or y == x) else 0.0
    watch = () if want_S else (y - lo,)
    n = 0
    for rec in _normalised_run(v, up, stay, down, N, watch=watch):
        n0, n = n, n + rec.surv.size
        block = np.exp(rec.log_mass + np.arange(n0 + 1, n + 1) * logw)
        terms[n0 + 1 : n + 1] = block if want_S else block * rec.watched[:, 0]
    value = float(terms.sum())
    return GreenPartial(value, G - value, N + 1)


# a tail discriminant within this many ulps of b^2 is a branch point
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
    """A Thomas pivot <= 0 in ``_green``: w lies at or past a pole of G,
    inside both tails' branch points (an R-positive trap)."""


def _green(kernel, x: int, y, w: float) -> float:
    """G_{x,y}(w) = sum_n w^n K^n(x,y), or G_{x,S}(w) for ``y = "S"``, exactly.

    mu = e_x (I - wK)^{-1} solves the column equations mu(y) = 1{y=x} +
    w [mu(y-1) p_{y-1} + mu(y) r_y + mu(y+1) q_{y+1}].  Past the hull [L, U]
    of the breakpoints, x and y, widened by one site, rates are constant,
    so mu(U+j) = mu(U) nu_R^j and mu(L-j) = mu(L) nu_L^j (``_tail_root``).
    That closes a tridiagonal system on [L, U], solved by one Thomas pass.
    Raises ValueError past the radius of convergence (a tail discriminant
    below 0; nu >= 1 for the survival sum), ``_GreenPole`` for a pivot
    <= 0, and ValueError when the hull spans more than ``_MAX_SPAN`` sites.
    """
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
    if nu_L >= 1.0 or nu_R >= 1.0:
        raise ValueError(f"w = {w!r} lies past the survival radius: a tail ratio reaches 1")
    return math.fsum(mu) + mu[-1] * nu_R / (1.0 - nu_R) + mu[0] * nu_L / (1.0 - nu_L)


def k2n00_asymptotic(params: TwoSidedParams, n: int) -> float:
    """Asymptotic K^{2n}(0,0) ~ (pq/(pq-ab)) (4pq)^n / (sqrt(pi) n^{3/2})."""
    if n < 1:
        raise ValueError("need n >= 1")
    pq = params.p * params.q
    ab = params.a * params.b
    return pq / (pq - ab) * (4.0 * pq) ** n / (math.sqrt(math.pi) * n**1.5)
