"""Spectral radius estimation, generating functions and closed forms.

Numerical side: Richardson extrapolation of survival-factor series and
partial sums of the potential G_{x,y}(w) = sum_n w^n K^n(x,y) with a
heuristic n^(-3/2) tail fit.  Closed-form side: the two-sided walk's
return-time transform F_00, E_0 R^zeta and the local asymptotics of
K^{2n}(0,0); its parameters and the roots of b s^2 - 2 sqrt(pq) s + a
live in ``measures``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .chain import MassState, Window, _normalised_run
from .evolve import YaglomTrace
from .measures import TwoSidedParams, quadratic_roots  # noqa: F401  (re-exported)

__all__ = [
    "SpectralEstimate",
    "GreenPartial",
    "estimate_rho",
    "closed_form_F00",
    "closed_form_V",
    "e0_r_zeta",
    "green_partial",
    "chi_entrance",
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


def closed_form_F00(params: TwoSidedParams, z: float) -> float:
    """Return-time transform F_00(z) of the two-sided walk, 0 <= z <= R."""
    if z < 0.0 or z > params.R * (1.0 + 1e-12):
        raise ValueError("z outside [0, R]")
    z = min(z, params.R)
    under_p = max(0.0, 1.0 - 4.0 * params.p * params.q * z * z)
    under_a = max(0.0, 1.0 - 4.0 * params.a * params.b * z * z)
    return (1.0 - math.sqrt(under_p)) / 2.0 + (1.0 - math.sqrt(under_a)) / 2.0


def closed_form_V(params: TwoSidedParams) -> float:
    """F_00 at the radius: V = 1/2 + (1 - sqrt(1 - ab/pq))/2 < 1.

    Written out rather than read off ``closed_form_F00(params, R)``: there
    1 - 4pqR^2 rounds to a few ulps off 0, and its square root costs half
    the digits.
    """
    return 0.5 + 0.5 * (1 - math.sqrt(1 - params.a * params.b / (params.p * params.q)))


def e0_r_zeta(params: TwoSidedParams) -> float:
    """E_0 R^zeta = (1 - b - p) R / (1 - V) for the two-sided walk."""
    return params.kappa * params.R / (1.0 - closed_form_V(params))


@dataclass(frozen=True)
class GreenPartial:
    """Partial sum of the potential plus a fitted tail estimate.

    ``tail_estimate`` comes from fitting c n^(-3/2) g^n to the last decade
    of terms; it is a heuristic, because the n^(-3/2) rate is only proven
    for the closed-form examples.
    """

    value: float
    tail_estimate: float
    terms: int

    @property
    def total(self) -> float:
        return self.value + self.tail_estimate


def green_partial(kernel, x: int, y, w: float, N: int) -> GreenPartial:
    """sum_{n<=N} w^n K^n(x,y) with a fitted tail bound.

    ``y`` may be a site or the string ``"S"`` for the full survival mass.
    A site outside [x-N, x+N] is out of reach in N steps: its partial sum
    and tail are 0.  Raises if the terms are detected to grow geometrically
    (w beyond the radius of convergence).
    """
    if w < 0.0:
        raise ValueError("need w >= 0")
    if N < 1:
        raise ValueError("need N >= 1")
    want_S = isinstance(y, str)
    if want_S and y != "S":
        raise ValueError("y must be a site or 'S'")
    lo, hi = x - N, x + N
    if not (want_S or lo <= y <= hi):
        return GreenPartial(0.0, 0.0, N + 1)
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
    return GreenPartial(float(terms.sum()), _fit_tail(terms, N), N + 1)


_TAIL_TERMS = 99999
_TAIL_CHUNK = 8192


def _fit_tail(terms: np.ndarray, N: int) -> float:
    """Fit c n^(-3/2) g^n over the last decade and integrate past N."""
    start = max(2, int(0.9 * N))
    ns = np.arange(start, N + 1, dtype=float)
    t = terms[start : N + 1]
    pos = t > 0.0
    if pos.sum() < 4:
        return 0.0
    ns, t = ns[pos], t[pos]
    ylog = np.log(t) + 1.5 * np.log(ns)
    A = np.vstack([np.ones_like(ns), ns]).T
    coef, *_ = np.linalg.lstsq(A, ylog, rcond=None)
    logc, logg = float(coef[0]), float(coef[1])
    # Genuinely divergent series grow like exp(n log(w/R)); a small
    # positive residual slope just means the prefactor has not reached its
    # asymptotic n^(-3/2) rate yet (it decays slower from distant starts).
    if logg > 1e-3:
        raise ValueError("terms growing: w exceeds the radius of convergence")
    c = math.exp(logc)
    if logg > -1e-12:
        # effectively g = 1: tail = c * Hurwitz zeta(3/2, N+1)
        return c * float(zeta(1.5, N + 1))
    # Sum c g^k k^(-3/2) for k > N up to the first term below 1e-16 of the
    # running total, at most _TAIL_TERMS terms.  Each chunk's products and
    # sums run in order from the last chunk's, as a term-by-term loop would.
    g = math.exp(logg)
    tail, gk = 0.0, g ** (N + 1)
    end = N + 1 + _TAIL_TERMS
    for k0 in range(N + 1, end, _TAIL_CHUNK):
        k = np.arange(k0, min(k0 + _TAIL_CHUNK, end), dtype=float)
        gks = np.full(len(k), g)
        gks[0] = gk
        np.cumprod(gks, out=gks)
        inc = c * gks * k**-1.5
        run = np.cumsum(np.concatenate(([tail], inc)))[1:]
        stop = np.flatnonzero(inc < 1e-16 * np.maximum(run, 1e-300))
        if stop.size:
            return float(run[stop[0]])
        tail, gk = float(run[-1]), float(gks[-1]) * g
    return tail


def chi_entrance(kernel, z: int, w: float, N: int):
    """Normalized partial Green measure chi(z,.) = G_{z,.}(w)/s(z).

    Accumulates the vector sum_{n<=N} w^n K^n(z,.) and normalizes it to a
    probability on the window [z-N, z+N].
    """
    if N < 0:
        raise ValueError("need N >= 0")
    lo, hi = z - N, z + N
    up, stay, down = kernel.rows(lo, hi)
    v = np.zeros(hi - lo + 1)
    v[z - lo] = 1.0
    acc = v.copy()
    # one record per step: every step's law enters the sum
    run = _normalised_run(v, up, stay, down, N, stops=range(1, N))
    for n, rec in enumerate(run, start=1):
        weight = math.exp(rec.log_mass[-1] + n * math.log(w))
        acc[rec.a : rec.b + 1] += weight * v[rec.a : rec.b + 1]
    total = float(acc.sum())
    return MassState(Window(lo, hi), acc / total, math.log(total))


def k2n00_asymptotic(params: TwoSidedParams, n: int) -> float:
    """Asymptotic K^{2n}(0,0) ~ (pq/(pq-ab)) (4pq)^n / (sqrt(pi) n^{3/2})."""
    if n < 1:
        raise ValueError("need n >= 1")
    pq = params.p * params.q
    ab = params.a * params.b
    return pq / (pq - ab) * (4.0 * pq) ** n / (math.sqrt(math.pi) * n**1.5)
