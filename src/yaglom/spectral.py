"""Spectral radius estimation, generating functions and closed forms.

Numerical side: Richardson extrapolation of survival-factor series and
partial sums of the potential G_{x,y}(w) = sum_n w^n K^n(x,y) with a
heuristic n^(-3/2) tail fit.  Closed-form side, for the two-sided walk:
its return-time transform at the radius V = F_00(R), E_0 R^zeta and the
local asymptotics of K^{2n}(0,0); its parameters live in ``measures``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import _normalised_run
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


# Euler-Maclaurin coefficients (2k)!/B_2k of the Cephes Hurwitz zeta
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum_{k>=0} (k + q)^(-x) for x > 1, q > 0.

    The Cephes algorithm, step for step and in the same float operations,
    so it returns the same bits as ``scipy.special.zeta(x, q)``: the terms
    k = 0..9, and on until k + q > 9, summed directly, then an
    Euler-Maclaurin tail of at most 12 terms; each loop stops once its
    last term is below MACHEP relative to the sum.  Beyond q = 1e8 the
    two-term asymptotic expansion (DLMF 25.11.43) is used.
    """
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q**-x
    a, i, b = q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


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
        return c * _hurwitz_zeta(1.5, N + 1)
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


def k2n00_asymptotic(params: TwoSidedParams, n: int) -> float:
    """Asymptotic K^{2n}(0,0) ~ (pq/(pq-ab)) (4pq)^n / (sqrt(pi) n^{3/2})."""
    if n < 1:
        raise ValueError("need n >= 1")
    pq = params.p * params.q
    ab = params.a * params.b
    return pq / (pq - ab) * (4.0 * pq) ** n / (math.sqrt(math.pi) * n**1.5)
