"""Doob transforms, time reversal, and the mixture limit.

The h-transform R K(x,y) h(y)/h(x) is the chain conditioned to survive
forever; the time reversal mu(z) K(z,x) / (theta mu(x)) runs the chain
backwards with respect to a theta-invariant measure.  Boundary weights
are obtained numerically from the h-transform's two-sided hitting problem
(the reference for the families' closed-form ``split``), and the limiting
conditioned law is the corresponding convex mixture of the two extremal
invariant probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import Window, _normalised_run
from .measures import Mixture, TwoSidedParams

__all__ = [
    "TransformedKernel",
    "ReversedKernel",
    "BoundaryWeights",
    "HhatEstimate",
    "h_transform",
    "time_reversal",
    "hitting_split",
    "estimate_hhat",
    "closed_form_hhat",
    "mixture_limit",
]


def _as_log_fn(h):
    """Accept an evaluable with .log_value, or a positive callable."""
    if hasattr(h, "log_value"):
        return h.log_value
    return lambda x: np.log(h(np.asarray(x, dtype=float)))


class _KernelView:
    """Row access shared by kernels derived from a base kernel."""

    def row(self, x: int):
        up, stay, down = self.rows(x, x)
        return float(up[0]), float(stay[0]), float(down[0])

    def stochastic_residual(self, window: Window) -> float:
        up, stay, down = self.rows(window.lo, window.hi)
        return float(np.max(np.abs(up + stay + down - 1.0)))


@dataclass(frozen=True)
class TransformedKernel(_KernelView):
    """h-transform of a kernel: rows R K(x,y) h(y)/h(x).

    Stochastic (rows sum to one) exactly when h is rho-harmonic with
    rho = 1/R; the deviation is reported by ``stochastic_residual``.
    """

    base: object
    log_h: object
    R: float

    def rows(self, lo: int, hi: int):
        up, stay, down = self.base.rows(lo, hi)
        lh = np.asarray(self.log_h(np.arange(lo - 1, hi + 2)), dtype=float)
        up = self.R * up * np.exp(lh[2:] - lh[1:-1])
        down = self.R * down * np.exp(lh[:-2] - lh[1:-1])
        stay = self.R * stay
        return up, stay, down


def h_transform(kernel, h, R: float) -> TransformedKernel:
    """Transform ``kernel`` by a positive function h at weight R."""
    if R <= 0.0:
        raise ValueError("need R > 0")
    return TransformedKernel(kernel, _as_log_fn(h), R)


@dataclass(frozen=True)
class ReversedKernel(_KernelView):
    """Time reversal of a kernel with respect to a positive measure.

    Rows are mu(z) K(z,x) / (theta mu(x)); they sum to one exactly when
    mu is theta-invariant.
    """

    base: object
    log_mu: object
    theta: float

    def rows(self, lo: int, hi: int):
        b_up, b_stay, b_down = self.base.rows(lo - 1, hi + 1)
        lm = np.asarray(self.log_mu(np.arange(lo - 1, hi + 2)), dtype=float)
        # reversed up-step at x comes from base down-step out of x+1
        up = b_down[2:] * np.exp(lm[2:] - lm[1:-1]) / self.theta
        down = b_up[:-2] * np.exp(lm[:-2] - lm[1:-1]) / self.theta
        stay = b_stay[1:-1] / self.theta
        return up, stay, down


def time_reversal(kernel, measure, theta: float) -> ReversedKernel:
    """Reverse ``kernel`` with respect to ``measure`` at eigenvalue theta."""
    if theta <= 0.0:
        raise ValueError("need theta > 0")
    return ReversedKernel(kernel, _as_log_fn(measure), theta)


@dataclass(frozen=True)
class BoundaryWeights:
    """Escape weights (w_minus, w_plus) of the conditioned chain."""

    w_minus: float
    w_plus: float
    converged: bool = True
    delta: float = 0.0
    horizon: int = 0

    def __post_init__(self):
        if abs(self.w_minus + self.w_plus - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


def _ruin_w_plus(tk, x: int, M: int) -> float:
    """P_x(hit +M before -M) for a birth-death chain, in log space."""
    up, _, down = tk.rows(-M + 1, M - 1)
    log_ratio = np.log(down) - np.log(up)
    # phi(j) = prod_{k=-M+1..j} down_k/up_k, phi(-M) = 1
    log_phi = np.concatenate([[0.0], np.cumsum(log_ratio)])
    log_phi -= log_phi.max()
    phi = np.exp(log_phi)
    return float(phi[: x + M].sum() / phi.sum())


# hitting_split: the change in w_plus that ends the doubling, and the
# largest row-sum defect accepted as a stochastic transformed kernel
_SPLIT_TOL = 1e-9
_RESIDUAL_TOL = 1e-9


def hitting_split(
    tk: TransformedKernel, x: int, M_start: int = 64, M_cap: int = 4096
) -> BoundaryWeights:
    """Boundary weights by the gambler's-ruin system with doubling horizon.

    Solves the two-point hitting problem on [-M, M], starting from
    M = max(M_start, 2|x| + 2), and doubles M, the last time only up to
    ``M_cap``, until the answer moves by less than ``_SPLIT_TOL`` (or the
    cap is reached, in which case ``converged`` is False and ``delta``
    reports the last change).  On the mirror chain the error falls only
    like 1/M; the families' ``split`` gives the exact weights.  Raises
    if 2|x| + 2 exceeds ``M_cap`` (the first window alone would pass the
    cap), or if the rows of ``tk`` near 0 miss 1 by more than
    ``_RESIDUAL_TOL``.
    """
    if 2 * abs(x) + 2 > M_cap:
        raise ValueError(f"start {x} needs a horizon of {2 * abs(x) + 2}, above M_cap={M_cap}")
    check = Window(-min(M_start, 64), min(M_start, 64))
    resid = tk.stochastic_residual(check)
    if resid > _RESIDUAL_TOL:
        raise ValueError(f"transformed kernel not stochastic: residual {resid:g}")
    M = max(M_start, 2 * abs(x) + 2)
    w = _ruin_w_plus(tk, x, M)
    delta = math.inf
    while M < M_cap:
        M = min(2 * M, M_cap)
        w_next = _ruin_w_plus(tk, x, M)
        delta = abs(w_next - w)
        w = w_next
        if delta < _SPLIT_TOL:
            return BoundaryWeights(1.0 - w, w, True, delta, M)
    return BoundaryWeights(1.0 - w, w, delta < _SPLIT_TOL, delta, M)


@dataclass
class HhatEstimate:
    """Ratio series K^n(x, x0)/K^n(x0, x0) with convergence diagnostics."""

    x0: int
    table: dict[int, float]
    converged: dict[int, bool]
    spreads: dict[int, float]
    series: dict[int, np.ndarray]

    def verdict(self) -> bool:
        return all(self.converged.values())


# estimate_hhat: a ratio series has converged when every run of _HHAT_WIDTH
# consecutive terms in its last half spans at most _HHAT_REL_TOL of its level
_HHAT_WIDTH = 50
_HHAT_REL_TOL = 1e-3


def _window_cauchy(series: np.ndarray):
    """Max sliding-window spread over the last half, relative to the level.

    A tail with a zero among its finite entries has no level to converge
    to: a site out of reach, a site whose entry the run still flushes
    below the smallest normal float, or a period-2 chain at an odd
    distance from x0 (ratio 0 or undefined at every step).  It is
    reported as not converged with an infinite spread.
    """
    half = series[len(series) // 2 :]
    half = half[np.isfinite(half)]
    if len(half) < _HHAT_WIDTH + 1 or not (half > 0.0).all():
        return math.inf, False
    level = float(np.median(half))
    windows = np.lib.stride_tricks.sliding_window_view(half, _HHAT_WIDTH)
    spread = float((windows.max(axis=1) - windows.min(axis=1)).max()) / level
    return spread, spread <= _HHAT_REL_TOL


def estimate_hhat(kernel, x0: int, sites, n_max: int) -> HhatEstimate:
    """Estimate hhat(x)/hhat(x0) from the ratio series K^n(x,x0)/K^n(x0,x0).

    The ratios at step n are entries of one backward vector K^n e_{x0}.
    Since (K h)(x) = up[x] h(x+1) + stay[x] h(x) + down[x] h(x-1), that
    vector comes from one forward run on the transposed rates
    (down[x+1], stay[x], up[x-1]); each step's normalisation cancels in
    the ratio.  Non-convergence (the Kesten case) is a verdict per site,
    decided by a sliding Cauchy window over the last half of the series,
    not an exception.
    """
    sites = tuple(sites)
    lo, hi = min((x0 - n_max, *sites)), max((x0 + n_max, *sites))
    up, stay, down = kernel.rows(lo - 1, hi + 1)
    v = np.zeros(hi - lo + 1)
    v[x0 - lo] = 1.0
    idx = np.array([x - lo for x in sites] + [x0 - lo])
    vals = np.zeros((n_max + 1, len(idx)))
    vals[0] = v[idx]
    n = 0
    for rec in _normalised_run(v, down[2:], stay[1:-1], up[:-2], n_max, watch=idx):
        n0, n = n, n + rec.surv.size
        vals[n0 + 1 : n + 1] = rec.watched
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = vals[:, :-1] / vals[:, -1:]
    ratios[~np.isfinite(ratios)] = np.nan
    series = {x: np.ones(n_max + 1) if x == x0 else r.copy() for x, r in zip(sites, ratios.T)}
    out, conv, spreads = {}, {}, {}
    for x, ratio in series.items():
        out[x] = float(ratio[np.isfinite(ratio)][-1])  # step 0 is always finite
        spreads[x], conv[x] = _window_cauchy(ratio)
    return HhatEstimate(x0, out, conv, spreads, series)


def closed_form_hhat(params: TwoSidedParams, x) -> float | np.ndarray:
    """hhat of the two-sided walk: t0^{-x} for x < 0, (1+c1 x)(q/p)^{x/2}
    for x >= 0, with c1 = sqrt(1 - ab/pq).  Equals mu_plus/gamma pointwise."""
    return params.hhat.value(x)


def mixture_limit(weights: BoundaryWeights, pi_minus, pi_plus) -> Mixture:
    """Convex mixture w_minus pi_minus + w_plus pi_plus (a probability)."""
    return Mixture(weights.w_minus, weights.w_plus, pi_minus, pi_plus)
