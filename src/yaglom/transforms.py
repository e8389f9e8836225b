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

from .chain import Window
from .evolve import evolve_trace
from .measures import Mixture
from .spectral import _richardson

__all__ = [
    "TransformedKernel",
    "ReversedKernel",
    "BoundaryWeights",
    "HhatEstimate",
    "h_transform",
    "time_reversal",
    "hitting_split",
    "estimate_hhat",
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
    """Ratio series K^n(x, x0)/K^n(x0, x0) with convergence diagnostics.

    ``table`` holds each site's limit: the series extrapolated in 1/n
    where its extrapolants settle, else its last finite term
    (``_hhat_limit``).  ``converged`` and ``spreads`` judge the raw
    series."""

    x0: int
    table: dict[int, float]
    converged: dict[int, bool]
    spreads: dict[int, float]
    series: dict[int, np.ndarray]

    def verdict(self) -> bool:
        return all(self.converged.values())


# estimate_hhat: a ratio series has converged when every run of _HHAT_WIDTH
# consecutive terms in its last half spans at most _HHAT_REL_TOL of its level,
# and its table entry is extrapolated when its last _HHAT_WIDTH extrapolants
# span at most _HHAT_REL_TOL of their median
_HHAT_WIDTH = 50
_HHAT_REL_TOL = 1e-3


def _window_cauchy(series: np.ndarray):
    """Max sliding-window spread over the last half, relative to the level.

    A tail with a zero among its finite entries has no level to converge
    to: a site out of reach, a site whose entry the run still flushes
    below the smallest normal float, or a period-2 chain at an odd
    distance from x0 (ratio 0 or undefined at every step).  It is
    reported as not converged with an infinite spread.

    The window maxima and minima come from doubling: the extremes of
    windows of width 2w are those of two windows of width w, w apart, and
    one last merge of two overlapping windows of width 32 gives width 50.
    That is O(n log 50) work instead of O(50 n), and max and min are
    exact, so the spread is the one a strided view gives, to the bit.
    """
    half = series[len(series) // 2 :]
    half = half[np.isfinite(half)]
    if len(half) < _HHAT_WIDTH + 1 or not (half > 0.0).all():
        return math.inf, False
    level = float(np.median(half))
    hi = lo = half
    width = 1
    while width < _HHAT_WIDTH:
        k = min(width, _HHAT_WIDTH - width)
        hi, lo = np.maximum(hi[:-k], hi[k:]), np.minimum(lo[:-k], lo[k:])
        width += k
    spread = float((hi - lo).max()) / level
    return spread, spread <= _HHAT_REL_TOL


class _RowsOnce:
    """A kernel whose rows are read once, on the first window asked for;
    later reads inside that window are slices of that one read."""

    def __init__(self, kernel):
        self.kernel, self.kept = kernel, None

    def rows(self, lo: int, hi: int):
        if self.kept is None:
            self.lo, self.kept = lo, self.kernel.rows(lo, hi)
        return tuple(r[lo - self.lo : hi - self.lo + 1] for r in self.kept)


def _hhat_from_trace(trace, kernel, sites) -> HhatEstimate:
    """``estimate_hhat``'s series from ``trace``, a forward run of ``kernel``
    from x0 that tracks x0 and every site of ``sites`` within its
    ``steps`` of x0, by detailed balance: the ratio at step n is
    (gamma(x0)/gamma(x)) v_n(x)/v_n(x0) for the run's conditioned law v_n.

    log gamma(x0)/gamma(x) is a running sum of log rates outward from x0,
    so a far site's factor cannot overflow on the way, and a site's factor
    does not depend on the other sites.  An untracked site is out of
    reach: its series is 0 (NaN where v_n(x0) is 0).  A site whose entry
    is 0.0 reads 0 whatever its factor.  Each site's table entry is
    ``_hhat_limit`` of its series, and its verdict and spread are
    ``_window_cauchy``'s.
    """
    x0, vals = trace.start, trace.tracked_values
    span = [x0, *(x for x in sites if x in vals)]
    a, b = min(span), max(span)
    up, _, down = kernel.rows(a, b)
    up, down = up[:-1], down[1:]  # the rates between y and y + 1, y = a..b-1
    if not ((up > 0.0).all() and (down > 0.0).all()):
        raise ValueError(f"detailed balance needs up > 0 and down > 0 between {a} and {b}")
    step = np.log(up) - np.log(down)  # log gamma(y+1)/gamma(y)
    i = x0 - a
    log_factor = np.zeros(b - a + 1)  # log gamma(x0)/gamma(x)
    log_factor[i + 1 :] = -np.cumsum(step[i:])
    log_factor[:i] = np.cumsum(step[:i][::-1])[::-1]
    at_x0, zero = vals[x0], np.zeros(trace.steps + 1)
    series = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factor = np.exp(log_factor)
        for x in sites:
            if x == x0:
                series[x] = np.ones(trace.steps + 1)
            else:
                series[x] = ratio = vals.get(x, zero) / at_x0
                if x in vals:
                    np.multiply(ratio, factor[x - a], out=ratio, where=ratio > 0.0)
    out, conv, spreads = {}, {}, {}
    for x, ratio in series.items():
        ratio[~np.isfinite(ratio)] = np.nan
        out[x] = _hhat_limit(ratio)
        spreads[x], conv[x] = _window_cauchy(ratio)
    return HhatEstimate(x0, out, conv, spreads, series)


def _hhat_limit(ratio: np.ndarray) -> float:
    """The median of the last ``_HHAT_WIDTH`` Richardson extrapolants of
    ``ratio`` over its finite steps, when they spread by at most
    ``_HHAT_REL_TOL`` of that median; else the last finite ratio.

    K^n(x,y) ~ C rho^n n^(-3/2) (1 + b_xy/n), so a ratio approaches its
    limit like 1/n, and the extrapolants remove that term.  A period-2
    series, NaN at every other step, is extrapolated over its finite steps
    with gaps of 2.  An extrapolant turns relative errors of at most eps
    in the two ratios it reads into one of at most (n_i + n_{i-1}) eps /
    (n_i - n_{i-1}), 2n - 1 times eps on consecutive steps, and the
    median keeps that bound.  Where the extrapolants do not settle (the
    Kesten case, a site whose entry the run flushes to 0 at some steps)
    or there are at most ``_HHAT_WIDTH`` finite terms, the last raw ratio
    is kept to the bit; a site out of reach reads 0 either way.
    """
    steps = np.flatnonzero(np.isfinite(ratio))[-(_HHAT_WIDTH + 1) :]  # step 0 is always finite
    last = float(ratio[steps[-1]])
    if len(steps) <= _HHAT_WIDTH:
        return last
    extrap = np.sort(_richardson(ratio[steps], steps)[1:])
    spread = float(extrap[-1] - extrap[0])  # NaN or inf unless all are finite
    mid = _HHAT_WIDTH // 2  # an even count: the median is the mean of the middle two
    level = float(extrap[mid - 1] + extrap[mid]) / 2
    return level if spread <= _HHAT_REL_TOL * level else last


def estimate_hhat(kernel, x0: int, sites, n_max: int) -> HhatEstimate:
    """Estimate hhat(x)/hhat(x0) from the ratio series K^n(x,x0)/K^n(x0,x0).

    The series come from one forward run of ``kernel`` from ``x0`` for
    ``n_max`` steps, by detailed balance: a kernel with up > 0 and
    down > 0 at every site, as every valid ``NNKernel`` has, satisfies
    gamma(x) K^n(x,x0) = gamma(x0) K^n(x0,x) with gamma(x+1)/gamma(x) =
    up[x]/down[x+1], so the ratio at step n is gamma(x0)/gamma(x) times
    the ratio of the run's conditioned law at x and at x0, and each
    step's normalisation cancels.  Where the conditioned law has a limit,
    the forward law stays concentrated, so the run costs O(n_max) steps
    over a bounded live hull.  Only sites within ``n_max`` of ``x0`` are
    tracked; a site out of reach has K^n(x,x0) = 0, so its series is 0
    (NaN where K^n(x0,x0) is 0) and it does not widen the window.  A site
    whose forward entry the run flushes below the smallest normal float
    reads 0 at that step, and a step whose entry at ``x0`` is flushed, as
    on a chain whose conditioned law escapes, reads NaN.  On a
    mirror-symmetric chain the ratios at -x and +x agree to rounding, not
    to the bit.
    The table is each series' limit extrapolated in 1/n: the median of
    its last ``_HHAT_WIDTH`` first-order Richardson extrapolants over its
    finite steps, when they spread by at most ``_HHAT_REL_TOL`` of that
    median, and the last finite ratio otherwise (``_hhat_limit``).
    Non-convergence (the Kesten case) is a verdict per site, decided by a
    sliding Cauchy window over the last half of the raw series, not an
    exception.  Raises ValueError if a rate between ``x0`` and a tracked
    site is not positive.
    """
    sites = tuple(sites)
    tracked = tuple(dict.fromkeys(x for x in (*sites, x0) if abs(x - x0) <= n_max))
    kernel = _RowsOnce(kernel)
    return _hhat_from_trace(evolve_trace(kernel, x0, n_max, tracked=tracked), kernel, sites)


def mixture_limit(weights: BoundaryWeights, pi_minus, pi_plus) -> Mixture:
    """Convex mixture w_minus pi_minus + w_plus pi_plus (a probability)."""
    return Mixture(weights.w_minus, weights.w_plus, pi_minus, pi_plus)
