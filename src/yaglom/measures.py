"""Closed-form invariant-measure families and their duals.

For the two-sided walk, the one-parameter family of rho-invariant
measures mu_c, its extremals (the entrance-boundary measures), the
normalizer T(c), the reversibility measure gamma and the duality
h = mu/gamma.  The mirror-symmetric chain gets the analogous closed
forms, derived from the same double-root structure.  A generic residual
checker certifies rho-invariance of any evaluable measure on a window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import Window
from .spectral import TwoSidedParams, quadratic_roots

__all__ = [
    "ClosedFormMeasure",
    "DualHarmonic",
    "MirrorParams",
    "MirrorMeasure",
    "MirrorHarmonic",
    "Mixture",
    "family_measure",
    "extremal_plus",
    "extremal_minus",
    "c_max",
    "normalizer_T",
    "invariance_residual",
    "harmonic_residual",
    "reversibility_gamma",
    "gamma_log_values",
    "dual_harmonic",
    "mirror_extremal",
    "mirror_hhat",
    "prob_values",
]


def c_max(params: TwoSidedParams) -> float:
    """Upper end c1 = sqrt(1 - ab/pq) of the admissible slope range."""
    return math.sqrt(1.0 - params.a * params.b / (params.p * params.q))


@dataclass(frozen=True)
class ClosedFormMeasure:
    """rho-invariant measure of the two-sided walk.

    mu(x) = (1 + c x) sqrt(p/q)^x for x > 0, d0 t0^x + d1 t1^x for x < 0,
    and 1 at x = 0.  Admissible slopes are 0 <= c <= c1; the endpoints are
    the extremal entrance measures.
    """

    params: TwoSidedParams
    c: float
    d0: float
    d1: float
    t0: float
    t1: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = math.sqrt(self.params.p / self.params.q)
        xp = np.maximum(x, 0.0)
        xn = np.minimum(x, 0.0)
        pos = (1.0 + self.c * xp) * s**xp
        neg = self.d0 * self.t0**xn + self.d1 * self.t1**xn
        out = np.where(x > 0, pos, np.where(x < 0, neg, 1.0))
        return out if out.ndim else float(out)

    def log_value(self, x):
        x = np.asarray(x, dtype=float)
        s = math.sqrt(self.params.p / self.params.q)
        with np.errstate(divide="ignore"):
            pos = np.log1p(self.c * np.maximum(x, 0.0)) + x * math.log(s)
            ln_d0 = math.log(self.d0) if self.d0 > 0 else -math.inf
            ln_d1 = math.log(self.d1) if self.d1 > 0 else -math.inf
            neg = np.logaddexp(ln_d0 + x * math.log(self.t0), ln_d1 + x * math.log(self.t1))
        out = np.where(x > 0, pos, np.where(x < 0, neg, 0.0))
        return out if out.ndim else float(out)

    @property
    def T(self) -> float:
        return normalizer_T(self)

    def prob(self, x):
        return self.value(x) / self.T


def family_measure(params: TwoSidedParams, c: float) -> ClosedFormMeasure:
    """Member mu_c of the invariant family; c must lie in [0, c1]."""
    c1 = c_max(params)
    if c < -1e-15 or c > c1 + 1e-12:
        raise ValueError(f"c={c} outside admissible range [0, {c1}]")
    c = min(max(c, 0.0), c1)
    t0, t1 = quadratic_roots(params)
    spq = math.sqrt(params.p * params.q)
    d0 = ((1.0 - c) * spq / params.a - 1.0 / t1) / (1.0 / t0 - 1.0 / t1)
    # snap the extremal endpoint exactly: a rounding residue in d0 would
    # dominate mu far to the left, since t0^x decays much slower than t1^x
    if d0 <= 1e-12:
        d0 = 0.0
    d0 = min(d0, 1.0)
    return ClosedFormMeasure(params, c, d0, 1.0 - d0, t0, t1)


def extremal_plus(params: TwoSidedParams) -> ClosedFormMeasure:
    """Entrance extremal at +infinity (d0 = 0, maximal slope)."""
    return family_measure(params, c_max(params))


def extremal_minus(params: TwoSidedParams) -> ClosedFormMeasure:
    """Entrance extremal at -infinity (c = 0, d0 = 1/2)."""
    return family_measure(params, 0.0)


def normalizer_T(m: ClosedFormMeasure) -> float:
    """Total mass T(c) = sum_x mu(x), in closed form."""
    s = math.sqrt(m.params.p / m.params.q)
    head = 1.0 / (1.0 - s) + m.c * s / (1.0 - s) ** 2
    neg = m.d0 * (1.0 / m.t0) / (1.0 - 1.0 / m.t0) + m.d1 * (1.0 / m.t1) / (1.0 - 1.0 / m.t1)
    return head + neg


def invariance_residual(kernel, measure, rho: float, window: Window) -> float:
    """max_y |(mu K)(y) - rho mu(y)| / mu(y) over the window interior.

    ``measure`` is anything exposing ``value`` on integer arrays (or a
    plain callable).  A residual at rounding level certifies that the
    measure is a left eigenvector on the window.
    """
    val = measure.value if hasattr(measure, "value") else measure
    lo, hi = window.lo, window.hi
    sites = np.arange(lo - 1, hi + 2)
    mu = np.asarray(val(sites), dtype=float)
    up, stay, down = kernel.rows(lo - 1, hi + 1)
    flow = mu[:-2] * up[:-2] + mu[1:-1] * stay[1:-1] + mu[2:] * down[2:]
    target = mu[1:-1]
    return float(np.max(np.abs(flow - rho * target) / target))


def harmonic_residual(kernel, h, rho: float, window: Window) -> float:
    """max_x |(K h)(x) - rho h(x)| / h(x): right-eigenvector counterpart."""
    val = h.value if hasattr(h, "value") else h
    lo, hi = window.lo, window.hi
    sites = np.arange(lo - 1, hi + 2)
    hv = np.asarray(val(sites), dtype=float)
    up, stay, down = kernel.rows(lo, hi)
    flow = up * hv[2:] + stay * hv[1:-1] + down * hv[:-2]
    return float(np.max(np.abs(flow - rho * hv[1:-1]) / hv[1:-1]))


@dataclass(frozen=True)
class _TwoSidedGamma:
    params: TwoSidedParams

    def value(self, x):
        x = np.asarray(x, dtype=float)
        pos = (self.params.p / self.params.q) ** x
        neg = (self.params.b / self.params.a) ** (-x)
        out = np.where(x >= 0, pos, neg)
        return out if out.ndim else float(out)

    def log_value(self, x):
        x = np.asarray(x, dtype=float)
        pos = x * math.log(self.params.p / self.params.q)
        neg = -x * math.log(self.params.b / self.params.a)
        out = np.where(x >= 0, pos, neg)
        return out if out.ndim else float(out)


def reversibility_gamma(params: TwoSidedParams) -> _TwoSidedGamma:
    """gamma(x) = (p/q)^x for x >= 0 and (b/a)^{|x|} for x < 0.

    Detailed balance gamma(x) K(x,y) = gamma(y) K(y,x) holds for every
    neighbour pair of the two-sided walk.
    """
    return _TwoSidedGamma(params)


def gamma_log_values(kernel, lo: int, hi: int) -> np.ndarray:
    """log gamma on [lo, hi] for an arbitrary kernel, gamma(0) = 1.

    gamma(x) = prod_{k=1..x} p_{k-1}/q_k rightward and the mirror product
    leftward; detailed balance holds by construction.
    """
    up, _, down = kernel.rows(lo - 1, hi + 1)
    sites = np.arange(lo - 1, hi + 2)
    steps = np.log(up[:-1]) - np.log(down[1:])  # log(p_k / q_{k+1})
    out = np.zeros(len(sites))
    i0 = int(np.searchsorted(sites, 0))
    out[i0 + 1 :] = np.cumsum(steps[i0:])
    out[:i0] = -np.cumsum(steps[:i0][::-1])[::-1]
    return out[1:-1][: hi - lo + 1]


@dataclass(frozen=True)
class DualHarmonic:
    """h = mu/gamma: the rho-harmonic dual of an invariant measure.

    For the two-sided walk, h(x) = (1 + c x)(q/p)^{x/2} for x >= 0 and
    d0 t1^{-x} + d1 t0^{-x} for x < 0 (the roots swap under duality since
    t0 t1 = a/b).
    """

    measure: ClosedFormMeasure

    def value(self, x):
        x = np.asarray(x, dtype=float)
        m = self.measure
        s = math.sqrt(m.params.q / m.params.p)
        xp = np.maximum(x, 0.0)
        xn = np.minimum(x, 0.0)
        pos = (1.0 + m.c * xp) * s**xp
        neg = m.d0 * m.t1**-xn + m.d1 * m.t0**-xn
        out = np.where(x >= 0, pos, neg)
        return out if out.ndim else float(out)

    def log_value(self, x):
        x = np.asarray(x, dtype=float)
        m = self.measure
        s = math.sqrt(m.params.q / m.params.p)
        ln_d0 = math.log(m.d0) if m.d0 > 0 else -math.inf
        ln_d1 = math.log(m.d1) if m.d1 > 0 else -math.inf
        pos = np.log1p(m.c * np.maximum(x, 0.0)) + x * math.log(s)
        neg = np.logaddexp(ln_d0 - x * math.log(m.t1), ln_d1 - x * math.log(m.t0))
        out = np.where(x >= 0, pos, neg)
        return out if out.ndim else float(out)


def dual_harmonic(m: ClosedFormMeasure) -> DualHarmonic:
    return DualHarmonic(m)


# ---------------------------------------------------------------------------
# Mirror-symmetric chain: drift toward 0 on both half-lines, exits e < p at 0.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MirrorParams:
    """Mirror chain rates: (p, q) toward-origin walks on both half-lines,
    exit probability e on each side of the killing site 0.

    The chain is R-transient precisely when e < p (the return transform at
    the radius equals e/p); at e = p it degenerates to the null
    R-recurrent boundary case with a unique invariant probability.
    """

    p: float
    exit_prob: float

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise ValueError("need 0 < p < 1/2")
        if not 0.0 < self.exit_prob < self.p:
            raise ValueError("need 0 < exit_prob < p for an R-transient chain")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def kappa(self) -> float:
        return 1.0 - 2.0 * self.exit_prob

    @property
    def rho(self) -> float:
        return 2.0 * math.sqrt(self.p * self.q)

    @property
    def R(self) -> float:
        return 1.0 / self.rho

    @property
    def slope_mu(self) -> float:
        """Linear-growth coefficient of the extremal measures: 1 - e/p."""
        return 1.0 - self.exit_prob / self.p

    @property
    def slope_h(self) -> float:
        """Linear-growth coefficient of hhat: p/e - 1."""
        return self.p / self.exit_prob - 1.0


@dataclass(frozen=True)
class MirrorMeasure:
    """Extremal invariant measure of the mirror chain.

    With s = sqrt(p/q) and side = +1: mu(0) = 1, mu(x) = (e/p + 2 c1 x) s^x
    for x > 0 and (e/p) s^{|x|} for x < 0, where c1 = 1 - e/p.  side = -1
    is the mirror image.
    """

    params: MirrorParams
    side: int

    def value(self, x):
        x = self.side * np.asarray(x, dtype=float)
        pm = self.params
        s = math.sqrt(pm.p / pm.q)
        base = pm.exit_prob / pm.p
        xp = np.maximum(x, 0.0)
        xn = np.minimum(x, 0.0)
        pos = (base + 2.0 * pm.slope_mu * xp) * s**xp
        neg = base * s**-xn
        out = np.where(x > 0, pos, np.where(x < 0, neg, 1.0))
        return out if out.ndim else float(out)

    def log_value(self, x):
        x = self.side * np.asarray(x, dtype=float)
        pm = self.params
        logs = 0.5 * math.log(pm.p / pm.q)
        base = pm.exit_prob / pm.p
        pos = np.log(base + 2.0 * pm.slope_mu * np.maximum(x, 0.0)) + x * logs
        neg = math.log(base) - x * logs
        out = np.where(x > 0, pos, np.where(x < 0, neg, 0.0))
        return out if out.ndim else float(out)

    @property
    def T(self) -> float:
        pm = self.params
        s = math.sqrt(pm.p / pm.q)
        base = pm.exit_prob / pm.p
        return 1.0 + 2.0 * base * s / (1.0 - s) + 2.0 * pm.slope_mu * s / (1.0 - s) ** 2

    def prob(self, x):
        return self.value(x) / self.T


def mirror_extremal(params: MirrorParams, side: int) -> MirrorMeasure:
    if side not in (-1, 1):
        raise ValueError("side must be +1 or -1")
    return MirrorMeasure(params, side)


@dataclass(frozen=True)
class MirrorHarmonic:
    """rho-harmonic functions of the mirror chain.

    side = 0 gives hhat(x) = (1 + c |x|) sqrt(q/p)^{|x|} with c = p/e - 1,
    the symmetric average of the two extremals; side = +-1 gives the
    extremal h with linear growth on that side only.
    """

    params: MirrorParams
    side: int = 0

    def _tilt(self, x):
        pm = self.params
        if self.side == 0:
            return pm.slope_h * np.abs(x)
        return 2.0 * pm.slope_h * np.maximum(self.side * x, 0.0)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = math.sqrt(self.params.q / self.params.p)
        out = (1.0 + self._tilt(x)) * s ** np.abs(x)
        return out if out.ndim else float(out)

    def log_value(self, x):
        x = np.asarray(x, dtype=float)
        logs = 0.5 * math.log(self.params.q / self.params.p)
        out = np.log1p(self._tilt(x)) + np.abs(x) * logs
        return out if out.ndim else float(out)


def mirror_hhat(params: MirrorParams) -> MirrorHarmonic:
    return MirrorHarmonic(params, 0)


@dataclass(frozen=True)
class Mixture:
    """Convex combination of two probability measures."""

    w_minus: float
    w_plus: float
    pi_minus: object
    pi_plus: object

    def prob(self, x):
        return self.w_minus * self.pi_minus.prob(x) + self.w_plus * self.pi_plus.prob(x)


def prob_values(measure, window: Window) -> np.ndarray:
    """Probability mass of an evaluable measure on a window."""
    return np.asarray(measure.prob(window.sites()), dtype=float)
