"""The two worked families' closed forms, and invariant-measure checks.

The parameters of the two worked examples, ``TwoSidedParams`` and
``MirrorParams``, carry the same closed-form members: ``R``, ``rho``,
``hhat``, the +inf extremal harmonic ``h_plus``, and from a start x the
boundary ``split(x)`` and the Yaglom ``limit(x)``.  For the two-sided
walk, the one-parameter family of rho-invariant measures mu_c, its
extremals (the entrance-boundary measures), the normalizer T(c), the
reversibility measure gamma, the duality h = mu/gamma, the return-time
transform V = F_00(R), E_0 R^zeta and the local asymptotics of
K^{2n}(0,0).  The mirror-symmetric chain gets the analogous closed forms,
derived from the same double-root structure.  These serve the CLI's
family references and the tests as oracles; ``import yaglom`` exports
only the generic parts: ``Mixture``, a residual checker that certifies
rho-invariance of any evaluable measure on a window, and ``prob_values``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chain import Window

__all__ = [
    "TwoSidedParams",
    "quadratic_roots",
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
    "closed_form_V",
    "e0_r_zeta",
    "k2n00_asymptotic",
    "invariance_residual",
    "reversibility_gamma",
    "mirror_extremal",
    "mirror_hhat",
    "prob_values",
]


@dataclass(frozen=True)
class TwoSidedParams:
    """Rates of the two-sided walk: up/down (p,q) on the positive half-line,
    (a,b) on the negative one, exits (p, b) at the killing site 0.

    ``hhat`` is the walk's rho-harmonic function, the dual of the +inf
    extremal.  ``h_plus``, the +inf extremal harmonic, is the same
    function: the +inf boundary point dominates, so the conditioned limit
    does not depend on the start.
    """

    p: float
    q: float
    a: float
    b: float

    def __post_init__(self):
        if abs(self.p + self.q - 1.0) > 1e-12 or abs(self.a + self.b - 1.0) > 1e-12:
            raise ValueError("need p+q=1 and a+b=1")
        if not (0.0 < self.p < self.q):
            raise ValueError("need 0 < p < q")
        if not (0.0 < self.b < self.a):
            raise ValueError("need 0 < b < a")
        if self.p * self.q <= self.a * self.b:
            raise ValueError("need pq > ab (equivalently b < p)")

    @property
    def kappa(self) -> float:
        return 1.0 - self.p - self.b

    @property
    def rho(self) -> float:
        return 2.0 * math.sqrt(self.p * self.q)

    @property
    def R(self) -> float:
        return 1.0 / self.rho

    @property
    def hhat(self) -> DualHarmonic:
        return DualHarmonic(extremal_plus(self))

    h_plus = hhat

    def split(self, x: int) -> tuple[float, float]:
        """Boundary weights (w_minus, w_plus) from x: all on +inf."""
        return 0.0, 1.0

    def limit(self, x: int) -> ClosedFormMeasure:
        """The Yaglom limit from x: the +inf extremal, whatever x is."""
        return extremal_plus(self)


def quadratic_roots(params: TwoSidedParams) -> tuple[float, float]:
    """Roots 1 < t0 <= t1 of b s^2 - 2 sqrt(pq) s + a = 0.

    Both satisfy a/t + b t = 2 sqrt(pq), and t0 t1 = a/b.
    """
    spq = math.sqrt(params.p * params.q)
    disc = 1.0 - params.a * params.b / (params.p * params.q)
    if disc <= 0.0:
        raise ValueError("no real roots: need pq > ab")
    root = math.sqrt(disc)
    t0 = spq * (1.0 - root) / params.b
    t1 = spq * (1.0 + root) / params.b
    return t0, t1


def c_max(params: TwoSidedParams) -> float:
    """Upper end c1 = sqrt(1 - ab/pq) of the admissible slope range."""
    return math.sqrt(1.0 - params.a * params.b / (params.p * params.q))


def closed_form_V(params: TwoSidedParams) -> float:
    """V = F_00(R) = 1/2 + (1 - sqrt(1 - ab/pq))/2 = 1/2 + (1 - c1)/2 < 1.

    The return-time transform is F_00(z) = (1 - sqrt(1 - 4pq z^2))/2 +
    (1 - sqrt(1 - 4ab z^2))/2, and R^2 = 1/(4pq) is substituted exactly:
    evaluated at a rounded R, 1 - 4pqR^2 lands a few ulps off 0, and its
    square root costs half the digits.
    """
    return 0.5 + 0.5 * (1 - c_max(params))


def e0_r_zeta(params: TwoSidedParams) -> float:
    """E_0 R^zeta = (1 - b - p) R / (1 - V) for the two-sided walk."""
    return params.kappa * params.R / (1.0 - closed_form_V(params))


def k2n00_asymptotic(params: TwoSidedParams, n: int) -> float:
    """Asymptotic K^{2n}(0,0) ~ (pq/(pq-ab)) (4pq)^n / (sqrt(pi) n^{3/2})."""
    if n < 1:
        raise ValueError("need n >= 1")
    pq = params.p * params.q
    ab = params.a * params.b
    return pq / (pq - ab) * (4.0 * pq) ** n / (math.sqrt(math.pi) * n**1.5)


def _value_side(pieces, x):
    """sum (alpha + beta x) t^x over one side's pieces."""
    return sum((a + b * x) * t**x for a, b, t in pieces)


def _log_side(pieces, x):
    """log sum (alpha + beta x) t^x over one side's pieces, each alpha > 0."""
    logs = [math.log(a) + np.log1p(b / a * x) + x * math.log(t) for a, b, t in pieces]
    return functools.reduce(np.logaddexp, logs)


class _ClosedForm:
    """A function on the integers that is 1 at site 0 and, on each side of
    0, a sum of pieces (alpha + beta x) t^x in the signed site x.

    Subclasses return ``(right, left)`` tuples of ``(alpha, beta, t)`` from
    ``_pieces``: the right pieces hold for x > 0, the left ones for x < 0.
    ``value`` raises each fixed base t to x instead of exponentiating
    ``log_value``, so neighbour ratios stay exact to rounding and
    invariance residuals stay at rounding level.
    """

    def _pieces(self):
        raise NotImplementedError

    def _sides(self):
        # a zero piece adds nothing to value or T, and log(0) to log_value
        return [[pc for pc in side if pc[0] or pc[1]] for side in self._pieces()]

    def _by_side(self, x, side, at_zero: float):
        """``side(pieces, x)`` with each side's pieces on that side's sites
        only, and ``at_zero`` at site 0.  A single site is evaluated as a
        numpy scalar, whose ``**`` (C ``pow``) can differ from the array
        loop's in the last bit."""
        x = np.asarray(x, dtype=float)
        right, left = self._sides()
        if not x.ndim:
            x = x[()]
            return float(side(right, x) if x > 0 else side(left, x) if x < 0 else at_zero)
        out = np.full(x.shape, at_zero)
        pos, neg = x > 0, x < 0
        out[pos] = side(right, x[pos])
        out[neg] = side(left, x[neg])
        return out

    def value(self, x):
        with np.errstate(over="ignore"):  # a growing piece is inf far out
            return self._by_side(x, _value_side, 1.0)

    def log_value(self, x):
        return self._by_side(x, _log_side, 0.0)

    @property
    def T(self) -> float:
        """Total mass sum_x value(x), in closed form."""
        right, left = self._sides()
        if any(t >= 1.0 for _, _, t in right) or any(t <= 1.0 for _, _, t in left):
            raise ValueError(f"{type(self).__name__} has infinite total mass")
        # right pieces summed over x >= 0, then site 0 set back to its value 1
        pos = 1.0 - sum(a for a, _, _ in right)
        for a, b, t in right:
            pos += a / (1.0 - t) + b * t / (1.0 - t) ** 2
        neg = 0.0
        for a, b, t in left:  # summed over x <= -1, in the decay base u = 1/t
            u = 1.0 / t
            neg += a * u / (1.0 - u) - b * u / (1.0 - u) ** 2
        return pos + neg

    def prob(self, x):
        return self.value(x) / self.T


@dataclass(frozen=True)
class ClosedFormMeasure(_ClosedForm):
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

    def _pieces(self):
        s = math.sqrt(self.params.p / self.params.q)
        return ((1.0, self.c, s),), ((self.d0, 0.0, self.t0), (self.d1, 0.0, self.t1))


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


@dataclass(frozen=True)
class _TwoSidedGamma(_ClosedForm):
    params: TwoSidedParams

    def _pieces(self):
        pm = self.params
        return ((1.0, 0.0, pm.p / pm.q),), ((1.0, 0.0, pm.a / pm.b),)


def reversibility_gamma(params: TwoSidedParams) -> _TwoSidedGamma:
    """gamma(x) = (p/q)^x for x >= 0 and (b/a)^{|x|} for x < 0.

    Detailed balance gamma(x) K(x,y) = gamma(y) K(y,x) holds for every
    neighbour pair of the two-sided walk.
    """
    return _TwoSidedGamma(params)


@dataclass(frozen=True)
class DualHarmonic(_ClosedForm):
    """h = mu/gamma: the rho-harmonic dual of an invariant measure.

    For the two-sided walk, h(x) = (1 + c x)(q/p)^{x/2} for x >= 0 and
    d0 t1^{-x} + d1 t0^{-x} for x < 0 (the roots swap under duality since
    t0 t1 = a/b).
    """

    measure: ClosedFormMeasure

    def _pieces(self):
        m = self.measure
        s = math.sqrt(m.params.q / m.params.p)
        return ((1.0, m.c, s),), ((m.d0, 0.0, 1.0 / m.t1), (m.d1, 0.0, 1.0 / m.t0))


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
    ``hhat`` is the symmetric rho-harmonic function and ``h_plus`` the
    extremal one with linear growth toward +inf.
    """

    p: float
    exit_prob: float

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise ValueError("need 0 < p < 1/2")
        if not 0.0 < self.exit_prob < self.p:
            raise ValueError("need 0 < exit_prob < p for an R-transient chain")
        if not math.isfinite(self.p / self.exit_prob):
            raise ValueError(f"exit_prob = {self.exit_prob!r} is so small that p/exit_prob overflows")

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

    @property
    def hhat(self) -> MirrorHarmonic:
        return MirrorHarmonic(self, 0)

    @property
    def h_plus(self) -> MirrorHarmonic:
        return MirrorHarmonic(self, +1)

    def split(self, x: int) -> tuple[float, float]:
        """Boundary weights (w_minus, w_plus) = c_+- h_+-(x) / hhat(x) from x.

        Here c_+- = 1/2, so with c = ``slope_h`` the side of 0 that x lies
        on weighs (1 + 2c|x|)/(2 + 2c|x|) and the other side 1/(2 + 2c|x|).
        In this form the weights stay exact far out, where ``value``
        overflows and a ``log_value`` difference rounds.
        """
        d = min(2.0 * self.slope_h * abs(x), 1e300)  # an inf d would give nan weights
        near, far = (1.0 + d) / (2.0 + d), 1.0 / (2.0 + d)
        return (far, near) if x >= 0 else (near, far)

    def limit(self, x: int) -> Mixture:
        """The Yaglom limit from x: the extremals mixed by ``split(x)``."""
        return Mixture(*self.split(x), mirror_extremal(self, -1), mirror_extremal(self, +1))


@dataclass(frozen=True)
class MirrorMeasure(_ClosedForm):
    """Extremal invariant measure of the mirror chain.

    With s = sqrt(p/q) and side = +1: mu(0) = 1, mu(x) = (e/p + 2 c1 x) s^x
    for x > 0 and (e/p) s^{|x|} for x < 0, where c1 = 1 - e/p.  side = -1
    is the mirror image.
    """

    params: MirrorParams
    side: int

    def _pieces(self):
        pm = self.params
        s = math.sqrt(pm.p / pm.q)
        base, slope = pm.exit_prob / pm.p, 2.0 * pm.slope_mu
        right = slope if self.side > 0 else 0.0
        left = -slope if self.side < 0 else 0.0
        return ((base, right, s),), ((base, left, 1.0 / s),)


def mirror_extremal(params: MirrorParams, side: int) -> MirrorMeasure:
    if side not in (-1, 1):
        raise ValueError("side must be +1 or -1")
    return MirrorMeasure(params, side)


@dataclass(frozen=True)
class MirrorHarmonic(_ClosedForm):
    """rho-harmonic functions of the mirror chain.

    side = 0 gives hhat(x) = (1 + c |x|) sqrt(q/p)^{|x|} with c = p/e - 1,
    the symmetric average of the two extremals; side = +-1 gives the
    extremal h with linear growth on that side only.
    """

    params: MirrorParams
    side: int = 0

    def _pieces(self):
        pm = self.params
        s = math.sqrt(pm.q / pm.p)
        slope = pm.slope_h if self.side == 0 else 2.0 * pm.slope_h
        right = slope if self.side >= 0 else 0.0
        left = -slope if self.side <= 0 else 0.0
        return ((1.0, right, s),), ((1.0, left, 1.0 / s),)


def mirror_hhat(params: MirrorParams) -> MirrorHarmonic:
    return params.hhat


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
