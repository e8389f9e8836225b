"""Power iteration of a kernel: Yaglom distributions and ratio series.

The central quantity is the conditioned law K^n(x0,.)/K^n(x0,S) together
with the survival-factor series s_n = K^{n+1}(x0,S)/K^n(x0,S) and, for a
designated finite set of sites, the pointwise ratio series
K^{n+1}(x0,y)/K^n(x0,y).  A fraction-exact path enumeration serves as the
ground-truth oracle at small n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chain import DegenerateKernelError, MassState, Window, _normalised_run

__all__ = [
    "YaglomTrace",
    "evolve_trace",
    "brute_force_distribution",
    "total_variation",
]


@dataclass
class YaglomTrace:
    """Time series produced by iterating a kernel from a point mass.

    ``survival_factors[k]`` is K^{k+1}(x0,S)/K^k(x0,S) and ``log_mass[k]``
    is log K^{k+1}(x0,S), a compensated running sum.  For each tracked
    site y, ``tracked_ratios[y][k]`` is K^{k+1}(x0,y)/K^k(x0,y), with NaN
    while y is unreachable (parity or range).  ``distribution`` is the
    conditioned law at step n; ``snapshots`` holds optional intermediate
    conditioned laws keyed by step.  The distribution's ``clipped`` total
    splits into ``edge_lost`` (mass that stepped off a capped window) and
    ``clip_lost`` (mass discarded by tail clipping); ``live_hull`` is the
    final support widened by one site per side, clamped to the window.
    """

    start: int
    steps: int
    survival_factors: np.ndarray
    log_mass: np.ndarray
    distribution: MassState
    tracked_ratios: dict[int, np.ndarray] = field(default_factory=dict)
    tracked_values: dict[int, np.ndarray] = field(default_factory=dict)
    snapshots: dict[int, MassState] = field(default_factory=dict)
    edge_lost: float = 0.0
    clip_lost: float = 0.0
    live_hull: Window | None = None


def evolve_trace(
    kernel,
    x0: int,
    n: int,
    tracked: tuple[int, ...] = (),
    clip: float = 0.0,
    snapshot_at: tuple[int, ...] = (),
    max_halfwidth: int | None = None,
) -> YaglomTrace:
    """Iterate ``kernel`` for ``n`` steps from a point mass at ``x0``.

    Parameters
    ----------
    kernel
        Anything with ``rows(lo, hi) -> (up, stay, down)`` arrays.
    tracked
        Sites whose pointwise ratio series are recorded.
    clip
        Optional tail threshold on the conditioned law, applied at the end
        of every record: every 32 steps counted from the last snapshot
        step, at each snapshot step and at step ``n``.  Entries below it
        are set to 0.0 and the law is renormalised; the kept fraction
        multiplies that step's survival factor, so the clip counts as
        killing in ``survival_factors`` and ``log_mass``.  The discarded
        mass is accumulated in ``clip_lost`` and in the returned
        distribution's ``clipped`` total.
    snapshot_at
        Steps at which to store intermediate conditioned distributions.
    max_halfwidth
        Optional cap on the window half-width; mass stepping beyond the
        capped window is discarded into ``edge_lost`` and the ``clipped``
        total.  The default grows the window exactly (one site per side
        per step).  Either way each step costs O(live hull), not O(window).

    A run advances 32 steps at a time while its live hull lies at least
    64 sites inside both window ends: one band product applies ``K^32``,
    and the survival factors and tracked values of the steps in between
    come from precomputed tables of ``K^j 1`` and of the columns
    ``K^j(., y)``.  Blocks end at the snapshot steps.  The steps close to
    a window's ends go one step at a time.  Both modes agree with single
    dense steps to a few ulps.  ``log_mass`` gains one ``log`` per block,
    so it does not drift over long runs.

    Raises
    ------
    DegenerateKernelError
        If the chain goes extinct (total mass reaches zero), or the clip
        deletes all the mass.
    """
    if n < 1:
        raise ValueError("need at least one step")
    half = n if max_halfwidth is None else min(n, int(max_halfwidth))
    lo, hi = x0 - half, x0 + half
    up, stay, down = kernel.rows(lo, hi)
    v = np.zeros(hi - lo + 1)
    v[x0 - lo] = 1.0
    tracked = tuple(tracked)
    for y in tracked:
        if not lo <= y <= hi:
            raise ValueError(f"tracked site {y} outside the capped window")
    edge_lost = clip_lost = 0.0
    surv, logm = np.empty(n), np.empty(n)
    snaps: dict[int, MassState] = {}
    want = set(snapshot_at)
    vals = np.full((n + 1, len(tracked)), np.nan)
    vals[0] = [1.0 if y == x0 else 0.0 for y in tracked]
    watch = [y - lo for y in tracked]
    k = 0  # steps completed
    for rec in _normalised_run(v, up, stay, down, n, clip, watch, want):
        k0, k = k, k + rec.surv.size
        surv[k0:k] = rec.surv
        logm[k0:k] = rec.log_mass
        edge_lost += rec.edge
        clip_lost += rec.clipped
        if tracked:
            vals[k0 + 1 : k + 1] = rec.watched
        if k in want:
            snaps[k] = MassState(Window(lo, hi), v.copy(), rec.log_mass[-1], edge_lost + clip_lost)
    if k < n:
        cause = f"clip={clip:g} left no mass" if clip else "total extinction"
        raise DegenerateKernelError(f"{cause} at step {k + 1}")
    dist = MassState(Window(lo, hi), v, rec.log_mass[-1], edge_lost + clip_lost)
    tracked_vals = {y: vals[:, i].copy() for i, y in enumerate(tracked)}
    ratios: dict[int, np.ndarray] = {}
    for y in tracked:
        val = tracked_vals[y]
        r = np.full(n, np.nan)
        prev = val[:-1]
        cur = val[1:]
        ok = (prev > 0) & np.isfinite(prev) & np.isfinite(cur)
        # K^{k+1}(x0,y)/K^k(x0,y) = s_k * v_{k+1}(y) / v_k(y)
        r[ok] = surv[ok] * cur[ok] / prev[ok]
        ratios[y] = r
    return YaglomTrace(
        x0, n, surv, logm, dist, ratios, tracked_vals, snaps,
        edge_lost, clip_lost, Window(lo + rec.a, lo + rec.b),
    )


def brute_force_distribution(
    kernel, x0: int, n: int
) -> tuple[dict[int, Fraction], Fraction]:
    """Exact K^n(x0,.) and K^n(x0,S) by dynamic programming in Fractions.

    Kernel rates are taken at their exact binary-float values, so the
    result is the exact measure the floating-point iteration approximates.
    Intended as the small-n oracle; cost grows with the window, so n is
    capped at 14.
    """
    if n < 0 or n > 14:
        raise ValueError("oracle supports 0 <= n <= 14")
    dist: dict[int, Fraction] = {x0: Fraction(1)}
    for _ in range(n):
        nxt: dict[int, Fraction] = {}
        for x, m in dist.items():
            p, r, q = kernel.row(x)
            for target, rate in ((x + 1, p), (x, r), (x - 1, q)):
                if rate:
                    nxt[target] = nxt.get(target, Fraction(0)) + m * Fraction(rate)
        dist = nxt
    survival = sum(dist.values(), Fraction(0))
    return dist, survival


def total_variation(a: MassState, b: MassState) -> float:
    """TV distance between two conditioned laws, aligning their windows."""
    lo = min(a.window.lo, b.window.lo)
    hi = max(a.window.hi, b.window.hi)
    va = np.zeros(hi - lo + 1)
    vb = np.zeros(hi - lo + 1)
    va[a.window.lo - lo : a.window.hi - lo + 1] = a.values
    vb[b.window.lo - lo : b.window.hi - lo + 1] = b.values
    return 0.5 * float(np.abs(va - vb).sum())
