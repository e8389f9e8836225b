"""Seeded trajectory simulation: absorbed chains, conditioned chains, Orey paths.

All samplers take an explicit seed and are deterministic given it.  Batch
helpers vectorize over paths with a shared generator, so identical seeds
reproduce identical outputs byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import Window
from .evolve import evolve_trace

__all__ = [
    "TrajectorySample",
    "OreyTrace",
    "simulate_absorbed",
    "absorption_times",
    "r_zeta_conditional",
    "simulate_transformed",
    "transformed_finals",
    "empirical_hitting_split",
    "sample_initial_site",
    "orey_trace",
]


@dataclass
class TrajectorySample:
    """One sampled path.  ``absorbed_at`` is the exit time zeta (the first
    step at which the chain left the state space), or None if the path
    survived the horizon.  ``path`` lists the visited sites X_0..X_{m}."""

    seed: int
    start: int
    path: np.ndarray
    absorbed_at: int | None


def _stochastic_rows(tk, check: Window, tol: float, lo: int, hi: int):
    """Up/stay rows of a conditioned kernel on [lo, hi], renormalised to
    sum to one, after checking its row sums on ``check`` against ``tol``."""
    resid = tk.stochastic_residual(check)
    if resid > tol:
        raise ValueError(f"{type(tk).__name__} not stochastic: residual {resid:g}")
    up, stay, down = tk.rows(lo, hi)
    total = up + stay + down
    return up / total, stay / total


def simulate_absorbed(kernel, x0: int, horizon: int, seed: int) -> TrajectorySample:
    """Sample one killed path for at most ``horizon`` steps."""
    if horizon < 1:
        raise ValueError("need horizon >= 1")
    rng = np.random.default_rng(seed)
    lo = x0 - horizon
    up, stay, down = kernel.rows(lo, x0 + horizon)
    path = [x0]
    x = x0
    for n in range(1, horizon + 1):
        i = x - lo
        u = rng.random()
        if u < up[i]:
            x += 1
        elif u < up[i] + stay[i]:
            pass
        elif u < up[i] + stay[i] + down[i]:
            x -= 1
        else:
            return TrajectorySample(seed, x0, np.array(path), n)
        path.append(x)
    return TrajectorySample(seed, x0, np.array(path), None)


def absorption_times(
    kernel, x0: int, n_paths: int, seed: int, horizon: int = 256, max_steps: int = 10**6
) -> np.ndarray:
    """Exit times zeta for ``n_paths`` independent paths.

    Paths still alive at the current horizon keep running with a doubled
    window until absorbed, so every returned time is finite.  Raises if a
    path exceeds ``max_steps`` (chain not absorbing enough).
    """
    rng = np.random.default_rng(seed)
    xs = np.full(n_paths, x0, dtype=np.int64)
    zeta = np.zeros(n_paths, dtype=np.int64)
    alive = np.ones(n_paths, dtype=bool)
    H = horizon
    up, stay, down = kernel.rows(x0 - H, x0 + H)
    n = 0
    while alive.any():
        n += 1
        if n > max_steps:
            raise RuntimeError("paths not absorbed within max_steps")
        if n >= H:
            H *= 2
            up, stay, down = kernel.rows(x0 - H, x0 + H)
        idx = xs[alive] - (x0 - H)
        u = rng.random(int(alive.sum()))
        pu = up[idx]
        ps = pu + stay[idx]
        pd = ps + down[idx]
        step = np.where(u < pu, 1, np.where(u < ps, 0, np.where(u < pd, -1, -2)))
        died = step == -2
        sub = np.flatnonzero(alive)
        zeta[sub[died]] = n
        xs[sub[~died]] += step[~died]
        alive[sub[died]] = False
    return zeta


def r_zeta_conditional(
    kernel,
    x0: int,
    n_paths: int,
    seed: int,
    R: float,
    kill_site: int = 0,
    max_steps: int = 200_000,
    tail_tol: float = 1e-12,
) -> np.ndarray:
    """Per-path unbiased estimates of E_{x0} R^zeta for single-site killing.

    The killing clock is integrated out exactly: run the unkilled chain,
    record its visit times sigma_1 < sigma_2 < ... to the killing site,
    and return E[R^zeta | path] = sum_j kappa (1-kappa)^{j-1}
    R^{sigma_j + 1}, truncated once the remaining clock mass cannot move
    the estimate by ``tail_tol``.

    Caveat: R^zeta has unit tail index (P(R^zeta > t) ~ 1/t up to slowly
    varying factors), and conditioning removes only the clock noise, not
    the excursion-length tail.  Sample means of either estimator approach
    the closed-form expectation only logarithmically in the path count;
    for sound finite-sample tests compare truncated expectations
    E[R^zeta; zeta <= n] against their deterministic counterparts.
    """
    kappa = kernel.kill(kill_site)
    if not 0.0 < kappa < 1.0:
        raise ValueError("need killing with rate in (0,1) at the kill site")
    rng = np.random.default_rng(seed)
    H = 512
    up, stay, down = kernel.rows(x0 - H, x0 + H)
    total = up + stay + down
    upn, stayn = up / total, stay / total  # unkilled chain
    xs = np.full(n_paths, x0, dtype=np.int64)
    weight = np.full(n_paths, kappa * R)  # kappa (1-kappa)^{j-1} R^{n+1}
    out = np.zeros(n_paths)
    active = np.ones(n_paths, dtype=bool)
    at_kill = xs == kill_site
    out[at_kill] += weight[at_kill]
    weight[at_kill] *= 1.0 - kappa
    for n in range(1, max_steps + 1):
        if not active.any():
            break
        if n >= H:
            H *= 2
            up, stay, down = kernel.rows(x0 - H, x0 + H)
            total = up + stay + down
            upn, stayn = up / total, stay / total
        sub = np.flatnonzero(active)
        idx = xs[sub] - (x0 - H)
        u = rng.random(len(sub))
        step = np.where(u < upn[idx], 1, np.where(u < upn[idx] + stayn[idx], 0, -1))
        xs[sub] += step
        weight[sub] *= R
        hit = sub[xs[sub] == kill_site]
        out[hit] += weight[hit]
        weight[hit] *= 1.0 - kappa
        # (1-kappa)^j R^{sigma_j+1} shrinks geometrically in j on average;
        # drop paths whose remaining clock mass is negligible
        done = sub[(weight[sub] < tail_tol) & (xs[sub] == kill_site)]
        active[done] = False
    else:
        raise RuntimeError("visit-clock estimator did not converge in max_steps")
    return out


def simulate_transformed(tk, x0: int, steps: int, seed: int) -> TrajectorySample:
    """Sample one never-absorbed path of a (stochastic) transformed kernel."""
    lo = x0 - steps
    up, stay = _stochastic_rows(tk, Window(x0 - 16, x0 + 16), 1e-9, lo, x0 + steps)
    rng = np.random.default_rng(seed)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = x0
    x = x0
    for n in range(1, steps + 1):
        i = x - lo
        u = rng.random()
        if u < up[i]:
            x += 1
        elif u >= up[i] + stay[i]:
            x -= 1
        path[n] = x
    return TrajectorySample(seed, x0, path, None)


def transformed_finals(tk, x0: int, steps: int, n_paths: int, seed: int) -> np.ndarray:
    """Final positions of ``n_paths`` conditioned-chain paths."""
    lo = x0 - steps
    up, stay = _stochastic_rows(tk, Window(x0 - 16, x0 + 16), 1e-9, lo, x0 + steps)
    rng = np.random.default_rng(seed)
    xs = np.full(n_paths, x0, dtype=np.int64)
    for _ in range(steps):
        idx = xs - lo
        u = rng.random(n_paths)
        xs += np.where(u < up[idx], 1, np.where(u >= up[idx] + stay[idx], -1, 0))
    return xs


def empirical_hitting_split(
    tk, x: int, M: int, n_paths: int, seed: int, max_steps: int = 2_000_000
) -> float:
    """Fraction of conditioned-chain paths reaching +M before -M.

    Simulation cross-check for the deterministic gambler's-ruin solver at
    the same horizon M.
    """
    if M <= abs(x):
        raise ValueError("need M > |x|")
    up, stay = _stochastic_rows(tk, Window(x - 8, x + 8), 1e-9, -M, M)
    rng = np.random.default_rng(seed)
    xs = np.full(n_paths, x, dtype=np.int64)
    alive = np.ones(n_paths, dtype=bool)
    hit_plus = np.zeros(n_paths, dtype=bool)
    steps = 0
    while alive.any():
        steps += 1
        if steps > max_steps:
            raise RuntimeError("hitting simulation exceeded max_steps")
        sub = np.flatnonzero(alive)
        idx = xs[sub] + M
        u = rng.random(len(sub))
        xs[sub] += np.where(u < up[idx], 1, np.where(u >= up[idx] + stay[idx], -1, 0))
        done_plus = sub[xs[sub] >= M]
        done_minus = sub[xs[sub] <= -M]
        hit_plus[done_plus] = True
        alive[done_plus] = False
        alive[done_minus] = False
    return float(hit_plus.mean())


def sample_initial_site(measure, rng, truncation: float = 1e-9, halfwidth: int = 4000):
    """Inverse-CDF sample from an evaluable probability measure.

    The measure is tabulated on [-halfwidth, halfwidth]; geometric tails
    make the recorded truncated mass negligible at the default width.
    """
    sites = np.arange(-halfwidth, halfwidth + 1)
    mass = np.asarray(measure.prob(sites), dtype=float)
    covered = float(mass.sum())
    if 1.0 - covered > truncation:
        raise ValueError(f"truncation captures only {covered}")
    cdf = np.cumsum(mass) / covered
    u = rng.random()
    return int(sites[int(np.searchsorted(cdf, u))]), 1.0 - covered


@dataclass
class OreyTrace:
    """Yaglom ratios evaluated along one time-reversal path.

    ``ratios[m][y]`` is K^m(z_m, y)/K^m(z_m, S) where z_m is the reversal's
    position at time m; Orey's theorem drives these to the extremal
    invariant probability the reversal was built from.
    """

    seed: int
    init_site: int
    truncated_mass: float
    positions: dict[int, int]
    ratios: dict[int, dict[int, float]]
    probes: tuple[int, ...] = field(default_factory=tuple)


def orey_trace(
    rk,
    base_kernel,
    init_measure,
    m_grid,
    seed: int,
    probes=(0,),
    site_bound: int = 20000,
) -> OreyTrace:
    """Run the time reversal from ``init_measure`` and probe Yaglom ratios.

    At each m in ``m_grid`` the conditioned law K^m(z_m, .)/K^m(z_m, S) of
    the *forward* kernel is computed afresh from the reversal's current
    position z_m (one power iteration of length m per grid point, which is
    why the grid should be sparse).
    """
    m_grid = sorted(set(int(m) for m in m_grid))
    if not m_grid or m_grid[0] < 1:
        raise ValueError("m_grid must hold positive steps")
    rng = np.random.default_rng(seed)
    x0, truncated = sample_initial_site(init_measure, rng)
    m_max = m_grid[-1]
    lo = x0 - m_max
    up, stay = _stochastic_rows(rk, Window(-16, 16), 1e-6, lo, x0 + m_max)
    positions: dict[int, int] = {}
    ratios: dict[int, dict[int, float]] = {}
    want = set(m_grid)
    x = x0
    for m in range(1, m_max + 1):
        i = x - lo
        u = rng.random()
        if u < up[i]:
            x += 1
        elif u >= up[i] + stay[i]:
            x -= 1
        if abs(x) > site_bound:
            raise RuntimeError(f"reversal path escaped beyond {site_bound}")
        if m in want:
            positions[m] = x
            trace = evolve_trace(base_kernel, x, m)
            ratios[m] = {int(y): trace.distribution[int(y)] for y in probes}
    return OreyTrace(seed, x0, truncated, positions, ratios, tuple(int(y) for y in probes))
