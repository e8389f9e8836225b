"""Seeded trajectory simulation: absorbed chains, conditioned chains, Orey paths.

All samplers take an explicit seed and are deterministic given it.  Batch
helpers vectorize over paths with a shared generator, so identical seeds
reproduce identical outputs byte for byte.  Every sampler moves its paths
by one rule: a uniform u takes the outcome after the row's cumulative
thresholds <= u.  ``simulate_absorbed``, ``orey_trace`` and
``absorption_times`` take one step a draw (``_move``, or ``_step`` in
place on reused buffers); ``empirical_hitting_split`` takes
``_HITTING_BLOCK`` steps a draw, on the rows of the k-step kernel
(``_block_thresholds``), found by a binary search.
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


# Limits no caller tunes: the batch samplers' first window half-width
# (doubled as paths walk out), the paths ``absorption_times`` moves at a
# time, the steps ``empirical_hitting_split`` takes a draw, step caps,
# the reversal's site bound, and the tabulation of initial laws.
# ``absorption_times`` packs a path's row into the low _ROW_BITS bits of
# an int64 and its id above them.
_HALFWIDTH = 256
_SLICE = 2**14
_ROW_BITS = 32
_HITTING_BLOCK = 32
_HITTING_MAX_STEPS = 2_000_000
_OREY_SITE_BOUND = 20000
_INIT_TRUNCATION = 1e-9
_INIT_HALFWIDTH = 4000


def _thresholds(up, stay, down=None):
    """Cumulative thresholds of each row, as 1-D arrays: up, up + stay and,
    unless the kernel is stochastic (no ``down``), the row total up + stay
    + down.  A stochastic table has no total, so it never kills."""
    upstay = up + stay
    return (up, upstay) if down is None else (up, upstay, upstay + down)


def _move(u, i, up, upstay, total=None):
    """Where a uniform ``u`` sends a path on row ``i`` of the thresholds:
    1 - #{thresholds <= u}, that is +1, 0 or -1, or -2 (killed) once u
    reaches the row total.  Scalars on lists and arrays alike."""
    move = 1 - (u >= up[i]) - (u >= upstay[i])
    if total is not None:
        move -= u >= total[i]
    return move


def _step(p, u, i, table, t, hit):
    """``p += _move(u, i, *table)`` in place, with no temporary: ``1 - [u
    >= up]`` is ``[u < up]``, and each further threshold subtracts its test
    as a uint8 view.  ``t`` (float) and ``hit`` (bool) are buffers of the
    size of ``p``; ``hit`` is left holding ``u >= `` the last threshold,
    which for a killing table marks the killed paths (thresholds ascend,
    since rates are nonnegative).  Rows ``i`` must index the table."""
    step = hit.view(np.uint8)
    table[0].take(i, out=t, mode="clip")  # mode="raise" would copy ``t``
    np.less(u, t, out=hit)
    p += step
    for threshold in table[1:]:
        threshold.take(i, out=t, mode="clip")
        np.greater_equal(u, t, out=hit)
        p -= step


def _renormalised(up, stay, down):
    """Thresholds of the rows rescaled to sum to one."""
    total = up + stay + down
    return _thresholds(up / total, stay / total)


def _stochastic_rows(tk, check: Window, tol: float, lo: int, hi: int):
    """Thresholds of a conditioned kernel on [lo, hi], renormalised, after
    checking its row sums on ``check`` against ``tol``."""
    resid = tk.stochastic_residual(check)
    if resid > tol:
        raise ValueError(f"{type(tk).__name__} not stochastic: residual {resid:g}")
    return _renormalised(*tk.rows(lo, hi))


def _block_thresholds(up, upstay, k: int) -> np.ndarray:
    """Cumulative thresholds of the k-step kernel of a chain on [-M, M]
    absorbed at +-M, whose rows -M + 1..M - 1 have the one-step thresholds
    ``up`` and ``upstay`` of a stochastic table: a (2M - 1, 2k) array.

    Row s lists its 2k + 1 outcomes s + k, s + k - 1, ..., s - k, and its
    thresholds are the tail function G(y) = P_s(X_k >= y) at y = s + k,
    ..., s - k + 1; the last outcome takes the rest.  An exit keeps its
    mass, so a target past it holds none.  Each step sets G(y) to pi(y)
    upstay(y) + pi(y - 1) up(y - 1) + G(y + 1), with pi(y) = G(y) - G(y + 1),
    in band coordinates (offsets +k..-k from s), over the offsets reached
    so far: O(M k^2) work.  At k = 1 the thresholds are ``up`` and
    ``upstay`` to the bit.  A running max keeps rows ascending whatever
    the rounding, as the binary search over them needs.
    """
    n = up.size

    def offsets(threshold, at_exit):
        # threshold[j, i]: its value at offset k - j from row i's site, j <= 2k + 1
        ext = np.concatenate((np.zeros(k), [at_exit], threshold, [at_exit], np.zeros(k - 1)))
        return np.lib.stride_tricks.sliding_window_view(ext, n)[::-1]

    up, upstay = offsets(up, 0.0), offsets(upstay, 1.0)
    G = np.zeros((2 * k + 3, n))  # G[j + 1]: G at offset k - j, for j = -1..2k + 1
    G[k + 1:] = 1.0
    # reused buffers: at a large M each temporary would be a fresh mmap
    buffers = np.empty((2 * k + 2, n)), np.empty((2 * k + 1, n)), np.empty((2 * k + 1, n))
    for t in range(k):
        lo, hi = k - t - 1, min(k + t + 1, 2 * k)  # the offsets step t + 1 reaches
        m = hi + 1 - lo
        pi = np.subtract(G[lo + 1:hi + 3], G[lo:hi + 2], out=buffers[0][:m + 1])  # j = lo..hi + 1
        new = np.multiply(pi[:-1], upstay[lo:hi + 1], out=buffers[1][:m])
        new += np.multiply(pi[1:], up[lo + 1:hi + 2], out=buffers[2][:m])
        new += G[lo:hi + 1]
        G[lo + 1:hi + 2] = new
    return np.maximum.accumulate(G[1:2 * k + 1], axis=0).T


def _search_tables(thresholds: np.ndarray) -> list[np.ndarray]:
    """Flat tables for a branchless count of each row's thresholds <= u.

    The rows are padded with +inf to a power of two, P.  Table l < log2 P
    holds, for each row, the 2^l thresholds a search visits at step l, so
    a search at flat index g of table l goes on at 2g or 2g + 1 of table
    l + 1; the last table is the padded rows, where the search ends at
    row * P + #{thresholds <= u}.
    """
    n, m = thresholds.shape
    P = 1 << (m - 1).bit_length()
    rows = np.full((n, P), np.inf)
    rows[:, :m] = thresholds
    tables = [rows[:, (2 * np.arange(1 << l) + 1) * (P >> l + 1) - 1].ravel()
              for l in range(P.bit_length() - 1)]
    return tables + [rows.ravel()]


def _walk(table, lo: int, x0: int, steps: int, rng):
    """One path of at most ``steps`` moves from x0 on the thresholds
    ``table`` of sites lo, lo+1, ...; returns the visited sites and the
    kill time, or None if the path survived."""
    table = [t.tolist() for t in table]  # the walk reads Python floats
    path = [x0]
    for n in range(1, steps + 1):
        move = _move(rng.random(), path[-1] - lo, *table)
        if move == -2:
            return np.array(path), n
        path.append(path[-1] + move)
    return np.array(path), None


def simulate_absorbed(kernel, x0: int, horizon: int, seed: int) -> TrajectorySample:
    """Sample one killed path for at most ``horizon`` steps."""
    if horizon < 1:
        raise ValueError("need horizon >= 1")
    rng = np.random.default_rng(seed)
    table = _thresholds(*kernel.rows(x0 - horizon, x0 + horizon))
    return TrajectorySample(seed, x0, *_walk(table, x0 - horizon, x0, horizon, rng))


def absorption_times(
    kernel, x0: int, n_paths: int, seed: int, max_steps: int = 10**6
) -> np.ndarray:
    """Exit times zeta for ``n_paths`` independent paths.

    Paths still alive at the current horizon keep running with a doubled
    window until absorbed, so every returned time is finite.  Raises if a
    path exceeds ``max_steps`` (chain not absorbing enough).  Each live
    path is one int64, ``id << 32 | row``, so the exit times and the live
    paths hold 16 bytes per path.  Each step draws and moves the live
    paths _SLICE at a time, in place, so no temporary of a step spans them
    all; the draws continue one stream, in draw order.
    """
    if n_paths >= 1 << (63 - _ROW_BITS):
        raise ValueError(f"need n_paths < 2^{63 - _ROW_BITS}")
    reach = 0  # the widest half-width the window grows to, in at most max_steps
    while reach <= max_steps:
        reach += max(reach, _HALFWIDTH)
    if 2 * reach >= 1 << _ROW_BITS:
        raise ValueError(f"max_steps {max_steps} lets a row pass 2^{_ROW_BITS} - 1")
    rng = np.random.default_rng(seed)
    zeta = np.zeros(n_paths, dtype=np.int64)
    live = np.arange(n_paths, dtype=np.int64)  # live paths, in draw order
    live <<= _ROW_BITS  # x0 is row H, added below
    rows = (1 << _ROW_BITS) - 1
    size = min(n_paths, _SLICE)
    buffers = np.empty(size), np.empty(size, dtype=np.intp), np.empty(size)
    n = H = 0
    while live.size:
        n += 1
        if n > max_steps:
            raise RuntimeError("paths not absorbed within max_steps")
        if n >= H:
            grow = max(H, _HALFWIDTH)
            H += grow
            live += grow
            table = _thresholds(*kernel.rows(x0 - H, x0 + H))
        # n < H, so every live row lies in [H - n + 1, H + n - 1]: the
        # "clip" gathers of _step never clamp a row of the 2H + 1 in the
        # table, and a kill (-2) leaves a row >= 0, so no row borrows from
        # the id above it
        died = np.empty(live.size, dtype=bool)
        for s in range(0, live.size, _SLICE):  # one stream: each path keeps its uniform
            p = live[s:s + _SLICE]
            u, i, t = (b[:p.size] for b in buffers)
            rng.random(out=u)
            np.bitwise_and(p, rows, out=i)
            _step(p, u, i, table, t, died[s:s + _SLICE])
        if died.any():  # np.compress: a mask index branches on every entry
            zeta[np.compress(died, live) >> _ROW_BITS] = n
            live = np.compress(np.logical_not(died, out=died), live)
    return zeta


def empirical_hitting_split(tk, x: int, M: int, n_paths: int, seed: int) -> float:
    """Fraction of conditioned-chain paths reaching +M before -M.

    Simulation cross-check for the deterministic gambler's-ruin solver at
    the same horizon M.  Each round moves every live path by the
    ``_HITTING_BLOCK``-step kernel of the chain absorbed at +-M
    (``_block_thresholds``), with one uniform per live path, in path
    order: u sends a path at s to s + k - #{thresholds <= u}.  At k = 1
    these are the draws of one ``_move`` a step.  The table holds 2M - 1
    rows of 2k floats, padded to a power of two.
    """
    if M <= abs(x):
        raise ValueError("need M > |x|")
    if n_paths < 1:
        raise ValueError("need n_paths >= 1")
    k = _HITTING_BLOCK
    table = _stochastic_rows(tk, Window(x - 8, x + 8), 1e-9, -M + 1, M - 1)
    *levels, leaves = _search_tables(_block_thresholds(*table, k))
    P = leaves.size // (2 * M - 1)
    # site -M + 1 is row 0; +M is row 2M - 1, and -M and below are
    # negative, which an unsigned view puts above it: one max tests both
    edge = 2 * M - 1
    row = np.full(n_paths, x + M - 1, dtype=np.intp)  # in draw order
    buffers = (np.empty(n_paths), np.empty(n_paths, dtype=np.intp), np.empty(n_paths),
               np.empty(n_paths, dtype=bool))
    u, g, t, b = buffers
    rng = np.random.default_rng(seed)
    plus = 0
    rounds = 0
    while row.size:
        rounds += 1
        if rounds * k > _HITTING_MAX_STEPS:
            raise RuntimeError(f"hitting simulation exceeded {_HITTING_MAX_STEPS} steps")
        if u.size != row.size:
            u, g, t, b = (buf[:row.size] for buf in buffers)
        rng.random(out=u)
        step = b.view(np.uint8)
        g[...] = row
        for level in levels:  # g = 2g + [threshold <= u]
            level.take(g, out=t, mode="clip")  # mode="raise" would copy ``t``
            np.less_equal(t, u, out=b)
            g += g
            g += step
        leaves.take(g, out=t, mode="clip")
        np.less_equal(t, u, out=b)
        g += step
        # g = row P + count, and the path moves to row + k - count
        row *= P + 1
        row += k
        row -= g
        if np.maximum.reduce(row.view(np.uintp)) >= edge:
            plus += int(np.count_nonzero(row >= edge))
            row = row[row.view(np.uintp) < edge]
    return plus / n_paths


def sample_initial_site(measure, rng):
    """Inverse-CDF sample from an evaluable probability measure.

    The measure is tabulated on [-4000, 4000]; geometric tails make the
    recorded truncated mass negligible at that width.
    """
    sites = np.arange(-_INIT_HALFWIDTH, _INIT_HALFWIDTH + 1)
    mass = np.asarray(measure.prob(sites), dtype=float)
    covered = float(mass.sum())
    if 1.0 - covered > _INIT_TRUNCATION:
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


def orey_trace(rk, base_kernel, init_measure, m_grid, seed: int, probes=(0,)) -> OreyTrace:
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
    table = _stochastic_rows(rk, Window(-16, 16), 1e-6, x0 - m_max, x0 + m_max)
    path, _ = _walk(table, x0 - m_max, x0, m_max, rng)
    if np.abs(path).max() > _OREY_SITE_BOUND:
        raise RuntimeError(f"reversal path escaped beyond {_OREY_SITE_BOUND}")
    positions = {m: int(path[m]) for m in m_grid}
    ratios = {}
    for m in m_grid:
        dist = evolve_trace(base_kernel, positions[m], m).distribution
        ratios[m] = {int(y): dist[int(y)] for y in probes}
    return OreyTrace(seed, x0, truncated, positions, ratios, tuple(int(y) for y in probes))
