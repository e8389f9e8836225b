import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from yaglom import (
    MirrorParams,
    TwoSidedParams,
    build_alpha_walk,
    build_symmetric,
    build_two_sided,
    e0_r_zeta,
    evolve_trace,
    extremal_plus,
    extremal_minus,
    h_transform,
    hitting_split,
    lazify,
    mirror_hhat,
    simulate_absorbed,
    time_reversal,
)
from yaglom.chain import NNKernel, Region, Window
from yaglom.measures import DualHarmonic
import yaglom.montecarlo
from yaglom.montecarlo import (
    _HALFWIDTH,
    _block_thresholds,
    _move,
    _renormalised,
    _step,
    _stochastic_rows,
    _thresholds,
    absorption_times,
    empirical_hitting_split,
    orey_trace,
)

PARAMS = TwoSidedParams(0.25, 0.75, 0.9, 0.1)
KERNEL = build_two_sided(0.25, 0.75, 0.9, 0.1)
MIRROR = MirrorParams(0.25, 0.125)


def test_certain_death_kernel():
    k = NNKernel((Region(None, None, 1e-12, 0.0, 1e-12),))
    for seed in (1, 2, 3):
        assert simulate_absorbed(k, 0, 10, seed).absorbed_at == 1


def test_seed_reproducibility():
    k = lazify(KERNEL, 0.5)
    a = simulate_absorbed(k, 5, 200, seed=99)
    b = simulate_absorbed(k, 5, 200, seed=99)
    assert np.array_equal(a.path, b.path)
    assert a.absorbed_at == b.absorbed_at
    c = simulate_absorbed(k, 5, 200, seed=100)
    assert not np.array_equal(a.path, c.path)
    za = absorption_times(KERNEL, 0, 5000, seed=7)
    zb = absorption_times(KERNEL, 0, 5000, seed=7)
    assert np.array_equal(za, zb)


def test_path_steps_are_nearest_neighbour():
    s = simulate_absorbed(lazify(KERNEL, 0.5), 0, 200, seed=3)
    assert np.max(np.abs(np.diff(s.path))) <= 1


@pytest.mark.parametrize(
    "transform, x, seed",
    [("mirror_hhat", 3, 42), ("two_sided_h_plus", 2, 21)],
    ids=["mirror_hhat", "two_sided_h_plus"],
)
def test_conditioned_step_frequencies_match_row(transform, x, seed):
    # one step of 1e5 paths by the step rule on a conditioned kernel's
    # renormalised rows, the tables empirical_hitting_split and orey_trace
    # walk on, against the kernel row: a chi-square test over the moves
    # the row allows, and none of the others
    if transform == "mirror_hhat":
        rho_lazy = 0.5 + 0.5 * MIRROR.rho
        tk = h_transform(lazify(build_symmetric(0.25), 0.5), mirror_hhat(MIRROR), 1.0 / rho_lazy)
    else:
        tk = h_transform(KERNEL, DualHarmonic(extremal_plus(PARAMS)), PARAMS.R)
    n = 100_000
    table = _stochastic_rows(tk, Window(x - 16, x + 16), 1e-9, x - 1, x + 1)
    rows = np.ones(n, dtype=np.int64)  # x is row 1
    moves = _move(np.random.default_rng(seed).random(n), rows, *table)
    counts = np.array([np.count_nonzero(moves == move) for move in (1, 0, -1)])
    expected = np.array(tk.row(x))
    allowed = expected > 0.0
    assert not counts[~allowed].any()
    expected = expected[allowed] * (n / expected.sum())
    assert stats.chisquare(counts[allowed], f_exp=expected).pvalue > 1e-3


def test_absorption_matches_survival_probabilities():
    k = lazify(KERNEL, 0.5)
    n_paths = 40_000
    zeta = absorption_times(k, 0, n_paths, seed=11)
    tr = evolve_trace(k, 0, 25)
    logs = np.cumsum(np.log(tr.survival_factors))
    for n in (5, 10, 20):
        want = math.exp(logs[n - 1])
        got = float((zeta > n).mean())
        se = math.sqrt(want * (1 - want) / n_paths)
        assert abs(got - want) < 3 * se


def test_e0_r_zeta_truncated_consistency():
    # R^zeta has unit tail index, so no direct sample mean concentrates at
    # the closed form; the sound check matches truncations on both sides:
    # empirical E[R^zeta; zeta <= n*] against the deterministic sum.
    n_paths, n_star = 50_000, 60
    zeta = absorption_times(KERNEL, 0, n_paths, seed=5)
    vals = np.where(zeta <= n_star, PARAMS.R ** zeta.astype(float), 0.0)
    got = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_paths))
    tr = evolve_trace(KERNEL, 0, n_star)
    surv = np.concatenate([[1.0], np.exp(np.cumsum(np.log(tr.survival_factors)))])
    death = surv[:-1] - surv[1:]  # P(zeta = n), n = 1..n_star
    want = float((PARAMS.R ** np.arange(1.0, n_star + 1) * death).sum())
    assert abs(got - want) < 3 * se
    # sanity: the truncated value sits below the closed-form total
    assert want < e0_r_zeta(PARAMS)


def test_samplers_pinned_to_recorded_draws(monkeypatch):
    # recorded outputs, one small input per sampler: a rewrite of the
    # samplers must keep every seed's draws
    lazy = lazify(KERNEL, 0.5)
    sym = h_transform(build_symmetric(0.25), mirror_hhat(MIRROR), MIRROR.R)
    mplus = extremal_plus(PARAMS)
    rk = time_reversal(lazy, mplus, 0.5 + 0.5 * PARAMS.rho)

    class Prob:
        def prob(self, x):
            return mplus.value(x) / mplus.T

    assert absorption_times(lazy, 0, 12, seed=5).tolist() == [1, 1, 4, 2, 3, 2, 21, 4, 3, 1, 9, 3]
    s = simulate_absorbed(lazy, 3, 40, seed=8)
    assert s.absorbed_at is None
    assert s.path.tolist() == [
        3, 3, 2, 2, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, -1,
        -1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 0, 1,
    ]
    s = simulate_absorbed(KERNEL, 2, 40, seed=10)
    assert (s.path.tolist(), s.absorbed_at) == ([2, 1, 2, 1, 2, 1, 2, 1, 0], 9)
    monkeypatch.setattr(yaglom.montecarlo, "_HITTING_BLOCK", 1)
    assert empirical_hitting_split(sym, 2, 8, 40, seed=31) == 35 / 40
    tr = orey_trace(rk, lazy, Prob(), (8, 32), seed=4, probes=(0,))
    assert (tr.init_site, tr.positions) == (7, {8: 6, 32: 2})
    assert tr.ratios[8][0] == pytest.approx(0.020524934924819115, rel=1e-12)
    assert tr.ratios[32][0] == pytest.approx(0.2858501970471609, rel=1e-12)


def test_step_rule_edge_cases():
    up, stay, down = np.array([0.25]), np.array([0.25]), np.array([0.25])
    table = _thresholds(up, stay, down)
    # a u equal to a threshold takes the next outcome
    u = np.array([0.0, 0.25, 0.5, 0.75, 0.9])
    assert _move(u, np.zeros(5, dtype=int), *table).tolist() == [1, 0, -1, -2, -2]
    assert [_move(float(v), 0, *(t.tolist() for t in table)) for v in u] == [1, 0, -1, -2, -2]
    # a stochastic kernel never kills: its table has no row total,
    # whatever its renormalised row sums to after rounding
    table = _renormalised(np.array([0.1]), np.array([0.2]), np.array([0.3]))
    assert len(table) == 2
    u = np.array([0.0, np.nextafter(1.0, 0.0), *np.linspace(0.0, 1.0, 1001, endpoint=False)])
    moves = _move(u, np.zeros(u.size, dtype=int), *table)
    assert set(moves.tolist()) == {1, 0, -1}
    # a zero stay rate never gives a move of 0, at its doubled threshold too
    table = _thresholds(np.array([0.4]), np.array([0.0]), np.array([0.5]))
    u = np.array([0.4, *np.linspace(0.0, 1.0, 1001, endpoint=False)])
    moves = _move(u, np.zeros(u.size, dtype=int), *table)
    assert moves[0] == -1
    assert set(moves.tolist()) == {1, -1, -2}


def test_samplers_pinned_at_benchmark_scale(monkeypatch):
    # recorded before the samplers moved to 1-D threshold gathers: the
    # hitting split at the monte_carlo workload's size and a hash of
    # 200 000 exit times
    sym = h_transform(build_symmetric(0.25), mirror_hhat(MIRROR), MIRROR.R)
    monkeypatch.setattr(yaglom.montecarlo, "_HITTING_BLOCK", 1)
    for x, seed, plus in ((-5, 1201, 1444), (0, 1202, 9955), (3, 1203, 17856)):
        assert empirical_hitting_split(sym, x, 32, 20_000, seed) == plus / 20_000
    zeta = absorption_times(KERNEL, 0, 200_000, seed=1204)
    assert zeta.dtype == np.int64
    assert (int(zeta.sum()), int(zeta.max())) == (500062, 57)
    assert hashlib.sha256(zeta.tobytes()).hexdigest() == (
        "aaa90e50059ebdda5f482fffd33833b957f22215e23b302972eadb4abb9ed926"
    )


def _absorption_times_full_width(kernel, x0, n_paths, seed):
    """``absorption_times`` as it stepped before slicing: each step draws
    and moves every live path at once."""
    rng = np.random.default_rng(seed)
    zeta = np.zeros(n_paths, dtype=np.int64)
    live = np.arange(n_paths)
    row = np.zeros(n_paths, dtype=np.int64)
    n = H = 0
    while live.size:
        n += 1
        if n >= H:
            grow = max(H, _HALFWIDTH)
            H += grow
            row += grow
            table = _thresholds(*kernel.rows(x0 - H, x0 + H))
        move = _move(rng.random(live.size), row, *table)
        row += move
        died = move == -2
        if died.any():
            zeta[live[died]] = n
            keep = ~died
            live, row = live[keep], row[keep]
    return zeta


@pytest.mark.parametrize(
    "kernel, x0",
    [(KERNEL, 0), (lazify(build_alpha_walk(0.9, 0.6, 0.4), 0.5), 0),
     (lazify(KERNEL, 0.5), 300), (lazify(KERNEL, 0.5), -300)],
    ids=["two_sided", "lazy_alpha_walk", "lazy_two_sided_+300", "lazy_two_sided_-300"],
)
def test_sliced_steps_match_full_width_steps(monkeypatch, kernel, x0):
    # slices of 7 paths: path counts below, at and across a slice end;
    # from +-300 the window grows at step 256 while paths are live
    monkeypatch.setattr(yaglom.montecarlo, "_SLICE", 7)
    for n_paths in (1, 6, 7, 8, 23):
        zeta = absorption_times(kernel, x0, n_paths, seed=40 + n_paths)
        assert np.array_equal(zeta, _absorption_times_full_width(kernel, x0, n_paths, 40 + n_paths))
        if x0:
            assert zeta.max() > _HALFWIDTH


@pytest.mark.parametrize(
    "kernel", [KERNEL, lazify(build_alpha_walk(0.9, 0.6, 0.4), 0.5)], ids=["two_sided", "lazy_alpha_walk"]
)
def test_absorption_times_memory_per_path(kernel):
    # the exit times and the packed live paths (id << 32 | row) take 16
    # bytes per path; a step over all 200 000 paths at once peaked at 49-55
    n_paths = 200_000
    tracemalloc.start()
    try:
        absorption_times(kernel, 0, n_paths, seed=1204)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45 * n_paths


def test_packed_layout_guards(monkeypatch):
    # ids sit above _ROW_BITS bits of an int64 and rows below them; each
    # guard raises before a path is allocated
    zeta = absorption_times(KERNEL, 0, 7, seed=3)

    def traced_peak(*args, **kwargs):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                absorption_times(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(yaglom.montecarlo, "_ROW_BITS", 60)  # ids below 2^3
    assert np.array_equal(absorption_times(KERNEL, 0, 7, seed=3), zeta)
    assert traced_peak(KERNEL, 0, 8, seed=3) < 2**16
    assert traced_peak(KERNEL, 0, 10**6, seed=3) < 2**16
    # rows below 2^12: the window may grow to half-width 1024 (1023 steps),
    # not to 2048, whose rows reach 4096
    monkeypatch.setattr(yaglom.montecarlo, "_ROW_BITS", 12)
    assert np.array_equal(absorption_times(KERNEL, 0, 7, seed=3, max_steps=1023), zeta)
    assert traced_peak(KERNEL, 0, 10**6, seed=3, max_steps=1024) < 2**16


@pytest.mark.parametrize("killing", [True, False], ids=["killing", "stochastic"])
def test_in_place_step_matches_move(killing):
    # random rows and uniforms, plus a u exactly at each threshold, zero
    # stay rates (up == up + stay) and, for a killing table, a u at or
    # above the row total
    rng = np.random.default_rng(17)
    up, stay, down = rng.random((3, 40)) / 3
    stay[::5] = 0.0
    table = _thresholds(up, stay, down) if killing else _renormalised(up, stay, down)
    n = 5000
    rows = rng.integers(1, 40, n)  # row 0 wraps in a narrow type on a -1 move
    u = rng.random(n)
    for k, threshold in enumerate(table):
        u[100 * k:100 * k + 100] = threshold[rows[100 * k:100 * k + 100]]
    if killing:
        u[300:400] = rng.uniform(table[-1][rows[300:400]], 1.0)
    move = _move(u, rows, *table)
    assert {1, 0, -1} <= set(move.tolist())
    packed = (np.arange(n, dtype=np.int64) << 32) | (rows + 1)  # kills keep rows >= 0
    for p, want in ((packed, packed + move), ((rows + 1).astype(np.uint8), rows + 1 + move)):
        hit = np.empty(n, dtype=bool)
        _step(p, u, rows.astype(np.intp), table, np.empty(n), hit)
        assert np.array_equal(p, want)
        if killing:
            assert np.array_equal(hit, move == -2) and hit.any()


def _hitting_split_one_move(tk, x, M, n_paths, seed):
    """``empirical_hitting_split`` as it stepped before the in-place step:
    int64 rows from -M (row 0), moved by one ``_move`` a step."""
    table = _stochastic_rows(tk, Window(x - 8, x + 8), 1e-9, -M, M)
    rng = np.random.default_rng(seed)
    top = 2 * M
    row = np.full(n_paths, x + M, dtype=np.int64)
    plus = 0
    while row.size:
        row += _move(rng.random(row.size), row, *table)
        if row.min() == 0 or row.max() == top:
            plus += int(np.count_nonzero(row == top))
            row = row[(row > 0) & (row < top)]
    return plus / n_paths


_LAZY_MIRROR = 1.0 / (0.5 + 0.5 * MIRROR.rho)
_SPLIT_KERNELS = {
    "mirror": lambda: h_transform(build_symmetric(0.25), mirror_hhat(MIRROR), MIRROR.R),
    "lazy_mirror": lambda: h_transform(lazify(build_symmetric(0.25), 0.5), mirror_hhat(MIRROR), _LAZY_MIRROR),
    "two_sided_h_plus": lambda: h_transform(KERNEL, DualHarmonic(extremal_plus(PARAMS)), PARAMS.R),
}


@pytest.mark.parametrize("kernel", sorted(_SPLIT_KERNELS))
@pytest.mark.parametrize(
    "M, x, n_paths",
    [(8, 2, 20_000), (32, -5, 20_000), (127, 124, 1), (128, -125, 1), (300, 297, 1)],
)
def test_hitting_split_matches_one_move_steps(monkeypatch, kernel, M, x, n_paths):
    # rows of 2M <= 254 fit uint8 (M = 127), 256 does not (M = 128)
    monkeypatch.setattr(yaglom.montecarlo, "_HITTING_BLOCK", 1)
    tk = _SPLIT_KERNELS[kernel]()
    seed = 50 + M
    assert empirical_hitting_split(tk, x, M, n_paths, seed) == _hitting_split_one_move(tk, x, M, n_paths, seed)


@pytest.mark.parametrize("M", [127, 128])
def test_hitting_split_matches_one_move_steps_across_row_types(monkeypatch, M):
    # both exits, on either side of the uint8 rows: the h_plus chain
    # drifts up, so from near -M many paths leave at -M at once and the
    # rest cross to +M
    monkeypatch.setattr(yaglom.montecarlo, "_HITTING_BLOCK", 1)
    tk = _SPLIT_KERNELS["two_sided_h_plus"]()
    x = 4 - M
    split = empirical_hitting_split(tk, x, M, 2_000, seed=M)
    assert 0.0 < split < 1.0
    assert split == _hitting_split_one_move(tk, x, M, 2_000, seed=M)


def test_hitting_split_pinned_at_benchmark_scale_in_blocks():
    # the draws of _HITTING_BLOCK steps a round, at the monte_carlo
    # workload's size; at one step a round these seeds give 1444, 9955
    # and 17856 (test_samplers_pinned_at_benchmark_scale)
    sym = _SPLIT_KERNELS["mirror"]()
    assert yaglom.montecarlo._HITTING_BLOCK == 32
    for x, seed, plus in ((-5, 1201, 1389), (0, 1202, 9877), (3, 1203, 17761)):
        assert empirical_hitting_split(sym, x, 32, 20_000, seed) == plus / 20_000


def _exact_block_thresholds(table, k):
    """``_block_thresholds`` exactly: the one-step kernel on [-M, M] read off
    the float thresholds (up, up + stay) of rows -M + 1..M - 1 as
    ``Fraction``s, absorbed at +-M, stepped k times in integers over a
    common power-of-two denominator; the thresholds are its tail sums."""
    rates = [(Fraction(0), Fraction(1), Fraction(0))]
    rates += [(Fraction(a), Fraction(b) - Fraction(a), 1 - Fraction(b)) for a, b in zip(*table)]
    rates += [(Fraction(0), Fraction(1), Fraction(0))]
    D = max(r.denominator for rate in rates for r in rate)  # a power of two
    up, stay, down = (np.array([r * D for r in column], dtype=object) for column in zip(*rates))
    n = len(rates)  # 2M + 1 sites, -M at index 0
    law = np.zeros((n - 2, n), dtype=object)  # one row per start -M + 1..M - 1
    law[np.arange(n - 2), np.arange(1, n - 1)] = 1
    for _ in range(k):
        new = law * stay
        new[:, 1:] += law[:, :-1] * up[:-1]
        new[:, :-1] += law[:, 1:] * down[1:]
        law = new
    tails = np.cumsum(law[:, ::-1], axis=1)[:, ::-1]  # tails[i, y + M] = P(X_k >= y)
    M = (n - 1) // 2
    out = []
    for i, row in enumerate(tails):
        s = i - M + 1
        ys = range(s + k, s - k, -1)
        out.append([Fraction(0) if y > M else Fraction(1) if y < -M
                    else Fraction(int(row[y + M]), D**k) for y in ys])
    return out


@pytest.mark.parametrize("M", [3, 40])
def test_block_thresholds_match_exact_power(M):
    # M = 3 < k: every row reaches both exits; the float table within
    # 1e-15 of the exact k-th power, and exact at k = 1
    tk = _SPLIT_KERNELS["lazy_mirror"]()
    k = yaglom.montecarlo._HITTING_BLOCK
    table = _stochastic_rows(tk, Window(-8, 8), 1e-9, -M + 1, M - 1)
    got = _block_thresholds(*table, k)
    assert got.shape == (2 * M - 1, 2 * k)
    assert np.all(np.diff(got, axis=1) >= 0.0)
    tol = Fraction(1e-15)
    for got_row, want_row in zip(got.tolist(), _exact_block_thresholds(table, k)):
        assert all(abs(Fraction(g) - w) <= tol for g, w in zip(got_row, want_row))
    one = _block_thresholds(*table, 1)
    assert np.array_equal(one[:, 0], table[0]) and np.array_equal(one[:, 1], table[1])


def _hitting_split_scalar(tk, x, M, n_paths, seed):
    """``empirical_hitting_split`` path by path: each round, each live path
    in order draws one uniform u and moves from s to s + k - #{thresholds
    <= u} of its row, counted one by one."""
    k = yaglom.montecarlo._HITTING_BLOCK
    table = _block_thresholds(*_stochastic_rows(tk, Window(x - 8, x + 8), 1e-9, -M + 1, M - 1), k)
    table = table.tolist()
    rng = np.random.default_rng(seed)
    live, plus = [x] * n_paths, 0
    while live:
        moved = []
        for s in live:
            u = rng.random()
            s += k - sum(c <= u for c in table[s + M - 1])
            if s >= M:
                plus += 1
            elif s > -M:
                moved.append(s)
        live = moved
    return plus / n_paths


@pytest.mark.parametrize("block", [32, 5])
@pytest.mark.parametrize(
    "kernel, M, x, n_paths",
    [("mirror", 3, 1, 500), ("lazy_mirror", 32, -5, 500), ("two_sided_h_plus", 40, -37, 300)],
)
def test_hitting_split_matches_scalar_rounds(monkeypatch, block, kernel, M, x, n_paths):
    # at block 5 the 10 thresholds pad to 16 with +inf
    monkeypatch.setattr(yaglom.montecarlo, "_HITTING_BLOCK", block)
    tk = _SPLIT_KERNELS[kernel]()
    seed = 70 + M
    split = empirical_hitting_split(tk, x, M, n_paths, seed)
    assert 0.0 < split < 1.0
    assert split == _hitting_split_scalar(tk, x, M, n_paths, seed)


def test_hitting_split_step_cap_counts_rounds_times_block(monkeypatch):
    # from 0 at M = 32 the mirror chain's paths need more than two rounds
    sym = _SPLIT_KERNELS["mirror"]()
    monkeypatch.setattr(yaglom.montecarlo, "_HITTING_MAX_STEPS", 64)
    with pytest.raises(RuntimeError, match="exceeded 64 steps"):
        empirical_hitting_split(sym, 0, 32, 2_000, seed=5)
    monkeypatch.setattr(yaglom.montecarlo, "_HITTING_MAX_STEPS", 10**5)
    assert 0.0 < empirical_hitting_split(sym, 0, 32, 2_000, seed=5) < 1.0


@pytest.mark.parametrize("seed", range(20))
def test_hitting_split_in_blocks_matches_gamblers_ruin(seed):
    # the benchmark's chain, horizon and path count, from -6..6
    sym = _SPLIT_KERNELS["mirror"]()
    x, M, n_paths = seed % 13 - 6, 32, 20_000
    want = hitting_split(sym, x, M_start=M, M_cap=M).w_plus
    got = empirical_hitting_split(sym, x, M, n_paths, seed=900 + seed)
    assert abs(got - want) < 4.0 * math.sqrt(want * (1.0 - want) / n_paths)


def test_hitting_split_needs_a_path():
    sym = h_transform(build_symmetric(0.25), mirror_hhat(MIRROR), MIRROR.R)
    with pytest.raises(ValueError, match="n_paths >= 1"):
        empirical_hitting_split(sym, 0, 8, 0, seed=1)


def test_samplers_reject_non_stochastic_kernels():
    # h = 1 is not harmonic, and theta = 1 is not the measure's eigenvalue
    tk = h_transform(KERNEL, lambda x: np.ones_like(np.asarray(x, dtype=float)), PARAMS.R)
    with pytest.raises(ValueError, match="not stochastic"):
        empirical_hitting_split(tk, 0, 20, 10, seed=1)
    mplus = extremal_plus(PARAMS)
    rk = time_reversal(KERNEL, mplus, 1.0)
    with pytest.raises(ValueError, match="not stochastic"):
        orey_trace(rk, KERNEL, mplus, (16,), seed=1)


def test_orey_plus_reversal_drifts_up_and_recovers_extremal():
    k = lazify(KERNEL, 0.5)
    rho = 0.5 + 0.5 * PARAMS.rho
    mplus = extremal_plus(PARAMS)
    rk = time_reversal(k, mplus, rho)

    class Prob:
        def prob(self, x):
            return mplus.value(x) / mplus.T

    tr = orey_trace(rk, k, Prob(), (256, 1024, 2048), seed=4, probes=(0, 1))
    assert tr.truncated_mass < 1e-9
    assert tr.positions[2048] > 0
    target = 1.0 / mplus.T
    assert tr.ratios[2048][0] == pytest.approx(target, abs=5e-2)


def test_orey_minus_reversal_drifts_down():
    k = lazify(KERNEL, 0.5)
    rho = 0.5 + 0.5 * PARAMS.rho
    mminus = extremal_minus(PARAMS)
    rk = time_reversal(k, mminus, rho)

    class Prob:
        def prob(self, x):
            return mminus.value(x) / mminus.T

    tr = orey_trace(rk, k, Prob(), (128, 512), seed=6, probes=(0,))
    assert tr.positions[512] < -100
    # mirror case: the ratio approaches pi_minus(0), here only loosely
    target = 1.0 / mminus.T
    assert tr.ratios[512][0] == pytest.approx(target, rel=0.5)
