import math

import numpy as np
import pytest

from yaglom import (
    NNKernel,
    Region,
    Window,
    build_kesten,
    build_symmetric,
    build_two_sided,
    estimate_hhat,
    h_transform,
    hitting_split,
    lazify,
    mixture_limit,
    time_reversal,
)
from yaglom.scenarios import default_kesten_schedule
from yaglom.measures import (
    DualHarmonic,
    MirrorParams,
    TwoSidedParams,
    extremal_minus,
    extremal_plus,
    mirror_extremal,
    mirror_hhat,
    quadratic_roots,
)
from yaglom.transforms import _HHAT_REL_TOL, _HHAT_WIDTH, BoundaryWeights, _window_cauchy

PARAMS = TwoSidedParams(0.25, 0.75, 0.9, 0.1)
KERNEL = build_two_sided(0.25, 0.75, 0.9, 0.1)
MIRROR = MirrorParams(0.25, 0.125)
MKERNEL = build_symmetric(0.25)


def test_h_transform_stochastic_for_harmonic_h():
    tk = h_transform(KERNEL, DualHarmonic(extremal_plus(PARAMS)), PARAMS.R)
    assert tk.stochastic_residual(Window(-60, 60)) < 1e-12
    up, _, down = tk.rows(40, 60)
    assert (up - down > 0).all()  # drifts to +inf far to the right


def test_h_transform_flags_nonharmonic_h():
    tk = h_transform(KERNEL, lambda x: np.ones_like(np.asarray(x, dtype=float)), PARAMS.R)
    # at non-killing sites rows sum to R > 1
    assert tk.stochastic_residual(Window(5, 10)) == pytest.approx(PARAMS.R - 1, rel=1e-12)


def test_h_minus_transform_drifts_left():
    tk = h_transform(KERNEL, DualHarmonic(extremal_minus(PARAMS)), PARAMS.R)
    up, _, down = tk.rows(-60, -30)
    assert (up - down < 0).all()


def test_time_reversal_rates_match_paper_asymptotics():
    t0, t1 = quadratic_roots(PARAMS)
    rho = PARAMS.rho
    rk_plus = time_reversal(KERNEL, extremal_plus(PARAMS), rho)
    up, _, _ = rk_plus.rows(-30, -30)
    assert up[0] == pytest.approx(t1 * PARAMS.b / rho, rel=1e-12)
    rk_minus = time_reversal(KERNEL, extremal_minus(PARAMS), rho)
    up, _, down = rk_minus.rows(5, 20)
    assert np.allclose(up, 0.5, atol=1e-12)
    assert np.allclose(down, 0.5, atol=1e-12)


def test_time_reversal_involution():
    m = extremal_plus(PARAMS)
    rk = time_reversal(KERNEL, m, PARAMS.rho)
    back = time_reversal(rk, m, 1.0 / PARAMS.rho)
    # reversing the reversal with the inverse eigenvalue recovers K
    lo, hi = -25, 25
    for a, b in zip(back.rows(lo, hi), KERNEL.rows(lo, hi)):
        assert np.allclose(a, b, atol=1e-14)


def test_space_time_reversal_consistency():
    # The reversal of the space-time survival transform with respect to
    # H * pi has the same transition law as the reversal of K w.r.t. pi.
    from yaglom.evolve import evolve_trace

    k = lazify(KERNEL, 0.5)
    rho = 0.5 + 0.5 * PARAMS.rho
    R = 1.0 / rho
    pi = extremal_plus(PARAMS)
    lo, hi = -10, 10
    n = 30
    # H(x, -m) = R^m K^m(x, S) from the actual survival numbers
    H = {}
    for x in range(lo - 1, hi + 2):
        tr = evolve_trace(k, x, n + 1)
        logs = np.concatenate([[0.0], np.cumsum(np.log(tr.survival_factors))])
        H[x] = {m: math.exp(m * math.log(R) + logs[m]) for m in (n, n + 1)}
    rk = time_reversal(k, pi, rho)
    up_r, stay_r, down_r = rk.rows(lo, hi)
    for i, y in enumerate(range(lo, hi + 1)):
        # space-time transform: Ktilde(x,-(n+1); y,-n) = K(x,y) R H(y,-n)/H(x,-(n+1))
        # reversed w.r.t. H*pi at (y,-n) back to (x,-(n+1))
        for x, got in ((y + 1, up_r[i]), (y, stay_r[i]), (y - 1, down_r[i])):
            kxy = {1: k.row(x)[2], 0: k.row(x)[1], -1: k.row(x)[0]}[x - y] if x != y else k.row(x)[1]
            ktilde = kxy * R * H[y][n] / H[x][n + 1]
            want = pi.value(x) * H[x][n + 1] * ktilde / (pi.value(y) * H[y][n])
            assert got == pytest.approx(want, abs=1e-13)


def test_hitting_split_symmetric_start():
    tk = h_transform(MKERNEL, mirror_hhat(MIRROR), MIRROR.R)
    w = hitting_split(tk, 0)
    assert w.converged
    assert w.w_plus == pytest.approx(0.5, abs=1e-9)
    assert w.w_minus + w.w_plus == pytest.approx(1.0, abs=1e-12)


def test_hitting_split_dominant_boundary():
    tk = h_transform(KERNEL, DualHarmonic(extremal_plus(PARAMS)), PARAMS.R)
    for x in (-3, 0, 4):
        w = hitting_split(tk, x)
        assert w.w_plus > 1.0 - 1e-9


def test_hitting_split_state_dependence():
    tk = h_transform(MKERNEL, mirror_hhat(MIRROR), MIRROR.R)
    w6 = hitting_split(tk, 6)
    wm6 = hitting_split(tk, -6)
    assert w6.w_plus > 0.9
    assert wm6.w_plus < 0.1
    assert w6.w_plus == pytest.approx(wm6.w_minus, abs=1e-12)


def test_hitting_split_monte_carlo_cross_check():
    # simulation oracle at the same horizon as the deterministic solver
    from yaglom.transforms import _ruin_w_plus
    from yaglom.montecarlo import empirical_hitting_split

    tk = h_transform(MKERNEL, mirror_hhat(MIRROR), MIRROR.R)
    M, n_paths = 64, 20_000
    want = _ruin_w_plus(tk, 2, M)
    got = empirical_hitting_split(tk, 2, M, n_paths, seed=31)
    se = (want * (1 - want) / n_paths) ** 0.5
    assert abs(got - want) < 3 * se


def test_hitting_split_rejects_nonstochastic():
    tk = h_transform(KERNEL, lambda x: np.ones_like(np.asarray(x, dtype=float)), PARAMS.R)
    with pytest.raises(ValueError):
        hitting_split(tk, 0)


def test_hitting_split_stops_at_the_cap():
    tk = h_transform(MKERNEL, mirror_hhat(MIRROR), MIRROR.R)
    # from x = 100 the horizon doubles 202, 404, ..., 3232, then stops at the cap
    assert hitting_split(tk, 100).horizon == 4096
    assert hitting_split(tk, 100, M_cap=1000).horizon == 1000


def test_hitting_split_rejects_a_first_horizon_past_the_cap():
    tk = h_transform(MKERNEL, mirror_hhat(MIRROR), MIRROR.R)
    with pytest.raises(ValueError, match="first horizon 128 exceeds M_cap=64"):
        hitting_split(tk, 0, M_start=128, M_cap=64)
    with pytest.raises(ValueError, match="first horizon 82 exceeds M_cap=64"):
        hitting_split(tk, 40, M_cap=64)
    assert hitting_split(tk, 0, M_start=64, M_cap=64).horizon == 64


@pytest.mark.parametrize("x", [-6, -2, 2, 6])
def test_hitting_split_converges_like_one_over_M_to_the_exact_split(x):
    tk = h_transform(MKERNEL, mirror_hhat(MIRROR), MIRROR.R)
    want = MIRROR.split(x)[1]
    for M in (1024, 4096, 16384):
        assert M * abs(hitting_split(tk, x, M_cap=M).w_plus - want) < 0.5


def test_estimate_hhat_identity_at_origin():
    est = estimate_hhat(lazify(KERNEL, 0.5), 0, (0,), 250)
    assert est.table[0] == 1.0
    assert est.converged[0]


def test_estimate_hhat_matches_closed_form():
    k = lazify(KERNEL, 0.5)
    sites = (-2, -1, 1, 2)
    est = estimate_hhat(k, 0, sites, 1500)
    for x in sites:
        want = float(PARAMS.hhat.value(x))
        assert est.converged[x]
        assert est.table[x] == pytest.approx(want, rel=2e-2)


def test_estimate_hhat_kesten_nonconvergent():
    k = build_kesten(default_kesten_schedule())
    est = estimate_hhat(k, 0, (-1, 1), 4096)
    assert not (est.converged[-1] or est.converged[1])


def test_estimate_hhat_kesten_does_not_underflow():
    """kesten's forward law keeps x0 inside it, so past n = 10850 the
    table stays finite, positive and within 1% of n = 8192's."""
    k = build_kesten(default_kesten_schedule())
    sites = (-3, -1, 1, 3)
    at_8192 = estimate_hhat(k, 0, sites, 8192).table
    at_12288 = estimate_hhat(k, 0, sites, 12288).table
    for x in sites:
        assert math.isfinite(at_12288[x]) and at_12288[x] > 0.0
        assert at_12288[x] == pytest.approx(at_8192[x], rel=1e-2)


def test_estimate_hhat_needs_both_rates_between_the_sites():
    """Detailed balance takes logs of the up and down rates between x0 and
    the tracked sites; a zero there is an error."""
    k = NNKernel((Region(None, -1, 0.3, 0.4, 0.3), Region(1, None, 0.0, 0.5, 0.3)),
                 ((0, 0.3, 0.3, 0.3),))
    assert estimate_hhat(k, 0, (-2, 1), 50).table[-2] > 0.0  # up is 0 from site 1 on
    with pytest.raises(ValueError, match="detailed balance"):
        estimate_hhat(k, 0, (-2, 2), 50)


def test_estimate_hhat_period_two_odd_sites_not_converged():
    """Period 2: K^n(x,0) is 0 at even n and 0/0 at odd n when x is odd, so
    the ratio has no level; an even site's ratio is defined every other step."""
    est = estimate_hhat(KERNEL, 0, (-1, 1, 2), 2000)
    assert not est.converged[-1] and not est.converged[1]
    assert est.spreads[-1] == est.spreads[1] == math.inf
    assert est.converged[2]


def test_estimate_hhat_far_site_not_converged_before_it_is_reached():
    # the forward run's law at site 1500 lies below the smallest normal
    # float whenever the site is in reach, so the run flushes it and every
    # ratio there is 0
    est = estimate_hhat(lazify(KERNEL, 0.5), 0, (1500,), 2000)
    assert not est.converged[1500]
    assert est.spreads[1500] == math.inf


def _strided_cauchy(series):
    """The spread over every window of _HHAT_WIDTH terms, read from a
    strided view of the last half, as the reference for the doubling."""
    half = series[len(series) // 2 :]
    half = half[np.isfinite(half)]
    if len(half) < _HHAT_WIDTH + 1 or not (half > 0.0).all():
        return math.inf, False
    level = float(np.median(half))
    windows = np.lib.stride_tricks.sliding_window_view(half, _HHAT_WIDTH)
    spread = float((windows.max(axis=1) - windows.min(axis=1)).max()) / level
    return spread, spread <= _HHAT_REL_TOL


def _cauchy_cases():
    rng = np.random.default_rng(20261019)
    for n in (50, 101, 102, 103, 150, 151, 777, 3000):
        yield 1.0 + rng.normal(0.0, 1e-4, n)  # converged
        yield 1.0 + rng.normal(0.0, 1e-2, n)  # not converged
        # a slow drift to its level, one spike, and ties between terms
        drift = 2.0 + np.exp(-np.arange(n) / 40.0) + np.round(rng.normal(0.0, 1e-4, n), 5)
        drift[rng.integers(n)] *= 1.5
        yield drift
    for n in rng.integers(50, 3001, 40):
        yield np.exp(rng.normal(0.0, rng.choice([1e-5, 1e-3, 1.0]), n))


@pytest.mark.parametrize("series", list(_cauchy_cases()), ids=len)
def test_window_cauchy_matches_strided_windows(series):
    """Seeded series of 50 to 3000 terms: the spread and the verdict are
    the strided view's, to the bit."""
    got = _window_cauchy(series)
    assert got == _strided_cauchy(series)
    assert math.isfinite(got[0]) == (len(series) - len(series) // 2 > _HHAT_WIDTH)


def test_window_cauchy_edge_cases():
    """Too few terms, a zero in the last half, and NaN terms dropped."""
    rng = np.random.default_rng(7)
    base = 1.0 + rng.normal(0.0, 1e-5, 400)
    cases = {"short": base[:100], "just-enough": base[:101]}  # 50 and 51 terms in the last half
    zero = base.copy()
    zero[300] = 0.0
    cases["zero"] = zero
    nans = base.copy()
    nans[200::3] = np.nan  # 200 - 67 = 133 finite terms left in the last half
    cases["nan"] = nans
    few = base.copy()
    few[200::2] = np.nan
    few[201:300:2] = np.nan  # 50 finite terms left
    cases["nan-short"] = few
    got = {name: _window_cauchy(series) for name, series in cases.items()}
    assert got == {name: _strided_cauchy(series) for name, series in cases.items()}
    assert got["short"] == got["zero"] == got["nan-short"] == (math.inf, False)
    assert got["just-enough"][1] and got["nan"][1]


def test_closed_form_hhat_values():
    t0, _ = quadratic_roots(PARAMS)
    assert PARAMS.hhat.value(0) == 1.0
    assert PARAMS.hhat.value(-2) == pytest.approx(t0 * t0, rel=1e-12)
    assert PARAMS.hhat.value(-2) == pytest.approx(1.45837, abs=1e-5)
    assert PARAMS.hhat.value(1) == pytest.approx(2.98105, abs=1e-5)
    # equals the dual of the +inf extremal pointwise
    h = DualHarmonic(extremal_plus(PARAMS))
    xs = np.arange(-40, 41)
    assert np.allclose(PARAMS.hhat.value(xs), h.value(xs), rtol=1e-12)


def test_mixture_limit_trivial_weights():
    plus = mirror_extremal(MIRROR, +1)
    minus = mirror_extremal(MIRROR, -1)
    mix = mixture_limit(BoundaryWeights(0.0, 1.0), minus, plus)
    xs = np.arange(-50, 51)
    assert np.allclose(mix.prob(xs), plus.prob(xs), rtol=1e-14)
    half = mixture_limit(BoundaryWeights(0.5, 0.5), minus, plus)
    assert np.allclose(
        half.prob(xs), 0.5 * (plus.prob(xs) + minus.prob(xs)), rtol=1e-14
    )
    with pytest.raises(ValueError):
        BoundaryWeights(0.3, 0.3)


@pytest.mark.parametrize("n,rel", [(1000, 1e-3), (2500, 1e-4), (4096, 1e-4), (8000, 1e-4)])
def test_estimate_hhat_extrapolates_to_h_plus(n, rel):
    """On lazified two_sided the table is the +inf extremal harmonic to
    2.0e-4 at n = 1000 and 3.1e-5 at n = 2500; the last raw ratio was
    off by 1.9e-2 and 7.7e-3."""
    est = estimate_hhat(lazify(KERNEL, 0.5), 0, (-3, -2, -1, 1, 2, 3), n)
    for x in (-3, -2, -1, 1, 2, 3):
        assert est.table[x] == pytest.approx(float(PARAMS.h_plus.value(x)), rel=rel)


def test_estimate_hhat_extrapolates_the_mirror_hhat():
    est = estimate_hhat(lazify(MKERNEL, 0.5), 0, (-3, -2, -1, 0, 1, 2, 3), 3000)
    for x in (-3, -2, -1, 0, 1, 2, 3):
        assert est.table[x] == pytest.approx(float(MIRROR.hhat.value(x)), rel=1e-4)


@pytest.mark.parametrize("kernel,family,n", [(KERNEL, PARAMS, 2000), (MKERNEL, MIRROR, 3000)],
                         ids=["two_sided", "symmetric"])
def test_estimate_hhat_extrapolates_period_two_series_over_their_finite_steps(kernel, family, n):
    """The raw chains have period 2: an even site's ratio is NaN at every
    odd step, and its extrapolants take the gaps of 2 between finite steps."""
    est = estimate_hhat(kernel, 0, (-2, 2), n)
    for x in (-2, 2):
        assert np.isnan(est.series[x][1::2]).all()
        assert est.table[x] == pytest.approx(float(family.hhat.value(x)), rel=1e-4)


@pytest.mark.parametrize("n", [2500, 4096])
def test_estimate_hhat_keeps_the_last_raw_ratio_where_extrapolants_do_not_settle(n):
    """kesten's ratios swing, so their extrapolants spread past
    _HHAT_REL_TOL; a site out of reach is 0 at every step it is defined."""
    est = estimate_hhat(build_kesten(default_kesten_schedule()), 0, (-3, -1, 1, 3, n + 1), n)
    for x, series in est.series.items():
        assert repr(est.table[x]) == repr(float(series[np.isfinite(series)][-1]))
    assert est.table[n + 1] == 0.0
