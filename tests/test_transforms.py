import math

import numpy as np
import pytest

from yaglom import (
    MirrorParams,
    TwoSidedParams,
    Window,
    build_kesten,
    build_symmetric,
    build_two_sided,
    closed_form_hhat,
    dual_harmonic,
    estimate_hhat,
    extremal_minus,
    extremal_plus,
    h_transform,
    hitting_split,
    lazify,
    mirror_extremal,
    mirror_hhat,
    mixture_limit,
    quadratic_roots,
    time_reversal,
)
from yaglom.scenarios import default_kesten_schedule
from yaglom.transforms import BoundaryWeights

PARAMS = TwoSidedParams(0.25, 0.75, 0.9, 0.1)
KERNEL = build_two_sided(0.25, 0.75, 0.9, 0.1)
MIRROR = MirrorParams(0.25, 0.125)
MKERNEL = build_symmetric(0.25)


def test_h_transform_stochastic_for_harmonic_h():
    tk = h_transform(KERNEL, dual_harmonic(extremal_plus(PARAMS)), PARAMS.R)
    assert tk.stochastic_residual(Window(-60, 60)) < 1e-12
    up, _, down = tk.rows(40, 60)
    assert (up - down > 0).all()  # drifts to +inf far to the right


def test_h_transform_flags_nonharmonic_h():
    tk = h_transform(KERNEL, lambda x: np.ones_like(np.asarray(x, dtype=float)), PARAMS.R)
    # at non-killing sites rows sum to R > 1
    assert tk.stochastic_residual(Window(5, 10)) == pytest.approx(PARAMS.R - 1, rel=1e-12)


def test_h_minus_transform_drifts_left():
    tk = h_transform(KERNEL, dual_harmonic(extremal_minus(PARAMS)), PARAMS.R)
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
    tk = h_transform(KERNEL, dual_harmonic(extremal_plus(PARAMS)), PARAMS.R)
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
        want = float(closed_form_hhat(PARAMS, x))
        assert est.converged[x]
        assert est.table[x] == pytest.approx(want, rel=2e-2)


def test_estimate_hhat_kesten_nonconvergent():
    k = build_kesten(default_kesten_schedule())
    est = estimate_hhat(k, 0, (-1, 1), 4096)
    assert not (est.converged[-1] or est.converged[1])


def test_estimate_hhat_period_two_odd_sites_not_converged():
    """Period 2: K^n(x,0) is 0 at even n and 0/0 at odd n when x is odd, so
    the ratio has no level; an even site's ratio is defined every other step."""
    est = estimate_hhat(KERNEL, 0, (-1, 1, 2), 2000)
    assert not est.converged[-1] and not est.converged[1]
    assert est.spreads[-1] == est.spreads[1] == math.inf
    assert est.converged[2]


def test_estimate_hhat_far_site_not_converged_before_it_is_reached():
    # the run reaches site 1500 at step 1500 and flushes its entry below the
    # smallest normal float until step 1939: 939 of the last half's ratios are 0
    est = estimate_hhat(lazify(KERNEL, 0.5), 0, (1500,), 2000)
    assert not est.converged[1500]
    assert est.spreads[1500] == math.inf


def test_closed_form_hhat_values():
    t0, _ = quadratic_roots(PARAMS)
    assert closed_form_hhat(PARAMS, 0) == 1.0
    assert closed_form_hhat(PARAMS, -2) == pytest.approx(t0 * t0, rel=1e-12)
    assert closed_form_hhat(PARAMS, -2) == pytest.approx(1.45837, abs=1e-5)
    assert closed_form_hhat(PARAMS, 1) == pytest.approx(2.98105, abs=1e-5)
    # equals the dual of the +inf extremal pointwise
    h = dual_harmonic(extremal_plus(PARAMS))
    xs = np.arange(-40, 41)
    assert np.allclose(closed_form_hhat(PARAMS, xs), h.value(xs), rtol=1e-12)


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
