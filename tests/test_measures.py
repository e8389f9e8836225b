import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yaglom import (
    Window,
    build_symmetric,
    build_two_sided,
    green,
    h_transform,
    invariance_residual,
    lazify,
    prob_values,
)
from yaglom.measures import (
    DualHarmonic,
    MirrorHarmonic,
    MirrorParams,
    Mixture,
    TwoSidedParams,
    c_max,
    extremal_minus,
    extremal_plus,
    family_measure,
    mirror_extremal,
    mirror_hhat,
    quadratic_roots,
    reversibility_gamma,
)

PARAMS = TwoSidedParams(0.25, 0.75, 0.9, 0.1)
KERNEL = build_two_sided(0.25, 0.75, 0.9, 0.1)


def random_params(rng):
    p = rng.uniform(0.05, 0.45)
    b = rng.uniform(0.01, 0.95 * p)
    return TwoSidedParams(p, 1 - p, 1 - b, b)


def test_family_d0_at_zero_slope():
    rng = np.random.default_rng(11)
    for _ in range(100):
        params = random_params(rng)
        assert family_measure(params, 0.0).d0 == pytest.approx(0.5, abs=1e-12)


def test_family_extremes_and_range():
    c1 = c_max(PARAMS)
    assert c1 == pytest.approx(0.7211103, abs=1e-7)
    assert family_measure(PARAMS, c1).d0 == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        family_measure(PARAMS, c1 + 0.01)
    with pytest.raises(ValueError):
        family_measure(PARAMS, -0.05)


def test_d0_affine_decreasing_in_c():
    c1 = c_max(PARAMS)
    cs = np.linspace(0.0, c1, 9)
    d0s = [family_measure(PARAMS, float(c)).d0 for c in cs]
    diffs = np.diff(d0s)
    assert (diffs < 0).all()
    assert np.allclose(diffs, diffs[0], atol=1e-12)  # affine


def test_extremal_values():
    t0, t1 = quadratic_roots(PARAMS)
    mp = extremal_plus(PARAMS)
    assert mp.value(-1) == pytest.approx(1.0 / t1, rel=1e-12)
    assert mp.value(-1) == pytest.approx(0.134181, abs=1e-6)
    assert mp.value(1) == pytest.approx((1 + c_max(PARAMS)) * math.sqrt(1 / 3), rel=1e-12)
    assert mp.value(1) == pytest.approx(0.9936835, abs=1e-6)
    assert extremal_minus(PARAMS).d0 == pytest.approx(0.5, abs=1e-12)


def test_normalizer_closed_form_and_direct_sum():
    mp = extremal_plus(PARAMS)
    T = mp.T
    assert 1.0 / T == pytest.approx(0.20611, abs=1e-5)
    direct = float(mp.value(np.arange(-400, 401)).sum())
    assert T == pytest.approx(direct, abs=1e-10)


def test_cross_identity_T_vs_onekill():
    # pi_plus(0) = 1/T(c1) = (1 - rho)/kappa
    T = extremal_plus(PARAMS).T
    assert 1.0 / T == pytest.approx((1 - PARAMS.rho) / PARAMS.kappa, abs=1e-10)


def test_invariance_residual_family_grid():
    c1 = c_max(PARAMS)
    for c in np.linspace(0.0, c1, 20):
        m = family_measure(PARAMS, float(c))
        assert invariance_residual(KERNEL, m, PARAMS.rho, Window(-60, 60)) < 1e-12
        assert (m.value(np.arange(-200, 201)) > 0).all()


def test_invariance_residual_detects_perturbation():
    m = extremal_plus(PARAMS)

    def perturbed(x):
        vals = np.asarray(m.value(x), dtype=float)
        return np.where(np.asarray(x) == 5, 1.01 * vals, vals)

    res = invariance_residual(KERNEL, perturbed, PARAMS.rho, Window(4, 6))
    assert res >= 0.005


def test_invariance_survives_lazification():
    m = extremal_plus(PARAMS)
    rho_r = 0.5 + 0.5 * PARAMS.rho
    k_r = lazify(KERNEL, 0.5)
    assert invariance_residual(k_r, m, rho_r, Window(-60, 60)) < 1e-12


def test_gamma_values_and_detailed_balance():
    gamma = reversibility_gamma(PARAMS)
    assert gamma.value(1) == pytest.approx(1 / 3, rel=1e-15)
    assert gamma.value(-1) == pytest.approx(1 / 9, rel=1e-15)
    for x in range(-50, 50):
        gx = float(gamma.value(x))
        gx1 = float(gamma.value(x + 1))
        up = KERNEL.row(x)[0]
        down = KERNEL.row(x + 1)[2]
        assert abs(gx * up - gx1 * down) < 1e-15


def test_dual_harmonic_values_and_residual():
    t0, _ = quadratic_roots(PARAMS)
    h = DualHarmonic(extremal_plus(PARAMS))
    assert h.value(-1) == pytest.approx(t0, rel=1e-12)
    assert h.value(2) == pytest.approx(7.3267, abs=1e-4)
    assert h_transform(KERNEL, h, PARAMS.R).stochastic_residual(Window(-60, 60)) < 1e-12
    h_minus = DualHarmonic(extremal_minus(PARAMS))
    assert h_transform(KERNEL, h_minus, PARAMS.R).stochastic_residual(Window(-60, 60)) < 1e-12
    # the family members: hhat and the +inf extremal harmonic are this h
    xs = np.arange(-30, 31)
    assert np.array_equal(PARAMS.hhat.value(xs), h.value(xs))
    assert np.array_equal(PARAMS.h_plus.value(xs), h.value(xs))


def test_dual_harmonic_is_mu_over_gamma():
    gamma = reversibility_gamma(PARAMS)
    for m in (extremal_plus(PARAMS), extremal_minus(PARAMS), family_measure(PARAMS, 0.3)):
        h = DualHarmonic(m)
        xs = np.arange(-30, 31)
        assert np.allclose(h.value(xs), m.value(xs) / gamma.value(xs), rtol=1e-11)


def test_extremal_harmonics_ratio_vanishes():
    h_plus = DualHarmonic(extremal_plus(PARAMS))
    h_minus = DualHarmonic(extremal_minus(PARAMS))
    ys = np.arange(1, 61)
    # toward +inf the ratio decays like 1/(1 + c1 y): monotone, slow
    ratio = h_minus.value(ys) / h_plus.value(ys)
    assert (np.diff(ratio) < 0).all()
    assert ratio[-1] == pytest.approx(1.0 / (1.0 + c_max(PARAMS) * 60), rel=1e-10)
    assert ratio[-1] < 0.05
    # toward -inf the roles swap and the decay is geometric in t0/t1
    ratio_rev = h_plus.value(-ys) / h_minus.value(-ys)
    assert (np.diff(ratio_rev) < 0).all()
    assert ratio_rev[-1] < 1e-6


def test_stochastic_order_of_extremals():
    window = Window(-120, 120)
    pp = prob_values(extremal_plus(PARAMS), window)
    pm = prob_values(extremal_minus(PARAMS), window)
    upper_p = np.cumsum(pp[::-1])[::-1]
    upper_m = np.cumsum(pm[::-1])[::-1]
    sites = window.sites()
    sel = (sites >= -100) & (sites <= 100)
    assert (upper_p[sel] - upper_m[sel] >= -1e-15).all()


# ---------------------------------------------------------------------------
# mirror chain
# ---------------------------------------------------------------------------

MIRROR = MirrorParams(0.25, 0.125)
MKERNEL = build_symmetric(0.25)


# ---------------------------------------------------------------------------
# the shared closed-form protocol
# ---------------------------------------------------------------------------

CLOSED_FORMS = {
    "family_c0": lambda: family_measure(PARAMS, 0.0),
    "family_half_c1": lambda: family_measure(PARAMS, 0.5 * c_max(PARAMS)),
    "family_c1": lambda: family_measure(PARAMS, c_max(PARAMS)),
    "gamma": lambda: reversibility_gamma(PARAMS),
    "dual_plus": lambda: DualHarmonic(extremal_plus(PARAMS)),
    "dual_minus": lambda: DualHarmonic(extremal_minus(PARAMS)),
    "mirror_plus": lambda: mirror_extremal(MIRROR, +1),
    "mirror_minus": lambda: mirror_extremal(MIRROR, -1),
    "mirror_h_minus": lambda: MirrorHarmonic(MIRROR, -1),
    "mirror_h_hat": lambda: MirrorHarmonic(MIRROR, 0),
    "mirror_h_plus": lambda: MirrorHarmonic(MIRROR, +1),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_protocol(name):
    f = CLOSED_FORMS[name]()
    assert f.value(0) == 1.0
    xs = np.arange(-200, 201)
    assert np.max(np.abs(f.log_value(xs) - np.log(f.value(xs)))) <= 1e-13
    if name.startswith(("dual", "mirror_h")):
        with pytest.raises(ValueError):
            f.T  # harmonic functions grow: no finite mass
    else:
        direct = float(f.value(np.arange(-3000, 3001)).sum())
        assert f.T == pytest.approx(direct, rel=1e-12)


def test_invariance_residuals_at_rounding_level():
    # value raises fixed bases to the site, so neighbour ratios are exact
    # to rounding; exp(log_value) would leave residuals near 1e-14
    for c in np.linspace(0.0, c_max(PARAMS), 11):
        m = family_measure(PARAMS, float(c))
        assert invariance_residual(KERNEL, m, PARAMS.rho, Window(-60, 60)) <= 2e-15
    for side in (+1, -1):
        m = mirror_extremal(MIRROR, side)
        assert invariance_residual(MKERNEL, m, MIRROR.rho, Window(-60, 60)) <= 2e-15


def test_mirror_params_guard():
    with pytest.raises(ValueError):
        MirrorParams(0.25, 0.25)  # boundary case: null R-recurrent
    with pytest.raises(ValueError):
        MirrorParams(0.25, 0.3)
    with pytest.raises(ValueError):
        MirrorParams(0.6, 0.1)


def test_mirror_params_reject_overflowing_slope():
    # p/exit_prob overflows: slope_h would be inf and split(x) nan
    with pytest.raises(ValueError, match="overflows"):
        MirrorParams(0.25, 5e-324)
    # a finite slope whose product with a far site overflows still splits
    tiny = MirrorParams(0.25, 1e-308)
    assert tiny.split(4) == (1e-300, 1.0) and tiny.split(-10**9) == (1.0, 1e-300)


def test_mirror_cross_identity():
    m = mirror_extremal(MIRROR, +1)
    assert 1.0 / m.T == pytest.approx((1 - MIRROR.rho) / MIRROR.kappa, abs=1e-12)
    assert mirror_extremal(MIRROR, -1).T == pytest.approx(m.T, rel=1e-14)


def test_mirror_extremals_invariant():
    for side in (+1, -1):
        m = mirror_extremal(MIRROR, side)
        assert invariance_residual(MKERNEL, m, MIRROR.rho, Window(-50, 50)) < 1e-12


def test_mirror_extremals_are_mirror_images():
    plus = mirror_extremal(MIRROR, +1)
    minus = mirror_extremal(MIRROR, -1)
    xs = np.arange(-40, 41)
    assert np.allclose(plus.value(xs), minus.value(-xs), rtol=1e-14)


def test_mirror_hhat_harmonic_and_symmetric():
    hh = mirror_hhat(MIRROR)
    assert h_transform(MKERNEL, hh, MIRROR.R).stochastic_residual(Window(-50, 50)) < 1e-12
    xs = np.arange(-20, 21)
    assert np.allclose(hh.value(xs), hh.value(-xs), rtol=1e-15)
    # hhat is the average of the two extremal harmonics
    h_p = MirrorHarmonic(MIRROR, +1)
    h_m = MirrorHarmonic(MIRROR, -1)
    assert np.allclose(hh.value(xs), 0.5 * (h_p.value(xs) + h_m.value(xs)), rtol=1e-14)
    for side in (+1, -1):
        h = MirrorHarmonic(MIRROR, side)
        assert h_transform(MKERNEL, h, MIRROR.R).stochastic_residual(Window(-50, 50)) < 1e-12
    # the family members: hhat and the +inf extremal harmonic
    assert np.array_equal(MIRROR.hhat.value(xs), hh.value(xs))
    assert np.array_equal(MIRROR.h_plus.value(xs), h_p.value(xs))
    for member in (MIRROR.hhat, MIRROR.h_plus):
        assert h_transform(MKERNEL, member, MIRROR.R).stochastic_residual(Window(-50, 50)) < 1e-12


def test_mirror_extremals_match_entrance_kernel():
    # independent numerical route: the entrance kernel G(z,y)/G(z,0) at
    # w = R from far out on either side converges to that side's extremal
    for z, side in ((40, +1), (-40, -1)):
        extremal = mirror_extremal(MIRROR, side)
        g0 = green(MKERNEL, z, 0, MIRROR.R)
        for y in range(-3, 4):
            ratio = green(MKERNEL, z, y, MIRROR.R) / g0
            assert ratio == pytest.approx(extremal.value(y) / extremal.value(0), rel=5e-2)


def test_mirror_duality_h_times_gamma():
    # gamma h_plus recovers the +inf extremal measure, with gamma computed
    # from the kernel's rates by detailed balance: gamma(x+1)/gamma(x) = p_x/q_{x+1}
    lo, hi = -30, 30
    up, _, down = MKERNEL.rows(lo, hi)
    lgamma = np.concatenate([[0.0], np.cumsum(np.log(up[:-1]) - np.log(down[1:]))])
    lgamma -= lgamma[-lo]  # gamma(0) = 1
    h_p = MirrorHarmonic(MIRROR, +1)
    got = np.exp(lgamma) * h_p.value(np.arange(lo, hi + 1))
    want = mirror_extremal(MIRROR, +1).value(np.arange(lo, hi + 1))
    assert np.allclose(got, want, rtol=1e-11)


def test_mirror_split_is_half_h_over_hhat():
    # w_+-(x) = c_+- h_+-(x) / hhat(x) with c_+- = 1/2
    h_minus = MirrorHarmonic(MIRROR, -1)
    for x in range(-20, 21):
        w_minus, w_plus = MIRROR.split(x)
        assert w_plus == pytest.approx(0.5 * MIRROR.h_plus.value(x) / MIRROR.hhat.value(x), rel=1e-14)
        assert w_minus == pytest.approx(0.5 * h_minus.value(x) / MIRROR.hhat.value(x), rel=1e-14)
    assert MIRROR.split(2)[1] == pytest.approx(5 / 6, abs=1e-12)
    assert MIRROR.split(-6)[1] == pytest.approx(1 / 14, abs=1e-12)
    assert MIRROR.split(0) == (0.5, 0.5)
    # far out, where hhat.value overflows and a log_value difference rounds above 1
    for x in (-10**9, 10**9):
        w_minus, w_plus = MIRROR.split(x)
        assert 0.0 <= w_minus <= 1.0 and 0.0 <= w_plus <= 1.0
        assert w_minus + w_plus == pytest.approx(1.0, abs=1e-15)
    assert MIRROR.split(10**9)[0] == pytest.approx(1 / (2 + 2e9), rel=1e-15)


def test_family_limits():
    # the two-sided walk's limit is the +inf extremal from every start
    for x in (-10, 0, 10):
        assert PARAMS.split(x) == (0.0, 1.0)
        assert PARAMS.limit(x) == extremal_plus(PARAMS)
    mix = MIRROR.limit(2)
    assert (mix.w_minus, mix.w_plus) == MIRROR.split(2)
    assert mix.pi_minus == mirror_extremal(MIRROR, -1)
    assert mix.pi_plus == mirror_extremal(MIRROR, +1)


@settings(max_examples=40, deadline=None)
@given(w=st.floats(0.0, 1.0))
def test_mixture_is_probability(w):
    plus = mirror_extremal(MIRROR, +1)
    minus = mirror_extremal(MIRROR, -1)
    mix = Mixture(1.0 - w, w, minus, plus)
    window = Window(-200, 200)
    vals = np.asarray(mix.prob(window.sites()))
    assert (vals >= 0).all()
    assert float(vals.sum()) == pytest.approx(1.0, abs=1e-6)
