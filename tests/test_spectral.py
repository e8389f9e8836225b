import math

import mpmath
import numpy as np
import pytest
from scipy.special import zeta

from yaglom import (
    MirrorParams,
    NNKernel,
    TwoSidedParams,
    build_alpha_walk,
    build_symmetric,
    build_two_sided,
    closed_form_V,
    e0_r_zeta,
    estimate_rho,
    evolve_trace,
    extremal_minus,
    extremal_plus,
    green,
    k2n00_asymptotic,
    lazify,
    preset_kernel,
    quadratic_roots,
)
from yaglom.chain import Region
from yaglom.spectral import _GreenPole, _richardson, _tail_root

PARAMS = TwoSidedParams(0.25, 0.75, 0.9, 0.1)
MIRROR = MirrorParams(0.25, 0.125)


def random_params(rng):
    p = rng.uniform(0.05, 0.45)
    b = rng.uniform(0.01, 0.95 * p)
    return TwoSidedParams(p, 1 - p, 1 - b, b)


def test_params_validation():
    with pytest.raises(ValueError):
        TwoSidedParams(0.5, 0.5, 0.9, 0.1)  # p == q
    with pytest.raises(ValueError):
        TwoSidedParams(0.25, 0.75, 0.1, 0.9)  # b > a
    with pytest.raises(ValueError):
        TwoSidedParams(0.3, 0.7, 0.6, 0.4)  # pq <= ab


def test_two_sided_rho_closed_form():
    assert PARAMS.rho == pytest.approx(0.8660254037844387, abs=1e-12)
    assert TwoSidedParams(0.2, 0.8, 0.9, 0.1).rho == pytest.approx(0.8)


def test_quadratic_roots_values_and_identities():
    t0, t1 = quadratic_roots(PARAMS)
    assert t0 == pytest.approx(1.20763, abs=1e-5)
    assert t1 == pytest.approx(7.45262, abs=1e-5)
    assert t0 * t1 == pytest.approx(PARAMS.a / PARAMS.b, rel=1e-12)
    rho = PARAMS.rho
    for t in (t0, t1):
        assert PARAMS.a / t + PARAMS.b * t == pytest.approx(rho, abs=1e-12)
    mid = math.sqrt(PARAMS.p * PARAMS.q) / PARAMS.b
    assert (t0 + t1) / 2 == pytest.approx(mid, rel=1e-12)
    assert mid > 1.0


def test_root_identities_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(100):
        params = random_params(rng)
        t0, t1 = quadratic_roots(params)
        assert 1.0 < t0 <= t1
        assert t0 * t1 == pytest.approx(params.a / params.b, rel=1e-11)
        for t in (t0, t1):
            assert params.a / t + params.b * t == pytest.approx(params.rho, abs=1e-12)


def test_estimate_rho_constant_series():
    tr = evolve_trace(build_alpha_walk(0.9, 0.6, 0.4), 0, 300)
    est = estimate_rho(tr)
    assert est.rho_hat == pytest.approx(0.81, abs=1e-13)
    assert est.converged
    assert est.error_bound < 1e-12


def test_estimate_rho_lazified_walk():
    tr = evolve_trace(lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5), 0, 2000)
    est = estimate_rho(tr)
    assert est.converged
    assert est.rho_hat == pytest.approx(0.9330127018922193, abs=5e-4)


def test_lazify_shifts_rho_consistently():
    # rho_r = r + (1-r) rho: two lazification levels must agree on the
    # implied base spectral radius within their reported error bounds
    base = build_two_sided(0.25, 0.75, 0.9, 0.1)
    implied = {}
    for r in (0.25, 0.5):
        est = estimate_rho(evolve_trace(lazify(base, r), 0, 1500))
        assert est.converged
        implied[r] = ((est.rho_hat - r) / (1 - r), est.error_bound / (1 - r))
    (v1, e1), (v2, e2) = implied[0.25], implied[0.5]
    assert abs(v1 - v2) < 5 * (e1 + e2) + 5e-5
    assert v1 == pytest.approx(0.8660254, abs=5e-4)


def test_estimate_rho_flags_drift():
    # series drifting between two levels on growing scales never settles
    n = np.arange(1, 2001)
    series = 0.93 + 0.01 * np.sin(np.log(n))
    est = estimate_rho(series)
    assert not est.converged
    assert math.isinf(est.error_bound)


def test_estimate_rho_needs_history():
    with pytest.raises(ValueError):
        estimate_rho(np.full(100, 0.9))


# rho_hat and error_bound from a 2500-step run from 0, as float.hex,
# recorded before _richardson took the step indices
PINNED_RHO = {
    ("two_sided", None): ("0x1.0000000000000p+0", "inf"),
    ("two_sided", 0.5): ("0x1.ddb3617550800p-1", "0x1.49a1108000000p-17"),
    ("symmetric", None): ("0x1.0000000000000p+0", "inf"),
    ("symmetric", 0.5): ("0x1.ddb3617550000p-1", "0x1.49a1118000000p-17"),
    ("kesten", None): ("0x1.dc88e07569800p-1", "inf"),
    ("kesten", 0.5): ("0x1.edd705fad6800p-1", "inf"),
    ("alpha_walk", None): ("0x1.9eb851eb85000p-1", "0x1.8000000000000p-38"),
    ("alpha_walk", 0.5): ("0x1.cf5c28f5c3000p-1", "0x1.8000000000000p-38"),
}


@pytest.mark.parametrize("name,lazy", list(PINNED_RHO))
def test_estimate_rho_is_pinned(name, lazy):
    """On consecutive steps the extrapolants divide by 1.0, so they are
    k s_k - (k-1) s_{k-1} to the bit, and rho_hat does not move."""
    kernel = preset_kernel(name)
    if lazy:
        kernel = lazify(kernel, lazy)
    trace = evolve_trace(kernel, 0, 2500)
    s = trace.survival_factors
    k = np.arange(1.0, len(s) + 1.0)
    extrap = _richardson(s, k)
    assert extrap[0] == s[0]
    assert extrap[1:].tobytes() == (k[1:] * s[1:] - k[:-1] * s[:-1]).tobytes()
    est = estimate_rho(trace)
    assert (est.rho_hat.hex(), est.error_bound.hex()) == PINNED_RHO[name, lazy]


def test_closed_form_V_pin():
    assert closed_form_V(PARAMS) == pytest.approx(0.639445, abs=1e-6)


def taboo_first_return(kernel, x0, n):
    """P_x0(first return to x0 at step k, alive), k = 1..n, by a dense loop."""
    lo = x0 - n
    up, stay, down = kernel.rows(lo, x0 + n)
    v = np.zeros(2 * n + 1)
    v[x0 - lo] = 1.0
    f = np.empty(n)
    for k in range(n):
        w = v * stay
        w[1:] += v[:-1] * up[:-1]
        w[:-1] += v[1:] * down[1:]
        v = w
        f[k] = v[x0 - lo]
        v[x0 - lo] = 0.0
    return f


def test_F00_matches_taboo_series_with_tail():
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)
    N = 2000
    f = taboo_first_return(k, 0, N)
    ks = np.arange(1, N + 1)
    terms = PARAMS.R**ks * f
    partial = float(terms.sum())
    # terms decay like k^(-3/2); fit the constant on the last decade
    sel = ks >= int(0.9 * N)
    c = float(np.mean(terms[sel] * ks[sel] ** 1.5))
    tail = c * float(zeta(1.5, N + 1))
    assert partial + tail == pytest.approx(closed_form_V(PARAMS), abs=5e-3)


@pytest.mark.parametrize("family", ["two_sided", "mirror"])
def test_renewal_identity_on_green(family):
    """G_00(R) = 1/(1 - F_00(R)), with F_00(R) = V on two_sided and e/p on
    mirror.  The chain lazified by 1/4 has the base chain's potential at R
    as its potential at s = 1/(1/4 + 3/4 rho) times 1 - s/4."""
    if family == "two_sided":
        kernel, rho, F = build_two_sided(0.25, 0.75, 0.9, 0.1), PARAMS.rho, closed_form_V(PARAMS)
    else:
        kernel, rho, F = build_symmetric(0.25), MIRROR.rho, MIRROR.exit_prob / MIRROR.p
    s = 1.0 / (0.25 + 0.75 * rho)
    G00 = green(lazify(kernel, 0.25), 0, 0, s) * (1.0 - 0.25 * s)
    assert G00 == pytest.approx(1.0 / (1.0 - F), rel=1e-3)


def test_e0_r_zeta_closed_form():
    assert e0_r_zeta(PARAMS) == pytest.approx(2.081666, abs=1e-5)


def test_closed_form_V_and_e0_r_zeta_against_mpmath():
    # 50-digit reference from the same (float) rates
    rng = np.random.default_rng(2024)
    for _ in range(200):
        params = random_params(rng)
        with mpmath.workdps(50):
            p, q, a, b = (mpmath.mpf(v) for v in (params.p, params.q, params.a, params.b))
            V = mpmath.mpf(1) / 2 + (1 - mpmath.sqrt(1 - a * b / (p * q))) / 2
            e0 = (1 - p - b) / (2 * mpmath.sqrt(p * q)) / (1 - V)
            assert abs(closed_form_V(params) - V) <= 1e-14 * V
            assert abs(e0_r_zeta(params) - e0) <= 1e-14 * e0


def test_green_weight_must_be_finite_and_nonnegative():
    # at w = 0 only the n = 0 term is left; a NaN, an infinity or a negative
    # weight is refused before the solve, so it never reads as a pole
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)
    assert green(k, 3, 3, 0.0) == green(k, 3, "S", 0.0) == 1.0
    assert green(k, 3, 4, 0.0) == 0.0
    for w in (math.nan, math.inf, -math.inf, -0.5):
        for y in (0, "S"):
            with pytest.raises(ValueError, match="finite weight") as exc:
                green(k, 0, y, w)
            assert not isinstance(exc.value, _GreenPole)


def test_site_beyond_reach_is_zero_but_green_reaches_it():
    # K^n(0, y) = 0 for |y| > n: the window edge is no wrap-around, and G
    # still reaches every site
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    tr = evolve_trace(k, 0, 100, tracked=(-100, 100))
    for y in (-100, 100):
        assert tr.tracked_values[y][99] == 0.0 < tr.tracked_values[y][100]
    for y in (-101, 101):
        assert green(k, 0, y, 1.0) > 0.0


def test_green_E_R_zeta_identity():
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)
    est = 1.0 + (PARAMS.R - 1.0) * green(k, 0, "S", PARAMS.R)
    assert est == pytest.approx(e0_r_zeta(PARAMS), abs=1e-2)


def test_green_rejects_supercritical_weight():
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)
    with pytest.raises(ValueError):
        green(k, 0, "S", PARAMS.R * 1.05)


def test_green_survival_sum_raises_where_a_tail_ratio_rounds_below_1():
    # the escaping chain drifts away from its one kill site, so its survival
    # radius is 1; there the right tail ratio is 1 - 2^-52, not 1, and the
    # sum diverges.  Below the radius, and at a site, nothing moves
    k = NNKernel((Region(None, -1, 0.2, 0.2, 0.6), Region(0, 0, 0.3, 0.2, 0.3),
                  Region(1, None, 0.6, 0.2, 0.2)))
    assert _tail_root(1.0, 0.6, 0.2, 0.2) < 1.0
    with pytest.raises(ValueError, match="survival radius"):
        green(k, 0, "S", 1.0)
    assert green(k, 0, "S", 0.99) == 67.47805275020416
    assert green(k, 0, 0, 1.0) == 1.6666666666666665


def test_green_solve_matches_two_sided_closed_forms():
    """At w = R, the right tail's branch point, 1 + (R - 1) G_{0,S} is
    E_0 R^zeta and G_00 is 1/(1 - V)."""
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        params = random_params(rng)
        k = build_two_sided(params.p, params.q, params.a, params.b)
        e0 = 1.0 + (params.R - 1.0) * green(k, 0, "S", params.R)
        assert abs(e0 / e0_r_zeta(params) - 1.0) <= 1e-13, params
        G00 = green(k, 0, 0, params.R)
        assert abs(G00 * (1.0 - closed_form_V(params)) - 1.0) <= 1e-13, params


def test_green_solve_matches_mirror_return_transform():
    # at w = R both tails sit at their branch points, and F_00(R) = e/p
    rng = np.random.default_rng(20261020)
    for _ in range(200):
        p = rng.uniform(0.05, 0.45)
        e = rng.uniform(0.05, 0.95) * p
        G00 = green(build_symmetric(p, e), 0, 0, MirrorParams(p, e).R)
        assert abs(G00 * (1.0 - e / p) - 1.0) <= 1e-13, (p, e)


def forward_terms(kernel, x, y, N):
    """K^n(x, y), or K^n(x, S) for y = "S", for n = 0..N from one traced run."""
    tr = evolve_trace(kernel, x, N, tracked=() if y == "S" else (y,))
    mass = np.exp(np.concatenate([[0.0], tr.log_mass]))
    return mass if y == "S" else mass * tr.tracked_values[y]


@pytest.mark.parametrize("lazy", [None, 0.5])
@pytest.mark.parametrize("name", ["two_sided", "symmetric", "kesten", "alpha_walk"])
def test_green_solve_matches_converged_forward_sums(name, lazy):
    k = preset_kernel(name)
    if lazy is not None:
        k = lazify(k, lazy)
    for x, y in ((0, 0), (0, "S"), (3, -2), (-4, "S"), (20, 0)):
        terms = forward_terms(k, x, y, 3000)
        assert terms[-2:].max() < 1e-17 * terms.sum()
        assert green(k, x, y, 1.0) == pytest.approx(terms.sum(), rel=1e-12)


def test_green_solve_raises_past_an_r_positive_trap():
    """Sites 3..8 that stay put with probability 0.975 trap the chain: its
    radius 1.00547 lies inside the tails' branch point 1.07180, and just past
    it a Thomas pivot turns negative although both tails still converge."""
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    trap = NNKernel(k.regions, k.overrides + tuple((s, 0.01, 0.975, 0.01) for s in range(3, 9)))
    R = 1.0 / estimate_rho(evolve_trace(trap, 0, 4000)).rho_hat
    assert R == pytest.approx(1.00547, abs=1e-5)
    assert 1.0 / (0.5 + 0.5 * PARAMS.rho) == pytest.approx(1.07180, abs=1e-5)
    for y in (0, "S"):
        assert math.isfinite(green(trap, 0, y, R * (1.0 - 1e-4)))
        with pytest.raises(ValueError, match="pivot"):
            green(trap, 0, y, R * (1.0 + 1e-4))
        assert math.isfinite(green(k, 0, y, R * (1.0 + 1e-4)))


def test_green_solve_rejects_a_bad_target():
    with pytest.raises(ValueError):
        green(build_two_sided(0.25, 0.75, 0.9, 0.1), 0, "T", 1.0)


def test_green_onekill_identity_finite_N():
    # kappa G^N_{z,0} = (1-rho) G^N_{z,S} + rho (1 - R^{N+1} K^{N+1}(z,S)),
    # exactly, for killing confined to 0
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)
    z, N = 3, 300
    R, rho, kappa = PARAMS.R, PARAMS.rho, PARAMS.kappa
    lo, hi = z - (N + 1), z + (N + 1)
    up, stay, down = k.rows(lo, hi)
    v = np.zeros(hi - lo + 1)
    v[z - lo] = 1.0
    logm = 0.0
    g_s = 1.0
    g_0 = 1.0 if z == 0 else 0.0
    for n in range(1, N + 2):
        w = v * stay
        w[1:] += v[:-1] * up[:-1]
        w[:-1] += v[1:] * down[1:]
        s = float(w.sum())
        v = w / s
        logm += math.log(s)
        if n <= N:
            g_s += math.exp(logm + n * math.log(R))
            g_0 += math.exp(logm + n * math.log(R)) * v[0 - lo]
    surv_term = math.exp(logm + (N + 1) * math.log(R))  # R^{N+1} K^{N+1}(z,S)
    lhs = kappa * g_0
    rhs = (1 - rho) * g_s + rho * (1.0 - surv_term)
    assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("z", [40, -40])
def test_green_ratios_recover_entrance_extremals(z):
    """The rho-Martin entrance kernel G(z,y)/G(z,0) at w = R tends to the
    extremal of the end z runs off to: mu_+inf as z -> +inf, mu_-inf as
    z -> -inf."""
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)
    extremal = extremal_plus(PARAMS) if z > 0 else extremal_minus(PARAMS)
    g0 = green(k, z, 0, PARAMS.R)
    for y in range(-3, 4):
        ratio = green(k, z, y, PARAMS.R) / g0
        assert ratio == pytest.approx(extremal.value(y) / extremal.value(0), rel=5e-2)


def test_k2n00_asymptotic_pin():
    expected = (0.1875 / 0.0975) * 0.75**10 / (math.sqrt(math.pi) * 10**1.5)
    assert k2n00_asymptotic(PARAMS, 10) == pytest.approx(expected, rel=1e-14)
    # log-linear in n with slope log(4pq)
    lg = [math.log(k2n00_asymptotic(PARAMS, n)) for n in (50, 51, 52)]
    slope = lg[1] - lg[0]
    assert slope == pytest.approx(math.log(0.75) - 1.5 * math.log(51 / 50), abs=1e-12)
    assert lg[2] - lg[1] == pytest.approx(
        math.log(0.75) - 1.5 * math.log(52 / 51), abs=1e-12
    )


def test_alpha_walk_root_separation():
    # survival-factor limit alpha^2 vs pointwise ratio alpha^2 * 4ab
    alpha, a, b = 0.9, 0.6, 0.4
    tr = evolve_trace(build_alpha_walk(alpha, a, b), 0, 800, tracked=(0,))
    est = estimate_rho(tr)
    assert est.rho_hat == pytest.approx(alpha**2, abs=1e-13)
    ratio_tail = tr.tracked_ratios[0][-200:]
    pointwise = float(np.median(ratio_tail))
    assert pointwise == pytest.approx(alpha**2 * 4 * a * b, abs=2e-3)
    assert pointwise / est.rho_hat == pytest.approx(4 * a * b, abs=3e-3)


def test_alpha_walk_binomial_identity():
    alpha, a, b = 0.9, 0.6, 0.4
    tr = evolve_trace(build_alpha_walk(alpha, a, b), 0, 100, tracked=(0,))
    vals = tr.tracked_values[0]
    logm = np.concatenate([[0.0], np.cumsum(np.log(tr.survival_factors))])
    for n in (1, 10, 50, 100):
        got = math.exp(logm[n]) * vals[n]
        expected = alpha ** (2 * n) * math.comb(2 * n, n) * a**n * b**n
        assert got == pytest.approx(expected, rel=1e-10)
