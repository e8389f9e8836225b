import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from yaglom import (
    MirrorParams,
    TwoSidedParams,
    build_symmetric,
    build_two_sided,
    dual_harmonic,
    e0_r_zeta,
    evolve_trace,
    extremal_plus,
    extremal_minus,
    h_transform,
    lazify,
    mirror_hhat,
    normalizer_T,
    simulate_absorbed,
    simulate_transformed,
    time_reversal,
    transformed_finals,
)
from yaglom.chain import NNKernel, Region
from yaglom.montecarlo import (
    _move,
    _renormalised,
    _thresholds,
    absorption_times,
    empirical_hitting_split,
    orey_trace,
    r_zeta_conditional,
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


def test_one_step_frequencies_chi_square():
    # conditioned-chain sampler against its kernel row, 1e5 draws
    rho_lazy = 0.5 + 0.5 * MIRROR.rho
    tk = h_transform(
        lazify(build_symmetric(0.25), 0.5), mirror_hhat(MIRROR), 1.0 / rho_lazy
    )
    n = 100_000
    finals = transformed_finals(tk, 3, 1, n, seed=42)
    up, stay, down = tk.row(3)
    counts = [int((finals == 4).sum()), int((finals == 3).sum()), int((finals == 2).sum())]
    expected = [n * up, n * stay, n * down]
    chi2, pvalue = stats.chisquare(counts, f_exp=np.array(expected) * (n / sum(expected)))
    assert pvalue > 1e-3


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


def test_r_zeta_conditional_reproducible_and_finite():
    a = r_zeta_conditional(KERNEL, 0, 2000, seed=9, R=PARAMS.R)
    b = r_zeta_conditional(KERNEL, 0, 2000, seed=9, R=PARAMS.R)
    assert np.array_equal(a, b)
    assert np.isfinite(a).all()
    assert a.min() > 0
    # integrating the clock out cannot fall below the one-step death term
    assert a.min() >= PARAMS.kappa * PARAMS.R - 1e-12


def test_r_zeta_conditional_reads_its_one_kill_site():
    # killing only at 3, with drift toward it: at R = 1 every path's
    # integrated clock sums to 1, up to the dropped tail
    k = NNKernel(
        (Region(None, 2, 0.6, 0.1, 0.3), Region(3, None, 0.3, 0.1, 0.6)),
        overrides=((3, 0.3, 0.2, 0.4),),
    )
    assert r_zeta_conditional(k, 0, 50, seed=2, R=1.0) == pytest.approx(np.ones(50), abs=1e-10)
    two = NNKernel(
        (Region(None, None, 0.4, 0.2, 0.4),), overrides=((0, 0.3, 0.2, 0.4), (4, 0.3, 0.2, 0.4))
    )
    with pytest.raises(ValueError, match="exactly one kill site, got 2"):
        r_zeta_conditional(two, 0, 10, seed=1, R=1.0)
    everywhere = NNKernel((Region(None, None, 0.4, 0.1, 0.4),))
    with pytest.raises(ValueError, match="exactly one kill site, got unbounded"):
        r_zeta_conditional(everywhere, 0, 10, seed=1, R=1.0)


def test_samplers_pinned_to_recorded_draws():
    # recorded outputs, one small input per sampler: a rewrite of the
    # samplers must keep every seed's draws
    lazy = lazify(KERNEL, 0.5)
    sym = h_transform(build_symmetric(0.25), mirror_hhat(MIRROR), MIRROR.R)
    mplus = extremal_plus(PARAMS)
    rk = time_reversal(lazy, mplus, 0.5 + 0.5 * PARAMS.rho)

    class Prob:
        def prob(self, x):
            return mplus.value(x) / normalizer_T(mplus)

    assert absorption_times(lazy, 0, 12, seed=5).tolist() == [1, 1, 4, 2, 3, 2, 21, 4, 3, 1, 9, 3]
    s = simulate_absorbed(lazy, 3, 40, seed=8)
    assert s.absorbed_at is None
    assert s.path.tolist() == [
        3, 3, 2, 2, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, -1,
        -1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 0, 1,
    ]
    s = simulate_absorbed(KERNEL, 2, 40, seed=10)
    assert (s.path.tolist(), s.absorbed_at) == ([2, 1, 2, 1, 2, 1, 2, 1, 0], 9)
    got = r_zeta_conditional(KERNEL, 0, 6, seed=9, R=PARAMS.R)
    want = [1.4073413242721051, 1.4315170569598041, 1.6280534917393146,
            1.431517644404419, 1.416413484506826, 1.6086494770149808]
    assert got.tolist() == pytest.approx(want, rel=1e-14)
    s = simulate_transformed(sym, 0, 30, seed=17)
    assert s.absorbed_at is None
    assert s.path.tolist() == [
        0, -1, 0, -1, -2, -1, -2, -3, -4, -5, -4, -3, -4, -3, -4, -5,
        -4, -5, -6, -5, -4, -3, -4, -5, -6, -7, -8, -7, -6, -5, -6,
    ]
    assert transformed_finals(sym, 0, 50, 10, seed=13).tolist() == [
        -10, 6, -10, 20, -6, -12, -12, 12, -14, -12,
    ]
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


def test_samplers_pinned_at_benchmark_scale():
    # recorded before the samplers moved to 1-D threshold gathers: the
    # hitting split at the monte_carlo workload's size, a hash of 200 000
    # exit times, and 4000 conditioned-chain finals
    sym = h_transform(build_symmetric(0.25), mirror_hhat(MIRROR), MIRROR.R)
    for x, seed, plus in ((-5, 1201, 1444), (0, 1202, 9955), (3, 1203, 17856)):
        assert empirical_hitting_split(sym, x, 32, 20_000, seed) == plus / 20_000
    zeta = absorption_times(KERNEL, 0, 200_000, seed=1204)
    assert zeta.dtype == np.int64
    assert (int(zeta.sum()), int(zeta.max())) == (500062, 57)
    assert hashlib.sha256(zeta.tobytes()).hexdigest() == (
        "aaa90e50059ebdda5f482fffd33833b957f22215e23b302972eadb4abb9ed926"
    )
    finals = transformed_finals(sym, 0, 400, 4000, seed=1205)
    assert finals.dtype == np.int64
    assert (int(finals.sum()), int(np.abs(finals).sum())) == (-2162, 122782)
    assert hashlib.sha256(finals.tobytes()).hexdigest() == (
        "f48db71ba6cdfd0c270fb266033980d851cb1e9a635a30220d63fa858b3e2aa4"
    )


def test_hitting_split_needs_a_path():
    sym = h_transform(build_symmetric(0.25), mirror_hhat(MIRROR), MIRROR.R)
    with pytest.raises(ValueError, match="n_paths >= 1"):
        empirical_hitting_split(sym, 0, 8, 0, seed=1)


def test_transformed_single_step_matches_row():
    tk = h_transform(KERNEL, dual_harmonic(extremal_plus(PARAMS)), PARAMS.R)
    n = 100_000
    finals = transformed_finals(tk, 2, 1, n, seed=21)
    up, stay, down = tk.row(2)
    for target, prob in ((3, up), (2, stay), (1, down)):
        got = float((finals == target).mean())
        se = math.sqrt(prob * (1 - prob) / n)
        assert abs(got - prob) <= 3 * se + 1e-12


def test_transformed_two_sided_escapes_upward():
    tk = h_transform(KERNEL, dual_harmonic(extremal_plus(PARAMS)), PARAMS.R)
    finals = transformed_finals(tk, 0, 2000, 2000, seed=8)
    # conditioned chain is transient to +inf; by n=2000 essentially all
    # paths sit at positive sites (Bessel-like repulsion from the origin)
    assert float((finals > 0).mean()) > 0.99
    assert float(np.median(finals)) > 25


def test_transformed_symmetric_splits_evenly():
    tk = h_transform(build_symmetric(0.25), mirror_hhat(MIRROR), MIRROR.R)
    n = 4000
    finals = transformed_finals(tk, 0, 400, n, seed=13)
    frac = float((finals > 0).mean())
    se = math.sqrt(0.25 / n)
    assert abs(frac - 0.5) < 3 * se


def test_simulate_transformed_never_absorbed():
    tk = h_transform(KERNEL, dual_harmonic(extremal_plus(PARAMS)), PARAMS.R)
    s = simulate_transformed(tk, 0, 500, seed=17)
    assert s.absorbed_at is None
    assert len(s.path) == 501


def test_samplers_reject_non_stochastic_kernels():
    # h = 1 is not harmonic, and theta = 1 is not the measure's eigenvalue
    tk = h_transform(KERNEL, lambda x: np.ones_like(np.asarray(x, dtype=float)), PARAMS.R)
    with pytest.raises(ValueError, match="not stochastic"):
        simulate_transformed(tk, 0, 50, seed=1)
    with pytest.raises(ValueError, match="not stochastic"):
        transformed_finals(tk, 0, 50, 10, seed=1)
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
            return mplus.value(x) / normalizer_T(mplus)

    tr = orey_trace(rk, k, Prob(), (256, 1024, 2048), seed=4, probes=(0, 1))
    assert tr.truncated_mass < 1e-9
    assert tr.positions[2048] > 0
    target = 1.0 / normalizer_T(mplus)
    assert tr.ratios[2048][0] == pytest.approx(target, abs=5e-2)


def test_orey_minus_reversal_drifts_down():
    k = lazify(KERNEL, 0.5)
    rho = 0.5 + 0.5 * PARAMS.rho
    mminus = extremal_minus(PARAMS)
    rk = time_reversal(k, mminus, rho)

    class Prob:
        def prob(self, x):
            return mminus.value(x) / normalizer_T(mminus)

    tr = orey_trace(rk, k, Prob(), (128, 512), seed=6, probes=(0,))
    assert tr.positions[512] < -100
    # mirror case: the ratio approaches pi_minus(0), here only loosely
    target = 1.0 / normalizer_T(mminus)
    assert tr.ratios[512][0] == pytest.approx(target, rel=0.5)
