import math

import numpy as np
import pytest

from yaglom import (
    DegenerateKernelError,
    NNKernel,
    Region,
    build_alpha_walk,
    build_two_sided,
    evolve_trace,
    lazify,
    total_variation,
)
from yaglom import evolve
from yaglom.chain import MassState, Window
from yaglom.evolve import brute_force_distribution


def lazy_walk(r=0.5):
    return lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), r)


def test_one_step_distribution():
    k = lazy_walk()
    tr = evolve_trace(k, 5, 1)
    d = tr.distribution
    assert d.window == Window(4, 6)
    p, r, q = k.row(5)
    assert d[4] == pytest.approx(q)
    assert d[5] == pytest.approx(r)
    assert d[6] == pytest.approx(p)


def test_alpha_walk_survival_constant():
    tr = evolve_trace(build_alpha_walk(0.9, 0.6, 0.4), 0, 200)
    assert np.all(np.abs(tr.survival_factors - 0.81) < 1e-14)


def test_oracle_equivalence_moderate_n():
    k = lazy_walk()
    tr = evolve_trace(k, 0, 10)
    exact, survival = brute_force_distribution(k, 0, 10)
    assert math.exp(tr.distribution.log_mass) == pytest.approx(
        float(survival), rel=1e-13
    )
    for site, frac in exact.items():
        got = tr.distribution[site] * float(survival)
        assert got == pytest.approx(float(frac), rel=1e-12)


def test_tracked_ratios_marked_absent_until_reachable():
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)  # period 2
    tr = evolve_trace(k, 0, 6, tracked=(1, 2))
    r1 = tr.tracked_ratios[1]
    # site 1 is hit at odd steps only: entries with K^k(0,1) = 0 are
    # absent (nan), the following ones report the genuine ratio 0
    assert np.isnan(r1[::2]).all()
    assert (r1[1::2] == 0.0).all()
    r2 = tr.tracked_ratios[2]
    assert np.isnan(r2[:2]).all()  # site 2 first reached at step 2
    assert r2[2] == 0.0
    # aperiodic walk: finite ratios from the first reachable step onward
    lazy = evolve_trace(lazy_walk(), 0, 6, tracked=(2,))
    r2 = lazy.tracked_ratios[2]
    assert np.isnan(r2[:2]).all()
    assert np.isfinite(r2[2:]).all()


@pytest.mark.parametrize("z", [0, 5, -7])
def test_survival_recurrence_single_kill(z):
    # with killing only at 0: s_n = 1 - kappa * v_n(0) exactly per step
    k = lazy_walk()
    kappa = k.kill(0)
    tr = evolve_trace(k, z, 500, tracked=(0,))
    vals = tr.tracked_values[0][:-1]
    rel = np.abs(tr.survival_factors - (1.0 - kappa * vals)) / tr.survival_factors
    assert rel.max() < 1e-14


def test_extinction_raises():
    dead = NNKernel((Region(None, None, 0.0, 0.0, 0.0),))
    with pytest.raises(DegenerateKernelError):
        evolve_trace(dead, 0, 3)


def test_fully_killing_kernel_raises_in_a_blocked_run():
    # long enough for a block: its mass is 0, so the run falls back to
    # single steps and reports the extinction at step 1
    dead = NNKernel((Region(None, None, 0.0, 0.0, 0.0),))
    with pytest.raises(DegenerateKernelError, match="step 1$"):
        evolve_trace(dead, 0, 200)


def test_first_step_survival_factor_at_kill_site():
    tr = evolve_trace(build_two_sided(0.25, 0.75, 0.9, 0.1), 0, 1)
    assert tr.survival_factors[0] == pytest.approx(0.35, abs=1e-15)
    assert tr.distribution.window == Window(-1, 1)
    assert math.exp(tr.distribution.log_mass) == pytest.approx(0.35, abs=1e-15)


def test_first_step_conservative_off_kill_site():
    tr = evolve_trace(build_two_sided(0.25, 0.75, 0.9, 0.1), 5, 1)
    assert tr.survival_factors[0] == 1.0


def test_two_steps_match_path_enumeration():
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)
    tr = evolve_trace(k, 0, 2)
    exact, survival = brute_force_distribution(k, 0, 2)
    assert math.exp(tr.distribution.log_mass) == pytest.approx(float(survival), rel=1e-14)
    for site, frac in exact.items():
        assert tr.distribution[site] * float(survival) == pytest.approx(float(frac), rel=1e-13)


def test_taboo_transform_approaches_V():
    # F_00(R) = 1 - 1/G_00(R); read off the Green partial sums
    # sum_{n<=N} R^n K^n(0,0) it creeps up to V from below
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)
    R = 1.0 / (2.0 * math.sqrt(0.25 * 0.75))
    tr = evolve_trace(k, 0, 1500, tracked=(0,))
    terms = np.exp(np.concatenate([[0.0], tr.log_mass]) + np.arange(1501) * math.log(R))
    partial = 1.0 - 1.0 / float((terms * tr.tracked_values[0]).sum())
    V = 0.5 + 0.5 * (1.0 - math.sqrt(1.0 - 0.09 / 0.1875))
    assert partial < V
    assert V - partial < 2e-2


def test_survival_factor_error_trend():
    # |s_n - rho_r| shrinks like 1/n once the local-limit regime sets in
    tr = evolve_trace(lazy_walk(), 0, 2000)
    rho_r = 0.5 + 0.5 * 2.0 * math.sqrt(0.25 * 0.75)
    errs = [abs(tr.survival_factors[n - 1] - rho_r) for n in (250, 500, 1000, 2000)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[0] < 0.01


def test_tightness_probe():
    tr = evolve_trace(lazy_walk(), 0, 600, snapshot_at=(150, 300, 600))
    for n, snap in tr.snapshots.items():
        far = np.abs(snap.window.sites())
        tails = [float(snap.values[far > M].sum()) for M in (10, 25, 50, 100)]
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))
        assert tails[-1] < 0.05


def test_total_variation_window_alignment():
    a = MassState(Window(0, 1), np.array([0.5, 0.5]))
    b = MassState(Window(1, 2), np.array([0.5, 0.5]))
    assert total_variation(a, b) == pytest.approx(0.5)
    assert total_variation(a, a) == 0.0


def test_run_beyond_physical_memory_is_refused_before_allocating(monkeypatch):
    """About 72 bytes per window site and 20 per step of each series: a
    run that would need more than the machine has raises MemoryError
    before ``rows`` builds its window, so nothing large is allocated."""
    asked = []

    class Kernel:
        def rows(self, lo, hi):
            asked.append((lo, hi))
            return lazy_walk().rows(lo, hi)

    assert evolve._physical_memory() > 0
    # 10000 steps, full window of 20001 sites, one tracked site
    need = 72 * 20001 + 20 * 10000 * 3
    monkeypatch.setattr(evolve, "_physical_memory", lambda: need - 1)
    with pytest.raises(MemoryError, match="20001 sites"):
        evolve_trace(Kernel(), 0, 10000, tracked=(0,))
    assert asked == []
    monkeypatch.setattr(evolve, "_physical_memory", lambda: need)
    evolve_trace(Kernel(), 0, 10000, tracked=(0,))
    # a capped window: the series dominate
    monkeypatch.setattr(evolve, "_physical_memory", lambda: 72 * 201 + 20 * 10**6 - 1)
    with pytest.raises(MemoryError, match="201 sites"):
        evolve_trace(Kernel(), 0, 10**6, max_halfwidth=100)
    # where the system does not say, no run is refused
    monkeypatch.setattr(evolve, "_physical_memory", lambda: None)
    evolve_trace(Kernel(), 0, 100)
    assert asked == [(-10000, 10000), (-100, 100)]
