"""Blocked stepping of unclipped runs against single dense steps.

An unclipped run advances ``chain._BLOCK`` steps per band product while
its live hull lies far enough inside the window.  These tests pin it to
the dense oracle of ``test_propagation`` where blocks end off the block
grid (the last steps of a run, snapshots), where a capped window forces
single steps, and where a block's mass would underflow.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_propagation import REL, assert_norm_rel, assert_rel, dense_step, dense_trace
from yaglom import NNKernel, Region, evolve_trace, lazify, preset_kernel
from yaglom import chain

M = chain._BLOCK
PRESETS = ("two_sided", "symmetric", "kesten", "alpha_walk")


@pytest.fixture
def modes(monkeypatch):
    """Count blocks taken, blocks refused for their mass, and single steps."""
    counts = {"blocks": 0, "refused": 0, "steps": 0}
    block, steps = chain._BlockTables.block, chain._steps

    def counting_block(self, *args):
        out = block(self, *args)
        counts["blocks" if out is not None else "refused"] += 1
        return out

    def counting_steps(*args):
        out = steps(*args)
        counts["steps"] += out[0].size
        return out

    monkeypatch.setattr(chain._BlockTables, "block", counting_block)
    monkeypatch.setattr(chain, "_steps", counting_steps)
    return counts


@pytest.mark.parametrize("lazy", [0.25, None], ids=["lazy", "raw"])
@pytest.mark.parametrize("name", PRESETS)
def test_blocked_trace_matches_dense_loop(name, lazy, modes):
    kernel = preset_kernel(name)
    if lazy is not None:
        kernel = lazify(kernel, lazy)
    x0, n, tracked = -5, 40 * M + 17, (-5, 0, 3, -9)
    tr = evolve_trace(kernel, x0, n, tracked=tracked)
    surv, log_mass, v, clipped, vals = dense_trace(kernel, x0, n, tracked)
    assert modes["blocks"] == n // M and modes["steps"] == n % M
    assert_rel(tr.survival_factors, surv)
    assert tr.distribution.log_mass == pytest.approx(log_mass, rel=REL)
    assert_norm_rel(tr.distribution.values, v)
    assert tr.distribution.clipped == clipped == 0.0
    for y in tracked:
        assert_rel(tr.tracked_values[y], vals[y])


def test_snapshots_and_tracked_values_off_the_block_grid(modes):
    kernel = lazify(preset_kernel("symmetric"), 0.5)
    x0, n, tracked, at = 2, 700, (0, 5), (45, 46, 333, 640)
    tr = evolve_trace(kernel, x0, n, tracked=tracked, snapshot_at=at)
    assert modes["blocks"] > 0 and modes["steps"] > 0
    lo = x0 - n
    up, stay, down = kernel.rows(lo, x0 + n)
    v = np.zeros(2 * n + 1)
    v[x0 - lo] = 1.0
    logs = []
    for k in range(1, n + 1):
        w = dense_step(v, up, stay, down)
        s = float(w.sum())
        v = w / s
        logs.append(math.log(s))
        for y in tracked:
            assert tr.tracked_values[y][k] == pytest.approx(v[y - lo], rel=REL)
        if k in at:
            snap = tr.snapshots[k]
            assert snap.log_mass == pytest.approx(math.fsum(logs), rel=REL)
            assert_norm_rel(snap.values, v)
    assert sorted(tr.snapshots) == list(at)


@pytest.mark.parametrize("name", ("two_sided", "kesten"))
def test_blocks_stop_short_of_a_capped_window_edge(name, modes):
    kernel = lazify(preset_kernel(name), 0.25)
    x0, n, cap, tracked = 0, 900, 150, (0, 140)
    tr = evolve_trace(kernel, x0, n, tracked=tracked, max_halfwidth=cap)
    surv, log_mass, v, clipped, vals = dense_trace(kernel, x0, n, tracked, max_halfwidth=cap)
    # blocks while the mass is far from the ends, single steps once it is near
    assert 0 < modes["blocks"] < n // M and modes["steps"] > 0
    assert tr.edge_lost > 0.0 and tr.clip_lost == 0.0
    assert tr.distribution.clipped == pytest.approx(clipped, rel=REL)
    assert_rel(tr.survival_factors, surv)
    assert tr.distribution.log_mass == pytest.approx(log_mass, rel=REL)
    assert_norm_rel(tr.distribution.values, v)
    for y in tracked:
        assert_rel(tr.tracked_values[y], vals[y])


@pytest.mark.parametrize("survival, blocked", [(1e-11, False), (1e-6, True)])
def test_small_survival_falls_back_only_when_a_block_underflows(survival, blocked, modes):
    """K^32 1 is 1e-352 at survival 1e-11 per step: that block would
    underflow, so it goes step by step and reports no extinction.  At 1e-6
    per step K^32 1 is 1e-192 and the block is taken."""
    kernel = NNKernel(
        (Region(None, -1, 0.3 * survival, 0.3 * survival, 0.4 * survival),
         Region(0, None, 0.5 * survival, 0.2 * survival, 0.3 * survival)),
    )
    x0, n, tracked = 0, 5 * M + 3, (0, -2)
    tr = evolve_trace(kernel, x0, n, tracked=tracked)
    surv, log_mass, v, _, vals = dense_trace(kernel, x0, n, tracked)
    assert (modes["blocks"] > 0) == blocked and (modes["refused"] > 0) != blocked
    assert_rel(tr.survival_factors, surv)
    assert np.all(np.abs(np.log(tr.survival_factors / survival)) < 1.0)
    assert tr.distribution.log_mass == pytest.approx(log_mass, rel=REL)
    assert_norm_rel(tr.distribution.values, v)
    for y in tracked:
        assert_rel(tr.tracked_values[y], vals[y])


def _exact_alpha_walk_log_mass(kernel, n):
    """Every site of the walk keeps the same mass p + r + q per step, so
    log K^n(x0, S) = n log(p + r + q) exactly."""
    mpmath.mp.dps = 30
    p, r, q = (mpmath.mpf(rate) for rate in kernel.row(0))
    return float(n * mpmath.log(p + r + q))


@pytest.mark.parametrize("mode", [{}, {"clip": 1e-300}], ids=["blocked", "per-step"])
@pytest.mark.parametrize("lazy, n", [(0.25, 1500), (None, 8000)])
def test_log_mass_matches_exact_value_on_alpha_walk(lazy, n, mode):
    """A plain running sum of the per-step logs drifts from the exact value
    by about 4e-14 relative at n = 1500; an uncompensated sum of one log
    per block by 4e-15 at n = 8000."""
    kernel = preset_kernel("alpha_walk")
    if lazy is not None:
        kernel = lazify(kernel, lazy)
    exact = _exact_alpha_walk_log_mass(kernel, n)
    tr = evolve_trace(kernel, 3, n, **mode)
    got = tr.distribution.log_mass
    assert abs(got - exact) <= 1e-15 * abs(exact)
    # the per-step series ends at the same value and does not drift on the way
    assert tr.log_mass[-1] == got
    series = np.array([_exact_alpha_walk_log_mass(kernel, k) for k in range(1, n + 1)])
    assert_norm_rel(tr.log_mass, series, 1e-15)


@pytest.mark.parametrize("mode", [{}, {"clip": 1e-300}], ids=["growing", "clipped"])
def test_dense_oracle_log_mass_matches_exact_value_on_alpha_walk(mode):
    kernel = lazify(preset_kernel("alpha_walk"), 0.25)
    exact = _exact_alpha_walk_log_mass(kernel, 1500)
    oracle = dense_trace(kernel, 3, 1500, **mode)[1]
    assert abs(oracle - exact) <= 1e-15 * abs(exact)


# Stay rates are 0 or at least 0.01: a rate near the smallest normal float
# puts compared entries among subnormals, where neither loop keeps
# relative digits.
rates = st.tuples(
    st.floats(0.05, 0.5), st.just(0.0) | st.floats(0.01, 0.5), st.floats(0.05, 0.5)
)


@settings(max_examples=60, deadline=None)
@given(
    left=rates,
    right=rates,
    overrides=st.dictionaries(st.integers(-40, 40), rates, max_size=6),
    x0=st.integers(-30, 30),
    n=st.integers(2 * M, 6 * M),
)
def test_blocks_match_dense_loop_on_random_region_kernels(left, right, overrides, x0, n):
    """Rate changes anywhere near the start, several within m sites of
    each other: every table row a block uses must be the site's own."""
    kernel = NNKernel(
        (Region(None, -1, *left), Region(0, None, *right)),
        tuple((site, *row) for site, row in sorted(overrides.items())),
    )
    tracked = (x0, x0 + 3, -x0)
    tr = evolve_trace(kernel, x0, n, tracked=tracked)
    surv, log_mass, v, _, vals = dense_trace(kernel, x0, n, tracked)
    assert_rel(tr.survival_factors, surv)
    assert tr.distribution.log_mass == pytest.approx(log_mass, rel=REL)
    assert_norm_rel(tr.distribution.values, v)
    for y in tracked:
        assert_rel(tr.tracked_values[y], vals[y])


def test_tables_hold_powers_of_the_window_kernel():
    """Every row the tables can gather, near rate changes and near the
    window ends too, against powers of the dense window matrix (rates 0
    outside the window, so flow off it is lost)."""
    kernel = NNKernel(
        (Region(None, -1, 0.3, 0.2, 0.4), Region(0, None, 0.25, 0.35, 0.3)),
        ((-3, 0.1, 0.5, 0.2), (-2, 0.4, 0.1, 0.4), (30, 0.2, 0.2, 0.2)),
    )
    up, stay, down = kernel.rows(-60, 60)
    width = len(up)
    K = np.diag(stay) + np.diag(up[:-1], 1) + np.diag(down[1:], -1)
    watch = np.array([0, 57, width - 1])
    tables = chain._BlockTables(up, stay, down, watch)
    tables._cover(0, width - 1)
    assert (tables.lo, tables.hi) == (0, width - 1)
    t = np.arange(-M, M + 1)
    power = np.eye(width)
    for j in range(1, M + 1):
        power = power @ K
        np.testing.assert_allclose(tables.C[:, j - 1], power.sum(axis=1), rtol=1e-13)
        for i, w in enumerate(watch):
            x = w + t
            want = np.where((x >= 0) & (x < width), power[np.clip(x, 0, width - 1), w], 0.0)
            np.testing.assert_allclose(tables.cols[i, :, j - 1], want, rtol=1e-13)
    for y in range(width):
        x = y + t
        want = np.where((x >= 0) & (x < width), power[np.clip(x, 0, width - 1), y], 0.0)
        np.testing.assert_allclose(tables.G[y], want, rtol=1e-13)
