"""Blocked stepping against single dense steps.

A run, clipped or not, advances ``chain._BLOCK`` steps per band product
while its live hull lies far enough inside the window.  These tests pin
it to the dense oracle of ``test_propagation`` where blocks end off the
block grid (the last steps of a run, snapshots), where a capped window
forces single steps, where a block's mass would underflow, and where a
clip acts at the end of each record.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_propagation import REL, assert_norm_rel, assert_rel, dense_step, dense_trace
from yaglom import DegenerateKernelError, NNKernel, Region, evolve_trace, lazify, preset_kernel
from yaglom import chain
from yaglom.cli import main

M = chain._BLOCK
PRESETS = ("two_sided", "symmetric", "kesten", "alpha_walk")


@pytest.fixture
def modes(monkeypatch):
    """Count blocks taken, blocks refused for their mass, and single steps;
    the sites the taken blocks' band products computed, and the length of
    each stretch of them served by one correlation."""
    counts = {"blocks": 0, "refused": 0, "steps": 0, "band_sites": 0, "runs": []}
    block, steps, correlate = chain._BlockTables.block, chain._steps, np.correlate

    def counting_block(self, v, a, b):
        out = block(self, v, a, b)
        if out is None:
            counts["refused"] += 1
        else:
            counts["blocks"] += 1
            counts["band_sites"] += b - a - 1 + 2 * M  # the support widened by m per side
        return out

    def counting_steps(*args):
        out = steps(*args)
        counts["steps"] += out[0].size
        return out

    def counting_correlate(*args, **kwargs):
        out = correlate(*args, **kwargs)
        counts["runs"].append(out.size)
        return out

    monkeypatch.setattr(chain._BlockTables, "block", counting_block)
    monkeypatch.setattr(chain, "_steps", counting_steps)
    monkeypatch.setattr(np, "correlate", counting_correlate)
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


def test_clipped_kesten_run_takes_blocks(modes):
    """The clip no longer keeps a run out of the blocked core, and its
    kept fraction enters the survival factors, so ``log_mass`` is still
    their compensated log sum."""
    kernel = preset_kernel("kesten")
    tr = evolve_trace(kernel, 0, 4096, clip=1e-20, max_halfwidth=6000)
    assert modes["blocks"] > 0 and tr.clip_lost > 0.0
    want = math.fsum(np.log(tr.survival_factors).tolist())
    assert tr.log_mass[-1] == tr.distribution.log_mass
    assert abs(tr.log_mass[-1] - want) <= REL * abs(want)


def test_clip_acts_at_snapshots_off_the_block_grid(modes):
    """Snapshot steps end records, so each one clips, and the 32-step
    records restart from it."""
    kernel = lazify(preset_kernel("symmetric"), 0.5)
    x0, n, tracked, at, clip = 2, 900, (0, 5), (50, 777), 1e-8
    tr = evolve_trace(kernel, x0, n, tracked=tracked, clip=clip, snapshot_at=at)
    surv, log_mass, v, clipped, vals = dense_trace(kernel, x0, n, tracked, clip=clip, stops=at)
    assert modes["blocks"] > 0 and modes["steps"] > 0
    for k in at:
        values = tr.snapshots[k].values
        assert not np.any((values > 0.0) & (values < clip))
    assert_rel(tr.survival_factors, surv)
    assert tr.distribution.log_mass == pytest.approx(log_mass, rel=REL)
    assert_norm_rel(tr.distribution.values, v)
    assert tr.clip_lost == pytest.approx(clipped, rel=REL, abs=0.0) and clipped > 0.0
    for y in tracked:
        assert_rel(tr.tracked_values[y], vals[y])
    # the oracle without the snapshot stops clips on another schedule
    assert not np.array_equal(dense_trace(kernel, x0, n, clip=clip)[0], surv)


@pytest.mark.parametrize("n, step, blocks", [(20, 20, 0), (200, 32, 1)], ids=["per-step", "blocked"])
def test_clip_that_deletes_all_the_mass_is_degenerate(n, step, blocks, modes, tmp_path, capsys):
    """A clip of 0.5 deletes the whole spread-out law at the first
    record's end: the run's last step when n = 20, a block's last when
    n = 200.  The CLI turns the error into its config exit code 2."""
    kernel = preset_kernel("alpha_walk")
    with pytest.raises(DegenerateKernelError, match=f"clip=0.5 left no mass at step {step}$"):
        evolve_trace(kernel, 0, n, tracked=(0, 1), clip=0.5)
    assert modes["blocks"] == blocks
    args = ["yaglom", "--preset", "alpha_walk", "--n", n, "--clip", 0.5, "--out-dir", tmp_path]
    assert main([str(a) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"step {step}" in err


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


@pytest.mark.parametrize("per_step", [False, True], ids=["blocked", "per-step"])
@pytest.mark.parametrize("lazy, n", [(0.25, 1500), (None, 8000)])
def test_log_mass_matches_exact_value_on_alpha_walk(lazy, n, per_step, modes, monkeypatch):
    """A plain running sum of the per-step logs drifts from the exact value
    by about 4e-14 relative at n = 1500; an uncompensated sum of one log
    per block by 4e-15 at n = 8000.  Refusing every block forces single
    steps."""
    kernel = preset_kernel("alpha_walk")
    if lazy is not None:
        kernel = lazify(kernel, lazy)
    if per_step:
        monkeypatch.setattr(chain._BlockTables, "block", lambda self, v, a, b: None)
    exact = _exact_alpha_walk_log_mass(kernel, n)
    tr = evolve_trace(kernel, 3, n)
    assert modes["steps"] == (n if per_step else n % M)
    assert (modes["blocks"] == 0) == per_step
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
    clip=st.just(0.0) | st.floats(1e-30, 1e-6),
)
def test_blocks_match_dense_loop_on_random_region_kernels(left, right, overrides, x0, n, clip):
    """Rate changes anywhere near the start, several within m sites of
    each other: every table row a block uses must be the site's own.  A
    clip acts at the end of each record, as in the dense oracle."""
    kernel = NNKernel(
        (Region(None, -1, *left), Region(0, None, *right)),
        tuple((site, *row) for site, row in sorted(overrides.items())),
    )
    tracked = (x0, x0 + 3, -x0)
    tr = evolve_trace(kernel, x0, n, tracked=tracked, clip=clip)
    surv, log_mass, v, clipped, vals = dense_trace(kernel, x0, n, tracked, clip=clip)
    assert_rel(tr.survival_factors, surv)
    assert tr.distribution.log_mass == pytest.approx(log_mass, rel=REL)
    assert_norm_rel(tr.distribution.values, v)
    assert tr.clip_lost == pytest.approx(clipped, rel=REL, abs=0.0)
    for y in tracked:
        assert_rel(tr.tracked_values[y], vals[y])


def test_tables_hold_powers_of_the_window_kernel():
    """Every site's rows, read through its row id, near rate changes and
    near the window ends too, against powers of the dense window matrix
    (rates 0 outside the window, so flow off it is lost)."""
    kernel = NNKernel(
        (Region(None, -1, 0.3, 0.2, 0.4), Region(0, None, 0.25, 0.35, 0.3)),
        ((-3, 0.1, 0.5, 0.2), (-2, 0.4, 0.1, 0.4), (30, 0.2, 0.2, 0.2)),
    )
    up, stay, down = kernel.rows(-60, 60)
    width = len(up)
    K = np.diag(stay) + np.diag(up[:-1], 1) + np.diag(down[1:], -1)
    watch = np.array([0, 57, width - 1])
    tables = chain._BlockTables(up, stay, down, watch)
    assert tables._rows(0, width - 1) == (0, tables.firsts.size - 1)
    assert tables.done.all()
    G, C = tables.G_rows[tables.ids], tables.C_rows[tables.ids]
    t = np.arange(-M, M + 1)
    power = np.eye(width)
    for j in range(1, M + 1):
        power = power @ K
        np.testing.assert_allclose(C[:, j - 1], power.sum(axis=1), rtol=1e-13)
        for i, w in enumerate(watch):
            x = w + t
            want = np.where((x >= 0) & (x < width), power[np.clip(x, 0, width - 1), w], 0.0)
            np.testing.assert_allclose(tables.cols[i, :, j - 1], want, rtol=1e-13)
    for y in range(width):
        x = y + t
        want = np.where((x >= 0) & (x < width), power[np.clip(x, 0, width - 1), y], 0.0)
        np.testing.assert_allclose(G[y], want, rtol=1e-13)
    # the sites off the long runs hold their own rows, in site order
    short = np.flatnonzero(~tables.long[tables.ids])
    assert short.size and np.array_equal(tables.pos[short], np.arange(short.size))
    np.testing.assert_array_equal(tables.G_sites, G[short])


def _assert_no_subnormals(tr):
    """No entry of the law lies in (0, tiny), and the live hull is the
    nonzero support widened by one site per side, clamped to the window."""
    values, window = tr.distribution.values, tr.distribution.window
    assert not np.any((values > 0.0) & (values < np.finfo(float).tiny))
    nz = np.flatnonzero(values)
    hull = tr.live_hull.lo - window.lo, tr.live_hull.hi - window.lo
    assert hull == (max(nz[0] - 1, 0), min(nz[-1] + 1, values.size - 1))


@pytest.mark.parametrize(
    "kernel", [lazify(preset_kernel("two_sided"), 0.5), preset_kernel("alpha_walk")],
    ids=["lazy-two_sided", "raw-alpha_walk"],
)
def test_blocked_run_keeps_no_subnormal_entries(kernel, modes):
    tr = evolve_trace(kernel, 0, 3000)
    assert modes["blocks"] > 0
    _assert_no_subnormals(tr)
    # the flushed tails leave the hull well short of the 6001-site window
    assert len(tr.live_hull) < 6001 - 4 * M


@pytest.mark.parametrize("clip", [0.0, 1e-310], ids=["unclipped", "clipped"])
def test_capped_per_step_run_keeps_no_subnormal_entries(clip, modes):
    """A drift to the right piles the law against a capped window's right
    end, so once it gets there every step is single, and its left tail
    falls by about 1e-2 per site: far below the smallest normal float
    across the window.  A clip below that float keeps the entries between
    the two, so clipped records must be flushed as well."""
    kernel = NNKernel((Region(None, None, 0.88, 0.02, 0.05),))
    tr = evolve_trace(kernel, 0, 3000, max_halfwidth=400, clip=clip)
    assert modes["steps"] == 3000 - M * modes["blocks"] > 2500
    assert tr.edge_lost > 0.0 and (tr.clip_lost > 0.0) == (clip > 0.0)
    _assert_no_subnormals(tr)
    assert tr.live_hull.hi == 400 and tr.live_hull.lo > -400


@pytest.mark.parametrize(
    "stops", [(10, 11, 650), range(1, 700)], ids=["off-grid-stops", "every-step"]
)
def test_flush_runs_once_per_record(stops, monkeypatch):
    """Every record ends with one flush: records of m steps, blocked or
    not, records a stop cut short and the run's last record alike, so
    every record's hull is the tight live hull."""
    flushes = []
    flush = chain._flush

    def counting_flush(v, a, b):
        flushes.append((a, b))
        return flush(v, a, b)

    monkeypatch.setattr(chain, "_flush", counting_flush)
    n = 700
    up, stay, down = lazify(preset_kernel("two_sided"), 0.5).rows(-n, n)
    v = np.zeros(2 * n + 1)
    v[n] = 1.0
    steps, records = 0, 0
    for rec in chain._normalised_run(v, up, stay, down, n, stops=stops):
        steps += rec.surv.size
        records += 1
        assert (rec.a, rec.b) == chain._hull(v, rec.a, rec.b)
    assert steps == n and len(flushes) == records
    if isinstance(stops, range):
        assert records == n


def test_correlation_serves_most_band_product_sites(modes):
    """On lazified two_sided only the sites within m of a rate change
    gather their own band rows; the rest are served by correlations."""
    evolve_trace(lazify(preset_kernel("two_sided"), 0.5), 0, 3000)
    assert modes["blocks"] == 3000 // M
    assert sum(modes["runs"]) > 0.8 * modes["band_sites"]


def test_rows_fill_in_few_batches_without_long_runs(modes, monkeypatch):
    """A new rate at every site leaves no long run, so every site needs
    its own rows as the hull grows; they come in a few batches, not a
    batch per block."""
    batches = []
    near = chain._BlockTables._near

    def counting_near(self, sites):
        batches.append(sites.size)
        return near(self, sites)

    monkeypatch.setattr(chain._BlockTables, "_near", counting_near)
    kernel = NNKernel(
        (Region(None, None, 0.25, 0.4, 0.25),),
        tuple((t, 0.2 + 0.1 * (7 * t % 11) / 11, 0.4, 0.25) for t in range(-3100, 3101)),
    )
    evolve_trace(kernel, 0, 3000)
    assert modes["blocks"] == 3000 // M and modes["runs"] == []
    assert len(batches) <= 12 and sum(batches) > 2900


def test_correlation_threshold_against_dense_loop(modes):
    """Constant runs of one row id just below (4m - 1 sites), at (4m) and
    just above (4m + 1) the length a correlation needs, next to two
    overrides 5 sites apart.  An override at t gives every site in
    [t - m, t + m] its own id, so a gap of 6m + k between overrides leaves
    a constant run of 4m + k - 1 sites.  The hull covers the three runs
    whole; the run of 4m - 1 sites is read from ``G_sites``."""
    base = (0.3, 0.3, 0.3)
    sites = (0, 5, 5 + 6 * M, 5 + 12 * M + 1, 5 + 18 * M + 3)
    kernel = NNKernel(
        (Region(None, None, *base),),
        tuple((t, 0.2 + 0.01 * i, 0.35, 0.4) for i, t in enumerate(sites)),
    )
    x0, n, tracked = 300, 30 * M + 5, (300, 5, 200)
    up, stay, down = kernel.rows(x0 - n, x0 + n)
    tables = chain._BlockTables(up, stay, down, np.array([], dtype=np.intp))
    lengths = tables.lasts - tables.firsts + 1
    assert {4 * M - 1, 4 * M, 4 * M + 1} <= set(lengths.tolist())
    assert np.array_equal(tables.long, lengths >= 4 * M)
    tr = evolve_trace(kernel, x0, n, tracked=tracked)
    surv, log_mass, v, _, vals = dense_trace(kernel, x0, n, tracked)
    # the whole runs at and above the threshold were correlated
    assert {4 * M, 4 * M + 1} <= set(modes["runs"]) and 4 * M - 1 not in modes["runs"]
    assert modes["blocks"] == n // M
    assert_rel(tr.survival_factors, surv)
    assert tr.distribution.log_mass == pytest.approx(log_mass, rel=REL)
    assert_norm_rel(tr.distribution.values, v)
    for y in tracked:
        assert_rel(tr.tracked_values[y], vals[y])
