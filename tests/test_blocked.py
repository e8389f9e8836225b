"""Blocked stepping against single dense steps.

A run, clipped or not, advances ``chain._BLOCK`` steps per band product
while its live hull lies far enough inside the window.  These tests pin
it to the dense oracle of ``test_propagation`` where blocks end off the
block grid (the last steps of a run, snapshots), where a capped window
forces single steps, where a block's mass would underflow, and where a
clip acts at the end of each record; and the scaled band tables against
exact products where the law's tail nears the smallest normal float.
"""

import contextlib
import hashlib
import math
from fractions import Fraction

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


def _computed(tables):
    """The ids whose rows the tables compute, those of the sites
    m..width-m-1, and the ``G_sites`` rows of those sites."""
    sites = np.arange(M, tables.width - M)
    ids = np.arange(tables.ids[M], tables.ids[tables.width - M - 1] + 1)
    return ids, tables.pos[sites[~tables.long[tables.ids[sites]]]]


def test_tables_hold_powers_of_the_window_kernel():
    """The rows of every site a block can read, through its row id, near
    rate changes and near the window ends too, and the watch columns,
    against powers of the dense window matrix (rates 0 outside the window,
    so flow off it is lost).  The band and watch tables are stored times a
    power of two, so dividing it out is exact."""
    kernel = NNKernel(
        (Region(None, -1, 0.3, 0.2, 0.4), Region(0, None, 0.25, 0.35, 0.3)),
        ((-3, 0.1, 0.5, 0.2), (-2, 0.4, 0.1, 0.4), (30, 0.2, 0.2, 0.2)),
    )
    up, stay, down = kernel.rows(-60, 60)
    width = len(up)
    K = np.diag(stay) + np.diag(up[:-1], 1) + np.diag(down[1:], -1)
    watch = np.array([0, 57, width - 1])
    tables = chain._BlockTables(up, stay, down, watch)
    ys = np.arange(M, width - M)
    G, C = tables.G_rows[tables.ids[ys]] / chain._SCALE, tables.C_rows[tables.ids[ys]]
    cols = tables.cols / chain._SCALE
    t = np.arange(-M, M + 1)
    power = np.eye(width)
    for j in range(1, M + 1):
        power = power @ K
        np.testing.assert_allclose(C[:, j - 1], power.sum(axis=1)[ys], rtol=1e-13)
        for i, w in enumerate(watch):
            x = w + t
            want = np.where((x >= 0) & (x < width), power[np.clip(x, 0, width - 1), w], 0.0)
            np.testing.assert_allclose(cols[i, :, j - 1], want, rtol=1e-13)
    for i, y in enumerate(ys):
        x = y + t
        want = np.where((x >= 0) & (x < width), power[np.clip(x, 0, width - 1), y], 0.0)
        np.testing.assert_allclose(G[i], want, rtol=1e-13)
    # the sites off the long runs hold their own rows, in site order
    short = np.flatnonzero(~tables.long[tables.ids])
    assert short.size and np.array_equal(tables.pos[short], np.arange(short.size))
    inner = ~tables.long[tables.ids[ys]]
    np.testing.assert_array_equal(tables.G_sites[_computed(tables)[1]] / chain._SCALE, G[inner])


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


def _series(n):
    """The arrays a run of ``n`` steps without watch sites writes into."""
    return np.empty(n), np.empty(n), np.empty((n, 0))


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
    for rec in chain._normalised_run(v, up, stay, down, *_series(n), stops=stops):
        assert rec.steps > steps
        steps = rec.steps
        records += 1
        assert (rec.a, rec.b) == chain._hull(v, rec.a, rec.b)
    assert steps == n and len(flushes) == records
    if isinstance(stops, range):
        assert records == n


# sha256 of the survival factors, log masses and law of raw kesten from 0
# over 3000 steps, then clip_lost and edge_lost; recorded before a clip of
# at least 2^-1022 took over the flush's hull
PINNED_CLIPS = {
    (1e-310, None): ("ba2f1f258f6e9a8e8bd7a859bdbfbcac15079665362207b1bf69927b5d59bd1b",
                     1.052898061626346e-308, 0.0),
    (2.0**-1022, None): ("ba2f1f258f6e9a8e8bd7a859bdbfbcac15079665362207b1bf69927b5d59bd1b",
                         2.4589881466102422e-306, 0.0),
    (1e-20, None): ("8bf8a526a0a523fec25142a703d8d140bcbc6c8979defb824c166b4a011c5611",
                    2.2753863058316938e-18, 0.0),
    (1e-310, 600): ("02022cb09e384db100c5b77ab4519789676b37f052f3b06861b86dc277376323",
                    1.272679344577944e-309, 1.0234622018453628e-153),
    (2.0**-1022, 600): ("02022cb09e384db100c5b77ab4519789676b37f052f3b06861b86dc277376323",
                        2.9632044582224897e-307, 1.0234622018453628e-153),
    (1e-20, 600): ("826403c28b73c1d28fc4dff475e4b72e9302cd22224597108b5fe4e68a555fa8",
                   2.2753863058316938e-18, 0.0),
}


@pytest.mark.parametrize("clip, cap", list(PINNED_CLIPS), ids=repr)
def test_clip_edge_cases_are_pinned(clip, cap):
    """A clip below the smallest normal float (1e-310), at it (2^-1022)
    and far above it (1e-20), on the growing window and on a capped one
    that loses mass at its ends."""
    tr = evolve_trace(preset_kernel("kesten"), 0, 3000, clip=clip, max_halfwidth=cap)
    arrays = (tr.survival_factors, tr.log_mass, tr.distribution.values)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    assert (digest, tr.clip_lost, tr.edge_lost) == PINNED_CLIPS[clip, cap]
    _assert_no_subnormals(tr)


def test_clipped_run_with_tracked_sites_and_snapshots_is_pinned():
    """A clip that removes mass rewrites the record's last watched row and
    the log mass a snapshot keeps.  Recorded before blocks kept their plan
    from one block to the next: the survival factors, log masses and law,
    then the tracked values, the snapshot laws (both steps off the block
    grid) and their log masses."""
    tracked, at = (-3, 0, 5), (650, 2049)
    tr = evolve_trace(preset_kernel("kesten"), 0, 3000, tracked=tracked, clip=1e-20, snapshot_at=at)
    arrays = [tr.survival_factors, tr.log_mass, tr.distribution.values]
    arrays += [tr.tracked_values[y] for y in tracked] + [tr.snapshots[k].values for k in at]
    arrays.append(np.array([tr.snapshots[k].log_mass for k in at]))
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    assert digest == "a4afa23c9c657d4d95e0e2f08116fc5873cfd72394a7180d1d8f231a1fc78f57"
    assert (tr.clip_lost, tr.edge_lost) == (2.2904924715735376e-18, 0.0)


@pytest.mark.parametrize("clip", [1e-310, 2.0**-1022, 1e-20], ids=repr)
def test_clipped_records_end_on_the_tight_hull(clip, monkeypatch):
    """A clip below the smallest normal float leaves subnormal entries,
    so its records are flushed once each, as unclipped ones are.  A clip
    of 1e-20 leaves none, and its own threshold pass gives the hull.  A
    clip of exactly 2^-1022 gives the hull too, except where the mass it
    keeps rounds above 1: dividing by it could take an entry at the clip
    below 2^-1022, so that record is flushed."""
    calls = {"flush": 0, "clip": 0, "flush_after_clip": 0}
    flush, clip_fn = chain._flush, chain._clip

    def counting_flush(v, a, b):
        calls["flush"] += 1
        return flush(v, a, b)

    def counting_clip(v, a, b, c):
        out = clip_fn(v, a, b, c)
        calls["clip"] += 1
        calls["flush_after_clip"] += out[2] is None
        assert (out[2] is None) == (c / out[1] < chain._TINY)
        return out

    monkeypatch.setattr(chain, "_flush", counting_flush)
    monkeypatch.setattr(chain, "_clip", counting_clip)
    n = 3000
    up, stay, down = preset_kernel("kesten").rows(-n, n)
    v = np.zeros(2 * n + 1)
    v[n] = 1.0
    records = 0
    run = chain._normalised_run(v, up, stay, down, *_series(n), clip=clip, stops=(10, 11, 650))
    for rec in run:
        records += 1
        assert (rec.a, rec.b) == chain._hull(v, rec.a, rec.b)
        assert not np.any((v > 0.0) & (v < chain._TINY))
    assert records > n // M and calls["clip"] == records
    assert calls["flush"] == calls["flush_after_clip"]
    if clip < chain._TINY:
        assert calls["flush"] == records
    elif clip == chain._TINY:
        assert 0 < calls["flush"] < records
    else:
        assert calls["flush"] == 0


def test_block_plan_is_rebuilt_only_when_the_hull_moves(monkeypatch):
    """The benchmark's clipped probe: kesten from 0 on a 12001-site window
    clipped at 1e-20, snapshots at 512, 4096 and 24576.  A block builds
    its plan exactly when its live hull is not the last block's, and at
    least 90% of the blocks reuse the plan."""
    hulls, builds = [], []
    block, plan = chain._BlockTables.block, chain._BlockTables._plan

    def recording_block(self, v, a, b):
        hulls.append((a, b))
        return block(self, v, a, b)

    def counting_plan(self, v, a, b):
        builds.append((a, b))
        return plan(self, v, a, b)

    monkeypatch.setattr(chain._BlockTables, "block", recording_block)
    monkeypatch.setattr(chain._BlockTables, "_plan", counting_plan)
    grid = (512, 4096, 24576)
    evolve_trace(preset_kernel("kesten"), 0, grid[-1], clip=1e-20, snapshot_at=grid,
                 max_halfwidth=6000)
    moved = [h for i, h in enumerate(hulls) if i == 0 or h != hulls[i - 1]]
    assert len(hulls) > 700 and builds == moved
    assert len(hulls) - len(builds) >= 0.9 * len(hulls)


def _outputs(tr):
    """Every array and number of a trace, as bytes."""
    arrays = [tr.survival_factors, tr.log_mass, tr.distribution.values,
              np.array([tr.distribution.log_mass, tr.clip_lost, tr.edge_lost])]
    arrays += [tr.tracked_values[y] for y in sorted(tr.tracked_values)]
    arrays += [tr.tracked_ratios[y] for y in sorted(tr.tracked_ratios)]
    for k in sorted(tr.snapshots):
        snap = tr.snapshots[k]
        arrays += [snap.values, np.array([k, snap.log_mass, snap.clipped])]
    return [a.tobytes() for a in arrays] + [(tr.live_hull.lo, tr.live_hull.hi)]


@settings(max_examples=40, deadline=None)
@given(
    left=rates,
    right=rates,
    overrides=st.dictionaries(st.integers(-40, 40), rates, max_size=6),
    x0=st.integers(-30, 30),
    n=st.integers(2 * M, 12 * M),
    clip=st.just(0.0) | st.floats(1e-30, 1e-6),
    at=st.lists(st.integers(1, 12 * M), max_size=3),
    cap=st.none() | st.integers(4 * M + 2, 8 * M),
)
def test_reused_plans_match_a_new_plan_per_block(left, right, overrides, x0, n, clip, at, cap):
    """Dropping the kept plan before every block makes each block build
    its own; the run is the same to the bit, snapshots, tracked values and
    clip included, on the growing window and on capped ones."""
    kernel = NNKernel(
        (Region(None, -1, *left), Region(0, None, *right)),
        tuple((site, *row) for site, row in sorted(overrides.items())),
    )
    kw = dict(tracked=(x0, x0 + 3, -x0), clip=clip, snapshot_at=tuple(at), max_halfwidth=cap)
    kept = _outputs(evolve_trace(kernel, x0, n, **kw))
    block, blocks, builds = chain._BlockTables.block, [], []
    plan = chain._BlockTables._plan

    def block_on_a_new_plan(self, v, a, b):
        self.plan = None
        blocks.append((a, b))
        return block(self, v, a, b)

    def counting_plan(self, v, a, b):
        builds.append((a, b))
        return plan(self, v, a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain._BlockTables, "block", block_on_a_new_plan)
        mp.setattr(chain._BlockTables, "_plan", counting_plan)
        fresh = _outputs(evolve_trace(kernel, x0, n, **kw))
    assert builds == blocks
    assert fresh == kept


def test_correlation_serves_most_band_product_sites(modes):
    """On lazified two_sided only the sites within m of a rate change
    gather their own band rows; the rest are served by correlations."""
    evolve_trace(lazify(preset_kernel("two_sided"), 0.5), 0, 3000)
    assert modes["blocks"] == 3000 // M
    assert sum(modes["runs"]) > 0.8 * modes["band_sites"]


def test_tables_take_one_backward_run_without_long_runs(modes, monkeypatch):
    """A new rate at every site leaves no long run, so every site has its
    own rows.  Building the tables steps m times, once per step of the one
    run that gives every row and the watch columns, and a run with watch
    sites builds them once."""
    calls, made = {"backward": 0}, []
    backward, init = chain._backward, chain._BlockTables.__init__

    def counting_backward(*args):
        calls["backward"] += 1
        return backward(*args)

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(chain, "_backward", counting_backward)
    monkeypatch.setattr(chain._BlockTables, "__init__", counting_init)
    kernel = NNKernel(
        (Region(None, None, 0.25, 0.4, 0.25),),
        tuple((t, 0.2 + 0.1 * (7 * t % 11) / 11, 0.4, 0.25) for t in range(-3100, 3101)),
    )
    evolve_trace(kernel, 0, 3000, tracked=(0, 7, -3000, 3000))
    assert modes["blocks"] == 3000 // M and modes["runs"] == []
    [tables] = made
    assert calls["backward"] == M and tables.cols.shape == (4, 2 * M + 1, M)


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


def _exact_band_product(law, rates, y):
    """(v K^m)(y) in Fractions: the column K^j(., y), stepped back m times
    from e_y on the window (rates 0 off it), against the law's floats."""
    up, stay, down = ([Fraction(x) for x in r.tolist()] for r in rates)
    col = {y: Fraction(1)}
    for _ in range(M):
        col = {
            x: stay[x] * col.get(x, 0) + up[x] * col.get(x + 1, 0) + down[x] * col.get(x - 1, 0)
            for x in range(max(y - M, 0), min(y + M + 1, len(law)))
        }
    return sum(Fraction(float(law[x])) * c for x, c in col.items())


def test_scaled_tables_keep_digits_near_the_smallest_normal_float(monkeypatch):
    """One block on a flushed law of lazified two_sided, whose tails fall
    from the bulk down to the smallest normal float 2^-1022.  Unscaled,
    the band product's taps times the law's tail entries round to
    subnormals, and the entries it gives in [2^-1022, 2^-969] were off by
    up to 2.5e-15; with the tables stored times 2^200 they are within
    1e-15 of the exact product.  The masses S_j do not use the scaled
    tables, so each entry is held against the exact v K^m divided by the
    block's own S_m.  Every larger entry is the unscaled one to the bit."""
    kernel = lazify(preset_kernel("two_sided"), 0.5)
    tr = evolve_trace(kernel, 0, 3000)
    law, lo = tr.distribution.values, tr.distribution.window.lo
    rates = kernel.rows(lo, tr.distribution.window.hi)
    a, b = tr.live_hull.lo - lo, tr.live_hull.hi - lo
    assert law.max() > 1e-2 and 2.0**-1022 <= law[law > 0].min() < 2.0**-1021

    def one_block(scale):
        monkeypatch.setattr(chain, "_SCALE", scale)
        v = law.copy()
        tables = chain._BlockTables(*rates, np.array([], dtype=np.intp))
        return v, tables.block(v, a, b)[0][-1]

    v, S = one_block(2.0**200)
    v_unscaled, S_unscaled = one_block(1.0)
    assert S == S_unscaled
    errors = {}
    for y in np.flatnonzero((v >= 2.0**-1022) & (v <= 2.0**-969)).tolist():
        exact = _exact_band_product(law, rates, y) / Fraction(float(S))
        errors[y] = [abs(float((Fraction(float(w[y])) - exact) / exact)) for w in (v, v_unscaled)]
    assert len(errors) > 40
    assert max(new for new, _ in errors.values()) <= 1e-15
    assert max(old for _, old in errors.values()) > 2e-15  # what the scale mends
    bulk = v > 2.0**-969
    np.testing.assert_array_equal(v[bulk], v_unscaled[bulk])


@pytest.mark.parametrize("lazy", [0.5, None], ids=["lazy", "raw"])
@pytest.mark.parametrize("name", PRESETS)
def test_every_stored_tap_is_at_least_one(name, lazy):
    """A positive tap of at least 2^-200 becomes at least 1 in the scaled
    tables, so its product with a law entry of at least 2^-1022 is normal.
    Every preset's taps stay above that, near its rate changes too."""
    kernel = preset_kernel(name)
    if lazy is not None:
        kernel = lazify(kernel, lazy)
    up, stay, down = kernel.rows(-400, 400)
    width = len(up)
    tables = chain._BlockTables(up, stay, down, np.array([0, 5, 400, 421, width - 1]))
    ids, rows = _computed(tables)
    taps = np.concatenate([tables.G_rows[ids].ravel(), tables.G_sites[rows].ravel(),
                           tables.cols.ravel()])
    assert taps[taps > 0].min() >= 1.0


def _adversarial_kernel(case):
    if case == "largest-taps":
        moves = [(1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)]
        return NNKernel(
            (Region(None, None, 0.3, 0.3, 0.3),),
            tuple((x, *moves[x % 4]) for x in range(-600, 601)),
        )
    return NNKernel((Region(None, -1, 1e-3, 0.6, 0.3), Region(0, None, 0.25, 0.5, 0.2)))


@pytest.mark.parametrize("case", ["largest-taps", "taps-below-2^-200"])
def test_adversarial_taps_match_single_steps(case, modes, monkeypatch):
    """Sites that move their mass up or down with probability 1, in pairs
    up, up, down, down, give taps of exactly 1 and columns of K summing to
    2, the largest scaled sums.  A rate of 1e-3 gives taps below 2^-200,
    whose products with the law's tail can still round to subnormals:
    slower, but as exact.  Both blocked runs agree with single steps to a
    few ulps."""
    kernel = _adversarial_kernel(case)
    x0, n, tracked = 3, 15 * M + 7, (3, 4, -20)
    up, stay, down = kernel.rows(x0 - n, x0 + n)
    tables = chain._BlockTables(up, stay, down, np.array([n]))
    taps = tables.G_rows[_computed(tables)[0]]
    small = taps[taps > 0].min()
    assert small == chain._SCALE if case == "largest-taps" else small < 1.0
    blocked = evolve_trace(kernel, x0, n, tracked=tracked)
    assert modes["blocks"] >= n // M - 1  # the slow left tail reaches the window's end
    monkeypatch.setattr(chain._BlockTables, "block", lambda self, v, a, b: None)
    single = evolve_trace(kernel, x0, n, tracked=tracked)
    ulps = 8 * np.finfo(float).eps
    assert_rel(blocked.survival_factors, single.survival_factors, ulps)
    assert_rel(blocked.log_mass, single.log_mass, ulps)
    assert_norm_rel(blocked.distribution.values, single.distribution.values, ulps)
    for y in tracked:
        assert_rel(blocked.tracked_values[y], single.tracked_values[y], ulps)


def _step_back(h, up, stay, down):
    """K h along the last axis, h 0 past both ends, in the products and
    order of the propagation core."""
    out = stay * h
    out[..., :-1] += up[..., :-1] * h[..., 1:]
    out[..., 1:] += down[..., 1:] * h[..., :-1]
    return out


def _per_id_tables(tables, watch):
    """The tables of ``tables`` as each id's rows come from its own vectors
    of 2m + 1 sites around its first site y: 2^200 e_y and the ones
    vector, both stepped back m times on the rates there (0 off the
    window).  Returns ``G_rows``, ``C_rows``, ``G_sites`` and ``cols``."""
    up, stay, down = tables.rates
    width = len(up)

    def near(sites):
        x = sites[:, None] + np.arange(-M, M + 1)
        inside = (x >= 0) & (x < width)
        return [r[np.clip(x, 0, width - 1)] * inside for r in (up, stay, down)], inside

    rates, inside = near(tables.firsts)
    band, ones = np.zeros(inside.shape), inside.astype(float)
    band[:, M] = chain._SCALE
    C = np.empty((tables.firsts.size, M))
    for j in range(M):
        band, ones = _step_back(band, *rates), _step_back(ones, *rates)
        C[:, j] = ones[:, M]
    cols = None
    if watch.size:
        rates, inside = near(watch)
        h = np.zeros(inside.shape)
        h[:, M] = chain._SCALE
        cols = np.empty((watch.size, 2 * M + 1, M))
        for j in range(M):
            h = _step_back(h, *rates)
            cols[:, :, j] = h
    short = ~tables.long[tables.ids]
    return band, C, band[tables.ids[short]], cols


def _assert_tables_match_per_id_fill(tables, watch):
    """Every computed row, and the watch columns, to the bit."""
    G, C, G_sites, cols = _per_id_tables(tables, watch)
    ids, rows = _computed(tables)
    assert np.array_equal(tables.G_rows[ids], G[ids])
    assert np.array_equal(tables.C_rows[ids], C[ids])
    assert np.array_equal(tables.G_sites[rows], G_sites[rows])
    assert (tables.cols is None) == (cols is None)
    if cols is not None:
        assert np.array_equal(tables.cols, cols)


@contextlib.contextmanager
def _made_tables():
    """Every ``_BlockTables`` built in the block, with its watch sites."""
    made = []
    init = chain._BlockTables.__init__

    def keeping_init(self, up, stay, down, watch):
        init(self, up, stay, down, watch)
        made.append((self, watch))

    chain._BlockTables.__init__ = keeping_init
    try:
        yield made
    finally:
        chain._BlockTables.__init__ = init


def _fill_and_run(kernel, x0=2, n=1200):
    """Build a window's tables, then run on another, and check both."""
    up, stay, down = kernel.rows(-400, 400)
    with _made_tables() as made:
        chain._BlockTables(up, stay, down, np.array([0, 5, 400, 421, len(up) - 1]))
        evolve_trace(kernel, x0, n, tracked=(x0, x0 + 3, -x0))
    assert len(made) == 2
    for t, watch in made:
        _assert_tables_match_per_id_fill(t, watch)


@pytest.mark.parametrize("lazy", [0.5, None], ids=["lazy", "raw"])
@pytest.mark.parametrize("name", PRESETS)
def test_tables_match_per_id_fill_on_presets(name, lazy):
    kernel = preset_kernel(name)
    if lazy is not None:
        kernel = lazify(kernel, lazy)
    _fill_and_run(kernel)


@pytest.mark.parametrize("case", ["rate-per-site", "largest-taps", "taps-below-2^-200"])
def test_tables_match_per_id_fill_on_adversarial_kernels(case):
    if case == "rate-per-site":
        kernel = NNKernel(
            (Region(None, None, 0.25, 0.4, 0.25),),
            tuple((t, 0.2 + 0.1 * (7 * t % 11) / 11, 0.4, 0.25) for t in range(-3100, 3101)),
        )
    else:
        kernel = _adversarial_kernel(case)
    _fill_and_run(kernel, x0=3)


@settings(max_examples=30, deadline=None)
@given(
    left=rates,
    right=rates,
    overrides=st.dictionaries(st.integers(-40, 40), rates, max_size=6),
    x0=st.integers(-30, 30),
    n=st.integers(4 * M, 12 * M),
    cap=st.integers(4 * M + 2, 5 * M),
)
def test_tables_match_per_id_fill_on_random_region_kernels(left, right, overrides, x0, n, cap):
    """Capped windows of 4m + 5 to 10m + 1 sites, where ids near rate
    changes lie near both window ends and the tracked sites may lie at
    or past the ends of a watch column."""
    kernel = NNKernel(
        (Region(None, -1, *left), Region(0, None, *right)),
        tuple((site, *row) for site, row in sorted(overrides.items())),
    )
    with _made_tables() as made:
        evolve_trace(kernel, x0, n, tracked=(x0, -x0), max_halfwidth=cap)
    [(t, watch)] = made
    _assert_tables_match_per_id_fill(t, watch)


def test_fill_steps_the_ones_vector_near_its_sites_only(monkeypatch):
    """On an 80 001-site window, the one run that builds the tables steps
    a vector of 2m + 2 sites per computed id for the band columns and at
    most as many for the ones vector, never the whole window."""
    sizes, fills = [], []
    backward, fill = chain._backward, chain._BlockTables._fill

    def counting_backward(h, *rates):
        sizes.append(h.size)
        return backward(h, *rates)

    def counting_fill(self, need, watch):
        fills.append(need.size)
        fill(self, need, watch)

    monkeypatch.setattr(chain, "_backward", counting_backward)
    monkeypatch.setattr(chain._BlockTables, "_fill", counting_fill)
    width = 80001
    up, stay, down = lazify(preset_kernel("two_sided"), 0.5).rows(-(width // 2), width // 2)
    tables = chain._BlockTables(up, stay, down, np.array([], dtype=np.intp))
    [ids] = fills
    assert ids == _computed(tables)[0].size == tables.firsts.size - 2 * M
    ones = sizes[0] - (2 * M + 2) * ids  # past the band columns
    assert len(sizes) == M and len(set(sizes)) == 1
    assert 0 < ones <= (2 * M + 2) * ids and ones < width // 50


@pytest.mark.parametrize("lazy", [0.5, None], ids=["lazy", "raw"])
@pytest.mark.parametrize("name", PRESETS)
def test_window_end_rows_are_never_read(name, lazy, monkeypatch):
    """The tables leave the rows of the 2m sites nearest the window ends
    uncomputed.  Set to NaN, they change no value of a run: on the growing
    window, with tracked sites at both ends of a capped one, and clipped."""
    kernel = preset_kernel(name)
    if lazy is not None:
        kernel = lazify(kernel, lazy)
    runs = [
        dict(tracked=(2, 5, -20)),
        dict(tracked=(2, -198, 202, 201), max_halfwidth=200),
        dict(tracked=(2, -598, 602), clip=1e-20, max_halfwidth=600),
    ]

    def outputs():
        out = []
        for kw in runs:
            tr = evolve_trace(kernel, 2, 2000, **kw)
            out += [tr.survival_factors, tr.log_mass, tr.distribution.values,
                    np.array([tr.clip_lost, tr.edge_lost])]
            out += [tr.tracked_values[y] for y in kw["tracked"]]
        return out

    plain = outputs()
    init, poisoned = chain._BlockTables.__init__, []

    def poisoning_init(self, *args):
        init(self, *args)
        ends = np.r_[0:M, self.width - M : self.width]
        self.G_rows[self.ids[ends]] = np.nan
        self.C_rows[self.ids[ends]] = np.nan
        self.G_sites[self.pos[ends]] = np.nan  # every end site has its own short id
        poisoned.append(self)

    monkeypatch.setattr(chain._BlockTables, "__init__", poisoning_init)
    assert len(poisoned) == 0
    for want, got in zip(plain, outputs(), strict=True):
        assert np.array_equal(want, got)
    assert len(poisoned) == len(runs)
