"""The live-hull propagation core against the dense tridiagonal step.

``dense_step`` below is the three-line update every forward run used to
copy, applied to the whole window.  It stays here as the oracle: stepping
only the live hull must give the same sites, and sums that differ only in
their summation order (a few ulps).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from yaglom import (
    NNKernel,
    Region,
    brute_force_distribution,
    check_conditions,
    estimate_hhat,
    evolve_trace,
    green,
    lazify,
    preset_kernel,
    validate,
)
from yaglom import chain
from yaglom.chain import _forward_step, _hull

PRESETS = ("two_sided", "symmetric", "kesten", "alpha_walk")
REL = 1e-14
BLOCK = 32  # steps per record of a run, the period of its clip


def dense_step(v, up, stay, down):
    w = v * stay
    w[1:] += v[:-1] * up[:-1]
    w[:-1] += v[1:] * down[1:]
    return w


def dense_backward(h, up, stay, down):
    """(K h)(x) = up[x] h(x+1) + stay[x] h(x) + down[x] h(x-1), zero outside."""
    w = h * stay
    w[1:] += down[1:] * h[:-1]
    w[:-1] += up[:-1] * h[1:]
    return w


def dense_trace(kernel, x0, n, tracked=(), clip=0.0, max_halfwidth=None, stops=()):
    """The pre-hull ``evolve_trace`` loop, whole window every step.

    A clip acts where a record of the run ends: every ``BLOCK`` steps
    counted from the last step in ``stops``, at each step in ``stops`` and
    at step n.  It zeroes the entries of the normalised law below ``clip``,
    renormalises by the kept fraction, and multiplies that step's survival
    factor by it.
    """
    half = n if max_halfwidth is None else min(n, max_halfwidth)
    lo, hi = x0 - half, x0 + half
    up, stay, down = kernel.rows(lo, hi)
    v = np.zeros(hi - lo + 1)
    v[x0 - lo] = 1.0
    clipped = 0.0
    logs = []
    surv = np.empty(n)
    vals = {y: np.full(n + 1, np.nan) for y in tracked}
    for y in tracked:
        vals[y][0] = 1.0 if y == x0 else 0.0
    last_stop = 0
    for k in range(1, n + 1):
        w = dense_step(v, up, stay, down)
        edge = v[0] * down[0] + v[-1] * up[-1]
        s = float(w.sum())
        if edge > 0.0:
            clipped += edge / s
        v = w / s
        if clip > 0.0 and ((k - last_stop) % BLOCK == 0 or k in stops or k == n):
            small = v < clip
            lost = float(v[small].sum())
            if lost > 0.0:
                v[small] = 0.0
                clipped += lost
                kept = float(v.sum())
                v /= kept
                s *= kept
        if k in stops:
            last_stop = k
        surv[k - 1] = s
        logs.append(math.log(s))
        for y in tracked:
            vals[y][k] = v[y - lo]
    return surv, math.fsum(logs), v, clipped, vals


def dense_forward_runs(kernel, x0, n):
    """Per-step (log K^n(x0,S), normalised vector) on the window x0 +- n."""
    lo = x0 - n
    up, stay, down = kernel.rows(lo, x0 + n)
    v = np.zeros(2 * n + 1)
    v[x0 - lo] = 1.0
    logs = []
    for _ in range(n):
        w = dense_step(v, up, stay, down)
        s = float(w.sum())
        v = w / s
        logs.append(math.log(s))
        yield lo, math.fsum(logs), v


def assert_rel(got, want, rel=REL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    scale = np.maximum(np.abs(want[ok]), np.finfo(float).tiny)
    assert np.all(np.abs(got[ok] - want[ok]) <= rel * scale)


def assert_norm_rel(got, want, rel=REL):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize(
    "mode", [{}, {"max_halfwidth": 120, "clip": 1e-20}], ids=["growing", "capped"]
)
def test_trace_matches_dense_loop(name, mode):
    kernel = lazify(preset_kernel(name), 0.25)
    x0, n, tracked = 3, 1500, (3, 0, -2, 7)
    tr = evolve_trace(kernel, x0, n, tracked=tracked, **mode)
    surv, log_mass, v, clipped, vals = dense_trace(kernel, x0, n, tracked, **mode)
    assert_rel(tr.survival_factors, surv)
    assert tr.distribution.log_mass == pytest.approx(log_mass, rel=REL)
    assert_norm_rel(tr.distribution.values, v)
    assert tr.distribution.clipped == pytest.approx(clipped, rel=REL, abs=0.0)
    for y in tracked:
        assert_rel(tr.tracked_values[y], vals[y])
        prev, cur = vals[y][:-1], vals[y][1:]
        ratio = np.where(prev > 0, surv * cur / np.where(prev > 0, prev, 1.0), np.nan)
        assert_rel(tr.tracked_ratios[y], ratio)
    if mode:
        assert clipped > 0.0
    else:
        assert clipped == 0.0


@pytest.mark.parametrize(
    "mode, edge, clip",
    [({}, False, False),
     ({"max_halfwidth": 60}, True, False),
     ({"clip": 1e-12}, False, True),
     ({"max_halfwidth": 30, "clip": 1e-12}, True, True)],
)
def test_edge_and_clip_losses_sum_to_clipped(mode, edge, clip):
    tr = evolve_trace(lazify(preset_kernel("symmetric"), 0.5), 0, 800, **mode)
    assert (tr.edge_lost > 0.0) == edge
    assert (tr.clip_lost > 0.0) == clip
    assert tr.edge_lost + tr.clip_lost == tr.distribution.clipped


def test_live_hull_brackets_the_final_support():
    tr = evolve_trace(lazify(preset_kernel("two_sided"), 0.5), 0, 4000)
    dist = tr.distribution
    nz = dist.window.lo + np.flatnonzero(dist.values)
    assert tr.live_hull.lo == nz[0] - 1
    assert tr.live_hull.hi == nz[-1] + 1
    assert len(tr.live_hull) < len(dist.window) // 2


def forward_green(kernel, x, y, w, N):
    """sum_{n<=N} w^n K^n(x, y), or with K^n(x, S) for y = "S", read off
    one run's ``log_mass`` and ``tracked_values``."""
    tr = evolve_trace(kernel, x, N, tracked=() if y == "S" else (y,))
    terms = np.exp(np.concatenate([[0.0], tr.log_mass])) * w ** np.arange(N + 1.0)
    return float((terms if y == "S" else terms * tr.tracked_values[y]).sum())


@pytest.mark.parametrize("y", [0, "S"])
def test_green_and_forward_sum_match_dense_loop(y):
    """The forward partial sum against the dense loop at N, and ``green``
    against the dense loop run on until its terms fall below 1e-17 of the
    sum."""
    kernel = preset_kernel("two_sided")
    x, w, N, M = 1, 1.1, 1200, 2400
    terms = np.zeros(M + 1)
    terms[0] = 1.0 if y in ("S", x) else 0.0
    for n, (lo, log_mass, v) in enumerate(dense_forward_runs(kernel, x, M), start=1):
        terms[n] = math.exp(log_mass + n * math.log(w)) * (1.0 if y == "S" else v[y - lo])
    assert terms[-2:].max() < 1e-17 * terms.sum()
    assert forward_green(kernel, x, y, w, N) == pytest.approx(terms[: N + 1].sum(), rel=REL)
    assert green(kernel, x, y, w) == pytest.approx(terms.sum(), rel=1e-12)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
@pytest.mark.parametrize("name, lazy", [("two_sided", 0.5), ("alpha_walk", None)])
def test_survival_green_sweep_against_extended_precision(name, lazy):
    """The forward survival sum, from ``log_mass`` over 2000 steps, against
    an 80-bit dense loop."""
    kernel = preset_kernel(name)
    if lazy is not None:
        kernel = lazify(kernel, lazy)
    z, N = 0, 2000
    up, stay, down = (r.astype(np.longdouble) for r in kernel.rows(z - N, z + N))
    v = np.zeros(2 * N + 1, dtype=np.longdouble)
    v[N] = 1.0
    want = np.ones(N + 1, dtype=np.longdouble)
    for n in range(1, N + 1):
        v = dense_step(v, up, stay, down)
        want[n] = v.sum()
    got = forward_green(kernel, z, "S", 1.0, N)
    assert got == pytest.approx(float(want.sum()), rel=1e-12)


def test_check_conditions_probes_are_green_solves():
    """Each [2] probe, at the fixed sites -20, 0 and 20, is E_z R^zeta =
    1 + (R - 1) G_{z,S}(w) at the checker's weight, from ``green``'s exact
    solve."""
    kernel = lazify(preset_kernel("two_sided"), 0.5)
    probes = (-20, 0, 20)
    rep = check_conditions(kernel)
    ev = rep.verdicts["2"].evidence
    assert {key for key in ev if key.startswith("E_R_zeta_at_")} == {
        f"E_R_zeta_at_{z}" for z in probes
    }
    R = ev["R"]
    w = R * (1.0 - 2.0 * ev["rho_error_bound"] - 1e-6)
    for z in probes:
        assert ev[f"E_R_zeta_at_{z}"] == 1.0 + (R - 1.0) * green(kernel, z, "S", w)
    assert not any(key.startswith("green_tail") for key in ev)
    assert rep.status("2") == "holds"


def test_estimate_hhat_matches_dense_loop():
    kernel = lazify(preset_kernel("symmetric"), 0.5)
    x0, n, sites = 0, 900, (-2, 0, 1, 3)

    def series(start):
        lo = start - n - 1
        up, stay, down = kernel.rows(lo, start + n + 1)
        v = np.zeros(2 * n + 3)
        v[start - lo] = 1.0
        logm, val, logs = np.zeros(n + 1), np.zeros(n + 1), []
        val[0] = 1.0 if start == x0 else 0.0
        for k in range(1, n + 1):
            w = dense_step(v, up, stay, down)
            s = float(w.sum())
            v = w / s
            logs.append(math.log(s))
            logm[k] = math.fsum(logs)
            val[k] = v[x0 - lo]
        return logm, val

    logm0, val0 = series(x0)
    est = estimate_hhat(kernel, x0, sites, n)
    for x in sites:
        logmx, valx = series(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.exp(logmx - logm0) * valx / val0
        want[~np.isfinite(want)] = np.nan
        assert_rel(est.series[x], want, rel=1e-12)


@pytest.mark.parametrize("name", ("two_sided", "symmetric", "kesten"))
def test_estimate_hhat_matches_exact_oracle(name):
    """Every entry of the forward run's series, by detailed balance,
    against exact K^n(x,x0)/K^n(x0,x0)."""
    kernel = lazify(preset_kernel(name), 0.5)
    x0, n_max, sites = 0, 12, (-3, -2, -1, 0, 1, 2, 3)
    est = estimate_hhat(kernel, x0, sites, n_max)
    for n in range(n_max + 1):
        at_x0 = {x: brute_force_distribution(kernel, x, n)[0].get(x0, 0) for x in sites}
        for x in sites:
            want = float(at_x0[x] / at_x0[x0])
            assert abs(est.series[x][n] - want) <= 1e-14 * want


def test_estimate_hhat_is_mirror_symmetric():
    """Ratios at -x and +x come from one forward law from the mirror point
    and detailed-balance factors that agree to the bit, so they agree to
    rounding.  The table extrapolates them over consecutive steps up to n,
    which multiplies their relative difference by at most 2n - 1."""
    n = 2500
    est = estimate_hhat(lazify(preset_kernel("symmetric"), 0.5), 0, (-3, -2, -1, 1, 2, 3), n)
    for x in (1, 2, 3):
        assert_rel(est.series[-x], est.series[x])
        assert abs(est.table[-x] - est.table[x]) <= (2 * n - 1) * REL * est.table[x]


def test_estimate_hhat_site_out_of_reach_is_zero():
    est = estimate_hhat(lazify(preset_kernel("two_sided"), 0.5), 0, (0, 50), 10)
    np.testing.assert_array_equal(est.series[50], np.zeros(11))
    np.testing.assert_array_equal(est.series[0], np.ones(11))
    assert est.table[50] == 0.0 and not est.converged[50]
    # period 2: K^n(0,0) is 0 at odd n, so the far site reads 0/0 there
    est = estimate_hhat(preset_kernel("two_sided"), 0, (0, 50), 10)
    want = np.zeros(11)
    want[1::2] = np.nan
    np.testing.assert_array_equal(est.series[50], want)
    np.testing.assert_array_equal(est.series[0], np.ones(11))
    assert est.table[50] == 0.0 and not est.converged[50]


class CountingKernel:
    """A kernel that counts its ``rows`` calls and the sites they ask for."""

    def __init__(self, kernel):
        self.kernel, self.calls, self.widest = kernel, 0, 0

    def rows(self, lo, hi):
        self.calls += 1
        self.widest = max(self.widest, hi - lo + 1)
        return self.kernel.rows(lo, hi)


def test_estimate_hhat_reads_rows_once():
    counting = CountingKernel(lazify(preset_kernel("kesten"), 0.5))
    estimate_hhat(counting, 0, (-3, -1, 0, 1, 3, 40), 300)
    assert counting.calls == 1


def test_estimate_hhat_far_site_does_not_widen_the_window():
    # the run's window is [x0 - n_max, x0 + n_max], and the rates that
    # detailed balance needs are read from it, whatever far site is asked for
    counting = CountingKernel(lazify(preset_kernel("two_sided"), 0.5))
    est = estimate_hhat(counting, 0, (0, 10**6), 50)
    assert counting.calls == 1 and counting.widest <= 2 * 50 + 3
    np.testing.assert_array_equal(est.series[10**6], np.zeros(51))


@pytest.mark.parametrize("kernel", [preset_kernel("kesten"), lazify(preset_kernel("two_sided"), 0.5)],
                         ids=["kesten", "lazified two_sided"])
def test_estimate_hhat_live_hull_stays_bounded(kernel, monkeypatch):
    """The forward law stays concentrated, so no block of an n = 8192 run
    steps a hull wider than 3000 sites: the cost is linear in n."""
    widths, block = [], chain._BlockTables.block

    def recording_block(self, v, a, b):
        widths.append(b - a + 1)
        return block(self, v, a, b)

    monkeypatch.setattr(chain._BlockTables, "block", recording_block)
    estimate_hhat(kernel, 0, (-3, -1, 1, 3), 8192)
    assert widths and max(widths) <= 3000


def test_estimate_hhat_series_does_not_depend_on_the_other_sites():
    # far sites on both sides once widened the window, so blocks ran longer
    # and the near sites' series moved by a few ulps
    kernel = lazify(preset_kernel("two_sided"), 0.5)
    alone = estimate_hhat(kernel, 0, (3,), 300).series[3]
    with_far = estimate_hhat(kernel, 0, (-500, 3, 500), 300).series[3]
    assert alone.tobytes() == with_far.tobytes()


rate_triples = st.lists(
    st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    min_size=3,
    max_size=3,
)


def random_kernel(rates):
    (p0, r0, q0), (p1, r1, q1), (p2, r2, q2) = rates
    return NNKernel(
        (Region(None, -1, p0, r0, q0), Region(1, None, p1, r1, q1)),
        ((0, p2, r2, q2),),
    )


def floored(rates):
    """Each (p, r, q) of ``rate_triples`` as p and q in [0.05, 0.35] and r
    0.0 or in [0.03, 0.3]: rows that sum to at most 1 and step both ways."""
    return [(0.05 + 0.6 * p, 0.6 * r if r >= 0.05 else 0.0, 0.05 + 0.6 * q) for p, r, q in rates]


@settings(max_examples=60, deadline=None)
@given(rates=rate_triples, x0=st.integers(-6, 6), n=st.integers(1, 200))
def test_estimate_hhat_matches_transposed_dense_loop(rates, x0, n):
    """The forward run read by detailed balance gives the series of the
    old definition, K^n e_{x0} by dense backward steps on the whole window.

    With rates at least 0.03 where positive, K^n(x0, x) stays far above
    the smallest normal float for n <= 200, so the forward run flushes no
    entry that the ratios read."""
    kernel = random_kernel(floored(rates))
    assume(not validate(kernel))
    sites = (x0 - 3, x0 - 1, x0 + 1, x0 + 2)
    lo = x0 - n - 1
    up, stay, down = kernel.rows(lo, x0 + n + 1)
    h = np.zeros(2 * n + 3)
    h[x0 - lo] = 1.0
    vals = np.empty((n + 1, h.size))
    vals[0] = h
    for k in range(1, n + 1):
        h = dense_backward(h, up, stay, down)
        h /= h.sum()
        vals[k] = h
    est = estimate_hhat(kernel, x0, sites, n)
    for x in sites:
        with np.errstate(divide="ignore", invalid="ignore"):
            want = vals[:, x - lo] / vals[:, x0 - lo]
        want[~np.isfinite(want)] = np.nan
        assert_rel(est.series[x], want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    rates=rate_triples,
    x=st.integers(-6, 6),
    dy=st.one_of(st.integers(-5, 5), st.just("S")),
    w=st.floats(0.0, 0.9),
)
def test_green_matches_forward_sums_on_region_kernels(rates, x, dy, w):
    """The exact solve against 400 forward terms.  Every term is at most
    w^n <= 0.9^n, so the terms past 400 add less than 5e-18."""
    kernel = random_kernel(floored(rates))
    assume(not validate(kernel))
    y = dy if dy == "S" else x + dy
    assert green(kernel, x, y, w) == pytest.approx(forward_green(kernel, x, y, w, 400), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    rates=rate_triples,
    half=st.integers(0, 12),
    offset=st.integers(-12, 12),
    steps=st.integers(1, 40),
)
def test_transposed_forward_step_is_backward_step(rates, half, offset, steps):
    """A forward step on the rates (down[x+1], stay[x], up[x-1]) is the
    dense K h step on the window, site for site."""
    lo, hi = -half, half
    up, stay, down = random_kernel(rates).rows(lo - 1, hi + 1)
    x0 = min(max(offset, lo), hi)
    h = np.zeros(hi - lo + 1)
    h[x0 - lo] = 1.0
    a, b = _hull(h, x0 - lo, x0 - lo)
    for _ in range(steps):
        want = dense_backward(h, up[1:-1], stay[1:-1], down[1:-1])
        a, b = _forward_step(h, down[2:], stay[1:-1], up[:-2], a, b)
        np.testing.assert_array_equal(h, want)


@settings(max_examples=60, deadline=None)
@given(
    rates=rate_triples,
    half=st.integers(0, 12),
    offset=st.integers(-12, 12),
    steps=st.integers(1, 40),
    zap=st.sets(st.integers(-12, 12), max_size=4),
)
def test_hull_stays_in_window_and_covers_support(rates, half, offset, steps, zap):
    """After every step the hull lies in the window, every site outside it
    is 0.0, and the step equals the dense one site for site, also when
    sites are zeroed between steps (as clipping and the flush do)."""
    kernel = random_kernel(rates)
    lo, hi = -half, half
    up, stay, down = kernel.rows(lo, hi)
    x0 = min(max(offset, lo), hi)
    v = np.zeros(hi - lo + 1)
    v[x0 - lo] = 1.0
    a, b = _hull(v, x0 - lo, x0 - lo)
    for _ in range(steps):
        want = dense_step(v, up, stay, down)
        a, b = _forward_step(v, up, stay, down, a, b)
        np.testing.assert_array_equal(v, want)
        assert 0 <= a <= b <= len(v) - 1
        assert not v[:a].any() and not v[b + 1 :].any()
        for y in zap:
            if lo <= y <= hi:
                v[y - lo] = 0.0
