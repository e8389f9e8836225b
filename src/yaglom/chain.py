"""Substochastic nearest-neighbour kernels on the integers.

A kernel assigns each site x the probabilities (p_x, r_x, q_x) of stepping
up, staying put, and stepping down; the deficit k_x = 1 - p_x - r_x - q_x is
the per-visit killing probability.  Kernels are stored as a finite list of
homogeneous regions (half-lines or intervals with constant rates) plus a
finite table of per-site overrides, so piecewise-homogeneous chains on all
of Z are represented exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "Region",
    "NNKernel",
    "Window",
    "MassState",
    "DegenerateKernelError",
    "validate",
    "lazify",
    "square_even",
]

_MASS_TOL = 1e-12
_MAX_SPAN = 10**6  # most sites that validation or an exact Green solve walks one by one


class DegenerateKernelError(RuntimeError):
    """Raised when a kernel step annihilates all mass."""


@dataclass(frozen=True)
class Region:
    """Half-line or interval of sites sharing one (p, r, q) triple.

    ``lo``/``hi`` are inclusive; ``None`` means unbounded on that side.
    """

    lo: int | None
    hi: int | None
    p: float
    r: float
    q: float

    @property
    def kill(self) -> float:
        return 1.0 - self.p - self.r - self.q


@dataclass(frozen=True)
class NNKernel:
    """Nearest-neighbour substochastic kernel: regions plus overrides."""

    regions: tuple[Region, ...]
    overrides: tuple[tuple[int, float, float, float], ...] = ()

    def row(self, x: int) -> tuple[float, float, float]:
        """Return (up, stay, down) at site x."""
        up, stay, down = self.rows(x, x)
        return float(up[0]), float(stay[0]), float(down[0])

    def kill(self, x: int) -> float:
        p, r, q = self.row(x)
        return 1.0 - p - r - q

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (up, stay, down) arrays for sites lo..hi inclusive.

        Overrides beat regions, and a later region beats an earlier one
        it overlaps.  Raises ValueError at the first site nothing covers.
        """
        n = hi - lo + 1
        up = np.empty(n)
        stay = np.empty(n)
        down = np.empty(n)
        covered = np.zeros(n, dtype=bool)
        for reg in self.regions:
            a = lo if reg.lo is None else max(lo, reg.lo)
            b = hi if reg.hi is None else min(hi, reg.hi)
            if a > b:
                continue
            up[a - lo : b - lo + 1] = reg.p
            stay[a - lo : b - lo + 1] = reg.r
            down[a - lo : b - lo + 1] = reg.q
            covered[a - lo : b - lo + 1] = True
        for site, p, r, q in self.overrides:
            if lo <= site <= hi:
                up[site - lo], stay[site - lo], down[site - lo] = p, r, q
                covered[site - lo] = True
        if not covered.all():
            raise ValueError(f"site {lo + int(np.argmin(covered))} not covered by any region")
        return up, stay, down

    def breakpoints(self) -> list[int]:
        """Finite sites where homogeneity can break (region edges, overrides)."""
        pts: set[int] = set(site for site, *_ in self.overrides)
        for reg in self.regions:
            if reg.lo is not None:
                pts.add(reg.lo)
            if reg.hi is not None:
                pts.add(reg.hi)
        return sorted(pts)

    def kill_sites(self) -> list[int] | None:
        """Sites with positive killing, or None if killing is unbounded."""
        sites: set[int] = set()
        for reg in self.regions:
            if reg.kill <= _MASS_TOL:
                continue
            if reg.lo is None or reg.hi is None:
                return None
            sites.update(range(reg.lo, reg.hi + 1))
        for site, p, r, q in self.overrides:
            if 1.0 - p - r - q > _MASS_TOL:
                sites.add(site)
            else:
                sites.discard(site)
        return sorted(sites)


@dataclass(frozen=True)
class Window:
    """Inclusive integer interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")

    def sites(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def __len__(self) -> int:
        return self.hi - self.lo + 1


@dataclass
class MassState:
    """Conditioned distribution on a window plus accumulated log survival.

    ``values`` sums to one; ``log_mass`` is log K^n(x0, S).  ``clipped``
    sums the fraction of each step's mass lost off a capped window and the
    fraction of the law removed by tail clipping at the end of each record
    of at most 32 steps (zero unless either was requested).  It is not a
    bound on the law's error: mass cut early is the mass that later
    renormalisation amplifies.
    """

    window: Window
    values: np.ndarray
    log_mass: float = 0.0
    clipped: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != len(self.window):
            raise ValueError("values length does not match window")
        if (self.values < 0).any():
            raise ValueError("negative mass")
        if abs(self.values.sum() - 1.0) > 1e-9:
            raise ValueError("values must sum to 1")

    def __getitem__(self, site: int) -> float:
        if site < self.window.lo or site > self.window.hi:
            return 0.0
        return float(self.values[site - self.window.lo])


def _rate_violations(label: str, p: float, r: float, q: float) -> list[str]:
    if not all(map(math.isfinite, (p, r, q))):
        return [f"non-finite rate at {label}"]
    out = []
    if p <= 0.0:
        out.append(f"p_{label}={p:g} breaks irreducibility")
    if q <= 0.0:
        out.append(f"q_{label}={q:g} breaks irreducibility")
    if min(p, r, q) < 0.0 or max(p, r, q) > 1.0:
        out.append(f"rates at {label} outside [0,1]")
    if 1.0 - p - r - q < -_MASS_TOL:
        out.append(f"negative killing at {label}: p+r+q>1")
    return out


def validate(kernel: NNKernel) -> list[str]:
    """Check kernel invariants; an empty report means the kernel is valid.

    Violations are data, not exceptions: the report lists one string per
    problem (coverage gaps/overlaps, non-finite or zero step rates, negative
    killing, or no killing anywhere).
    """
    report: list[str] = []
    regions = kernel.regions
    if not regions:
        return ["no regions"]

    def lo_key(reg: Region):
        return -math.inf if reg.lo is None else reg.lo

    ordered = sorted(regions, key=lo_key)
    if ordered[0].lo is not None:
        report.append("regions do not cover -infinity")
    if ordered[-1].hi is not None:
        report.append("regions do not cover +infinity")
    overridden = {site for site, *_ in kernel.overrides}
    for left, right in zip(ordered, ordered[1:]):
        if left.hi is None or right.lo is None:
            report.append("overlapping unbounded regions")
        elif right.lo > left.hi + 1:
            gap = range(left.hi + 1, right.lo)
            if len(gap) > _MAX_SPAN or any(x not in overridden for x in gap):
                report.append(f"coverage gap between {left.hi} and {right.lo}")
        elif right.lo < left.hi + 1:
            report.append(f"regions overlap near {right.lo}")

    for reg in ordered:
        report += _rate_violations(f"[{reg.lo},{reg.hi}]", reg.p, reg.r, reg.q)
    for site, p, r, q in kernel.overrides:
        report += _rate_violations(str(site), p, r, q)

    kills = kernel.kill_sites()
    if kills is not None and not kills:
        report.append("no killing anywhere")
    return report


def lazify(kernel: NNKernel, r: float) -> NNKernel:
    """Return r*I + (1-r)*K: eigenvalues shift to r + (1-r)*rho."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"lazification weight must be in [0,1), got {r}")
    regions = tuple(
        replace(reg, p=(1 - r) * reg.p, r=r + (1 - r) * reg.r, q=(1 - r) * reg.q)
        for reg in kernel.regions
    )
    overrides = tuple(
        (site, (1 - r) * p, r + (1 - r) * rr, (1 - r) * q)
        for site, p, rr, q in kernel.overrides
    )
    return NNKernel(regions, overrides)


def _two_step_row(kernel: NNKernel, x: int) -> tuple[float, float, float]:
    """(up, stay, down) of the two-step kernel from x to x+2, x, x-2."""
    p0, r0, q0 = kernel.row(x)
    pu, ru, qu = kernel.row(x + 1)
    pd, rd, qd = kernel.row(x - 1)
    return p0 * pu, p0 * qu + r0 * r0 + q0 * pd, q0 * qd


def square_even(kernel: NNKernel) -> NNKernel:
    """Two-step kernel restricted to even sites, relabelled j = x/2.

    For a period-2 kernel (stay rate 0 everywhere) the restriction loses
    nothing: per-site mass of the result equals the two-step survival
    probability.  Positive stay rates put two-step mass on odd sites,
    which the even class counts as extra killing.
    """
    marks: set[int] = set()
    for t in kernel.breakpoints():
        for j in range(math.floor((t - 1) / 2), math.ceil((t + 1) / 2) + 1):
            marks.add(j)
    ordered = sorted(marks)

    def even_row(j: int) -> tuple[float, float, float]:
        return _two_step_row(kernel, 2 * j)

    if not ordered:
        p, r, q = even_row(0)
        return NNKernel((Region(None, None, p, r, q),))

    regions: list[Region] = []
    overrides: list[tuple[int, float, float, float]] = []
    p, r, q = even_row(ordered[0] - 2)
    regions.append(Region(None, ordered[0] - 1, p, r, q))
    for j in ordered:
        overrides.append((j, *even_row(j)))
    for a, b in zip(ordered, ordered[1:]):
        if b - a > 1:
            p, r, q = even_row(a + 1)
            regions.append(Region(a + 1, b - 1, p, r, q))
    p, r, q = even_row(ordered[-1] + 2)
    regions.append(Region(ordered[-1] + 1, None, p, r, q))
    return NNKernel(tuple(regions), tuple(overrides))


def _hull(v: np.ndarray, a: int, b: int) -> tuple[int, int]:
    """Live hull of ``v`` given that its support lies in [a, b].

    The hull runs from the first nonzero index minus one to the last
    nonzero index plus one, clamped to the array.  The ends move inward
    one entry at a time; a step widens the hull by at most one site per
    side, so over a run this costs amortised O(1) per step.
    """
    while a < b and v[a] == 0.0:
        a += 1
    while b > a and v[b] == 0.0:
        b -= 1
    return max(a - 1, 0), min(b + 1, len(v) - 1)


def _forward_step(v, up, stay, down, a: int, b: int) -> tuple[int, int]:
    """Replace ``v`` by ``v K`` in place, touching only the live hull [a, b].

    ``v`` and the rate arrays cover one window; ``v`` must be 0.0 outside
    [a, b], and at a and b too unless they are the window ends.  Entries
    outside the hull stay exactly 0.0, so the update equals the dense one
    site for site; mass flowing off the window ends is dropped.  Returns
    the new live hull.
    """
    live = v[a : b + 1]
    into_up = live[:-1] * up[a:b]
    into_down = live[1:] * down[a + 1 : b + 1]
    live *= stay[a : b + 1]
    live[1:] += into_up
    live[:-1] += into_down
    return _hull(v, a, b)


# The smallest normal float64; a normalised run keeps no entry below it.
_TINY = np.finfo(np.float64).tiny


def _kept_hull(small, a: int, size: int) -> tuple[int, int]:
    """Live hull of what is left in ``v[a : a + small.size]`` once the
    entries where ``small`` is True are 0.0, in a window of ``size`` sites."""
    first, last = int(small.argmin()), small.size - 1 - int(small[::-1].argmin())
    return max(a + first - 1, 0), min(a + last + 1, size - 1)


def _flush(v, a: int, b: int) -> tuple[int, int]:
    """Set the entries of ``v`` below the smallest normal float to 0.0 and
    return the live hull of what is left.

    ``v`` is a normalised law with its support in [a, b].  A subnormal
    entry holds under 1e-307 of the mass and fewer than 53 significant
    bits, and arithmetic on it runs many times slower than on normal
    floats.
    """
    live = v[a : b + 1]
    small = live < _TINY
    np.copyto(live, 0.0, where=small)
    return _kept_hull(small, a, len(v))


# Steps per block: one band product applies K^m.
_BLOCK = 32
# A block whose mass K^m(v, S) falls below this is stepped one step at a
# time instead, so that no S_j underflows.
_MIN_BLOCK_MASS = 1e-200
# The band and watch tables are stored times this power of two, so that a
# tap of at least 2^-200 times a law entry of at least the smallest normal
# float is normal too.
_SCALE = 2.0**200


class _Record(NamedTuple):
    """The steps a normalised run took since its last yield.

    The run has written the survival factor, the log of the total mass and
    the watched values of each of these steps into its caller's arrays, up
    to step ``steps``, the number of steps taken so far.  ``edge`` sums,
    over the record's steps, the mass that flowed off the window ends as a
    fraction of its step's sum; ``clipped`` is the fraction of the law the
    clip removed at the record's end, and [a, b] is the live hull there.
    """

    steps: int
    edge: float
    clipped: float
    a: int
    b: int


class _Plan(NamedTuple):
    """What a block reads and writes on one live hull ``hull`` of the law ``v``.

    Row i of ``windows`` is ``v[i : i + 2m + 1]``, the inputs to site
    i + m, as a strided view of ``v``'s buffer; a plan for the same ``v``
    takes it over from the last.  ``v`` summed on each id's sites of the
    support ``support``, from the offsets ``starts``, times those ids'
    ``C_rows`` ``C`` gives S.  Each entry of ``gathers`` holds rows of
    ``windows``, their sites' ``G_sites`` rows and the slice of ``out``
    they fill; each entry of ``correlations`` a slice of ``v``, its long
    id's ``G_rows`` row and the slice of ``out`` it fills.  ``out`` gets
    the scaled ``v K^m`` on the sites ``dest`` views in ``v``.
    """

    hull: tuple[int, int]
    v: np.ndarray
    windows: np.ndarray
    support: np.ndarray
    starts: np.ndarray
    C: np.ndarray
    gathers: list
    correlations: list
    out: np.ndarray
    dest: np.ndarray


def _backward(h, up, stay, down):
    """(K h)(x) = up[x] h(x+1) + stay[x] h(x) + down[x] h(x-1) along the last
    axis, with h taken as 0 past both ends."""
    out = stay * h
    out[..., :-1] += up[..., :-1] * h[..., 1:]
    out[..., 1:] += down[..., 1:] * h[..., :-1]
    return out


class _BlockTables:
    """Powers of a window's kernel for advancing a run ``_BLOCK`` = m steps at once.

    The kernel is the one a run steps with: rates as given on the window
    and 0 outside it, so mass leaving the window is lost.  The band column
    ``K^m(y-m+t, y)``, t = 0..2m, and the row ``(K^j 1)(y)``, j = 1..m, at
    a site y depend only on the rates within m sites of it, so sites share
    a row id: each site within m of a rate change or a window end has its
    own, and each run of constant rates between such sites has one.
    ``G_rows[i]`` and ``C_rows[i]`` hold the two rows of id i, and
    ``cols[i, t, j-1] = K^j(w-m+t, w)`` for the i-th watch site w; one
    backward run of m steps (``_fill``) computes them all when the tables
    are built.  A block reads the rows of the sites m+1..width-m-2 only,
    so the 2m ids of the sites 0..m-1 and width-m..width-1 are left out:
    their rows hold whatever ``np.empty`` gave.  ``watch_idx[i]`` holds
    the sites w-m..w+m clamped to the window, with no mask: in a block
    the law is 0.0 at both window ends, and a tap off the window is 0.0.
    An id whose run has at least 4m sites is ``long``: a block serves its
    sites by one correlation, and ``long_ids`` lists those ids in order,
    with their first and last sites.  The other sites keep their own band
    rows, in site order, in ``G_sites[pos[y]]``, so a block reads a
    stretch of them as one slice.

    ``G_rows``, ``G_sites`` and ``cols`` are stored times ``_SCALE`` =
    2^200: their columns are stepped from 2^200 e_y, not e_y, and
    ``block`` divides by the scale with the masses.  A flushed law has no
    positive entry below 2^-1022, and on every preset, raw or lazified, no
    positive tap lies below 2^-139, so no product of the two is subnormal.
    Unscaled, on a law whose tails reach down to 2^-1022, about 1.5% of
    the products were: each costs a slow microcode assist and loses
    digits.  The scale is a power of two, so every value whose unscaled
    computation formed no subnormal is the same to the bit.  A law sums
    to 1 and a tap K^j(x, y) is at most 1, so no scaled sum
    exceeds 2^200, far from overflow.

    A block keeps its views of the law and its buffers, ``plan`` (see
    ``_plan``), for the next block on the same live hull, and ``S`` holds
    the last block's ``[1, S_1, ..., S_m]``, so a record of a block whose
    hull repeats does only the arithmetic.
    """

    def __init__(self, up, stay, down, watch):
        m = _BLOCK
        self.rates = (up, stay, down)
        self.width = width = len(up)
        change = (up[1:] != up[:-1]) | (stay[1:] != stay[:-1]) | (down[1:] != down[:-1])
        changes = np.concatenate(([0], np.cumsum(change, dtype=np.int32)))  # at sites 1..i
        special = np.ones(width, dtype=bool)  # near a window end, or within m of a change
        inner = max(width - 2 * m, 0)
        special[m : m + inner] = changes[2 * m :] > changes[:inner]
        fresh = special.copy()
        fresh[0] = True
        fresh[1:] |= special[:-1]
        self.ids = np.cumsum(fresh, dtype=np.int32) - 1
        self.firsts = np.flatnonzero(fresh)  # the first site with each id
        self.lasts = np.append(self.firsts[1:], width) - 1
        self.long = self.lasts - self.firsts >= 4 * m - 1
        self.long_ids = np.flatnonzero(self.long).tolist()
        self.long_firsts = self.firsts[self.long].tolist()
        self.long_lasts = self.lasts[self.long].tolist()
        del change, changes, special, fresh  # width-sized; the fill needs none
        self.G_rows = np.empty((self.firsts.size, 2 * m + 1))
        self.C_rows = np.empty((self.firsts.size, m))
        self.cols = None
        if watch.size:
            self.watch_idx = np.clip(watch[:, None] + np.arange(-m, m + 1), 0, width - 1)
        self._fill(np.arange(self.ids[m], self.ids[width - m - 1] + 1), watch)
        short = ~self.long[self.ids]
        self.pos = np.cumsum(short, dtype=np.int32) - 1  # int32, as ids
        self.G_sites = self.G_rows[self.ids[short]]
        self.S = np.ones(m + 1)  # [1, S_1, ..., S_m] of the last block
        self.plan = None  # the last block's _Plan

    def _near(self, sites):
        """Rates at x = y-m..y+m for each site y, 0 off the window, laid end to
        end with one zero-rate site after each y's: 2m + 2 entries per site.

        Stepped back from 2^200 e_y, each piece gives the band column at its
        y: the zero site adds exact zeros, as the rates off the window do.
        """
        x = sites[:, None] + np.arange(-_BLOCK, _BLOCK + 2)
        inside = (x >= 0) & (x < self.width)
        inside[:, -1] = False
        x = np.clip(x, 0, self.width - 1)
        return [(r[x] * inside).ravel() for r in self.rates]

    def _fill(self, need, watch):
        """Compute the rows of the ids ``need``, in increasing order, and the
        columns of the watch sites ``watch``.

        One backward run of m steps gives them all.  Its vector holds the
        band column stepped from 2^200 e_y on y-m..y+m, for each id's first
        site y and then for each watch site y, then the ones vector on the
        stretches of sites within m of some id's y, each piece followed by
        a zero-rate site that holds 0.0.  That site adds exact zeros, as
        the rates off the window do, so every value at a y goes through the
        same products, in the same order, as on the whole window: the ends
        a piece cuts off lie more than m sites from its ys.  ``G_rows``
        comes from the last step, ``C_rows`` and ``cols`` from every step.
        The ones vector never covers more than 2m + 2 sites per id.
        """
        m, w = _BLOCK, 2 * _BLOCK + 2  # a band column and its zero site
        reps = self.firsts[need]
        k = reps.size
        lo, hi = np.maximum(reps - m, 0), np.minimum(reps + m, self.width - 1)
        fresh = np.concatenate(([True], lo[1:] > hi[:-1] + 1))  # a new stretch starts
        seg = np.cumsum(fresh) - 1
        left, right = lo[fresh], hi[np.append(np.flatnonzero(fresh)[1:], k) - 1]
        sizes = right - left + 2
        offsets = np.cumsum(sizes) - sizes
        x = np.repeat(left - offsets, sizes) + np.arange(int(sizes.sum()))
        gaps = offsets + sizes - 1
        x[gaps] = 0
        cut = (k + watch.size) * w  # where the ones vector starts
        rates = []
        for band, r in zip(self._near(np.concatenate((reps, watch))), self.rates):
            strip = r[x]
            strip[gaps] = 0.0
            rates.append(np.concatenate((band, strip)))
        h = np.zeros(cut + x.size)
        h[m:cut:w] = _SCALE
        h[cut:] = 1.0
        h[cut + gaps] = 0.0
        at = cut + offsets[seg] + reps - left[seg]  # where each y's ones value sits
        C = np.empty((m, k))
        cols = np.empty((m, cut - k * w))
        for j in range(m):
            h = _backward(h, *rates)
            C[j] = h[at]
            cols[j] = h[k * w : cut]
        self.G_rows[need] = h[: k * w].reshape(k, w)[:, :-1]
        self.C_rows[need] = C.T
        if watch.size:
            cols = cols.reshape(m, watch.size, w)[:, :, :-1]
            self.cols = np.ascontiguousarray(cols.transpose(1, 2, 0))

    def _gather(self, windows, y: int, z: int):
        """The operands of the scaled ``(v K^m)(x)`` for the short sites
        x = y..z-1: their rows of ``windows`` (see ``_Plan``) and their own
        band rows."""
        p = self.pos[y]
        return windows[y - _BLOCK : z - _BLOCK], self.G_sites[p : p + z - y]

    def _plan(self, v, a: int, b: int) -> _Plan:
        """The views and buffers of a block on the live hull [a, b] of ``v``.

        Sites of one id share their rows, so S is the sum over the ids of
        the support [f, l] = [a + 1, b - 1] of ``v`` summed on the id's
        sites times its ``C_rows`` row.  ``v K^m`` reaches the sites
        f-m..l+m: on the sites of a long id it is one correlation of ``v``
        with the id's ``G_rows`` row, and each stretch of sites between
        long ids reads its rows as one slice of ``G_sites``.
        """
        m = _BLOCK
        f, l = a + 1, b - 1  # the support
        lo, hi = f - m, l + m  # the sites v K^m reaches
        i0, i1 = int(self.ids[lo]), int(self.ids[hi])
        k0, k1 = int(self.ids[f]), int(self.ids[l])
        starts = self.firsts[k0 : k1 + 1] - f  # the first id starts at or before f
        starts[0] = 0
        last = self.plan
        if last is not None and last.v is v:
            windows = last.windows
        else:  # row i is v[i : i + 2m + 1], the inputs to site i + m
            windows = np.ndarray((self.width - 2 * m, 2 * m + 1), buffer=v, strides=(8, 8))
        out = np.empty(hi - lo + 1)
        gathers, correlations = [], []
        y = lo  # the first site not yet served
        for k in range(bisect_left(self.long_ids, i0), bisect_right(self.long_ids, i1)):
            y0, y1 = max(self.long_firsts[k], lo), min(self.long_lasts[k], hi)
            if y < y0:
                gathers.append((*self._gather(windows, y, y0), out[y - lo : y0 - lo]))
            correlations.append(
                (v[y0 - m : y1 + m + 1], self.G_rows[self.long_ids[k]], out[y0 - lo : y1 - lo + 1])
            )
            y = y1 + 1
        if y <= hi:
            gathers.append((*self._gather(windows, y, hi + 1), out[y - lo :]))
        return _Plan(
            (a, b), v, windows, v[f : l + 1], starts, self.C_rows[k0 : k1 + 1],
            gathers, correlations, out, v[lo : hi + 1],
        )

    def block(self, v, a: int, b: int):
        """Replace ``v`` by ``v K^m / S_m`` in place, with S_j = v K^j 1.

        ``v`` is a contiguous float64 array.  The live hull [a, b] must lie
        at least 2m sites inside both window ends: the product reads ``v``
        on the support widened by 2m sites per side, and no mass leaves
        the window.  Returns ``(S, watched, a - m, b + m)``, with ``S`` =
        ``[1, S_1, ..., S_m]``, ``watched[j-1]`` the values
        ``(v K^j)(w) / S_j`` at the watch sites, and [a - m, b + m] =
        [f - m - 1, l + m + 1] for the old support [f, l]; or None, leaving
        ``v`` untouched, when S_m is below ``_MIN_BLOCK_MASS``.  ``S`` is a
        buffer the next block overwrites.  That [a - m, b + m] bounds the
        new support but is not its live hull: its ends may hold zeros and
        subnormals, so the caller passes it through ``_flush`` before
        stepping on from it.

        The block's views and buffers (``_plan``) are kept while the live
        hull, and the law ``v``, stay the same.  The band tables hold the
        taps times ``_SCALE``, so the product is divided by
        ``S_m * _SCALE``.
        """
        plan = self.plan
        if plan is None or plan.hull != (a, b) or plan.v is not v:
            plan = self.plan = self._plan(v, a, b)
        S = self.S
        # ufuncs take out= positionally, which skips their keyword parsing
        np.matmul(np.add.reduceat(plan.support, plan.starts), plan.C, S[1:])
        if not S[-1] >= _MIN_BLOCK_MASS:
            return None
        watched = None
        if self.cols is not None:
            watched = np.einsum("ix,ixj->ji", v[self.watch_idx], self.cols) / (S[1:, None] * _SCALE)
        for windows, rows, dst in plan.gathers:
            np.einsum("ij,ij->i", windows, rows, out=dst)
        for stretch, row, dst in plan.correlations:
            dst[:] = np.correlate(stretch, row, "valid")
        np.divide(plan.out, S[-1] * _SCALE, plan.dest)
        return S, watched, a - _BLOCK, b + _BLOCK


def _steps(v, up, stay, down, a: int, b: int, count: int, watch):
    """Up to ``count`` single renormalised steps, fewer if all mass dies.

    Returns ``(surv, edge, watched, a, b)``: the survival factors, the
    edge loss and the hull as in ``_Record``, and the watched values of
    each step (None without watch sites).
    """
    surv, watched = [], []
    edge_sum = 0.0
    for _ in range(count):
        # up-flow out of the last site and down-flow out of the first
        edge = float(v[0] * down[0] + v[-1] * up[-1])
        a, b = _forward_step(v, up, stay, down, a, b)
        live = v[a : b + 1]
        s = float(live.sum())
        if s <= 0.0:
            break
        edge_sum += edge / s
        live /= s
        surv.append(s)
        if watch.size:
            watched.append(v[watch])
    watched = np.array(watched).reshape(len(surv), watch.size) if watch.size else None
    return np.array(surv), edge_sum, watched, a, b


def _clip(v, a: int, b: int, clip: float):
    """Set the entries of the normalised law ``v`` below ``clip`` to 0.0 and
    renormalise what is left; return the mass removed, the mass kept and
    the live hull of what is left.

    ``v`` has its support in [a, b].  Nothing changes when no positive
    entry lies below ``clip``: the mass removed is then 0.0 and the mass
    kept 1.0.  When the clip removes every entry, ``v`` is left at 0.0 and
    the mass kept is 0.0.  The hull comes from the same threshold pass, so
    it is None unless every entry left is at least the smallest normal
    float: when ``clip / kept`` is below it, as for a clip below 2^-1022,
    the caller flushes ``v`` instead.
    """
    live = v[a : b + 1]
    small = live < clip
    lost, kept = float(np.add.reduce(live[small])), 1.0
    if lost > 0.0:
        np.copyto(live, 0.0, where=small)
        kept = float(np.add.reduce(live))
        if kept > 0.0:
            live /= kept
    if kept == 0.0 or clip / kept < _TINY:  # an entry x >= clip may leave x / kept subnormal
        return lost, kept, None
    return lost, kept, _kept_hull(small, a, len(v))


def _normalised_run(
    v, up, stay, down, surv, log_mass, watched, clip: float = 0.0, watch=(), stops=()
):
    """Replace ``v`` by ``v K`` up to n = ``surv.size`` times in place, renormalising.

    ``v`` is nonnegative, not all zero, and covers the same window as the
    rate arrays.  The run writes each step's survival factor into
    ``surv``, the log of the total mass after it into ``log_mass`` (both
    of n entries) and the conditioned values after it at the window
    indices ``watch`` into the row of ``watched`` (n rows of
    ``len(watch)``), and yields a ``_Record`` for the steps since its last
    yield, with ``v`` as the conditioned law after them.  Records end at
    every step in ``stops`` and after at most ``_BLOCK`` = m steps.

    Stretches of m steps whose live hull lies at least 2m sites inside
    both window ends go in one block: one band product gives ``v K^m``,
    and one matrix product gives every step's mass ``S_j = v K^j 1``.
    Everything else is stepped one step at a time.  With ``clip`` > 0,
    the end of every record sets the entries of the law below ``clip`` to
    0.0 and renormalises by the mass kept, which multiplies the record's
    last survival factor, so the clip counts as killing in ``surv`` and
    ``log_mass``.  The run stops early once all mass is gone, killed or
    clipped; a record whose last step the clip emptied ends before it.
    At the end of every record, entries of ``v`` below the smallest normal
    float are then set to 0.0 and the live hull shrinks to what is left;
    that mass, under 1e-300 of the total, is counted in neither ``edge``
    nor ``clipped``.  A clip of at least that float leaves no such entry
    (unless dividing by a kept mass above 1 could make one), so its own
    threshold pass gives the hull and the record is not flushed.
    ``log_mass`` gains one log per record, through a compensated sum.
    """
    n = surv.size
    watch = np.asarray(watch, dtype=np.intp).reshape(-1)
    first, last = np.flatnonzero(v)[[0, -1]].tolist()
    a, b = _hull(v, first, last)
    # blocks read v through a strided view of its buffer
    blockable = v.dtype == np.float64 and v.flags.c_contiguous
    tables = None
    k, total, carry = 0, 0.0, 0.0
    for end in sorted({int(s) for s in stops if 0 < s < n} | {n}):
        while k < end:
            count = min(_BLOCK, end - k)
            blocked = None
            if blockable and count == _BLOCK and 2 * _BLOCK <= a < b < len(v) - 2 * _BLOCK:
                tables = tables or _BlockTables(up, stay, down, watch)
                blocked = tables.block(v, a, b)
            if blocked is not None:
                S, rows, a, b = blocked
                took, edge = count, 0.0
                np.divide(S[1:], S[:-1], surv[k : k + count])  # out= positionally, as in block
                np.log(S[1:], log_mass[k : k + count])
            else:
                factors, edge, rows, a, b = _steps(v, up, stay, down, a, b, count, watch)
                took = factors.size
                if not took:
                    return
                surv[k : k + took] = factors
                np.cumsum(np.log(factors), out=log_mass[k : k + took])
            if watch.size:
                watched[k : k + took] = rows
            alive = took == count  # else all the mass is gone, and v with it
            clipped, hull = 0.0, None
            if alive and clip > 0.0:
                clipped, kept, hull = _clip(v, a, b, clip)
                if kept == 0.0:  # the record's last step left no mass
                    alive = False
                    took -= 1
                    if not took:
                        return
                elif clipped > 0.0:
                    surv[k + took - 1] *= kept
                    log_mass[k + took - 1] += math.log(kept)
                    if watch.size:
                        watched[k + took - 1] = v[watch]
            logs = log_mass[k : k + took]  # log S_j within the record, then the run's
            x = float(logs[-1])
            logs += carry
            logs += total
            # Neumaier's compensated sum of the per-record logs
            t = total + x
            if abs(total) >= abs(x):
                carry += (total - t) + x
            else:
                carry += (x - t) + total
            total = t
            k += took
            if alive:
                a, b = hull or _flush(v, a, b)
            yield _Record(k, edge, clipped, a, b)
            if not alive:
                return
