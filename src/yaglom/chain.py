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
from dataclasses import dataclass, field, replace

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
    "kernel_step",
    "point_mass",
]

_MASS_TOL = 1e-12


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

    def contains(self, x: int) -> bool:
        if self.lo is not None and x < self.lo:
            return False
        if self.hi is not None and x > self.hi:
            return False
        return True

    @property
    def kill(self) -> float:
        return 1.0 - self.p - self.r - self.q


@dataclass(frozen=True)
class NNKernel:
    """Nearest-neighbour substochastic kernel: regions plus overrides."""

    regions: tuple[Region, ...]
    overrides: tuple[tuple[int, float, float, float], ...] = ()
    _omap: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        omap = {site: (p, r, q) for site, p, r, q in self.overrides}
        object.__setattr__(self, "_omap", omap)

    def row(self, x: int) -> tuple[float, float, float]:
        """Return (up, stay, down) at site x."""
        hit = self._omap.get(x)
        if hit is not None:
            return hit
        for reg in self.regions:
            if reg.contains(x):
                return (reg.p, reg.r, reg.q)
        raise ValueError(f"site {x} not covered by any region")

    def kill(self, x: int) -> float:
        p, r, q = self.row(x)
        return 1.0 - p - r - q

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (up, stay, down) arrays for sites lo..hi inclusive."""
        n = hi - lo + 1
        up = np.empty(n)
        stay = np.empty(n)
        down = np.empty(n)
        for reg in self.regions:
            a = lo if reg.lo is None else max(lo, reg.lo)
            b = hi if reg.hi is None else min(hi, reg.hi)
            if a > b:
                continue
            up[a - lo : b - lo + 1] = reg.p
            stay[a - lo : b - lo + 1] = reg.r
            down[a - lo : b - lo + 1] = reg.q
        for site, p, r, q in self.overrides:
            if lo <= site <= hi:
                up[site - lo], stay[site - lo], down[site - lo] = p, r, q
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
    accumulates conditioned mass discarded by tail clipping (an auditable
    error bound, zero unless clipping was requested).
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

    def mass(self) -> float:
        return math.exp(self.log_mass)


def point_mass(x0: int) -> MassState:
    return MassState(Window(x0, x0), np.array([1.0]))


def _rate_violations(label: str, p: float, r: float, q: float) -> list[str]:
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


def validate(kernel: NNKernel, window: Window | None = None) -> list[str]:
    """Check kernel invariants; an empty report means the kernel is valid.

    Violations are data, not exceptions: the report lists one string per
    problem (coverage gaps/overlaps, zero step rates, negative killing, or
    no killing anywhere).
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
            if len(gap) > 10**6 or any(x not in overridden for x in gap):
                report.append(f"coverage gap between {left.hi} and {right.lo}")
        elif right.lo < left.hi + 1:
            report.append(f"regions overlap near {right.lo}")

    for i, reg in enumerate(ordered):
        report += _rate_violations(f"[{reg.lo},{reg.hi}]", reg.p, reg.r, reg.q)
    for site, p, r, q in kernel.overrides:
        report += _rate_violations(str(site), p, r, q)

    kills = kernel.kill_sites()
    if kills is not None and not kills:
        report.append("no killing anywhere")

    if window is not None and not report:
        for x in window.sites():
            try:
                kernel.row(int(x))
            except ValueError as exc:
                report.append(str(exc))
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


def _normalised_run(v, up, stay, down, n: int, clip: float = 0.0):
    """Replace ``v`` by ``v K`` up to ``n`` times in place, renormalising each time.

    ``v`` is nonnegative, not all zero, and covers the same window as the
    rate arrays.  Each step yields ``(s, log_mass, edge, clipped, a, b)``:
    the survival factor (the live sum after clipping), the running sum of
    log(s), the mass that flowed off the window ends and the mass removed by
    clipping (both as fractions of the sum before clipping), and the live
    hull [a, b].  With ``clip`` > 0, entries below ``clip`` times that sum
    are set to 0.0.  The run stops early once all mass is gone.
    """
    first, last = np.flatnonzero(v)[[0, -1]].tolist()
    a, b = _hull(v, first, last)
    log_mass = 0.0
    for _ in range(n):
        # up-flow out of the last site and down-flow out of the first
        edge = float(v[0] * down[0] + v[-1] * up[-1])
        a, b = _forward_step(v, up, stay, down, a, b)
        live = v[a : b + 1]
        s = float(live.sum())
        if s <= 0.0:
            return
        edge /= s
        clipped = 0.0
        if clip > 0.0:
            small = live < clip * s
            lost = float(live[small].sum())
            if lost > 0.0:
                live[small] = 0.0
                clipped = lost / s
                s = float(live.sum())
        live /= s
        log_mass += math.log(s)
        yield s, log_mass, edge, clipped, a, b


def kernel_step(kernel, state: MassState, clip: float = 0.0) -> tuple[MassState, float]:
    """Apply the kernel once and renormalize.

    Returns the new state and the survival factor K^{n+1}(x0,S)/K^n(x0,S).
    The window grows by one site on each side.  With ``clip`` > 0, values
    below ``clip`` (as a fraction of surviving mass) are discarded and
    their total is accumulated into the state's ``clipped`` bound.

    Raises
    ------
    DegenerateKernelError
        If the surviving mass vanishes (all mass was killed).
    """
    lo, hi = state.window.lo - 1, state.window.hi + 1
    up, stay, down = kernel.rows(lo, hi)
    w = np.zeros(hi - lo + 1)
    w[1:-1] = state.values
    step = next(_normalised_run(w, up, stay, down, 1, clip), None)
    if step is None:
        raise DegenerateKernelError("all mass killed in one step")
    survival, log_s, _, clipped, _, _ = step
    return (
        MassState(Window(lo, hi), w, state.log_mass + log_s, state.clipped + clipped),
        survival,
    )
