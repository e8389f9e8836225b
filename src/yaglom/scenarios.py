"""Builders for the named chains and the oscillation probe.

Presets: the asymmetric two-sided walk (killing at 0, limit independent
of the start), the mirror-symmetric chain (extra killing at 0, genuinely
state-dependent limits), the alternating-stay schedule on growing rings
(Yaglom limit failure at accessible scales), and the uniformly killed
two-step walk (survival and pointwise rates disagree).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import NNKernel, Region
from .evolve import evolve_trace
from .measures import MirrorParams, TwoSidedParams

__all__ = [
    "KestenSchedule",
    "OscillationProbe",
    "build_two_sided",
    "build_symmetric",
    "build_kesten",
    "build_alpha_walk",
    "default_kesten_schedule",
    "oscillation_probe",
    "PRESETS",
    "preset_kernel",
]


def build_two_sided(p: float, q: float, a: float, b: float) -> NNKernel:
    """Two-sided walk: (p,q) on the positives, (a,b) on the negatives,
    exits (p, b) at 0, so the killing rate there is 1 - p - b."""
    TwoSidedParams(p, q, a, b)  # validates
    return NNKernel(
        regions=(
            Region(None, -1, a, 0.0, b),
            Region(1, None, p, 0.0, q),
        ),
        overrides=((0, p, 0.0, b),),
    )


def build_symmetric(p: float, exit_prob: float | None = None) -> NNKernel:
    """Mirror-symmetric chain: drift toward 0 on both half-lines, exit
    probability ``exit_prob`` on each side of 0 (killing 1 - 2 exit_prob).

    The exit probability must be strictly below p: at exit_prob = p the
    return transform equals 1 at the radius, the chain is null
    R-recurrent, and the two extremal invariant probabilities collapse
    into one.  The default p/2 keeps the chain R-transient with a genuine
    two-point boundary, which is the regime this preset exists to show.
    """
    if exit_prob is None:
        exit_prob = p / 2.0
    MirrorParams(p, exit_prob)  # validates
    q = 1.0 - p
    return NNKernel(
        regions=(
            Region(None, -1, q, 0.0, p),
            Region(1, None, p, 0.0, q),
        ),
        overrides=((0, exit_prob, 0.0, exit_prob),),
    )


@dataclass(frozen=True)
class KestenSchedule:
    """Alternating stay-rate schedule on geometrically growing rings.

    Stay rates are c[k] on [a[k], a[k+1]) to the right and d[k] on
    (-b[k+1], -b[k]] to the left (the last ring on each side is
    unbounded), with the interleaving r0 < d[0] < c[0] < d[1] < c[1] < ...
    and a[k] <= b[k].  The remaining per-site mass 1 - r_x is split
    (p : 1-p) per side toward the origin; exits at 0 are ``exit0`` each,
    so killing stays confined to 0.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[float, ...]
    d: tuple[float, ...]
    r0: float = 0.25
    p_pos: float = 0.25
    p_neg: float = 0.28
    exit0: float = 0.225

    def __post_init__(self):
        K = len(self.a)
        if not (K == len(self.b) == len(self.c) == len(self.d)) or K < 1:
            raise ValueError("schedule arrays must share a positive length")
        if self.a[0] != 1 or self.b[0] != 1:
            raise ValueError("rings must start at distance 1")
        if any(x > y for x, y in zip(self.a, self.b)):
            raise ValueError("need a_k <= b_k")
        if list(self.a) != sorted(self.a) or list(self.b) != sorted(self.b):
            raise ValueError("cutoffs must be nondecreasing")
        ladder = [self.r0]
        for dk, ck in zip(self.d, self.c):
            ladder += [dk, ck]
        if any(lo >= hi for lo, hi in zip(ladder, ladder[1:])):
            raise ValueError("need r0 < d_1 < c_1 < d_2 < c_2 < ...")
        if any(not 0.25 <= v <= 0.5 for v in self.c + self.d):
            raise ValueError("stay rates must lie in [1/4, 1/2]")
        if not 0.0 < self.exit0 < (1.0 - self.r0) / 2.0:
            raise ValueError("exits at 0 must leave positive killing")


def default_kesten_schedule() -> KestenSchedule:
    """Two alternations tuned so the conditioned law swings left, right,
    then left again within a desk-scale power-iteration budget."""
    return KestenSchedule(a=(1, 16), b=(1, 128), c=(0.30, 0.48), d=(0.26, 0.42))


def build_kesten(schedule: KestenSchedule) -> NNKernel:
    regions: list[Region] = []
    K = len(schedule.a)
    pp, pn = schedule.p_pos, schedule.p_neg
    for k in range(K):
        hi = None if k == K - 1 else schedule.a[k + 1] - 1
        r = schedule.c[k]
        regions.append(Region(schedule.a[k], hi, (1 - r) * pp, r, (1 - r) * (1 - pp)))
    for k in range(K):
        lo = None if k == K - 1 else -(schedule.b[k + 1] - 1)
        r = schedule.d[k]
        regions.append(Region(lo, -schedule.b[k], (1 - r) * (1 - pn), r, (1 - r) * pn))
    overrides = ((0, schedule.exit0, schedule.r0, schedule.exit0),)
    return NNKernel(tuple(regions), overrides)


def build_alpha_walk(alpha: float, a: float, b: float) -> NNKernel:
    """Uniformly killed asymmetric walk, squared and restricted to evens.

    One step of the result is two steps of the walk with down-rate a and
    up-rate b, each killed with survival factor alpha; per-site mass is
    alpha^2 exactly, at every site.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("need 0 < alpha < 1")
    if abs(a + b - 1.0) > 1e-12 or min(a, b) <= 0.0:
        raise ValueError("need a + b = 1 with both positive")
    a2 = alpha * alpha
    return NNKernel((Region(None, None, a2 * b * b, a2 * 2 * a * b, a2 * a * a),))


@dataclass
class OscillationProbe:
    """Pairwise TV distances among conditioned laws at the probed steps."""

    n_grid: tuple[int, ...]
    tv: dict[tuple[int, int], float]
    max_tv: float
    survival_factors: np.ndarray = field(repr=False, default=None)


def oscillation_probe(
    kernel, x0: int, n_grid, clip: float = 0.0, max_halfwidth: int | None = None
) -> OscillationProbe:
    """Evolve once to max(n_grid), snapshotting each probe step, and
    tabulate pairwise TV distances.  A single-entry grid has no witness."""
    n_grid = tuple(sorted(set(int(n) for n in n_grid)))
    if not n_grid:
        raise ValueError("empty n_grid")
    trace = evolve_trace(
        kernel, x0, n_grid[-1], clip=clip, snapshot_at=n_grid,
        max_halfwidth=max_halfwidth,
    )
    tv: dict[tuple[int, int], float] = {}
    for i, n1 in enumerate(n_grid):
        v1 = trace.snapshots[n1].values
        for n2 in n_grid[i + 1 :]:
            v2 = trace.snapshots[n2].values
            tv[(n1, n2)] = 0.5 * float(np.abs(v1 - v2).sum())
    max_tv = max(tv.values()) if tv else 0.0
    return OscillationProbe(n_grid, tv, max_tv, trace.survival_factors)


def _two_sided(p=0.25, q=0.75, a=0.9, b=0.1):
    family = TwoSidedParams(p, q, a, b)
    return build_two_sided(family.p, family.q, family.a, family.b), family


def _symmetric(p=0.25, **given):
    # exit_prob defaults to p/2; an explicit null is rejected, not defaulted
    family = MirrorParams(p, **{"exit_prob": p / 2.0, **given})
    return build_symmetric(family.p, family.exit_prob), family


def _kesten(schedule=None):
    if schedule is None:
        schedule = default_kesten_schedule()
    if not isinstance(schedule, KestenSchedule):
        raise TypeError(f"kesten schedule must be a KestenSchedule, got {type(schedule).__name__}")
    return build_kesten(schedule), None


def _alpha_walk(alpha=0.9, a=0.6, b=0.4):
    return build_alpha_walk(alpha, a, b), None


# name -> builder of (kernel, family) from the preset's params, where the
# family is the chain's closed forms: a TwoSidedParams, a MirrorParams or None
PRESETS = {
    "two_sided": _two_sided,
    "symmetric": _symmetric,
    "kesten": _kesten,
    "alpha_walk": _alpha_walk,
}


def preset_kernel(name: str, params: dict | None = None) -> NNKernel:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name](**(params or {}))[0]
