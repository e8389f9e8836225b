"""Executable checkers for the hypotheses behind the limit theorem.

Each condition gets a verdict (holds / fails / evidence-only) with at
least one numeric evidence item.  "holds" for the structural conditions
means a finite certificate; for the asymptotic ones it means the numeric
criterion passed within the configured budget, which the report states
explicitly rather than claiming a proof.  A ``family``, the base chain's
parameters from ``measures``, adds its closed forms: [2] reports them as
side evidence and [8] compares hhat with its +inf extremal harmonic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .chain import NNKernel
from .evolve import evolve_trace
from .measures import TwoSidedParams, e0_r_zeta
from .spectral import _GreenPole, estimate_rho, green
from .transforms import _hhat_from_trace

__all__ = ["ConditionVerdict", "ConditionReport", "check_conditions"]

# [2] reports E_z R^zeta at these sites
_PROBE_SITES = (-20, 0, 20)
# [8] compares hhat at these offsets from the kill site with the +inf
# extremal harmonic, and holds when every relative mismatch is below _HHAT_TOL
_HHAT_SITES = (-3, -2, -1, 1, 2, 3)
_HHAT_TOL = 1e-2


@dataclass
class ConditionVerdict:
    status: str  # "holds" | "fails" | "evidence-only"
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in ("holds", "fails", "evidence-only"):
            raise ValueError(f"bad status {self.status}")
        if not self.evidence:
            raise ValueError("every verdict needs evidence")


@dataclass
class ConditionReport:
    verdicts: dict[str, ConditionVerdict]

    def status(self, key: str) -> str:
        return self.verdicts[key].status

    def holds(self, key: str) -> bool:
        return self.verdicts[key].status == "holds"

    def as_dict(self) -> dict:
        return {
            key: {"status": v.status, "evidence": v.evidence}
            for key, v in sorted(self.verdicts.items())
        }


def _min_stay(kernel: NNKernel) -> float:
    vals = [reg.r for reg in kernel.regions]
    vals += [r for _, _, r, _ in kernel.overrides]
    return min(vals)


def check_conditions(kernel: NNKernel, family=None, n_max: int = 2500) -> ConditionReport:
    """Run all checkers and assemble the structured report.

    ``family`` holds the closed forms of the base chain (a TwoSidedParams
    or a MirrorParams); without it the comparison-based checks degrade to
    evidence-only rather than fail.  ``n_max`` is the length of the
    survival run behind [2] and of the hhat run behind [5] and [8].  When
    the kill site is 0, [2]'s run from 0 tracks the hhat probe sites too,
    so one forward run serves [2], [5] and [8]; tracking leaves its
    survival factors unchanged to the bit.
    """
    out: dict[str, ConditionVerdict] = {}

    # --- structure: killing support, stay rates -------------------------
    kills = kernel.kill_sites()
    if kills is None:
        out["6"] = ConditionVerdict(
            "fails", {"kill_support": "unbounded", "n_kill_sites": math.inf}
        )
    elif len(kills) == 1:
        out["6"] = ConditionVerdict(
            "holds",
            {"kill_site": kills[0], "kappa": kernel.kill(kills[0]), "n_kill_sites": 1},
        )
    else:
        out["6"] = ConditionVerdict(
            "fails", {"n_kill_sites": len(kills), "kill_sites": kills[:16]}
        )

    min_stay = _min_stay(kernel)
    if min_stay > 0.0:
        out["1"] = ConditionVerdict("holds", {"k0": 1, "delta": min_stay})
    elif min_stay == 0.0 and all(reg.r == 0.0 for reg in kernel.regions):
        out["1"] = ConditionVerdict(
            "fails", {"delta": 0.0, "note": "period 2: odd-step returns vanish"}
        )
    else:
        out["1"] = ConditionVerdict(
            "evidence-only",
            {"delta": 0.0, "note": "zero stay at some sites; gcd criterion not checked"},
        )
    uniformly_aperiodic = out["1"].status == "holds"

    out["4"] = ConditionVerdict(
        "holds",
        {"structural": 1.0, "note": "nearest neighbour: boundary is {-inf, +inf}"},
    )

    if kills is None:
        out["3"] = ConditionVerdict(
            "fails", {"note": "killing off every site bounds P_z(zeta > m) below 1"}
        )
    else:
        dist_bound = max(abs(s) for s in kills) if kills else 0
        out["3"] = ConditionVerdict(
            "holds",
            {
                "structural": 1.0,
                "max_kill_distance": dist_bound,
                "note": "P_z(zeta <= m) = 0 once dist(z, kill set) > m",
            },
        )

    # the hhat probe behind [5] and [8], at the single kill site
    x0 = probe = None
    tracked: tuple[int, ...] = ()
    if out["6"].status == "holds" and uniformly_aperiodic:
        x0 = int(out["6"].evidence["kill_site"])
        sites = tuple(x0 + s for s in _HHAT_SITES)
        probe = tuple(dict.fromkeys(sites + (x0 - 1, x0 + 1)))
        tracked = tuple(x for x in (*probe, x0) if abs(x - x0) <= n_max)

    # --- spectral: rho, R, E_z R^zeta ------------------------------------
    trace = evolve_trace(kernel, 0, n_max, tracked=tracked if x0 == 0 else ())
    est = estimate_rho(trace)
    ev2: dict = {"rho_hat": est.rho_hat, "rho_error_bound": est.error_bound}
    if family is not None:
        # closed forms for the base (unlazified) walk, as side evidence
        ev2["base_R_closed_form"] = family.R
    if isinstance(family, TwoSidedParams):
        ev2["base_E0_R_zeta_closed_form"] = e0_r_zeta(family)
    # no R from a series that did not converge: null in the JSON report
    R = 1.0 / est.rho_hat if est.converged else None
    ev2["R"] = R
    if R is None:
        out["2"] = ConditionVerdict("evidence-only", ev2)
    elif not R > 1.0:
        out["2"] = ConditionVerdict("fails", ev2)
    else:
        # E_z R^zeta = 1 + (R - 1) G_{z,S}(R), with G solved exactly just
        # inside R (against the rho_hat error).  If G_00 converges just
        # outside R, the pointwise radius lies past the survival radius;
        # if a pivot fails there, G has a pole within the margin of R, so
        # E_z R^zeta is infinite.
        margin = 2.0 * est.error_bound + 1e-6
        try:
            for z in _PROBE_SITES:
                ev2[f"E_R_zeta_at_{z}"] = 1.0 + (R - 1.0) * green(kernel, z, "S", R * (1.0 - margin))
        except ValueError as exc:
            status2, ev2["note"] = "evidence-only", f"no exact Green value: {exc}"
        else:
            try:
                green(kernel, 0, 0, R * (1.0 + margin))
            except _GreenPole as exc:
                status2 = "fails"
                ev2["note"] = f"G_00 has a pole at R, an R-positive trap: E_z R^zeta is infinite ({exc})"
            except ValueError:
                status2, ev2["note"] = "holds", "exact G_{z,S} inside R; G_00 diverges past R"
            else:
                status2 = "fails"
                ev2["note"] = "G_00 converges past R: the pointwise radius exceeds the survival radius"
        out["2"] = ConditionVerdict(status2, ev2)

    # --- Jacka-Roberts via the one-point ratio ---------------------------
    est8 = None
    if probe is not None:
        run = trace if x0 == 0 else evolve_trace(kernel, x0, n_max, tracked=tracked)
        est8 = _hhat_from_trace(run, kernel, probe)
        ev5 = {f"ratio_at_{x}": est8.table[x] for x in (x0 - 1, x0 + 1)}
        ev5.update({f"spread_at_{x}": est8.spreads[x] for x in (x0 - 1, x0 + 1)})
        # Converging on either side suffices for the full condition.
        if est8.converged[x0 - 1] or est8.converged[x0 + 1]:
            out["5"] = ConditionVerdict("holds", ev5)
        else:
            out["5"] = ConditionVerdict("fails", ev5)
    else:
        out["5"] = ConditionVerdict(
            "evidence-only",
            {"note": "needs a single killing site and uniform aperiodicity"},
        )

    out["7"] = ConditionVerdict(
        "holds" if min_stay >= 0.5 else "fails", {"min_stay": min_stay}
    )

    # --- dominant boundary point: hhat against the +inf extremal ---------
    if out["5"].status == "holds" and family is not None:
        # hhat matches the +inf extremal only when one boundary point
        # dominates: on the two-sided walk, not on the mirror chain
        h_plus = family.h_plus
        target = {x: float(h_plus.value(x)) for x in sites}
        rel = {
            x: abs(est8.table[x] - target[x]) / target[x] for x in sites
        }
        worst = max(rel.values())
        ev8 = {"max_rel_mismatch": worst}
        ev8.update({f"hhat_at_{x}": est8.table[x] for x in sites})
        out["8"] = ConditionVerdict(
            "holds" if worst <= _HHAT_TOL else "fails", ev8
        )
    elif out["5"].status == "holds":
        out["8"] = ConditionVerdict(
            "evidence-only", {"note": "no closed-form extremal to compare against"}
        )
    else:
        out["8"] = ConditionVerdict("fails", {"note": "Condition [5] did not hold"})

    return ConditionReport(out)
