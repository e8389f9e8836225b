"""Experiment runner: config ingestion, orchestration, CSV/JSON emission.

One structured JSON config per run; command-line flags override config
fields.  Series go to CSV (with the resolved config embedded as a
comment header), reports to JSON (with the config embedded as a field).
Exit codes: 0 success, 2 config/schema error, 3 kernel validation
failure, 4 budget exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chain import NNKernel, Region, Window, lazify, square_even, validate
from .conditions import check_conditions
from .evolve import evolve_trace
from .measures import (
    c_max,
    dual_harmonic,
    extremal_minus,
    extremal_plus,
    family_measure,
    invariance_residual,
    mirror_extremal,
    mirror_hhat,
    prob_values,
)
from .montecarlo import absorption_times, orey_trace, simulate_absorbed
from .scenarios import PRESETS, oscillation_probe, preset_hints, preset_kernel
from .spectral import (
    MIN_RHO_FACTORS,
    closed_form_V,
    e0_r_zeta,
    estimate_rho,
    green_partial,
    k2n00_asymptotic,
    quadratic_roots,
)
from .transforms import (
    closed_form_hhat,
    estimate_hhat,
    h_transform,
    hitting_split,
    mixture_limit,
    time_reversal,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4

DEFAULTS = {
    "chain": {"preset": "two_sided"},
    "lazify": None,
    "square_even": False,
    "x0": 0,
    "n": 2000,
    "tracked_sites": [0],
    "seed": 20260810,
    "budgets": {"n_max": 50000, "mc_paths": 200000, "horizon_M": 4096},
    "out_dir": "yaglom_out",
}
MC_PATH_CAP = 200000


class ConfigError(Exception):
    pass


class BudgetError(Exception):
    pass


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    return cfg


_KNOWN_KEYS = set(DEFAULTS) | {"n_grid", "orey_m_grid", "clip", "sites"}


def resolve_config(file_cfg: dict, overrides: dict) -> dict:
    unknown = set(file_cfg) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    for key, val in file_cfg.items():
        if key == "budgets":
            if not isinstance(val, dict):
                raise ConfigError("budgets must be an object")
            cfg["budgets"].update(val)
        else:
            cfg[key] = val
    for key, val in overrides.items():
        if val is None:
            continue
        if key in DEFAULTS["budgets"]:
            cfg["budgets"][key] = val
        else:
            cfg[key] = val
    _check_schema(cfg)
    return cfg


def _int_list(values) -> list[int]:
    return [int(y) for y in values]


def _check_schema(cfg: dict) -> None:
    chain = cfg.get("chain")
    if not isinstance(chain, dict):
        raise ConfigError("chain must be an object")
    if "preset" in chain:
        if not isinstance(chain["preset"], str) or chain["preset"] not in PRESETS:
            raise ConfigError(
                f"unknown preset {chain['preset']!r}; choose from {sorted(PRESETS)}"
            )
        if not isinstance(chain.get("params", {}), dict):
            raise ConfigError("chain.params must be an object")
    elif "regions" in chain:
        regions = chain["regions"]
        if not (isinstance(regions, list) and all(isinstance(e, dict) for e in regions)):
            raise ConfigError("chain.regions must be a list of objects")
        for entry in regions:
            missing = {"p", "r", "q"} - set(entry)
            if missing:
                raise ConfigError(f"region entry missing keys: {sorted(missing)}")
    else:
        raise ConfigError("chain needs either a preset or a regions list")
    # try each conversion the subcommands apply, so that none fails later;
    # the optional fields may be null
    checks = [(k, cfg[k], int, "an integer") for k in ("x0", "n", "seed")]
    checks += [(f"budgets.{k}", cfg["budgets"][k], int, "an integer") for k in DEFAULTS["budgets"]]
    numbers, lists = ("lazify", "clip"), ("tracked_sites", "sites", "n_grid", "orey_m_grid")
    checks += [(k, cfg[k], float, "a number") for k in numbers if cfg.get(k) is not None]
    checks += [(k, cfg[k], _int_list, "a list of integers") for k in lists if cfg.get(k) is not None]
    checks.append(("out_dir", cfg["out_dir"], Path, "a path"))
    for name, value, cast, kind in checks:
        try:
            cast(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{name} must be {kind}, got {value!r}") from None
    if cfg["lazify"] is not None and not 0.0 <= float(cfg["lazify"]) < 1.0:
        raise ConfigError("lazify must lie in [0, 1)")
    if int(cfg["n"]) < 1:
        raise ConfigError("n must be a positive step count")
    if int(cfg["seed"]) < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg['seed']!r}")
    if int(cfg["budgets"]["mc_paths"]) < 1:
        raise ConfigError(f"budgets.mc_paths must be positive, got {cfg['budgets']['mc_paths']!r}")
    if cfg.get("clip") is not None and not 0.0 <= float(cfg["clip"]) < 1.0:
        raise ConfigError(f"clip must lie in [0, 1), got {cfg['clip']!r}")
    for key in ("n_grid", "orey_m_grid"):
        if cfg.get(key) is not None and min(_int_list(cfg[key]), default=1) < 1:
            raise ConfigError(f"{key} entries must be positive step counts, got {cfg[key]!r}")


def kernel_from_config(cfg: dict):
    """Build (base kernel, transformed kernel, hints) from the chain config."""
    chain = cfg["chain"]
    if "preset" in chain:
        params = chain.get("params", {})
        base = preset_kernel(chain["preset"], params)
        hints = preset_hints(chain["preset"], params)
    else:
        def site(v):
            return None if v is None else int(v)

        regions = tuple(
            Region(site(e.get("from")), site(e.get("to")), *(float(e[k]) for k in "prq"))
            for e in chain["regions"]
        )
        overrides = tuple(
            (int(o["site"]), *(float(o[k]) for k in "prq")) for o in chain.get("overrides", [])
        )
        base = NNKernel(regions, overrides)
        hints = {}
    kernel = base
    if cfg.get("square_even"):
        kernel = square_even(kernel)
    if cfg.get("lazify") is not None:
        kernel = lazify(kernel, float(cfg["lazify"]))
    return base, kernel, hints


def _hhat_transform(base, hints):
    """The base chain h-transformed by its closed-form hhat, when known."""
    if "two_sided" in hints:
        params = hints["two_sided"]
        return h_transform(base, dual_harmonic(extremal_plus(params)), params.R)
    if "mirror" in hints:
        mp = hints["mirror"]
        return h_transform(base, mirror_hhat(mp), mp.R)
    return None


def _reference_measure(base, hints, x0: int):
    """Closed-form limit of the conditioned law from x0, when known."""
    if "two_sided" in hints:
        return extremal_plus(hints["two_sided"])
    if "mirror" in hints:
        mp = hints["mirror"]
        weights = hitting_split(_hhat_transform(base, hints), x0)
        return mixture_limit(
            weights, mirror_extremal(mp, -1), mirror_extremal(mp, +1)
        )
    return None


def _write_csv(path: Path, cfg: dict, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(cfg, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, cfg: dict, results: dict) -> None:
    doc = {"tool": f"yaglom {__version__}", "config": cfg, "results": results}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _write_measures(out: Path, cfg: dict, window: Window, plus, minus) -> None:
    sites = window.sites()
    header = ["site", "mu_plus_raw", "mu_plus_prob", "mu_minus_raw", "mu_minus_prob"]
    columns = [sites]
    for m in (plus, minus):
        columns += [m.value(sites), prob_values(m, window)]
    _write_csv(out / "measures.csv", cfg, header, zip(*(c.tolist() for c in columns)))


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if obj is math.inf:
        return "inf"
    return str(obj)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_yaglom(cfg, base, kernel, hints, out: Path) -> dict:
    x0, n = int(cfg["x0"]), int(cfg["n"])
    tracked = tuple(int(y) for y in cfg["tracked_sites"] or ())
    for y in tracked:
        if abs(y - x0) > n:
            raise ConfigError(f"tracked site {y} outside the window [{x0 - n}, {x0 + n}]")
    trace = evolve_trace(kernel, x0, n, tracked=tracked, clip=float(cfg.get("clip") or 0.0))
    header = ["n", "survival_factor", "log_mass"] + [f"ratio_{y}" for y in tracked]
    logm = np.cumsum(np.log(trace.survival_factors))
    ratios = [trace.tracked_ratios[y].tolist() for y in tracked]
    rows = zip(range(1, n + 1), trace.survival_factors.tolist(), logm.tolist(), *ratios)
    _write_csv(out / "trace.csv", cfg, header, rows)
    dist = trace.distribution
    _write_csv(
        out / "distribution.csv",
        cfg,
        ["site", "mass"],
        zip(dist.window.sites().tolist(), dist.values.tolist()),
    )
    results = {
        "steps": n,
        "final_survival_factor": float(trace.survival_factors[-1]),
        "log_mass": dist.log_mass,
        "clipped_mass_bound": dist.clipped,
        "edge_lost": trace.edge_lost,
        "clip_lost": trace.clip_lost,
        "live_hull_width": len(trace.live_hull),
        "zero_sites": int(dist.values.size - np.count_nonzero(dist.values)),
    }
    ref = _reference_measure(base, hints, x0) if not cfg.get("square_even") else None
    if ref is not None:
        ref_vals = prob_values(ref, dist.window)
        results["tv_to_reference"] = 0.5 * float(np.abs(dist.values - ref_vals).sum())
    _write_json(out / "yaglom_report.json", cfg, results)
    return results


def cmd_spectral(cfg, base, kernel, hints, out: Path) -> dict:
    x0, n = int(cfg["x0"]), int(cfg["n"])
    if n < MIN_RHO_FACTORS:
        raise BudgetError(f"spectral needs n >= {MIN_RHO_FACTORS} to estimate rho, got n={n}")
    trace = evolve_trace(kernel, x0, n)
    est = estimate_rho(trace)
    results: dict = {
        "rho_hat": est.rho_hat,
        "error_bound": est.error_bound,
        "converged": est.converged,
    }
    _write_csv(
        out / "survival.csv",
        cfg,
        ["n", "survival_factor"],
        enumerate(trace.survival_factors.tolist(), start=1),
    )
    if "two_sided" in hints:
        params = hints["two_sided"]
        t0, t1 = quadratic_roots(params)
        g = green_partial(base, x0, "S", params.R, min(n, 4000))
        results.update(
            {
                "base_rho_closed_form": params.rho,
                "t0": t0,
                "t1": t1,
                "V": closed_form_V(params),
                "E0_R_zeta_closed_form": e0_r_zeta(params),
                "E0_R_zeta_green": 1.0 + (params.R - 1.0) * g.total,
                "k2n00_asymptotic_n200": k2n00_asymptotic(params, 200),
            }
        )
    _write_json(out / "spectral_report.json", cfg, results)
    return results


def cmd_invariant(cfg, base, kernel, hints, out: Path) -> dict:
    window = Window(-100, 100)
    results: dict = {}
    if "two_sided" in hints:
        params = hints["two_sided"]
        c1 = c_max(params)
        grid = np.linspace(0.0, c1, 11)
        rows = []
        residuals = {}
        for c in grid:
            m = family_measure(params, float(c))
            residuals[f"{c:.6f}"] = invariance_residual(base, m, params.rho, Window(-60, 60))
            rows.append([c, m.d0, m.T])
        _write_csv(out / "family.csv", cfg, ["c", "d0", "T"], rows)
        mp, mm = extremal_plus(params), extremal_minus(params)
        _write_measures(out, cfg, window, mp, mm)
        upper_plus = np.cumsum(prob_values(mp, window)[::-1])[::-1]
        upper_minus = np.cumsum(prob_values(mm, window)[::-1])[::-1]
        results = {
            "c_max": c1,
            "residuals": residuals,
            "pi_plus_at_0": float(prob_values(mp, Window(0, 0))[0]),
            "one_over_T": 1.0 / mp.T,
            "stochastic_order_min_gap": float(np.min(upper_plus - upper_minus)),
        }
    elif "mirror" in hints:
        mp = hints["mirror"]
        plus, minus = mirror_extremal(mp, +1), mirror_extremal(mp, -1)
        _write_measures(out, cfg, window, plus, minus)
        results = {
            "T": plus.T,
            "pi_plus_at_0": 1.0 / plus.T,
            "residual_plus": invariance_residual(base, plus, mp.rho, Window(-60, 60)),
        }
    else:
        raise ConfigError("invariant subcommand needs a preset with closed forms")
    _write_json(out / "invariant_report.json", cfg, results)
    return results


def cmd_transform(cfg, base, kernel, hints, out: Path) -> dict:
    x0 = int(cfg["x0"])
    n = int(cfg["n"])
    kill_site = int(hints.get("kill_site", 0))
    sites = tuple(int(s) for s in (cfg.get("sites") or (-3, -2, -1, 0, 1, 2, 3)))
    est = estimate_hhat(kernel, kill_site, sites, n)
    closed = {}
    if "two_sided" in hints:
        closed = {x: float(closed_form_hhat(hints["two_sided"], x)) for x in sites}
    elif "mirror" in hints:
        hh = mirror_hhat(hints["mirror"])
        closed = {x: float(hh.value(x)) for x in sites}
    rows = [[x, est.table[x], est.converged[x], est.spreads[x], closed.get(x, "")] for x in sites]
    _write_csv(out / "hhat.csv", cfg, ["site", "estimate", "converged", "spread", "closed_form"], rows)
    results: dict = {
        "hhat": {str(x): est.table[x] for x in sites},
        "all_converged": est.verdict(),
    }
    tk = _hhat_transform(base, hints)
    if tk is not None:
        w = hitting_split(tk, x0, M_cap=int(cfg["budgets"]["horizon_M"]))
        results["boundary_weights"] = {
            "w_minus": w.w_minus,
            "w_plus": w.w_plus,
            "converged": w.converged,
            "horizon": w.horizon,
        }
    _write_json(out / "transform_report.json", cfg, results)
    return results


def cmd_simulate(cfg, base, kernel, hints, out: Path) -> dict:
    x0 = int(cfg["x0"])
    seed = int(cfg["seed"])
    requested = int(cfg["budgets"]["mc_paths"])
    n_paths = min(requested, MC_PATH_CAP)
    zeta = absorption_times(kernel, x0, n_paths, seed)
    _write_csv(out / "zeta.csv", cfg, ["path", "zeta"], enumerate(zeta.tolist()))
    sample = simulate_absorbed(kernel, x0, min(int(cfg["n"]), 5000), seed + 7)
    _write_csv(
        out / "trajectory.csv", cfg, ["step", "site"], enumerate(sample.path.tolist())
    )
    results: dict = {
        "seed": seed,
        "paths": n_paths,
        "paths_requested": requested,
        "paths_capped": requested > MC_PATH_CAP,
        "sample_path_absorbed_at": sample.absorbed_at,
        "mean_zeta": float(zeta.mean()),
        "survival_tail": {str(m): float((zeta > m).mean()) for m in (5, 10, 20)},
    }
    if "two_sided" in hints:
        params = hints["two_sided"]
        # under lazify r the exit-time transform shifts radius to
        # 1/(r + (1-r) rho) while E_0 R^zeta keeps its base value
        r_lazy = float(cfg.get("lazify") or 0.0)
        R = 1.0 / (r_lazy + (1.0 - r_lazy) * params.rho)
        vals = R ** zeta.astype(float)
        results["E0_R_zeta_mc_naive"] = float(vals.mean())
        results["E0_R_zeta_mc_naive_stderr"] = float(
            vals.std(ddof=1) / math.sqrt(len(vals))
        )
        results["E0_R_zeta_closed_form"] = e0_r_zeta(params)
        results["naive_estimator_note"] = (
            "R^zeta has unit tail index; compare the truncated pair below"
        )
        n_star = 60
        tvals = np.where(zeta <= n_star, vals, 0.0)
        tr = evolve_trace(kernel, x0, n_star)
        surv = np.concatenate(
            [[1.0], np.exp(np.cumsum(np.log(tr.survival_factors)))]
        )
        death = surv[:-1] - surv[1:]
        results["E0_R_zeta_trunc60_mc"] = float(tvals.mean())
        results["E0_R_zeta_trunc60_mc_stderr"] = float(
            tvals.std(ddof=1) / math.sqrt(len(tvals))
        )
        results["E0_R_zeta_trunc60_deterministic"] = float(
            (R ** np.arange(1.0, n_star + 1) * death).sum()
        )
        # Orey probe along the +inf reversal of the lazified walk.
        mplus = extremal_plus(params)
        lazy = lazify(base, 0.5)
        rho_lazy = 0.5 + 0.5 * params.rho
        rk = time_reversal(lazy, mplus, rho_lazy)
        m_grid = tuple(int(m) for m in (cfg.get("orey_m_grid") or (64, 256, 1024)))
        tr = orey_trace(rk, lazy, mplus, m_grid, seed + 1, probes=(0,))
        _write_csv(
            out / "orey.csv",
            cfg,
            ["m", "position", "ratio_at_0"],
            [[m, tr.positions[m], tr.ratios[m][0]] for m in m_grid],
        )
        results["orey_final_position"] = tr.positions[m_grid[-1]]
        results["orey_ratio_at_0"] = tr.ratios[m_grid[-1]][0]
        results["pi_plus_at_0"] = 1.0 / mplus.T
    _write_json(out / "simulate_report.json", cfg, results)
    return results


def cmd_conditions(cfg, base, kernel, hints, out: Path) -> dict:
    # closed-form hints describe the base chain; they survive lazification
    # (same eigenvectors) but not parity squaring
    if cfg.get("square_even"):
        hints = {k: v for k, v in hints.items() if k == "kill_site"}
    budgets = {"n_max": min(int(cfg["budgets"]["n_max"]), max(int(cfg["n"]), 2500))}
    report = check_conditions(kernel, hints, budgets)
    _write_json(out / "conditions.json", cfg, report.as_dict())
    return {f"condition_{key}": v.status for key, v in sorted(report.verdicts.items())}


def cmd_kesten(cfg, base, kernel, hints, out: Path) -> dict:
    n_grid = tuple(int(n) for n in (cfg.get("n_grid") or (512, 4096, 16384)))
    probe = oscillation_probe(
        kernel, int(cfg["x0"]), n_grid,
        clip=float(cfg.get("clip") or 1e-20), max_halfwidth=6000,
    )
    rows = [[a, b, t] for (a, b), t in sorted(probe.tv.items())]
    _write_csv(out / "oscillation.csv", cfg, ["n1", "n2", "tv"], rows)
    rho_by_budget = {}
    for n in n_grid:
        if n >= MIN_RHO_FACTORS:
            est = estimate_rho(probe.survival_factors[:n])
            rho_by_budget[str(n)] = {
                "rho_hat": est.rho_hat,
                "error_bound": est.error_bound,
                "converged": est.converged,
            }
    results = {
        "n_grid": list(n_grid),
        "max_pairwise_tv": probe.max_tv,
        "rho_by_budget": rho_by_budget,
        "rho_converged_everywhere": all(
            v["converged"] for v in rho_by_budget.values()
        ),
    }
    _write_json(out / "kesten_report.json", cfg, results)
    return results


COMMANDS = {
    "yaglom": cmd_yaglom,
    "spectral": cmd_spectral,
    "invariant": cmd_invariant,
    "transform": cmd_transform,
    "simulate": cmd_simulate,
    "conditions": cmd_conditions,
    "kesten": cmd_kesten,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yaglom",
        description="Yaglom limits of substochastic nearest-neighbour chains",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", help=f"chain preset: {', '.join(sorted(PRESETS))}")
    parser.add_argument("--lazify", type=float, help="stay weight r of rI + (1-r)K")
    parser.add_argument("--square-even", action="store_true", default=None)
    parser.add_argument("--x0", type=int, help="start site")
    parser.add_argument("--n", type=int, help="number of steps")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--tracked-sites", dest="tracked_sites", help="comma list")
    parser.add_argument("--n-grid", dest="n_grid", help="comma list (kesten)")
    parser.add_argument("--sites", help="comma list (transform)")
    parser.add_argument("--clip", type=float, help="relative tail clip threshold")
    parser.add_argument("--n-max", dest="n_max", type=int, help="budget: max steps")
    parser.add_argument("--mc-paths", dest="mc_paths", type=int, help="budget: paths")
    parser.add_argument("--horizon-M", dest="horizon_M", type=int, help="budget: hitting horizon")
    return parser


def _comma_ints(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        overrides = {
            "chain": {"preset": args.preset} if args.preset else None,
            "lazify": args.lazify,
            "square_even": args.square_even,
            "x0": args.x0,
            "n": args.n,
            "seed": args.seed,
            "out_dir": args.out_dir,
            "tracked_sites": _comma_ints(args.tracked_sites) if args.tracked_sites else None,
            "n_grid": _comma_ints(args.n_grid) if args.n_grid else None,
            "sites": _comma_ints(args.sites) if args.sites else None,
            "clip": args.clip,
            "n_max": args.n_max,
            "mc_paths": args.mc_paths,
            "horizon_M": args.horizon_M,
        }
        cfg = resolve_config(load_config(args.config), overrides)
        base, kernel, hints = kernel_from_config(cfg)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    violations = validate(kernel)
    if violations:
        print("kernel validation failed:", file=sys.stderr)
        for msg in violations:
            print(f"  - {msg}", file=sys.stderr)
        return EXIT_VALIDATION

    if int(cfg["n"]) > int(cfg["budgets"]["n_max"]):
        print(
            f"budget exhausted: n={cfg['n']} exceeds budgets.n_max={cfg['budgets']['n_max']}",
            file=sys.stderr,
        )
        return EXIT_BUDGET

    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    try:
        results = COMMANDS[args.command](cfg, base, kernel, hints, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    summary = {k: v for k, v in results.items() if not isinstance(v, (dict, list))}
    print(json.dumps(summary, default=_jsonable, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
