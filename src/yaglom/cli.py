"""Experiment runner: config ingestion, orchestration, CSV/JSON emission.

One structured JSON config per run; command-line flags override config
fields.  Series go to CSV (with the resolved config embedded as a
comment header), reports to JSON (with the config embedded as a field).
Exit codes: 0 success, 2 config/schema error, 3 kernel validation
failure, 4 budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .chain import DegenerateKernelError, NNKernel, Region, Window, lazify, square_even, validate
from .conditions import check_conditions
from .csvtext import write_rows
from .evolve import evolve_trace
from .measures import (
    TwoSidedParams,
    c_max,
    closed_form_V,
    e0_r_zeta,
    extremal_minus,
    extremal_plus,
    family_measure,
    invariance_residual,
    k2n00_asymptotic,
    mirror_extremal,
    prob_values,
    quadratic_roots,
)
from .montecarlo import absorption_times, orey_trace, simulate_absorbed
from .scenarios import PRESETS, oscillation_probe
from .spectral import MIN_RHO_FACTORS, estimate_rho, green
from .transforms import estimate_hhat, time_reversal

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4

MC_PATH_CAP = 200000
MAX_SITE = 10**9  # keeps every site index the subcommands form inside int64


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
    except (OSError, ValueError) as exc:  # ValueError covers invalid JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    return cfg


REQUIRED, OPTIONAL = object(), object()  # defaults: must be given; absent until given


class Field(NamedTuple):
    """One settable value: its path in the config document (``budgets.n_max``),
    JSON kind, default, range and flag help.  The flag is the path's last
    part, dashed (``--n-max``).  Only a ``None`` default allows null.  An
    ``OPTIONAL`` field stays out of the config (and its echo) until given,
    and the subcommand reading it supplies the default, so an ``OPTIONAL``
    list may not be given empty.  No list may repeat an entry.  ``rule`` is
    a (test, text) range check, applied to each entry of a list."""

    key: str
    kind: str
    default: object = OPTIONAL
    rule: tuple | None = None
    help: str | None = None
    flag: str | None = None


def _chain(chain: dict) -> dict:
    """A preset with optional params, or regions with optional overrides."""
    out = _fields(chain, _CHAIN, "chain")
    if not ("preset" in out and not {"regions", "overrides"} & set(out)
            or "regions" in out and not {"preset", "params"} & set(out)):
        raise ConfigError("chain takes either a preset with params or regions with overrides")
    for key, fields in (("regions", _REGION), ("overrides", _OVERRIDE)):
        if key in out:
            out[key] = [_fields(e, fields, f"chain.{key}[{i}]") for i, e in enumerate(out[key])]
    return out


def _flag_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# kind -> (JSON test, what it must be, conversion, flag parser or None for a switch)
_KINDS = {
    "int": (lambda v: type(v) is int, "an integer", int, int),
    "number": (lambda v: type(v) is float or type(v) is int and v.bit_length() < 1024,
               "a number", float, float),
    "bool": (lambda v: type(v) is bool, "true or false", bool, None),
    "str": (lambda v: type(v) is str, "a string", str, str),
    "ints": (lambda v: type(v) is list and all(type(y) is int for y in v),
             "a list of integers", list, _flag_ints),
    "objects": (lambda v: type(v) is list, "a list of objects", list, None),
    "object": (lambda v: type(v) is dict, "an object", dict, None),
    "chain": (lambda v: type(v) is dict, "an object", _chain, lambda name: {"preset": name}),
}

AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
UNIT = (lambda v: 0.0 <= v < 1.0, "in [0, 1)")
SITE = (lambda v: abs(v) <= MAX_SITE, f"at most {MAX_SITE} in absolute value")

FIELDS = (
    Field("chain", "chain", {"preset": "two_sided"}, None,
          f"chain preset: {', '.join(sorted(PRESETS))}", "--preset"),
    Field("lazify", "number", None, UNIT, "stay weight r of rI + (1-r)K"),
    Field("square_even", "bool", False),
    Field("x0", "int", 0, SITE, "start site"),
    Field("n", "int", 2000, AT_LEAST_1, "number of steps"),
    Field("tracked_sites", "ints", [0], SITE, "comma list"),
    Field("seed", "int", 20260810, (lambda v: v >= 0, "at least 0")),
    Field("budgets.n_max", "int", 50000, AT_LEAST_1, "budget: max steps"),
    # the Monte-Carlo standard errors need two paths
    Field("budgets.mc_paths", "int", 200000, (lambda v: v >= 2, "at least 2"), "budget: paths"),
    Field("out_dir", "str", "yaglom_out"),
    Field("n_grid", "ints", OPTIONAL, AT_LEAST_1, "comma list (kesten)"),
    Field("orey_m_grid", "ints", OPTIONAL, AT_LEAST_1, "comma list (simulate)"),
    Field("clip", "number", OPTIONAL, UNIT, "drop law entries below this every 32 steps"),
    Field("sites", "ints", OPTIONAL, SITE, "comma list (transform)"),
)
_RATES = tuple(Field(k, "number", REQUIRED) for k in "prq")
_REGION = (Field("from", "int", None, SITE), Field("to", "int", None, SITE), *_RATES)
_OVERRIDE = (Field("site", "int", REQUIRED, SITE), *_RATES)
_CHAIN = (
    Field("preset", "str", OPTIONAL, (lambda v: v in PRESETS, f"one of {sorted(PRESETS)}")),
    Field("params", "object"),
    Field("regions", "objects"),
    Field("overrides", "objects"),
)


def _convert(field: Field, value, name: str):
    if value is None and field.default is None:
        return None
    test, kind, convert, _ = _KINDS[field.kind]
    if not test(value):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    value = convert(value)
    if field.kind == "ints" and field.default is OPTIONAL and not value:
        raise ConfigError(f"{name} must not be empty")
    if field.kind == "ints" and len(set(value)) < len(value):
        raise ConfigError(f"{name} must not repeat an entry, got {value!r}")
    if field.rule is not None:
        ok, text = field.rule
        if not all(map(ok, value if field.kind == "ints" else [value])):
            raise ConfigError(f"{name} must be {text}, got {value!r}")
    return value


def _fields(obj, fields, where: str = "") -> dict:
    """Check ``obj``'s keys against ``fields``, then convert or default each."""
    if type(obj) is not dict:
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - {f.key for f in fields}
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'config'}: {sorted(unknown)}")
    out = {}
    for f in fields:
        value = obj.get(f.key, f.default)
        if value is REQUIRED:
            raise ConfigError(f"{where} needs the key {f.key!r}")
        if value is not OPTIONAL:
            out[f.key] = _convert(f, value, f"{where}.{f.key}" if where else f.key)
    return out


def resolve_config(file_cfg: dict, overrides: dict) -> dict:
    """Defaults, then the config document, then the non-None ``overrides``
    (keyed like FIELDS), each checked and converted.  The result is also
    the config echo written into every report."""
    given = dict(file_cfg)
    budgets = given.pop("budgets", {})
    if type(budgets) is not dict:
        raise ConfigError("budgets must be an object")
    dotted = sorted(key for key in given if "." in key)
    if dotted:
        raise ConfigError(f"unknown keys in config: {dotted}")
    given.update((f"budgets.{k}", v) for k, v in budgets.items())
    given.update((k, v) for k, v in overrides.items() if v is not None)
    cfg = {"budgets": {}}
    for key, value in _fields(given, FIELDS).items():
        group, _, leaf = key.rpartition(".")
        (cfg[group] if group else cfg)[leaf] = value
    return cfg


def kernel_from_config(cfg: dict):
    """Build (base kernel, transformed kernel, family) from the chain config.

    ``family`` holds the base chain's closed forms: a TwoSidedParams, a
    MirrorParams or None.  They survive lazification (same eigenvectors)
    but not parity squaring, so under ``square_even`` the family is None."""
    chain = cfg["chain"]
    if "preset" in chain:
        base, family = PRESETS[chain["preset"]](**chain.get("params", {}))
    else:
        regions = tuple(Region(e["from"], e["to"], e["p"], e["r"], e["q"])
                        for e in chain["regions"])
        overrides = tuple((o["site"], o["p"], o["r"], o["q"]) for o in chain.get("overrides", ()))
        base, family = NNKernel(regions, overrides), None
    kernel = base
    if cfg["square_even"]:
        kernel, family = square_even(base), None
    if cfg["lazify"] is not None:
        kernel = lazify(kernel, cfg["lazify"])
    return base, kernel, family


def _write_csv(path: Path, cfg: dict, header: list[str], columns: list) -> None:
    """The config echo as a comment line, then the header and the rows,
    written as ``csv.writer`` writes them (``csvtext.write_rows``).
    ``columns`` holds one numpy array or list per header name."""
    with open(path, "w", newline="") as fh:
        fh.write("# " + _json(cfg) + "\n")
        fh.write(",".join(header) + "\r\n")
        write_rows(fh, columns)


def _write_json(path: Path, cfg: dict, results: dict) -> None:
    doc = {"tool": f"yaglom {__version__}", "config": cfg, "results": results}
    with open(path, "w") as fh:
        fh.write(_json(doc, indent=2) + "\n")


def _write_measures(out: Path, cfg: dict, window: Window, plus, minus) -> None:
    sites = window.sites()
    header = ["site", "mu_plus_raw", "mu_plus_prob", "mu_minus_raw", "mu_minus_prob"]
    columns = [sites]
    for m in (plus, minus):
        columns += [m.value(sites), prob_values(m, window)]
    _write_csv(out / "measures.csv", cfg, header, columns)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _finite(obj):
    """``obj`` with every non-finite float replaced by None: JSON has no
    Infinity or NaN, so an unbounded error bound or count is written null."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


def _json(obj, indent=None) -> str:
    """Strict JSON text of a report, config echo or summary; a non-finite
    number that reaches the encoder raises instead of writing Infinity."""
    return json.dumps(
        _finite(obj), indent=indent, sort_keys=True, default=_jsonable, allow_nan=False
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_yaglom(cfg, base, kernel, family, out: Path) -> dict:
    x0, n = cfg["x0"], cfg["n"]
    tracked = tuple(cfg["tracked_sites"])
    for y in tracked:
        if abs(y - x0) > n:
            raise ConfigError(f"tracked site {y} outside the window [{x0 - n}, {x0 + n}]")
    trace = evolve_trace(kernel, x0, n, tracked=tracked, clip=cfg.get("clip", 0.0))
    header = ["n", "survival_factor", "log_mass"] + [f"ratio_{y}" for y in tracked]
    ratios = [trace.tracked_ratios[y] for y in tracked]
    columns = [np.arange(1, n + 1), trace.survival_factors, trace.log_mass, *ratios]
    _write_csv(out / "trace.csv", cfg, header, columns)
    dist = trace.distribution
    _write_csv(out / "distribution.csv", cfg, ["site", "mass"], [dist.window.sites(), dist.values])
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
    if family is not None:
        ref_vals = prob_values(family.limit(x0), dist.window)
        results["tv_to_reference"] = 0.5 * float(np.abs(dist.values - ref_vals).sum())
    _write_json(out / "yaglom_report.json", cfg, results)
    return results


def cmd_spectral(cfg, base, kernel, family, out: Path) -> dict:
    x0, n = cfg["x0"], cfg["n"]
    if n < MIN_RHO_FACTORS:
        raise BudgetError(f"spectral needs n >= {MIN_RHO_FACTORS} to estimate rho, got n={n}")
    trace = evolve_trace(kernel, x0, n)
    est = estimate_rho(trace)
    results: dict = {
        "rho_hat": est.rho_hat,
        "error_bound": est.error_bound,
        "converged": est.converged,
    }
    columns = [np.arange(1, n + 1), trace.survival_factors]
    _write_csv(out / "survival.csv", cfg, ["n", "survival_factor"], columns)
    if isinstance(family, TwoSidedParams):
        t0, t1 = quadratic_roots(family)
        results.update(
            {
                "base_rho_closed_form": family.rho,
                "t0": t0,
                "t1": t1,
                "V": closed_form_V(family),
                "E0_R_zeta_closed_form": e0_r_zeta(family),
                "E0_R_zeta_green": 1.0 + (family.R - 1.0) * green(base, 0, "S", family.R),
                "k2n00_asymptotic_n200": k2n00_asymptotic(family, 200),
            }
        )
    _write_json(out / "spectral_report.json", cfg, results)
    return results


def cmd_invariant(cfg, base, kernel, family, out: Path) -> dict:
    window = Window(-100, 100)
    results: dict = {}
    if isinstance(family, TwoSidedParams):
        c1 = c_max(family)
        grid = np.linspace(0.0, c1, 11)
        measures = [family_measure(family, float(c)) for c in grid]
        residuals = {
            f"{c:.6f}": invariance_residual(base, m, family.rho, Window(-60, 60))
            for c, m in zip(grid, measures)
        }
        columns = [grid, [m.d0 for m in measures], [m.T for m in measures]]
        _write_csv(out / "family.csv", cfg, ["c", "d0", "T"], columns)
        mp, mm = extremal_plus(family), extremal_minus(family)
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
    elif family is not None:  # the mirror chain
        plus, minus = mirror_extremal(family, +1), mirror_extremal(family, -1)
        _write_measures(out, cfg, window, plus, minus)
        results = {
            "T": plus.T,
            "pi_plus_at_0": 1.0 / plus.T,
            "residual_plus": invariance_residual(base, plus, family.rho, Window(-60, 60)),
        }
    else:
        raise ConfigError("invariant subcommand needs a preset with closed forms")
    _write_json(out / "invariant_report.json", cfg, results)
    return results


def cmd_transform(cfg, base, kernel, family, out: Path) -> dict:
    n = cfg["n"]  # hhat is measured from the reference site 0
    sites = tuple(cfg.get("sites", (-3, -2, -1, 0, 1, 2, 3)))
    for x in sites:
        if abs(x) > n:
            raise ConfigError(f"site {x} outside the window [{-n}, {n}]")
    est = estimate_hhat(kernel, 0, sites, n)
    closed = {} if family is None else {x: float(family.hhat.value(x)) for x in sites}
    header = ["site", "estimate", "converged", "spread", "closed_form"]
    columns = [sites] + [[d[x] for x in sites] for d in (est.table, est.converged, est.spreads)]
    columns.append([closed.get(x, "") for x in sites])
    _write_csv(out / "hhat.csv", cfg, header, columns)
    results: dict = {
        "hhat": {str(x): est.table[x] for x in sites},
        "all_converged": est.verdict(),
    }
    if family is not None:
        w_minus, w_plus = family.split(cfg["x0"])
        results["boundary_weights"] = {"w_minus": w_minus, "w_plus": w_plus}
    _write_json(out / "transform_report.json", cfg, results)
    return results


def cmd_simulate(cfg, base, kernel, family, out: Path) -> dict:
    x0, seed, n_max = cfg["x0"], cfg["seed"], cfg["budgets"]["n_max"]
    requested = cfg["budgets"]["mc_paths"]
    n_paths = min(requested, MC_PATH_CAP)
    m_grid = tuple(cfg.get("orey_m_grid", (64, 256, 1024)))
    # the Orey probe below runs on the two-sided family only
    if isinstance(family, TwoSidedParams) and max(m_grid) > n_max:
        raise BudgetError(f"orey_m_grid entry {max(m_grid)} exceeds budgets.n_max={n_max}")
    try:
        zeta = absorption_times(kernel, x0, n_paths, seed, max_steps=n_max)
    except RuntimeError:  # a path outlived the sampler's step cap
        raise BudgetError(
            f"simulate from x0={x0}: paths not absorbed within budgets.n_max={n_max} steps"
        ) from None
    except ValueError as exc:  # a step cap whose rows the sampler cannot pack
        raise ConfigError(f"simulate: budgets.n_max={n_max} too large: {exc}") from None
    _write_csv(out / "zeta.csv", cfg, ["path", "zeta"], [np.arange(zeta.size), zeta])
    sample = simulate_absorbed(kernel, x0, min(cfg["n"], 5000), seed + 7)
    columns = [np.arange(sample.path.size), sample.path]
    _write_csv(out / "trajectory.csv", cfg, ["step", "site"], columns)
    results: dict = {
        "seed": seed,
        "paths": n_paths,
        "paths_requested": requested,
        "paths_capped": requested > MC_PATH_CAP,
        "sample_path_absorbed_at": sample.absorbed_at,
        "mean_zeta": float(zeta.mean()),
        "survival_tail": {str(m): float((zeta > m).mean()) for m in (5, 10, 20)},
    }
    if isinstance(family, TwoSidedParams):
        # under lazify r the exit-time transform shifts radius to
        # 1/(r + (1-r) rho) while E_0 R^zeta keeps its base value
        r_lazy = cfg["lazify"] or 0.0
        R = 1.0 / (r_lazy + (1.0 - r_lazy) * family.rho)
        vals = (R ** np.arange(zeta.max() + 1.0))[zeta]  # the pow calls of R ** zeta, once each
        results["E0_R_zeta_mc_naive"] = float(vals.mean())
        results["E0_R_zeta_mc_naive_stderr"] = float(
            vals.std(ddof=1) / math.sqrt(len(vals))
        )
        results["E0_R_zeta_closed_form"] = e0_r_zeta(family)
        results["naive_estimator_note"] = (
            "R^zeta has unit tail index; compare the truncated pair below"
        )
        n_star = 60
        np.copyto(vals, 0.0, where=zeta > n_star)  # in place, the naive pair read
        tr = evolve_trace(kernel, x0, n_star)
        surv = np.concatenate([[1.0], np.exp(tr.log_mass)])
        death = surv[:-1] - surv[1:]
        results["E0_R_zeta_trunc60_mc"] = float(vals.mean())
        results["E0_R_zeta_trunc60_mc_stderr"] = float(
            vals.std(ddof=1) / math.sqrt(len(vals))
        )
        results["E0_R_zeta_trunc60_deterministic"] = float(
            (R ** np.arange(1.0, n_star + 1) * death).sum()
        )
        # Orey probe along the +inf reversal of the walk lazified by its
        # own weight, whatever cfg["lazify"] is; the report records it.
        r_orey = 0.5
        mplus = extremal_plus(family)
        lazy = lazify(base, r_orey)
        rho_lazy = r_orey + (1.0 - r_orey) * family.rho
        rk = time_reversal(lazy, mplus, rho_lazy)
        tr = orey_trace(rk, lazy, mplus, m_grid, seed + 1, probes=(0,))
        columns = [m_grid, [tr.positions[m] for m in m_grid], [tr.ratios[m][0] for m in m_grid]]
        _write_csv(out / "orey.csv", cfg, ["m", "position", "ratio_at_0"], columns)
        results["orey_lazify"] = r_orey
        results["orey_final_position"] = tr.positions[m_grid[-1]]
        results["orey_ratio_at_0"] = tr.ratios[m_grid[-1]][0]
        results["pi_plus_at_0"] = 1.0 / mplus.T
    _write_json(out / "simulate_report.json", cfg, results)
    return results


def cmd_conditions(cfg, base, kernel, family, out: Path) -> dict:
    n_max = min(cfg["budgets"]["n_max"], max(cfg["n"], 2500))
    if n_max < MIN_RHO_FACTORS:
        raise BudgetError(
            f"conditions needs budgets.n_max >= {MIN_RHO_FACTORS} to estimate rho, got {n_max}"
        )
    report = check_conditions(kernel, family, n_max)
    _write_json(out / "conditions.json", cfg, report.as_dict())
    return {f"condition_{key}": v.status for key, v in sorted(report.verdicts.items())}


def cmd_kesten(cfg, base, kernel, family, out: Path) -> dict:
    n_grid = tuple(cfg.get("n_grid", (512, 4096, 16384)))
    n_max = cfg["budgets"]["n_max"]
    if max(n_grid) > n_max:
        raise BudgetError(f"n_grid entry {max(n_grid)} exceeds budgets.n_max={n_max}")
    probe = oscillation_probe(
        kernel, cfg["x0"], n_grid,
        clip=cfg.get("clip", 0.0), max_halfwidth=6000,
    )
    pairs = sorted(probe.tv)
    columns = [[a for a, _ in pairs], [b for _, b in pairs], [probe.tv[p] for p in pairs]]
    _write_csv(out / "oscillation.csv", cfg, ["n1", "n2", "tv"], columns)
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
        "clip_lost": probe.clip_lost,
        "rho_by_budget": rho_by_budget,
        # nothing measured is no convergence: all([]) would read true
        "rho_converged_everywhere": bool(rho_by_budget)
        and all(v["converged"] for v in rho_by_budget.values()),
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


def _flag(f: Field) -> str:
    return f.flag or "--" + f.key.rpartition(".")[2].replace("_", "-")


def _joined_lists(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with a comma list that starts with a negative entry joined
    to its flag, ``--sites -3,3`` as ``--sites=-3,3``: argparse takes a
    separate ``-3,3`` for an option.  As in argparse, a flag may be cut to
    a prefix that names one of the parser's options alone (``--site``); an
    ambiguous prefix is left for argparse to reject."""
    lists = {_flag(f) for f in FIELDS if f.kind == "ints"}
    options = parser._option_string_actions  # every option string argparse matches

    def named(tok: str) -> str:
        if tok in options or not tok.startswith("--"):
            return tok
        hits = [o for o in options if o.startswith(tok)]
        return hits[0] if len(hits) == 1 else tok

    out: list[str] = []
    for tok in argv:
        if out and named(out[-1]) in lists and re.match("-[0-9]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yaglom",
        description="Yaglom limits of substochastic nearest-neighbour chains",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    for f in FIELDS:
        flag = _flag(f)
        parse = _KINDS[f.kind][3]
        if parse is None:
            parser.add_argument(flag, dest=f.key, action="store_true", default=None, help=f.help)
        else:
            metavar = flag[2:].replace("-", "_").upper()
            parser.add_argument(flag, dest=f.key, type=parse, metavar=metavar, help=f.help)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(_joined_lists(parser, sys.argv[1:] if argv is None else argv))
    try:
        overrides = {f.key: getattr(args, f.key) for f in FIELDS}
        cfg = resolve_config(load_config(args.config), overrides)
        base, kernel, family = kernel_from_config(cfg)
    # the preset builders reject bad params with the built-in errors
    except (ConfigError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    violations = validate(kernel)
    if violations:
        print("kernel validation failed:", file=sys.stderr)
        for msg in violations:
            print(f"  - {msg}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if cfg["n"] > cfg["budgets"]["n_max"]:
            raise BudgetError(f"n={cfg['n']} exceeds budgets.n_max={cfg['budgets']['n_max']}")
        out = Path(cfg["out_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file at out_dir or above it, no permission, ...
            raise ConfigError(f"cannot create out_dir: {exc}") from exc
        results = COMMANDS[args.command](cfg, base, kernel, family, out)
    # a clip that deletes all the mass ends the run with DegenerateKernelError
    except (ConfigError, DegenerateKernelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:  # a window or table too large to allocate
        print(f"budget exhausted: out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    summary = {k: v for k, v in results.items() if not isinstance(v, (dict, list))}
    print(_json(summary))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
