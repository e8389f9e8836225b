import csv
import json
import math
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from yaglom.cli import _CSV_CHUNK, COMMANDS, FIELDS, MAX_SITE, _write_csv, main
from yaglom.scenarios import PRESETS

CUSTOM_CHAIN = {
    "regions": [
        {"from": None, "to": -1, "p": 0.45, "r": 0.5, "q": 0.05},
        {"from": 1, "to": None, "p": 0.125, "r": 0.5, "q": 0.375},
    ],
    "overrides": [{"site": 0, "p": 0.125, "r": 0.5, "q": 0.05}],
}


def run(args):
    return main([str(a) for a in args])


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_yaglom_subcommand_two_sided(tmp_path):
    code = run(
        ["yaglom", "--preset", "two_sided", "--lazify", "0.5", "--x0", "0",
         "--n", "1500", "--out-dir", tmp_path / "o"]
    )
    assert code == 0
    rep = read_report(tmp_path / "o" / "yaglom_report.json")
    assert rep["config"]["lazify"] == 0.5
    assert rep["results"]["tv_to_reference"] < 1e-2
    with open(tmp_path / "o" / "trace.csv") as fh:
        header_comment = fh.readline()
        assert header_comment.startswith("# {")
        assert json.loads(header_comment[2:])["n"] == 1500
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["n", "survival_factor", "log_mass"]
    assert len(rows) == 1501
    assert float(rows[-1][2]) == rep["results"]["log_mass"]


def test_conditions_subcommand_all_holds(tmp_path):
    code = run(
        ["conditions", "--preset", "two_sided", "--lazify", "0.5",
         "--n", "2500", "--out-dir", tmp_path / "c"]
    )
    assert code == 0
    rep = read_report(tmp_path / "c" / "conditions.json")
    statuses = {k: v["status"] for k, v in rep["results"].items()}
    assert all(s == "holds" for s in statuses.values()), statuses


def test_conditions_report_is_standard_json(tmp_path):
    # kesten's rho series does not converge: [2] has no R, written as null
    def reject_nan(name):
        if name == "NaN":
            raise ValueError("NaN in conditions.json")
        return float(name)

    assert run(["conditions", "--preset", "kesten", "--out-dir", tmp_path]) == 0
    with open(tmp_path / "conditions.json") as fh:
        rep = json.loads(fh.read(), parse_constant=reject_nan)
    assert rep["results"]["2"]["status"] == "evidence-only"
    assert rep["results"]["2"]["evidence"]["R"] is None


def test_reports_write_unbounded_values_as_null(tmp_path, capsys):
    # an unconverged rho estimate has an infinite error bound, and a killing
    # tail infinitely many kill sites: JSON has no Infinity, so both are null
    def reject(name):
        raise ValueError(f"{name} in a report")

    def load(path):
        with open(path) as fh:
            return json.loads(fh.read(), parse_constant=reject)

    assert run(["spectral", "--preset", "kesten", "--out-dir", tmp_path / "s"]) == 0
    summary = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert summary["converged"] is False and summary["error_bound"] is None
    assert load(tmp_path / "s" / "spectral_report.json")["results"]["error_bound"] is None
    assert run(["kesten", "--preset", "kesten", "--n-grid", "512,1024",
                "--out-dir", tmp_path / "k"]) == 0
    rho = load(tmp_path / "k" / "kesten_report.json")["results"]["rho_by_budget"]
    assert any(v["error_bound"] is None for v in rho.values())
    assert run(["conditions", "--preset", "kesten", "--out-dir", tmp_path / "c"]) == 0
    assert load(tmp_path / "c" / "conditions.json")["results"]["2"]["evidence"][
        "rho_error_bound"] is None
    assert run(["conditions", "--preset", "alpha_walk", "--out-dir", tmp_path / "a"]) == 0
    ev6 = load(tmp_path / "a" / "conditions.json")["results"]["6"]["evidence"]
    assert ev6["kill_support"] == "unbounded" and ev6["n_kill_sites"] is None


def test_write_csv_matches_csv_writer(tmp_path):
    # every kind of cell the subcommands write, in a file longer than one
    # chunk, with a row given as a list
    cells = [0, -7, 2**70, 0.1, -2.5e-8, math.nan, math.inf, -math.inf, -0.0,
             5e-324, 1e300, True, False, ""]
    rows = [(i, cells[i % len(cells)], cells[(3 * i + 1) % len(cells)]) for i in range(10_001)]
    rows[17] = list(rows[17])
    assert len(rows) > _CSV_CHUNK
    cfg = {"seed": 3, "chain": {"preset": "two_sided"}}
    header = ["n", "a", "b"]
    _write_csv(tmp_path / "new.csv", cfg, header, iter(rows))
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        fh.write("# " + json.dumps(cfg, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_unknown_preset_is_schema_error(tmp_path):
    assert run(["yaglom", "--preset", "nope", "--out-dir", tmp_path]) == 2


def test_bad_config_json_is_schema_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["yaglom", "--config", cfg, "--out-dir", tmp_path]) == 2
    assert run(["yaglom", "--config", tmp_path, "--out-dir", tmp_path]) == 2


def test_missing_chain_keys_is_schema_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chain": {}}))
    assert run(["yaglom", "--config", cfg, "--out-dir", tmp_path]) == 2


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("yaglom", {"chain": {"preset": "two_sided", "params": {"p": "x"}}}),
        ("yaglom", {"chain": {"preset": "two_sided", "params": {"zz": 1}}}),
        ("yaglom", {"n": "ten"}),
        ("yaglom", {"lazify": "x"}),
        ("yaglom", {"x0": "a"}),
        ("yaglom", {"budgets": 5}),
        ("yaglom", {"tracked_sites": 5}),
        ("yaglom", {"chain": {"regions": 5}}),
        ("simulate", {"seed": "s"}),
        ("simulate", {"seed": -1}),
        ("simulate", {"orey_m_grid": [0, 64]}),
        ("kesten", {"chain": {"preset": "kesten"}, "n_grid": [0, 64]}),
        ("kesten", {"chain": {"preset": "kesten", "params": {"zz": 1}}}),
        *[(command, {"chain": {"preset": "kesten", "params": {"schedule": {"a": [1, 16]}}}})
          for command in ("yaglom", "simulate", "transform", "spectral", "conditions", "kesten")],
        ("simulate", {"budgets": {"mc_paths": -5}}),
        ("yaglom", {"clip": -1}),
        ("kesten", {"chain": {"preset": "kesten"}, "clip": -1}),
        ("yaglom", {"chain": {"preset": "two_sided", "parms": {"p": 0.4}}}),
        ("yaglom", {"budgets": {"n_maxx": 10}}),
        ("yaglom", {"budgets.n_max": 10}),
        ("yaglom", {"chain": {"regions": [{"p": 0.25, "r": 0.0, "q": 0.7, "kill": 1}]}}),
        ("yaglom", {"chain": {**CUSTOM_CHAIN, "overrides": [{"site": 0, "p": 0.1, "r": 0.0, "q": 0.1, "kill": 1}]}}),
        ("yaglom", {"chain": {"preset": "two_sided", "overrides": 5}}),
        ("yaglom", {"chain": {"preset": "two_sided", "regions": CUSTOM_CHAIN["regions"]}}),
        ("yaglom", {"square_even": "no"}),
        ("yaglom", {"n": 2.7}),
        ("yaglom", {"n": "300"}),
        ("simulate", {"x0": 1e30}),
        ("transform", {"x0": 1e30}),
        ("simulate", {"x0": 10**30}),
        ("transform", {"budgets": {"horizon_M": 0}}),
        ("yaglom", {"chain": {"preset": "symmetric", "params": {"exit_prob": None}}}),
        ("simulate", {"budgets": {"mc_paths": 1}}),
        # a clip that deletes all the mass
        ("yaglom", {"chain": {"preset": "alpha_walk"}, "clip": 0.5}),
        ("kesten", {"chain": {"preset": "alpha_walk"}, "clip": 0.5, "n_grid": [200, 400]}),
    ],
)
def test_malformed_config_is_one_line_config_error(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 50, **cfg}))
    assert run([command, "--config", path, "--out-dir", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and len(err.splitlines()) == 1


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    assert run(["simulate", "--seed", "-1", "--out-dir", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and len(err.splitlines()) == 1


def test_invalid_kernel_is_validation_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "chain": {
                    "regions": [
                        {"from": None, "to": -1, "p": 0.9, "r": 0.0, "q": 0.1},
                        {"from": 0, "to": None, "p": 0.25, "r": 0.0, "q": 0.0},
                    ]
                },
                "n": 50,
            }
        )
    )
    assert run(["yaglom", "--config", cfg, "--out-dir", tmp_path / "v"]) == 3
    # Python's json reads the NaN literal
    cfg.write_text(json.dumps({"chain": {"regions": [{"p": float("nan"), "r": 0.0, "q": 0.5}]}}))
    assert run(["yaglom", "--config", cfg, "--out-dir", tmp_path / "nan"]) == 3
    assert not (tmp_path / "nan").exists()


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    code = run(
        ["yaglom", "--preset", "two_sided", "--lazify", "0.5", "--n", "500",
         "--n-max", "100", "--out-dir", tmp_path]
    )
    assert code == 4
    # too few steps for the rho estimate behind conditions [1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "budgets": {"n_max": 10}}))
    assert run(["conditions", "--config", cfg, "--out-dir", tmp_path / "c"]) == 4
    # paths drifting away from the only killing site outlive the sampler's
    # step cap, which is budgets.n_max
    outward = [{"to": -1, "p": 0.1, "r": 0.0, "q": 0.9}, {"from": 0, "to": 0, "p": 0.3, "r": 0.0, "q": 0.3},
               {"from": 1, "p": 0.9, "r": 0.0, "q": 0.1}]
    cfg.write_text(json.dumps({"chain": {"regions": outward}, "n": 200, "budgets": {"n_max": 20000}}))
    assert run(["simulate", "--config", cfg, "--x0", "2000", "--mc-paths", "10",
                "--out-dir", tmp_path / "s"]) == 4
    # the Green probe's tail fit reads these 222 terms as growing
    assert run(["spectral", "--n", "222", "--out-dir", tmp_path / "g"]) == 4
    # probe grids past the step budget: kesten's n_grid, simulate's Orey grid
    assert run(["kesten", "--n", "500", "--n-max", "600", "--n-grid", "512,2000",
                "--out-dir", tmp_path / "k"]) == 4
    assert run(["simulate", "--n", "100", "--n-max", "200", "--mc-paths", "100",
                "--orey-m-grid", "64,3000", "--out-dir", tmp_path / "o"]) == 4
    assert not [*(tmp_path / "k").iterdir(), *(tmp_path / "o").iterdir()]  # checked before any work
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 6 and all(line.startswith("budget exhausted:") for line in err)


def test_custom_regions_chain_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "chain": {
                    "regions": [
                        {"from": None, "to": -1, "p": 0.45, "r": 0.5, "q": 0.05},
                        {"from": 1, "to": None, "p": 0.125, "r": 0.5, "q": 0.375},
                    ],
                    "overrides": [{"site": 0, "p": 0.125, "r": 0.5, "q": 0.05}],
                },
                "n": 300,
            }
        )
    )
    code = run(["spectral", "--config", cfg, "--out-dir", tmp_path / "s"])
    assert code == 0
    rep = read_report(tmp_path / "s" / "spectral_report.json")
    assert 0.0 < rep["results"]["rho_hat"] < 1.0


def test_simulate_reproducible_outputs(tmp_path):
    args = ["simulate", "--preset", "two_sided", "--seed", "77",
            "--mc-paths", "2000", "--n", "200"]
    assert run(args + ["--out-dir", tmp_path / "a"]) == 0
    assert run(args + ["--out-dir", tmp_path / "b"]) == 0
    # identical seeds give identical data; headers differ only in out_dir
    za = (tmp_path / "a" / "zeta.csv").read_text().splitlines()
    zb = (tmp_path / "b" / "zeta.csv").read_text().splitlines()
    assert za[1:] == zb[1:]
    rep = read_report(tmp_path / "a" / "simulate_report.json")
    assert rep["results"]["seed"] == 77
    assert rep["results"]["paths_capped"] is False


@pytest.mark.parametrize("lazy", [None, 0.25])
def test_simulate_records_the_orey_probe_lazification(tmp_path, lazy):
    """The Orey probe lazifies the base walk by 0.5 whatever ``lazify`` is."""
    args = ["simulate", "--preset", "two_sided", "--mc-paths", "200", "--n", "200",
            "--orey-m-grid", "16", "--out-dir", tmp_path / "o"]
    assert run(args + ([] if lazy is None else ["--lazify", lazy])) == 0
    res = read_report(tmp_path / "o" / "simulate_report.json")["results"]
    assert res["orey_lazify"] == 0.5


def test_kesten_subcommand_small_grid(tmp_path):
    code = run(
        ["kesten", "--preset", "kesten", "--n-grid", "128,512,2048",
         "--clip", "1e-18", "--out-dir", tmp_path / "k"]
    )
    assert code == 0
    rep = read_report(tmp_path / "k" / "kesten_report.json")
    assert rep["results"]["max_pairwise_tv"] > 0.0


def test_kesten_default_is_unclipped(tmp_path):
    # a 1e-20 clip deletes the far-ring mass that later dominates, and
    # reports a rho 660 bounds off the exact 0.940839 as converged
    reports = {}
    for name, extra in (("default", []), ("zero", ["--clip", "0"]), ("tiny", ["--clip", "1e-20"])):
        assert run(["kesten", "--preset", "kesten", *extra, "--out-dir", tmp_path / name]) == 0
        reports[name] = read_report(tmp_path / name / "kesten_report.json")["results"]
    rho_hat = reports["default"]["rho_by_budget"]["16384"]["rho_hat"]
    assert rho_hat == pytest.approx(0.940839, abs=1e-4)
    assert reports["zero"] == reports["default"]
    assert reports["tiny"] != reports["zero"]


def test_invariant_and_transform_subcommands(tmp_path):
    assert run(
        ["invariant", "--preset", "two_sided", "--out-dir", tmp_path / "i"]
    ) == 0
    rep = read_report(tmp_path / "i" / "invariant_report.json")
    assert rep["results"]["pi_plus_at_0"] == pytest.approx(0.20611, abs=1e-4)
    assert rep["results"]["stochastic_order_min_gap"] >= -1e-15
    assert run(
        ["transform", "--preset", "symmetric", "--lazify", "0.5", "--n", "600",
         "--out-dir", tmp_path / "t"]
    ) == 0
    rep = read_report(tmp_path / "t" / "transform_report.json")
    assert rep["results"]["boundary_weights"]["w_plus"] == pytest.approx(0.5, abs=1e-9)


def test_transform_period_two_is_not_converged(tmp_path):
    out = tmp_path / "t"
    assert run(["transform", "--preset", "two_sided", "--n", "2000", "--out-dir", out]) == 0
    assert read_report(out / "transform_report.json")["results"]["all_converged"] is False
    with open(out / "hhat.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    converged = {int(r["site"]): r["converged"] == "True" for r in rows}
    assert converged == {-3: False, -2: True, -1: False, 0: True, 1: False, 2: True, 3: False}


def test_spectral_below_rho_minimum_is_budget_error(tmp_path, capsys):
    assert run(["spectral", "--n", "100", "--out-dir", tmp_path]) == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("budget exhausted:") and "200" in err
    assert len(err.splitlines()) == 1


def test_spectral_green_probe_starts_at_zero(tmp_path):
    # E0_R_zeta_* is E_0 R^zeta whatever x0 the survival run starts from
    assert run(["spectral", "--x0", "5", "--n", "2000", "--out-dir", tmp_path]) == 0
    res = read_report(tmp_path / "spectral_report.json")["results"]
    assert res["E0_R_zeta_green"] == pytest.approx(res["E0_R_zeta_closed_form"], rel=1e-3)


def test_transform_site_outside_window_is_config_error(tmp_path, capsys):
    code = run(["transform", "--n", "50", "--sites", "2,51", "--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert "51" in err and "[-50, 50]" in err


@pytest.mark.parametrize(
    "command, args",
    [("transform", ["--n", "300"]), ("yaglom", ["--n", "50", "--tracked-sites", "3000"])],
)
def test_far_symmetric_start_runs(tmp_path, command, args):
    # the closed-form split needs no hitting horizon
    assert run([command, "--preset", "symmetric", "--lazify", "0.5", "--x0", "3000",
                *args, "--out-dir", tmp_path]) == 0
    if command == "transform":
        weights = read_report(tmp_path / "transform_report.json")["results"]["boundary_weights"]
        assert weights == {"w_minus": 1 / 6002, "w_plus": 6001 / 6002}
    else:
        assert "tv_to_reference" in read_report(tmp_path / "yaglom_report.json")["results"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transform_far_site_is_not_converged(tmp_path):
    # the ratio at site 1500 is 0 until step 1939 (unreached, then flushed
    # as subnormal), and the closed form there overflows a float
    out = tmp_path / "t"
    assert run(["transform", "--preset", "two_sided", "--lazify", "0.5", "--n", "2000",
                "--sites", "1500", "--out-dir", out]) == 0
    with open(out / "hhat.csv") as fh:
        (row,) = csv.DictReader(line for line in fh if not line.startswith("#"))
    assert (row["converged"], row["spread"], row["closed_form"]) == ("False", "inf", "inf")


def test_readme_config_table_lists_every_field():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | type | default | range |") + 2
    rows = takewhile(lambda line: line.startswith("|"), lines[start:])
    assert [row.split("`")[1] for row in rows] == [f.key for f in FIELDS]


def test_tracked_site_outside_window_is_config_error(tmp_path, capsys):
    code = run(["yaglom", "--n", "50", "--tracked-sites", "500", "--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert "500" in err and "[-50, 50]" in err


def test_yaglom_report_splits_edge_and_clip_loss(tmp_path):
    out = tmp_path / "y"
    assert run(["yaglom", "--lazify", "0.5", "--n", "3000", "--clip", "1e-30",
                "--out-dir", out]) == 0
    res = read_report(out / "yaglom_report.json")["results"]
    assert res["edge_lost"] == 0.0 and res["clip_lost"] > 0.0
    assert res["edge_lost"] + res["clip_lost"] == res["clipped_mass_bound"]
    assert 0 < res["live_hull_width"] < 6001
    assert res["zero_sites"] >= 6001 - res["live_hull_width"]


def test_simulate_reports_path_cap(tmp_path):
    out = tmp_path / "m"
    assert run(["simulate", "--mc-paths", "250000", "--n", "200", "--out-dir", out]) == 0
    res = read_report(out / "simulate_report.json")["results"]
    assert res["paths_requested"] == 250000
    assert res["paths_capped"] is True
    assert res["paths"] == 200000


# a valid config that runs in milliseconds, and one malformation of it
VALID = st.fixed_dictionaries(
    {
        "chain": st.sampled_from([{"preset": name} for name in sorted(PRESETS)] + [CUSTOM_CHAIN]),
        "n": st.integers(1, 300),
        "x0": st.integers(-10, 10),
        "budgets": st.fixed_dictionaries(
            {"n_max": st.integers(200, 400), "mc_paths": st.integers(1, 2000)}
        ),
    },
    optional={
        "lazify": st.none() | st.floats(0.0, 0.9),
        "square_even": st.booleans(),
        "tracked_sites": st.lists(st.integers(-5, 5), max_size=3),
        "seed": st.integers(0, 2**40),
        "n_grid": st.lists(st.integers(1, 600), max_size=3),
        "orey_m_grid": st.lists(st.integers(1, 128), max_size=3),
        "clip": st.none() | st.floats(0.0, 0.5),
        "sites": st.lists(st.integers(-5, 5), max_size=3),
    },
)
# wrong types, and values that, when well typed, stay small enough to run fast
GARBAGE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 0), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-5, 5), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
# beyond every site bound; kept out of the budgets, where they would run for long
HUGE = st.integers(min_value=MAX_SITE + 1) | st.integers(max_value=-MAX_SITE - 1)
PARAMS = st.dictionaries(
    st.sampled_from(["p", "q", "a", "b", "alpha", "exit_prob", "schedule"]), GARBAGE | HUGE,
    max_size=2,
)
TOP_KEYS = ["chain", "n", "x0", "budgets", "lazify", "square_even", "tracked_sites", "seed",
            "n_grid", "orey_m_grid", "clip", "sites"]


@st.composite
def configs(draw):
    cfg = draw(VALID)
    where = draw(st.sampled_from(["none", "top", "budgets", "chain", "entry", "unknown"]))
    value = draw(GARBAGE if where == "budgets" else GARBAGE | HUGE)
    if where == "top":
        cfg[draw(st.sampled_from(TOP_KEYS))] = value
    elif where == "budgets":
        cfg["budgets"][draw(st.sampled_from(sorted(cfg["budgets"])))] = value
    elif where == "chain":
        key = draw(st.sampled_from(["preset", "params", "regions", "overrides"]))
        cfg["chain"] = {**cfg["chain"], key: draw(PARAMS) if key == "params" else value}
    elif where == "entry" and "regions" in cfg["chain"]:
        entry = {**cfg["chain"]["regions"][0], draw(st.sampled_from(["from", "to", "p", "r", "q"])): value}
        cfg["chain"] = {**cfg["chain"], "regions": [entry, *cfg["chain"]["regions"][1:]]}
    elif where == "unknown":
        holder = draw(st.sampled_from([cfg, cfg["budgets"]]))
        holder[draw(st.text(min_size=1, max_size=4))] = value
    return cfg


# NaN-producing arithmetic warns; the warning fails the test
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(COMMANDS)), cfg=configs())
def test_any_config_exits_with_a_documented_code(tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", path, "--out-dir", tmp_path / "o"]) in (0, 2, 3, 4)


def _no_closed_form(command, out):
    """Assert that ``command``'s output under square_even has no closed form."""
    if command == "yaglom":
        assert "tv_to_reference" not in read_report(out / "yaglom_report.json")["results"]
    elif command == "spectral":
        assert "E0_R_zeta_closed_form" not in read_report(out / "spectral_report.json")["results"]
    elif command == "simulate":
        res = read_report(out / "simulate_report.json")["results"]
        assert not any("closed_form" in key or "orey" in key for key in res)
    elif command == "transform":
        assert "boundary_weights" not in read_report(out / "transform_report.json")["results"]
        with open(out / "hhat.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert rows and all(r["closed_form"] == "" for r in rows)
    elif command == "conditions":
        res = read_report(out / "conditions.json")["results"]
        assert not any("closed_form" in key for key in res["2"]["evidence"])
        assert "hhat_at_1" not in res["8"]["evidence"]


@pytest.mark.parametrize("preset", ["two_sided", "symmetric"])
@pytest.mark.parametrize("command", ["yaglom", "spectral", "simulate", "transform", "conditions"])
def test_square_even_reports_no_closed_form(tmp_path, command, preset):
    # the closed forms describe the base chain, not its two-step even restriction
    args = [command, "--preset", preset, "--square-even", "--lazify", "0.5", "--n", "300",
            "--mc-paths", "200", "--out-dir", tmp_path]
    assert run(args) == 0
    _no_closed_form(command, tmp_path)


def test_square_even_invariant_is_config_error(tmp_path, capsys):
    assert run(["invariant", "--preset", "two_sided", "--square-even", "--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "config error: invariant subcommand needs a preset with closed forms"
