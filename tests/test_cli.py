import csv
import json

import pytest

from yaglom.cli import main


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


def test_conditions_subcommand_all_holds(tmp_path):
    code = run(
        ["conditions", "--preset", "two_sided", "--lazify", "0.5",
         "--n", "2500", "--out-dir", tmp_path / "c"]
    )
    assert code == 0
    rep = read_report(tmp_path / "c" / "conditions.json")
    statuses = {k: v["status"] for k, v in rep["results"].items()}
    assert all(s == "holds" for s in statuses.values()), statuses


def test_unknown_preset_is_schema_error(tmp_path):
    assert run(["yaglom", "--preset", "nope", "--out-dir", tmp_path]) == 2


def test_bad_config_json_is_schema_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["yaglom", "--config", cfg, "--out-dir", tmp_path]) == 2


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


def test_budget_exhaustion_exit_code(tmp_path):
    code = run(
        ["yaglom", "--preset", "two_sided", "--lazify", "0.5", "--n", "500",
         "--n-max", "100", "--out-dir", tmp_path]
    )
    assert code == 4


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


def test_kesten_subcommand_small_grid(tmp_path):
    code = run(
        ["kesten", "--preset", "kesten", "--n-grid", "128,512,2048",
         "--clip", "1e-18", "--out-dir", tmp_path / "k"]
    )
    assert code == 0
    rep = read_report(tmp_path / "k" / "kesten_report.json")
    assert rep["results"]["max_pairwise_tv"] > 0.0


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
