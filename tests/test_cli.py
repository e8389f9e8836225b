import builtins
import csv
import hashlib
import json
import math
import tracemalloc
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import yaglom.csvtext
from yaglom.cli import COMMANDS, FIELDS, MAX_SITE, _write_csv, main
from yaglom.csvtext import _CSV_CHUNK
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


def _int_column(rng, dtype, size):
    """Integers of ``dtype`` spread over every digit count, with its extremes,
    0 and (if signed) -1 among them."""
    info = np.iinfo(dtype)
    col = rng.integers(info.min, info.max, size, dtype=dtype, endpoint=True)
    col >>= rng.integers(0, info.bits, size).astype(dtype)
    col[:4] = [info.min, info.max, 0, -1 if info.min else 1]
    return col


def _assert_written_as_csv_writer(tmp_path, columns, name=""):
    """``_write_csv`` writes ``columns`` with ``csv.writer``'s bytes."""
    cfg = {"seed": 3, "chain": {"preset": "two_sided"}}
    header = [f"c{j}" for j in range(len(columns))]
    _write_csv(tmp_path / "new.csv", cfg, header, columns)
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        fh.write("# " + json.dumps(cfg, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), name


def test_write_csv_matches_csv_writer(tmp_path):
    # every kind of cell the subcommands write, in list columns longer than
    # one chunk beside an integer array; float and bool arrays; tables of
    # integer arrays only: longer than one chunk with int64, uint64 and
    # int32 extremes or with small integer types, cells of 10 characters,
    # one row, no rows; and (site, mass) tables with runs of +0.0 rows
    cells = [0, -7, 2**70, 0.1, -2.5e-8, math.nan, math.inf, -math.inf, -0.0,
             5e-324, 1e300, True, False, ""]
    n = 10_001
    assert n > _CSV_CHUNK
    rng = np.random.default_rng(5)
    m = 3 * _CSV_CHUNK + 5
    # runs of +0.0 longer than one chunk at both ends and in the middle,
    # runs of 255 and 256 rows, single zeros, and a run broken by -0.0,
    # nan and 5e-324
    gaps = [2 * _CSV_CHUNK + 3, 7, 0, 1, 0, 255, 0, 0, 256, 3, 1200, 0, _CSV_CHUNK + 1, 2, 0]
    law = np.concatenate([np.r_[np.zeros(g), rng.random(3) * 10.0 ** -rng.integers(0, 320, 3)]
                          for g in gaps] + [np.zeros(3 * _CSV_CHUNK)])
    z = law.size
    broken = sum(gaps[:10]) + 30  # the first row of the run of 1200
    law[[broken + 300, broken + 600, broken + 900]] = -0.0, math.nan, 5e-324
    tables = {
        "cells": [np.arange(n), [cells[i % len(cells)] for i in range(n)],
                  tuple(cells[(3 * i + 1) % len(cells)] for i in range(n))],
        "arrays": [np.arange(-50, 50), np.linspace(-1.0, 1e-300, 100), np.arange(100) % 3 == 0],
        "ints": [np.arange(m), _int_column(rng, np.int64, m), _int_column(rng, np.uint64, m),
                 _int_column(rng, np.int32, m)],
        # at most 9 characters a cell; signs and widths change between chunks
        "small_ints": [m - 21 - np.arange(m), _int_column(rng, np.int16, m),
                       _int_column(rng, np.uint8, m),
                       np.r_[-99_999_999, np.full(m - 1, 999_999_999) >> rng.integers(0, 30, m - 1)]],
        "ten_chars": [np.array([2**32 - 1, 2**32, 9_999_999_999, -999_999_999])],
        "one_row": [np.array([-7]), np.array([2**64 - 1], dtype=np.uint64)],
        "no_rows": [np.arange(0), np.arange(0)],
        "zero_runs": [np.arange(-20_000, -20_000 + z), law],
        "zero_runs_f32": [np.arange(z), law.astype(np.float32)],
        "all_zero": [np.arange(-5, 3 * _CSV_CHUNK), np.zeros(3 * _CSV_CHUNK + 5)],
        "one_zero_row": [np.array([-3]), np.zeros(1)],
        "some_zero": [np.arange(z), law, np.r_[law[100:], law[:100]], np.zeros(z)],
        "negative_zeros": [np.arange(z), -law],
        "zeros_and_false": [np.arange(512), np.zeros(512), np.zeros(512, dtype=bool)],
        # float arrays only, and integers after and between them: chunks
        # whose cells need at most 9, 12 or 16 digits, or 17
        "floats_first": [np.round(rng.random(m), 12), np.arange(m, dtype=np.uint64),
                         rng.random(m) * 1e-3, np.round(rng.random(m) * 100, 7), -np.arange(m)],
        "short_digits": [np.round(rng.normal(0, 1e6, m), 2), np.round(rng.random(m), 5)],
    }
    assert tables["ints"][2].max() >= 2**63
    for name, columns in tables.items():
        _assert_written_as_csv_writer(tmp_path, columns, name)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=400))
def test_float_cells_of_any_bit_pattern_match_csv_writer(tmp_path, bits):
    """Every float64 and float32, nan payloads, infinities, zeros and
    subnormals included, is written as ``repr`` writes it."""
    raw = np.array(bits, dtype=np.uint64)
    low = (raw & np.uint64(2**32 - 1)).astype(np.uint32)
    _assert_written_as_csv_writer(tmp_path, [raw.view(np.float64), low.view(np.float32)])


def test_float32_signalling_nan_is_written_without_a_warning(tmp_path):
    # widening a signalling nan (quiet bit clear) raised numpy's invalid-value
    # warning, which this suite turns into an error; found by the test above
    snan = np.array([0x7F800001, 0xFFBFFFFF, 0x3F800000], dtype=np.uint32).view(np.float32)
    _assert_written_as_csv_writer(tmp_path, [snan, np.arange(3)])


def _tie_list():
    """Floats whose digits lie near a rounding or round-trip threshold:
    odd * 2**e for every e, 10**k, 5 10**k and 1.5 10**k, 1e23 and 2**53 + 2,
    each with its two neighbours."""
    odd = np.r_[np.arange(1, 64, 2), 125, 375, 625, 1875, 3125, 3123, 2187, 999].astype(float)
    with np.errstate(over="ignore"):
        x = np.concatenate([np.ldexp(odd, e) for e in range(-1074, 1024)])
    decimal = [float(f"{c}e{k}") for k in range(-323, 309) for c in (1, 5, 1.5)]
    x = np.concatenate([x[np.isfinite(x)], decimal, [1e23, 2.0**53 + 2]])
    return np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])


def test_float_cells_near_their_thresholds_match_csv_writer(tmp_path, monkeypatch):
    """The tie list, the layout boundaries, three-digit exponents and nan
    with its sign bit set; the cells whose digits are too close to call
    go to ``repr``."""
    undecided = []

    def counting(m, e):
        out = shortest(m, e)
        undecided.append(int(out[3].sum()))
        return out

    shortest = yaglom.csvtext._shortest
    monkeypatch.setattr(yaglom.csvtext, "_shortest", counting)
    ties = _tie_list()
    _assert_written_as_csv_writer(tmp_path, [np.arange(ties.size), ties, -ties[::-1]], "ties")
    assert sum(undecided) > 0
    edges = np.array([1e16, 9999999999999998.0, 1e-4, 1e-5, 1e100, 1.5e-300, 1.7976931348623157e308,
                      2.2250738585072014e-308, 4.9406564584124654e-324, 123456789012345680.0,
                      0.1, 0.30000000000000004, np.copysign(math.nan, -1),
                      np.uint64(0xFFF8000000000001).view(np.float64), -math.inf])
    with np.errstate(over="ignore"):  # past the largest float, and of float32
        edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
        narrow = edges.astype(np.float32)
    _assert_written_as_csv_writer(tmp_path, [edges, -edges, narrow], "edges")


def test_repr_writes_few_cells_of_a_trace(tmp_path, monkeypatch):
    """At most 0.1% of the float cells of a ``two_sided`` trace.csv, raw
    or lazified, are written by ``repr``, its distribution.csv included;
    inf is a constant cell, and a power of two is written by ``repr`` only
    the first time its sign and exponent are seen."""
    calls = []

    def counting(value):
        calls.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(yaglom.csvtext, "repr", counting, raising=False)
    yaglom.csvtext._power_of_two.cache_clear()
    _write_csv(tmp_path / "slow.csv", {}, ["x"], [np.array([0.5, 5e-324, math.inf, 0.1])])
    assert sorted(calls) == [5e-324, 0.5]  # two powers of two, the first time each is seen
    calls.clear()
    _write_csv(tmp_path / "slow.csv", {}, ["x"], [np.array([0.5, -0.5, 0.5, 5e-324])])
    assert calls == [-0.5]
    # raw two_sided has period 2: every other survival factor is 1.0
    for lazify in (["--lazify", "0.5"], []):
        calls.clear()
        assert run(["yaglom", *lazify, "--n", "4000", "--tracked-sites=-1,2",
                    "--out-dir", tmp_path]) == 0
        assert len(calls) <= 0.001 * 4000 * 4


def test_large_float_table_is_written_chunk_by_chunk(tmp_path):
    """A 200 000-row table of 5 float columns is formatted _CSV_CHUNK rows
    at a time: the traced peak stays below a third of the file."""
    rng = np.random.default_rng(3)
    columns = [rng.random(200_000) * 10.0 ** rng.integers(-300, 300, 200_000) for _ in range(5)]
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "big.csv", {}, list("abcde"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "big.csv").stat().st_size
    assert size > 20e6 and peak < size / 3


def test_out_dir_that_cannot_be_made_is_config_error(tmp_path, capsys):
    # a file at out_dir, or at a directory above it
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert run(["yaglom", "--n", "10", "--out-dir", out]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: cannot create out_dir") and "\n" not in err


def test_out_of_memory_is_budget_error(tmp_path, capsys, monkeypatch):
    # as numpy raises it for a window too large to allocate
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape (2000000000001,)")

    monkeypatch.setattr("yaglom.cli.evolve_trace", no_memory)
    assert run(["yaglom", "--n", "10", "--out-dir", tmp_path]) == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("budget exhausted: out of memory: Unable to allocate") and "\n" not in err


def test_window_beyond_physical_memory_is_budget_error(tmp_path, capsys, monkeypatch):
    # the run is refused before its window is allocated
    monkeypatch.setattr("yaglom.evolve._physical_memory", lambda: 10**6)
    assert run(["yaglom", "--n", "10000", "--out-dir", tmp_path]) == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("budget exhausted: out of memory: 10000 steps on a window of 20001 sites")
    assert "\n" not in err
    assert run(["yaglom", "--n", "1000", "--out-dir", tmp_path]) == 0


# sha256 of trace.csv and distribution.csv after their config lines, and of
# yaglom_report.json's results as sorted JSON, from ``yaglom --x0 2 --n
# 2000``; trace.csv and the report were recorded before the band tables
# were scaled, distribution.csv before float cells were formatted in numpy
PINNED = {
    ("two_sided", "0.5"): ("3ade2321ca0bb1b94a876c6a9220b470ea4712d9ae6b810ecb770f91c209f2b3",
                           "0d01fd51d2c9fc849d137cc2793417552d8e613962610422460b50b1e5d69bee",
                           "cad6e977714a33051864a4682c7c0529b307eace075e1a6da21438bdf4e0a305"),
    ("symmetric", None): ("e437e4e487760aba8d8646d74da7c47a3a473c8ad943bf31ca1298e2b37849ff",
                          "c66772199f933bbad984ff769ffb926fd5cfecb4b5f69d5e193e14e8973d1eb3",
                          "bf1833054907d94e29a7ccad81706a9d24f2a3a80a721c45e3c1227fc8489dfd"),
}


def _table_sha256(path):
    """sha256 of a CSV file after its config line."""
    return hashlib.sha256(path.read_bytes().split(b"\n", 1)[1]).hexdigest()


@pytest.mark.parametrize("preset, lazify", list(PINNED))
def test_yaglom_trace_and_report_are_pinned(preset, lazify, tmp_path):
    args = ["yaglom", "--preset", preset, "--x0", "2", "--n", "2000", "--out-dir", tmp_path]
    assert run(args + (["--lazify", lazify] if lazify else [])) == 0
    results = read_report(tmp_path / "yaglom_report.json")["results"]
    got = (_table_sha256(tmp_path / "trace.csv"), _table_sha256(tmp_path / "distribution.csv"),
           hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest())
    assert got == PINNED[preset, lazify]


# sha256 of each table after its config line, recorded before float cells
# were formatted in numpy
PINNED_TABLES = {
    ("spectral", "--lazify", "0.5", "--x0", "2", "--n", "2000"): {
        "survival.csv": "f55fd8f4ca8e4e33a2522c155a8085654a9bbbb70fd64f9ff9d92edde46ae856"},
    ("invariant",): {
        "measures.csv": "c7b1e9b1960696ec9fa04f6e9ddba66d0b2984773557640759af7a7126446959",
        "family.csv": "930e3a6a94c875f289574cfc619c132ea198dab3fdfc15b9c1705d0f82916fb8"},
    ("simulate", "--mc-paths", "2000", "--n", "200"): {
        "zeta.csv": "a827a9316de86ce1d7e7652a6ac4b5f5e0dd6ac1d41f8c656d72dcf9f9f54f17"},
}


@pytest.mark.parametrize("args", list(PINNED_TABLES), ids=lambda args: args[0])
def test_tables_are_pinned(args, tmp_path):
    """survival.csv, measures.csv, family.csv and zeta.csv on two_sided."""
    assert run([*args, "--preset", "two_sided", "--out-dir", tmp_path]) == 0
    assert {name: _table_sha256(tmp_path / name) for name in PINNED_TABLES[args]} == PINNED_TABLES[args]


def _results_sha256(path):
    results = read_report(path)["results"]
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


# sha256 of conditions.json's results as sorted JSON, from ``conditions
# --n 2500`` with two_sided and symmetric lazified 0.5 (the benchmark's
# condition sweep); recorded before the band tables were filled in one
# pass, which must move none of them.  Re-recorded for two_sided,
# symmetric and kesten when the hhat evidence of [5] and [8] came to be
# read off a forward run by detailed balance: hhat moved by up to 4e-15
# and the spreads by up to 4e-12 relative, and no verdict changed
# (alpha_walk has no [5] run, so its pin did not move).  Re-recorded for
# two_sided and symmetric when the hhat table became the median of its
# Richardson extrapolants: the [5] ratios and [8] hhat values moved to
# the 1/n-extrapolated limit, and no verdict changed (kesten's extrapolants
# do not settle, so it keeps the last raw ratio and its pin did not move)
PINNED_CONDITIONS = {
    "two_sided": "4ee65b7fa8cfa3cb93f729a9e24cd292ef53d2455c85aba75bb9be7d79e82f94",
    "symmetric": "4122c1c4f8b74e41fbc6a4f79f72a7191bcac2cf17b45061726719556bea459b",
    "kesten": "33ea49a8486a9922e9984c22bb16d6ac16e3267a632af8c8f8870426771621ad",
    "alpha_walk": "9023b3e32431194d65edde104848345d2829c52a343dbf824ea756d1d6c06971",
}


@pytest.mark.parametrize("preset", list(PINNED_CONDITIONS))
def test_conditions_report_is_pinned(preset, tmp_path):
    args = ["conditions", "--preset", preset, "--n", "2500", "--out-dir", tmp_path]
    lazy = ["--lazify", "0.5"] if preset in ("two_sided", "symmetric") else []
    assert run(args + lazy) == 0
    assert _results_sha256(tmp_path / "conditions.json") == PINNED_CONDITIONS[preset]


def test_transform_report_and_hhat_table_are_pinned(tmp_path):
    """sha256 of transform_report.json's results and of hhat.csv after its
    config line, on lazified symmetric from x0 = 3 at n = 3000; recorded
    when hhat came to be read off a forward run by detailed balance, and
    again when the table became the median of its Richardson extrapolants."""
    assert run(["transform", "--preset", "symmetric", "--lazify", "0.5", "--x0", "3",
                "--n", "3000", "--out-dir", tmp_path]) == 0
    assert _results_sha256(tmp_path / "transform_report.json") == (
        "9e22a75af7e2b1f19493c1097670a82413d3742c86a49f92d867155bd956086c")
    assert _table_sha256(tmp_path / "hhat.csv") == (
        "13f3b8ad4055ec4ba6247f1be6a7faf3a4d48589409b6721800e21bcb9092dc1")


def test_clipped_kesten_probe_report_is_pinned(tmp_path):
    """The benchmark's clipped probe: kesten on a 12001-site window,
    clipped at 1e-20, read at three budgets."""
    cfg = {"chain": {"preset": "kesten"}, "x0": 0, "n": 24576, "n_grid": [512, 4096, 24576],
           "clip": 1e-20, "budgets": {"n_max": 24576}, "out_dir": str(tmp_path)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(["kesten", "--config", path]) == 0
    assert _results_sha256(tmp_path / "kesten_report.json") == (
        "313d0c1346c7fc2993cf9a2894abacf44c9533d05790f91ce954c7082462da57")


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
        # p/exit_prob overflows
        ("yaglom", {"chain": {"preset": "symmetric", "params": {"exit_prob": 5e-324}}}),
        # an empty list stands for no grid, not for the subcommand's default
        ("kesten", {"chain": {"preset": "kesten"}, "n_grid": []}),
        ("simulate", {"orey_m_grid": []}),
        ("transform", {"sites": []}),
        # a list that repeats an entry
        ("yaglom", {"tracked_sites": [1, 1]}),
        ("transform", {"sites": [0, 2, 0]}),
        ("simulate", {"orey_m_grid": [16, 16]}),
        ("kesten", {"chain": {"preset": "kesten"}, "n_grid": [32, 32]}),
    ],
)
def test_malformed_config_is_one_line_config_error(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 50, **cfg}))
    assert run([command, "--config", path, "--out-dir", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, flag, key",
    [("kesten", "--n-grid", "n_grid"), ("simulate", "--orey-m-grid", "orey_m_grid"),
     ("transform", "--sites", "sites")],
)
def test_empty_list_flag_is_config_error(tmp_path, capsys, command, flag, key):
    """A flag with no entries used to run the default grid while the config
    echo read ``[]``; it now names the key and writes nothing."""
    out = tmp_path / "o"
    assert run([command, "--preset", "kesten", flag, ",", "--n", "50", "--out-dir", out]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {key} must not be empty"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, key, value",
    [("yaglom", "--tracked-sites", "tracked_sites", "1,1"),
     ("transform", "--sites", "sites", "1,1"),
     ("simulate", "--orey-m-grid", "orey_m_grid", "64,64"),
     ("kesten", "--n-grid", "n_grid", "512,512")],
)
def test_repeated_list_entry_is_config_error(tmp_path, capsys, command, flag, key, value):
    """A repeated entry used to write a repeated ``ratio_1`` column, two
    equal ``hhat.csv`` rows, two ``orey.csv`` rows for one grid point, or
    an ``oscillation.csv`` without rows; it now names the key and writes
    nothing."""
    out = tmp_path / "o"
    args = [command, "--preset", "two_sided", flag, value, "--n", "512", "--mc-paths", "100"]
    assert run(args + ["--out-dir", out]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"config error: {key} must not repeat an entry, got [{value.replace(',', ', ')}]"
    assert not out.exists()


def test_empty_tracked_sites_tracks_nothing(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 50, "tracked_sites": []}))
    assert run(["yaglom", "--config", path, "--out-dir", tmp_path / "o"]) == 0
    report = read_report(tmp_path / "o" / "yaglom_report.json")
    assert report["config"]["tracked_sites"] == []


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    assert run(["simulate", "--seed", "-1", "--out-dir", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, flag, value, report",
    [("transform", "--sites", "-3,3", "transform_report.json"),
     ("yaglom", "--tracked-sites", "-2,3", "yaglom_report.json")],
)
def test_list_flag_may_start_with_a_negative_entry(tmp_path, command, flag, value, report):
    """argparse takes a separate ``-3,3`` for an option; the CLI joins it
    to its flag, as ``--sites=-3,3`` is read."""
    out = tmp_path / "o"
    assert run([command, flag, value, "--n", "200", "--out-dir", out]) == 0
    key = flag[2:].replace("-", "_")
    assert read_report(out / report)["config"][key] == [int(v) for v in value.split(",")]


@pytest.mark.parametrize(
    "command, flag, value, key, report",
    [("transform", "--site", "-3,3", "sites", "transform_report.json"),
     ("transform", "--si", "-3,3", "sites", "transform_report.json"),
     ("yaglom", "--tracked", "-2,3", "tracked_sites", "yaglom_report.json")],
)
def test_list_flag_prefix_may_start_with_a_negative_entry(tmp_path, command, flag, value, key, report):
    """argparse takes a prefix that names one option alone for that option;
    the join reads the prefix the same way."""
    out = tmp_path / "o"
    assert run([command, flag, value, "--n", "200", "--out-dir", out]) == 0
    assert read_report(out / report)["config"][key] == [int(v) for v in value.split(",")]


def test_ambiguous_list_flag_prefix_keeps_argparse_error(tmp_path, capsys):
    # --s names --seed, --sites and --square-even
    with pytest.raises(SystemExit) as exc:
        run(["transform", "--s", "-3,3", "--out-dir", tmp_path / "o"])
    assert exc.value.code == 2
    assert "ambiguous option: --s could match" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_step_cap_past_packed_rows_is_config_error(tmp_path, capsys):
    # a window grown for 2^30 steps would pass 2^32 rows; 2^30 - 1 steps fit
    out = tmp_path / "o"
    assert run(["simulate", "--n-max", 2**30, "--mc-paths", "2", "--out-dir", out]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: simulate: budgets.n_max=1073741824 too large")
    assert len(err.splitlines()) == 1
    assert run(["simulate", "--n-max", 2**30 - 1, "--mc-paths", "2", "--out-dir", out]) == 0


def test_negative_n_grid_entry_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["kesten", "--n-grid", "-5,3", "--out-dir", out]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: n_grid must be at least 1") and len(err.splitlines()) == 1
    assert not out.exists()


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
    # the Green value is exact, so a short period-2 survival run is no budget error
    assert run(["spectral", "--n", "222", "--out-dir", tmp_path / "g"]) == 0
    # probe grids past the step budget: kesten's n_grid, simulate's Orey grid
    assert run(["kesten", "--n", "500", "--n-max", "600", "--n-grid", "512,2000",
                "--out-dir", tmp_path / "k"]) == 4
    assert run(["simulate", "--n", "100", "--n-max", "200", "--mc-paths", "100",
                "--orey-m-grid", "64,3000", "--out-dir", tmp_path / "o"]) == 4
    assert not [*(tmp_path / "k").iterdir(), *(tmp_path / "o").iterdir()]  # checked before any work
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 5 and all(line.startswith("budget exhausted:") for line in err)


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


def test_kesten_report_carries_clip_lost(tmp_path):
    keys = {"n_grid", "max_pairwise_tv", "rho_by_budget", "rho_converged_everywhere", "clip_lost"}
    lost = {}
    for name, extra in (("plain", []), ("clipped", ["--clip", "1e-20"])):
        assert run(["kesten", "--preset", "kesten", "--n-grid", "512,2048", *extra,
                    "--out-dir", tmp_path / name]) == 0
        res = read_report(tmp_path / name / "kesten_report.json")["results"]
        assert set(res) == keys
        lost[name] = res["clip_lost"]
    assert lost["plain"] == 0.0 and lost["clipped"] > 0.0


def test_kesten_without_a_rho_budget_reports_no_convergence(tmp_path):
    # every n_grid entry is below the 200 survival factors rho needs, so no
    # series was measured and none may be reported converged
    assert run(["kesten", "--preset", "kesten", "--n-grid", "64,128", "--n", "128",
                "--out-dir", tmp_path / "k"]) == 0
    res = read_report(tmp_path / "k" / "kesten_report.json")["results"]
    assert res["rho_by_budget"] == {}
    assert res["rho_converged_everywhere"] is False


def test_conditions_on_a_far_breakpoint_is_evidence_only(tmp_path):
    # the exact Green solve would span 10**9 sites; [2] says so instead
    right = {"p": 0.125, "r": 0.5, "q": 0.375}
    chain = {**CUSTOM_CHAIN, "regions": [CUSTOM_CHAIN["regions"][0], {"from": 1, "to": MAX_SITE - 1, **right},
                                          {"from": MAX_SITE, **right}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chain": chain, "n": 300}))
    assert run(["conditions", "--config", cfg, "--out-dir", tmp_path / "c"]) == 0
    ev = read_report(tmp_path / "c" / "conditions.json")["results"]["2"]
    assert ev["status"] == "evidence-only"
    assert "spans more than" in ev["evidence"]["note"]


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
    assert res["E0_R_zeta_green"] == pytest.approx(res["E0_R_zeta_closed_form"], rel=1e-13)


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
    # the forward law's entry at site 1500 is 0.0 at every step (unreached,
    # then flushed as subnormal), so the ratio there is 0 whatever its
    # detailed-balance factor; the closed form there overflows a float
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
        "tracked_sites": st.lists(st.integers(-5, 5), max_size=3, unique=True),
        "seed": st.integers(0, 2**40),
        "n_grid": st.lists(st.integers(1, 600), min_size=1, max_size=3, unique=True),
        "orey_m_grid": st.lists(st.integers(1, 128), min_size=1, max_size=3, unique=True),
        "clip": st.none() | st.floats(0.0, 0.5),
        "sites": st.lists(st.integers(-5, 5), min_size=1, max_size=3, unique=True),
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
