import csv
import json
import math
import os

import numpy as np
import pytest

from macrobell import cli
from macrobell.basis import FourModeBasis
from macrobell.measures import fedorov_ratio, gain_scan
from macrobell.simulate import witness_under_loss
from macrobell.states import BellLabel, build_bell_state
from macrobell.truncation import dimension_scan
from macrobell.witnesses import WitnessKind, cross_witness_matrix, cutoff_for_edge_mass, evaluate_witness


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


# -- witness ---------------------------------------------------------------------


def test_witness_exact_matches_library():
    assert cli.main(["witness", "--state", "psi-plus", "--gamma", "0.4",
                     "--witness", "W_S", "--out", "w.csv"]) == 0
    rows = _read_csv("w.csv")
    assert len(rows) == 1
    row = rows[0]
    n_max = cutoff_for_edge_mass(0.4)
    rep = evaluate_witness(WitnessKind.W_S, build_bell_state(BellLabel.PSI_PLUS, 0.4, n_max),
                           basis=FourModeBasis(n_max))
    assert row["mode"] == "exact"
    assert row["witness"] == "W_S" and row["state"] == "psi-plus"
    assert int(row["cutoff"]) == n_max
    assert row["pulses"] == "" and row["value_error"] == ""
    # 17-significant-digit CSV floats round-trip doubles exactly
    assert float(row["value"]) == rep.value
    assert tuple(float(row[f"var_{i}"]) for i in (1, 2, 3)) == rep.variance_terms
    assert float(row["mean_s0"]) == rep.mean_s0
    manifest = json.load(open("w.csv.manifest.json"))
    assert manifest["command"] == "witness"
    assert manifest["outputs"] == ["w.csv"]
    assert manifest["config"]["state"] == "psi-plus"
    assert "package_version" in manifest


def test_witness_vacuum_row():
    assert cli.main(["witness", "--state", "vacuum", "--out", "v.csv"]) == 0
    row = _read_csv("v.csv")[0]
    assert row["state"] == "vacuum"
    assert float(row["gamma"]) == 0.0
    assert float(row["value"]) == 0.0


def test_witness_eta_needs_simulate():
    assert cli.main(["witness", "--gamma", "0.5", "--eta", "0.9",
                     "--out", "w.csv"]) == 2


def test_witness_simulated_tracks_loss_formula():
    assert cli.main(["witness", "--state", "psi-minus", "--gamma", "0.6",
                     "--simulate", "--eta", "0.8", "--pulses", "20000",
                     "--seed", "4", "--out", "s.csv"]) == 0
    row = _read_csv("s.csv")[0]
    assert row["mode"] == "simulated"
    assert row["cutoff"] == "" and row["pulses"] == "20000"
    value, err = float(row["value"]), float(row["value_error"])
    assert abs(value - witness_under_loss(0.6, 0.8)) <= 4.0 * err


def test_witness_pulses_flag_implies_simulation():
    assert cli.main(["witness", "--gamma", "0.3", "--pulses", "300",
                     "--pulse-log", "p.ndjson", "--out", "w.csv"]) == 0
    assert _read_csv("w.csv")[0]["mode"] == "simulated"
    lines = open("p.ndjson").read().splitlines()
    assert len(lines) == 3 * 300
    manifest = json.load(open("w.csv.manifest.json"))
    assert manifest["outputs"] == ["w.csv", "p.ndjson"]


# -- measures -------------------------------------------------------------------


def test_measures_outputs():
    assert cli.main(["measures", "--n0-grid", "1,2,5", "--out", "m.csv"]) == 0
    rows = _read_csv("m.csv")
    want = gain_scan([1.0, 2.0, 5.0])
    assert list(rows[0]) == ["N0", "negativity", "kbar", "fedorov"]
    assert len(rows) == 3
    for row, ref in zip(rows, want):
        assert float(row["N0"]) == ref["n0"]
        assert float(row["negativity"]) == ref["negativity"]
        assert float(row["kbar"]) == ref["kbar"]
        assert float(row["fedorov"]) == ref["fedorov"]
    plot = json.load(open("m.csv.plot.json"))
    assert plot["data"] == "m.csv"
    assert plot["columns"] == ["N0", "negativity", "kbar", "fedorov"]
    assert plot["width_convention"] == "sqrt2-stddev"
    assert set(plot["asymptotes"]) == {"negativity", "kbar", "fedorov"}
    assert len(plot["points"]) == 3
    assert {"n0", "gamma", "cutoff", "negativity_norm"} <= set(plot["points"][0])


# -- truncation -----------------------------------------------------------------


def test_truncation_outputs():
    assert cli.main(["truncation", "--n0-grid", "10,20", "--epsilon-grid",
                     "0.5,0.1", "--out", "t.csv"]) == 0
    rows = _read_csv("t.csv")
    assert list(rows[0]) == ["epsilon", "n0", "ratio"]
    assert [(float(r["epsilon"]), float(r["n0"])) for r in rows] == [
        (0.5, 10.0), (0.1, 10.0), (0.5, 20.0), (0.1, 20.0)]
    ref = dimension_scan([10.0, 20.0], [0.5, 0.1])
    for row, point in zip(rows, ref):
        assert float(row["ratio"]) == point.occupancy
    meta = json.load(open("t.csv.meta.json"))
    assert meta["columns"] == ["epsilon", "n0", "ratio"]
    assert len(meta["points"]) == 4
    assert {"alpha", "n_total", "dimension", "achieved_epsilon"} <= set(meta["points"][0])


def test_truncation_single_epsilon():
    assert cli.main(["truncation", "--epsilon", "0.05", "--out", "t1.csv"]) == 0
    rows = _read_csv("t1.csv")
    assert len(rows) == 1
    assert float(rows[0]["epsilon"]) == 0.05
    assert float(rows[0]["n0"]) == 10.0


def test_truncation_bad_epsilon_is_usage_error():
    assert cli.main(["truncation", "--epsilon", "1.5", "--out", "t.csv"]) == 2


def test_empty_grid_is_usage_error():
    assert cli.main(["measures", "--n0-grid", ",", "--out", "m.csv"]) == 2


@pytest.mark.parametrize("argv", [
    ["measures", "--n0-grid", "inf"],
    ["measures", "--n0-grid", "nan"],
    ["measures", "--n0-grid", "-1"],
    ["measures", "--n0-grid", "1,abc"],
    ["truncation", "--n0-grid", "inf"],
    ["truncation", "--n0-grid", "-1"],
    ["truncation", "--epsilon", "0"],
    ["truncation", "--epsilon", "nan"],
    ["truncation", "--epsilon-grid", "0.1,1"],
    ["witness", "--cutoff", "0"],
    ["witness", "--cutoff", "-3"],
    ["crosswitness", "--cutoff", "0"],
    ["witness", "--gamma", "nan"],
    ["witness", "--gamma", "-1"],
    ["crosswitness", "--gamma", "inf"],
    ["fedorov", "--gamma", "nan"],
    ["sweep-eta", "--gamma", "-1"],
    ["witness", "--simulate", "--pulses", "2"],
    ["sweep-eta", "--pulses", "2"],
    ["witness", "--simulate", "--pulses", "100", "--workers", "0"],
], ids=" ".join)
def test_malformed_input_is_one_line_usage_error(argv, capsys):
    assert cli.main(argv + ["--out", "bad.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1


def test_workers_beyond_cpu_count_is_usage_error(monkeypatch, capsys):
    # refused at the boundary: a thread pool started anyway would fail here
    from macrobell import simulate

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", None)
    workers = str((os.cpu_count() or 1) + 1)
    assert cli.main(["witness", "--simulate", "--pulses", "100", "--workers", workers,
                     "--out", "w.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["witness", "--gamma", "6"],
    ["witness", "--gamma", "0.5", "--cutoff", "1000000"],
    ["crosswitness", "--cutoff", "1000000"],
], ids=" ".join)
def test_memory_preflight_refuses(argv, capsys):
    # the estimates run to terabytes; the refusal comes before any allocation
    assert cli.main(argv + ["--out", "big.csv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GiB" in err
    assert err.count("\n") == 1


def test_witness_reaches_macroscopic_gain():
    # gamma = 3 (N0 = 100, cutoff 2396) runs on the (n, m) table alone
    assert cli.main(["witness", "--gamma", "3", "--out", "w.csv"]) == 0
    row = _read_csv("w.csv")[0]
    want = -8.0 * math.sinh(3.0) ** 2
    assert int(row["cutoff"]) == 2396
    assert abs(float(row["value"]) / want - 1.0) <= 1e-8


# -- crosswitness ----------------------------------------------------------------


def test_crosswitness_table():
    assert cli.main(["crosswitness", "--out", "x.csv"]) == 0
    mat, kinds, labels = cross_witness_matrix(0.5)
    rows = _read_csv("x.csv")
    assert list(rows[0]) == ["witness"] + [l.value for l in labels]
    assert [r["witness"] for r in rows] == [k.value for k in kinds]
    got = np.array([[float(r[l.value]) for l in labels] for r in rows])
    assert np.array_equal(got, mat)
    assert all(got[i, i] < 0 for i in range(4))
    assert all(got[i, j] > 0 for i in range(4) for j in range(4) if i != j)


# -- fedorov ----------------------------------------------------------------------


def test_fedorov_run():
    assert cli.main(["fedorov", "--gamma", "1.0", "--pulses", "20000",
                     "--bin-width", "1", "--seed", "3", "--out", "f.csv"]) == 0
    row = _read_csv("f.csv")[0]
    assert list(row) == ["state", "gamma", "eta", "pulses", "seed", "bin_width",
                         "convention", "ratio", "ratio_h", "ratio_v",
                         "marginal_width_h", "conditional_width_h",
                         "marginal_width_v", "conditional_width_v",
                         "exact_ratio", "rel_deviation"]
    assert float(row["exact_ratio"]) == fedorov_ratio(1.0)
    assert float(row["rel_deviation"]) < 0.10
    assert float(row["ratio"]) == pytest.approx(
        float(row["ratio_h"]) * float(row["ratio_v"]), rel=1e-12)


def test_fedorov_zero_gain_reports_undefined_deviation(capsys):
    assert cli.main(["fedorov", "--gamma", "0", "--pulses", "1000",
                     "--out", "f0.csv"]) == 0
    row = _read_csv("f0.csv")[0]
    assert float(row["exact_ratio"]) == 0.0
    assert row["rel_deviation"] == "nan"
    assert "deviation nan%" in capsys.readouterr().out


# -- sweep-eta --------------------------------------------------------------------


def test_sweep_eta_run():
    assert cli.main(["sweep-eta", "--eta-grid", "0.2,0.5,0.9", "--pulses", "5000",
                     "--seed", "8", "--out", "sw.csv"]) == 0
    rows = _read_csv("sw.csv")
    assert list(rows[0]) == ["eta", "value", "sigma", "certifies", "exact"]
    assert [float(r["eta"]) for r in rows] == [0.2, 0.5, 0.9]
    for r in rows:
        assert float(r["exact"]) == witness_under_loss(0.8, float(r["eta"]))
        assert r["certifies"] in ("0", "1")
    manifest = json.load(open("sw.csv.manifest.json"))
    assert "certification_threshold_eta" in manifest
    assert "zero_crossing_eta" in manifest


# -- config files ------------------------------------------------------------------


def test_config_file_defaults_and_flag_priority(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[measures]\nn0-grid = 1,2\nconvention = stddev\n")
    assert cli.main(["measures", "--config", str(ini),
                     "--convention", "sqrt2-stddev", "--out", "m.csv"]) == 0
    rows = _read_csv("m.csv")
    assert [float(r["N0"]) for r in rows] == [1.0, 2.0]  # grid from the file
    plot = json.load(open("m.csv.plot.json"))
    assert plot["width_convention"] == "sqrt2-stddev"  # flag beats the file
    manifest = json.load(open("m.csv.manifest.json"))
    assert manifest["config"]["n0_grid"] == "1,2"


def test_config_file_unknown_key(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[measures]\nbogus = 1\n")
    assert cli.main(["measures", "--config", str(ini), "--out", "m.csv"]) == 2


def test_config_file_bad_bool(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[witness]\nsimulate = maybe\n")
    assert cli.main(["witness", "--config", str(ini), "--out", "w.csv"]) == 2


# -- reproducibility ---------------------------------------------------------------


def test_manifest_round_trip_and_worker_invariance(monkeypatch):
    # --workers may not exceed the CPU count; report enough CPUs that the
    # 4-worker rerun below is accepted on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    argv = ["witness", "--state", "psi-minus", "--gamma", "0.8", "--simulate",
            "--eta", "0.85", "--pulses", "8193", "--seed", "9",
            "--pulse-log", "pl.ndjson", "--out", "c.csv"]
    assert cli.main(argv) == 0
    csv_bytes = open("c.csv", "rb").read()
    log_bytes = open("pl.ndjson", "rb").read()

    # the manifest reconstructs the run byte-for-byte
    assert cli.run_from_manifest("c.csv.manifest.json") == 0
    assert open("c.csv", "rb").read() == csv_bytes
    assert open("pl.ndjson", "rb").read() == log_bytes

    # 8193 pulses span three RNG blocks: the worker count must not matter
    assert cli.main(argv[:-4] + ["--pulse-log", "pl4.ndjson", "--out", "c4.csv",
                                 "--workers", "4"]) == 0
    assert open("c4.csv", "rb").read() == csv_bytes
    assert open("pl4.ndjson", "rb").read() == log_bytes
