import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as hs

from macrobell import cli
from macrobell.measures import fedorov_ratio, gain_scan
from macrobell.simulate import (
    BLOCK_BYTES_PER_PULSE,
    BLOCK_PULSES,
    PARTNER_BIN_BYTES,
    SWEEP_BYTES_PER_POINT,
    SimConfig,
    estimate_fedorov,
    witness_under_loss,
)
from macrobell.states import BellLabel, build_bell_state
from macrobell.truncation import dimension_scan
from macrobell.witnesses import WitnessKind, cross_witness_matrix, cutoff_for_edge_mass, evaluate_witness


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_manifest(path):
    """The run manifest at ``path``; every file it lists as an output exists."""
    with open(path) as fh:
        manifest = json.load(fh)
    missing = [out for out in manifest["outputs"] if not os.path.isfile(out)]
    assert not missing, f"{path} lists outputs that were not written: {missing}"
    return manifest


def _read_strict_json(path):
    """The document at ``path``, refusing the non-JSON NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


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
    rep = evaluate_witness(WitnessKind.W_S, build_bell_state(BellLabel.PSI_PLUS, 0.4, n_max))
    assert row["mode"] == "exact"
    assert row["witness"] == "W_S" and row["state"] == "psi-plus"
    assert int(row["cutoff"]) == n_max
    assert row["pulses"] == "" and row["value_error"] == ""
    # 17-significant-digit CSV floats round-trip doubles exactly
    assert float(row["value"]) == rep.value
    assert tuple(float(row[f"var_{i}"]) for i in (1, 2, 3)) == rep.variance_terms
    assert float(row["mean_s0"]) == rep.mean_s0
    manifest = _read_manifest("w.csv.manifest.json")
    assert manifest["command"] == "witness"
    assert manifest["outputs"] == ["w.csv"]
    assert manifest["config"]["state"] == "psi-plus"
    assert "package_version" in manifest


def test_witness_vacuum_row():
    # the default gain is accepted and not read; any other is a usage error
    assert cli.main(["witness", "--state", "vacuum", "--gamma", "0.5", "--out", "v.csv"]) == 0
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
    lines = Path("p.ndjson").read_text().splitlines()
    assert len(lines) == 3 * 300
    manifest = _read_manifest("w.csv.manifest.json")
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
    plot = json.loads(Path("m.csv.plot.json").read_text())
    assert plot["data"] == "m.csv"
    assert plot["columns"] == ["N0", "negativity", "kbar", "fedorov"]
    assert plot["width_convention"] == "sqrt2-stddev"
    assert set(plot["asymptotes"]) == {"negativity", "kbar", "fedorov"}
    assert len(plot["points"]) == 3
    assert {"n0", "gamma", "cutoff", "negativity_norm"} <= set(plot["points"][0])


def test_undefined_normalization_is_null():
    # at N0 = 0 the large-gain normalizations divide by zero: the descriptor
    # writes null there, and every sidecar is strict JSON
    assert cli.main(["measures", "--n0-grid", "0,1", "--out", "m.csv"]) == 0
    zero, one = _read_strict_json("m.csv.plot.json")["points"]
    for key in ("negativity_norm", "kbar_norm", "fedorov_norm"):
        assert zero[key] is None and math.isfinite(one[key])
    _read_strict_json("m.csv.manifest.json")


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
    meta = json.loads(Path("t.csv.meta.json").read_text())
    assert meta["columns"] == ["epsilon", "n0", "ratio"]
    assert len(meta["points"]) == 4
    assert {"alpha", "n_total", "dimension", "achieved_epsilon"} <= set(meta["points"][0])


def test_truncation_single_epsilon():
    assert cli.main(["truncation", "--epsilon-grid", "0.05", "--out", "t1.csv"]) == 0
    rows = _read_csv("t1.csv")
    assert len(rows) == 1
    assert float(rows[0]["epsilon"]) == 0.05
    assert float(rows[0]["n0"]) == 10.0


@pytest.mark.parametrize("n0, n_total", [("4e5", 671_339), ("6e5", None), ("1e300", None)])
def test_truncation_cutoff_near_the_bound(n0, n_total, capsys):
    code = cli.main(["truncation", "--n0-grid", n0, "--epsilon-grid", "0.5", "--out", "t.csv"])
    if n_total is None:
        assert code == 3
        err = capsys.readouterr().err
        assert err == (f"error: epsilon=0.5 at N0={float(n0):g}: "
                       "required cutoff exceeds 1000000\n")
        return
    assert code == 0
    with open("t.csv.meta.json") as fh:
        assert json.load(fh)["points"][0]["n_total"] == n_total


def test_truncation_bad_epsilon_is_usage_error():
    assert cli.main(["truncation", "--epsilon-grid", "1.5", "--out", "t.csv"]) == 2


def test_empty_grid_is_usage_error():
    assert cli.main(["measures", "--n0-grid", ",", "--out", "m.csv"]) == 2


@pytest.mark.parametrize("argv", [
    ["measures", "--n0-grid", "inf"],
    ["measures", "--n0-grid", "nan"],
    ["measures", "--n0-grid", "-1"],
    ["measures", "--n0-grid", "1,abc"],
    ["truncation", "--n0-grid", "inf"],
    ["truncation", "--n0-grid", "-1"],
    ["truncation", "--epsilon-grid", "0"],
    ["truncation", "--epsilon-grid", "nan"],
    ["truncation", "--epsilon-grid", "0.1,1"],
    ["witness", "--cutoff", "0"],
    ["witness", "--cutoff", "-3"],
    ["crosswitness", "--cutoff", "0"],
    ["witness", "--cutoff", "1" + "0" * 400],
    ["crosswitness", "--cutoff", "1" + "0" * 400],
    ["witness", "--gamma", "nan"],
    ["witness", "--gamma", "-1"],
    ["crosswitness", "--gamma", "inf"],
    ["fedorov", "--gamma", "nan"],
    ["sweep-eta", "--gamma", "-1"],
    ["witness", "--simulate", "--pulses", "2"],
    ["sweep-eta", "--pulses", "2"],
    ["witness", "--simulate", "--pulses", "100", "--workers", "0"],
    ["witness", "--simulate", "--pulses", "100", "--eta", "0"],
    ["fedorov", "--eta", "0"],
    ["fedorov", "--bin-width", "0"],
    ["sweep-eta", "--eta-grid", "2"],
    ["sweep-eta", "--eta-grid", "0,0.5"],
    ["witness", "--simulate", "--pulses", "100", "--seed", "-1"],
    # an option that only the idle route of its command reads
    ["witness", "--seed", "7"],
    ["witness", "--eta", "0.5"],
    # a gain the vacuum does not read
    ["witness", "--state", "vacuum", "--gamma", "3"],
], ids=" ".join)
def test_malformed_input_is_one_line_usage_error(argv, capsys):
    # refused alike as flags and as the INI section of the command
    with open("bad.ini", "w") as fh:
        fh.write(_as_ini(argv))
    for run in (argv, [argv[0], "--config", "bad.ini"]):
        assert cli.main(run + ["--out", "bad.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1
        assert not os.path.exists("bad.csv") and not os.path.exists("p.ndjson")


def _as_ini(argv):
    """The options of the command line ``argv`` as an INI section of its command."""
    lines, rest = [f"[{argv[0]}]"], argv[1:]
    while rest:
        key, rest = rest[0][2:], rest[1:]
        value = "yes" if not rest or rest[0].startswith("--") else rest.pop(0)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [
    ["witness", "--simulate", "--bin-width", "5"],
    ["sweep-eta", "--workers", "1"],
    ["fedorov", "--workers", "1"],
    ["truncation", "--epsilon", "0.05"],
    ["sweep-eta", "--eta-points", "3"],
    ["sweep-eta", "--eta-min", "0.2"],
    ["sweep-eta", "--eta-max", "0.9"],
], ids=" ".join)
def test_retired_flags_are_refused(argv, capsys):
    # no route reads them: argparse refuses the flag (and takes no abbreviation,
    # so --epsilon is not read as --epsilon-grid), and the INI key is unknown
    assert _exit_code(argv + ["--out", "r.csv"]) == 2
    with open("r.ini", "w") as fh:
        fh.write(_as_ini(argv))
    assert cli.main([argv[0], "--config", "r.ini", "--out", "r.csv"]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not os.path.exists("r.csv")


@pytest.mark.parametrize("command, ini, argv", [
    ("witness", "gamma = 0.5\n", []),
    ("witness", "[witness]\ngamma = 0.5\ngamma = 0.6\n", []),
    ("witness", "[witness]\ngamma = abc\n", []),
    ("witness", "[witness]\nseed = none\n", []),
    ("witness", "[witness]\ngamma = 100%\n", []),
    ("witness", None, ["--config", "missing.ini"]),
    ("witness", None, ["--out", "nowhere/w.csv"]),
    ("witness", None, ["--out", "."]),
    ("witness", None, ["--pulses", "100", "--pulse-log", "nowhere/p.ndjson"]),
    ("witness", None, ["--pulse-log", "p.ndjson"]),
    ("witness", "[witness]\npulse_log = p.ndjson\n", []),
    ("witness", None, ["--simulate", "--pulses", "100", "--cutoff", "5"]),
    ("fedorov", "[fedorov]\nstate = foo\n", []),
    ("measures", "[measures]\nconvention = foo\n", []),
    ("witness", "[witness]\nwitness = foo\n", []),
], ids=["no-section", "duplicate-key", "gamma-abc", "seed-none", "bad-interpolation",
        "missing-config", "out-dir-missing", "out-is-dir", "pulse-log-dir-missing",
        "exact-pulse-log", "exact-pulse-log-ini", "simulated-cutoff",
        "state-foo", "convention-foo", "witness-foo"])
def test_config_and_path_errors_are_one_line_usage_errors(command, ini, argv, capsys):
    if ini is not None:
        with open("run.ini", "w") as fh:
            fh.write(ini)
        argv = ["--config", "run.ini"] + argv
    if "--out" not in argv:
        argv = argv + ["--out", "w.csv"]
    assert cli.main([command] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1
    assert not os.path.exists("w.csv") and not os.path.exists("p.ndjson")


#: a few dozen examples each; every example runs in the same temporary directory
_FUZZ = settings(max_examples=40, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
#: what number grids are made of, plus a few characters that do not belong
_GRID_TEXT = hs.text(alphabet="0123456789.,eE+-naif x", max_size=16)
_ANY_TEXT = hs.text(hs.characters(exclude_categories=("Cs",)), max_size=12)
_INI_KEYS = sorted({key for keys in cli._DEFAULTS.values() for key in keys}) + ["bogus"]
_INI_TEXT = hs.lists(hs.one_of(
    hs.sampled_from(["[measures]", "[truncation]", "[witness]", "[DEFAULT]"]),
    hs.builds("{} = {}".format, hs.sampled_from(_INI_KEYS), hs.one_of(_GRID_TEXT, _ANY_TEXT)),
    _ANY_TEXT,
), max_size=6).map("\n".join)


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse refuses a malformed command line itself
        return exc.code


@_FUZZ
@given(text=_GRID_TEXT, option=hs.sampled_from(
    ["measures --n0-grid", "truncation --n0-grid", "truncation --epsilon-grid"]))
def test_grid_text_never_escapes_main(text, option):
    command, flag = option.split()
    assert _exit_code([command, f"{flag}={text}", "--out", "g.csv"]) in (0, 2, 3)


def test_double_dash_option_value_is_usage_error():
    # argparse hands "--opt=--" over as an empty list instead of a string
    assert _exit_code(["measures", "--n0-grid=--", "--out", "g.csv"]) == 2
    assert _exit_code(["witness", "--gamma=--", "--out", "w.csv"]) == 2


@_FUZZ
@given(ini=_INI_TEXT, command=hs.sampled_from(["measures", "truncation"]))
def test_config_text_never_escapes_main(ini, command):
    with open("fuzz.ini", "w", encoding="utf-8") as fh:
        fh.write(ini)
    assert _exit_code([command, "--config", "fuzz.ini", "--out", "g.csv"]) in (0, 2, 3)


@_FUZZ
@given(ini=_INI_TEXT, command=hs.sampled_from(sorted(cli._DEFAULTS)))
def test_config_text_resolves_or_is_usage_error(ini, command):
    # every command's configuration, resolved without running the command
    with open("fuzz.ini", "w", encoding="utf-8") as fh:
        fh.write(ini)
    args = cli._build_parser().parse_args([command, "--config", "fuzz.ini"])
    try:
        cfg = cli._resolve_config(args)
    except cli.UsageError:
        return
    assert set(cfg) == set(cli._DEFAULTS[command])


#: the nine efficiencies numpy.linspace(0.15, 0.95, 9) gives, each parsing back exactly
_DEFAULT_ETA_GRID = ",".join(map(repr, np.linspace(0.15, 0.95, 9).tolist()))
#: every subcommand's flags and builtin defaults, as released before the option
#: table; a flag, INI key or default the table drops or renames fails below
_PINNED_DEFAULTS = {
    "witness": {
        "state": "psi-minus", "gamma": 0.5, "cutoff": None, "witness": None,
        "simulate": False, "eta": 1.0, "pulses": None, "seed": 0,
        "workers": 1, "pulse_log": None, "out": "witness.csv",
    },
    "measures": {
        "n0_grid": "1,2,5,10,20,50,100", "convention": "sqrt2-stddev",
        "out": "measures.csv",
    },
    "truncation": {
        "n0_grid": "10", "epsilon_grid": "0.9,0.5,0.2,0.1,0.05,0.02,0.01",
        "out": "truncation.csv",
    },
    "crosswitness": {"gamma": 0.5, "cutoff": None, "out": "crosswitness.csv"},
    "fedorov": {
        "state": "psi-minus", "gamma": 1.5, "eta": 1.0, "pulses": 1_000_000,
        "seed": 0, "bin_width": 1, "convention": "sqrt2-stddev",
        "out": "fedorov.csv",
    },
    "sweep-eta": {
        "state": "psi-minus", "gamma": 0.8, "eta_grid": _DEFAULT_ETA_GRID,
        "pulses": 100_000, "seed": 0, "witness": None, "out": "sweep_eta.csv",
    },
}
#: per key, a raw value and what both its flag and its INI key must make of it
_PINNED_VALUES = {
    "state": ("phi-plus", "phi-plus"), "gamma": ("0.25", 0.25), "cutoff": ("7", 7),
    "witness": ("W_T2", "W_T2"), "simulate": ("yes", True), "eta": ("0.5", 0.5),
    "pulses": ("7", 7), "seed": ("7", 7), "bin_width": ("7", 7), "workers": ("1", 1),
    "pulse_log": ("p.ndjson", "p.ndjson"), "out": ("o.csv", "o.csv"),
    "n0_grid": ("3", "3"), "convention": ("stddev", "stddev"),
    "epsilon_grid": ("0.5", "0.5"), "eta_grid": ("0.5", "0.5"),
}


#: options of the sampled witness alone, pinned together with --simulate
_SAMPLED_ONLY = {("witness", "pulse_log"), ("witness", "seed"), ("witness", "eta"),
                 ("witness", "workers")}


def _typed(cfg):
    return {key: (value, type(value)) for key, value in cfg.items()}


@pytest.mark.parametrize("command", sorted(_PINNED_DEFAULTS))
def test_flag_inventory_is_pinned(command):
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    flags = {flag for flag in subparsers.choices[command]._option_string_actions
             if flag.startswith("--") and flag != "--help"}
    pinned = _PINNED_DEFAULTS[command]
    assert flags == {"--config"} | {"--" + key.replace("_", "-") for key in pinned}
    assert _typed(cli._resolve_config(parser.parse_args([command]))) == _typed(pinned)
    for key in pinned:
        raw, want = _PINNED_VALUES[key]
        flag = "--" + key.replace("_", "-")
        sampled = (command, key) in _SAMPLED_ONLY
        argv = [command, flag] if key == "simulate" else [command, flag, raw]
        argv += ["--simulate"] if sampled else []
        assert _typed(cli._resolve_config(parser.parse_args(argv)))[key] == _typed({key: want})[key]
        with open("pin.ini", "w") as fh:
            fh.write(f"[{command}]\n{key.replace('_', '-')} = {raw}\n"
                     + ("simulate = yes\n" if sampled else ""))
        cfg = cli._resolve_config(parser.parse_args([command, "--config", "pin.ini"]))
        assert _typed(cfg)[key] == _typed({key: want})[key]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full-disk device")
@pytest.mark.parametrize("argv", [
    ["witness", "--simulate", "--pulses", "100", "--pulse-log", "/dev/full", "--out", "w.csv"],
    ["witness", "--out", "/dev/full"],
], ids=" ".join)
def test_unwritable_output_is_one_line_exit_4(argv, capsys):
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def test_workers_beyond_cpu_count_is_usage_error(capsys):
    workers = str((os.cpu_count() or 1) + 1)
    assert cli.main(["witness", "--simulate", "--pulses", "100", "--workers", workers,
                     "--out", "w.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


_HUGE_CUTOFF = [
    ["witness", "--gamma", "0.5", "--cutoff", "1000000000000"],
    ["crosswitness", "--cutoff", "1000000000000"],
]


@pytest.mark.parametrize("argv", _HUGE_CUTOFF, ids=" ".join)
def test_huge_cutoff_is_answered(argv):
    # at cutoff 10^12 nothing is left to truncate: the table is the paper's
    # -8 N0 on the diagonal and 16 N0^2 + 8 N0 off it to rounding, and the
    # gated default run is within the edge-mass tolerance of it
    assert cli.main(argv + ["--out", "big.csv"]) == 0
    assert cli.main(argv[:-2] + ["--out", "gated.csv"]) == 0
    n0 = math.sinh(0.5) ** 2
    table = lambda path: np.array([[float(r["value"])] if argv[0] == "witness" else
                                   [float(v) for k, v in r.items() if k != "witness"]
                                   for r in _read_csv(path)])
    big, gated = table("big.csv"), table("gated.csv")
    want = np.where(np.eye(*big.shape, dtype=bool), -8.0 * n0, 16.0 * n0 * n0 + 8.0 * n0)
    assert np.all(np.abs(big / want - 1.0) <= 1e-13)
    assert np.all(np.abs(gated / big - 1.0) <= 1e-10)
    manifest = _read_manifest("big.csv.manifest.json")
    assert manifest["cutoff"] == 1_000_000_000_000 and manifest["edge_mass"] == 0.0


@pytest.mark.parametrize("command", ["witness", "crosswitness"])
def test_largest_cutoff_is_answered(command, capsys):
    # the closed-form moments square the level count as a float: the largest
    # cutoff whose square fits is answered, the next one is a usage error
    largest = math.isqrt(int(sys.float_info.max)) - 1
    assert cli.main([command, "--cutoff", str(largest), "--out", "big.csv"]) == 0
    capsys.readouterr()
    assert cli.main([command, "--cutoff", str(largest + 1), "--out", "big.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: cutoff must be below 1.341e+154")
    assert err.count("\n") == 1


def test_memory_preflight_reads_available_memory(monkeypatch, capsys):
    # with 1 kB reported free the default psi-minus witness still runs, as
    # its closed form allocates nothing; a 100-pulse sampled witness (a
    # 12.8 kB block) is refused before anything runs
    from macrobell import states

    monkeypatch.setattr(states, "available_memory", lambda: 1_000)
    assert cli.main(["witness", "--out", "w.csv"]) == 0
    capsys.readouterr()
    assert cli.main(["witness", "--pulses", "100", "--out", "s.csv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "available memory" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["witness", "--simulate", "--pulse-log", "p.ndjson"],
    ["sweep-eta", "--eta-grid", "0.5,0.9"],
], ids=" ".join)
def test_sampled_witness_memory_is_one_block(monkeypatch, capsys, argv):
    # a sampled witness holds one block of pulses at a time: free memory for
    # exactly one block runs two blocks and a pulse, a byte less is refused
    # before any file is opened
    from macrobell import states

    need, pulses = BLOCK_PULSES * BLOCK_BYTES_PER_PULSE, str(2 * BLOCK_PULSES + 1)
    monkeypatch.setattr(states, "available_memory", lambda: need - 1)
    assert cli.main([*argv, "--pulses", pulses, "--out", "big.csv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4.1e+03 pulses per block" in err
    assert "available memory" in err and err.count("\n") == 1
    assert not os.path.exists("big.csv") and not os.path.exists("p.ndjson")
    monkeypatch.setattr(states, "available_memory", lambda: need)
    assert cli.main([*argv, "--pulses", pulses, "--out", "ok.csv"]) == 0


def test_sampled_run_memory_preflight(monkeypatch, capsys):
    # a width-ratio run grows only its partner-bin sums, up to its largest
    # partner count: about 3e5 bins at gain 6 and bin width 1.  Free memory
    # for exactly the bins it reaches runs it; a byte less is refused before
    # the sums grow past it, with no output
    from macrobell import states

    argv = ["fedorov", "--gamma", "6", "--pulses", "1000", "--seed", "3", "--bin-width", "1"]
    cfg = SimConfig(label="psi-minus", gamma=6.0, pulses=1000, seed=3)
    need = estimate_fedorov(cfg, bin_width=1).meta["partner_bins"] * PARTNER_BIN_BYTES
    monkeypatch.setattr(states, "available_memory", lambda: need - 1)
    assert cli.main([*argv, "--out", "big.csv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: width-ratio estimate: ") and "partner bins" in err
    assert "available memory" in err and err.count("\n") == 1
    assert not os.path.exists("big.csv")
    monkeypatch.setattr(states, "available_memory", lambda: need)
    assert cli.main([*argv, "--out", "ok.csv"]) == 0


def test_arithmetic_overflow_is_numeric_refusal(capsys):
    # e^{4 gamma} ~ 16 N0^2 overflows a double just past N0 = 3.35e153: the
    # run is refused in one line that names N0, before any output is written
    assert cli.main(["measures", "--n0-grid", "3.3e153", "--out", "m.csv"]) == 0
    row = _read_csv("m.csv")[0]
    assert float(row["negativity"]) == pytest.approx(16.0 * 3.3e153**2, rel=1e-12)
    for n0 in ("3.4e153", "1e200", "1e300"):
        capsys.readouterr()
        assert cli.main(["measures", "--n0-grid", n0, "--out", "r.csv"]) == 3
        err = capsys.readouterr().err
        assert err == (f"error: N0={float(n0)!r} is above 3.35e153, where e^(4 gamma) ~ "
                       "16 N0^2 (the scale of the negativity) overflows a double\n")
        assert not os.path.exists("r.csv")


@pytest.mark.parametrize("argv", [
    ["witness", "--simulate", "--pulse-log", "p.ndjson"],
    ["witness", "--pulses", "1000", "--pulse-log", "p.ndjson"],
    ["fedorov"],
    ["sweep-eta", "--eta-grid", "0.5"],
], ids=" ".join)
def test_sampled_runs_past_the_tanh_limit_are_refused_by_name(argv, capsys):
    # tanh(19.1)^2 rounds to 1: the sampled runs are refused, as the exact
    # ones are, in one line naming the gain and before any file is opened
    assert cli.main([*argv, "--gamma", "19.1", "--out", "s.csv"]) == 3
    err = capsys.readouterr().err
    assert err == ("error: tanh(gamma)^2 rounds to 1 at gamma=19.1: "
                   "no photon-number law to sample\n")
    assert not os.path.exists("s.csv") and not os.path.exists("p.ndjson")


@pytest.mark.parametrize("n0, measures_code", [("1e-300", 3), ("1e-40", 0)])
def test_tiny_gain_is_closed_form_or_named_refusal(n0, measures_code, capsys):
    # below N0 ~ 3e-33, exp(-2 gamma) rounds to 1 and tanh(gamma)^4 underflows
    value = float(n0)
    assert cli.main(["truncation", "--n0-grid", n0, "--out", "t.csv"]) == 0
    with open("t.csv.meta.json") as fh:
        point = json.load(fh)["points"][0]
    assert point["n_total"] == 0 and point["kbar_truncated"] == 1.0
    assert point["achieved_epsilon"] == pytest.approx(2.0 * value, rel=1e-12)
    capsys.readouterr()
    assert cli.main(["measures", "--n0-grid", n0, "--out", "m.csv"]) == measures_code
    if measures_code == 3:
        err = capsys.readouterr().err
        assert err.startswith(f"error: N0={value!r} is below") and err.count("\n") == 1
        assert not os.path.exists("m.csv")
        return
    row = _read_csv("m.csv")[0]
    assert float(row["negativity"]) == pytest.approx(4.0 * math.sqrt(value), rel=1e-12)
    assert float(row["kbar"]) == pytest.approx(1.0, rel=1e-15)
    assert float(row["fedorov"]) == pytest.approx(2.0 * value * value, rel=1e-12)
    with open("m.csv.plot.json") as fh:
        point = json.load(fh)["points"][0]
    assert all(math.isfinite(point[k]) for k in ("negativity_norm", "kbar_norm",
                                                 "fedorov_norm"))


def test_witness_reaches_macroscopic_gain():
    # gamma = 3 (N0 = 100) and gamma = 6 (N0 = 4.1e4) run in closed form
    for gamma, cutoff in (("3", 2396), ("6", 965_099)):
        assert cli.main(["witness", "--gamma", gamma, "--out", "w.csv"]) == 0
        row = _read_csv("w.csv")[0]
        n0 = math.sinh(float(gamma)) ** 2
        assert int(row["cutoff"]) == cutoff
        assert abs(float(row["value"]) / (-8.0 * n0) - 1.0) <= 1e-8
    # the full 4x4 table at gamma = 6: -8 N0 on the diagonal, 16 N0^2 + 8 N0 off it
    assert cli.main(["crosswitness", "--gamma", "6", "--out", "x.csv"]) == 0
    n0 = math.sinh(6.0) ** 2
    rows = _read_csv("x.csv")
    got = np.array([[float(v) for k, v in r.items() if k != "witness"] for r in rows])
    diag = np.diag(got)
    off = got[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(diag / (-8.0 * n0) - 1.0) <= 1e-8)
    assert np.all(np.abs(off / (16.0 * n0 * n0 + 8.0 * n0) - 1.0) <= 1e-7)


@pytest.mark.parametrize("gamma", [6.0, 10.0, 15.0, 17.0, 17.5, 18.5, 19.0, 19.05, 19.1, 25.0])
def test_witnesses_in_closed_form_up_to_the_tanh_limit(gamma, capsys):
    # cutoffs 9.7e5 to 2.1e17 (exact ints past 2^53), N0 up to 8.8e15: -8 N0
    # on the diagonal and 16 N0^2 + 8 N0 off it.  The gated truncation
    # itself moves the values by 1.19e-9 (diagonal) and 1.53e-8 (the psi/phi
    # cross pairs), as it does at gamma = 3, where the factor-array route
    # gives the same gaps.  Past the gain where tanh(gamma)^2 rounds to 1
    # (about 19.06) the run is refused in one line that says why.
    n0 = math.sinh(gamma) ** 2
    code = cli.main(["crosswitness", "--gamma", str(gamma), "--out", "x.csv"])
    err = capsys.readouterr().err
    if gamma > 19.06:
        assert code == 3
        assert err == f"error: tanh(gamma)^2 rounds to 1 at gamma={gamma}: no finite cutoff\n"
        return
    assert code == 0
    got = np.array([[float(v) for k, v in r.items() if k != "witness"]
                    for r in _read_csv("x.csv")])
    assert np.all(np.abs(np.diag(got) / (-8.0 * n0) - 1.0) <= 1e-8)
    assert np.all(np.abs(got[~np.eye(4, dtype=bool)] / (16.0 * n0 * n0 + 8.0 * n0) - 1.0) <= 2e-8)
    assert json.loads(Path("x.csv.manifest.json").read_text())["cutoff"] == cutoff_for_edge_mass(gamma)
    for label in BellLabel:
        assert cli.main(["witness", "--gamma", str(gamma), "--state", label.value,
                         "--out", "w.csv"]) == 0
        row = _read_csv("w.csv")[0]
        assert int(row["cutoff"]) == cutoff_for_edge_mass(gamma)
        assert abs(float(row["value"]) / (-8.0 * n0) - 1.0) <= 1e-8


@pytest.mark.parametrize("argv", [
    ["witness", "--state", "phi-plus", "--gamma", "1.2"],
    ["witness", "--state", "vacuum"],
    ["crosswitness", "--gamma", "0.7"],
    ["crosswitness", "--gamma", "0.7", "--cutoff", "60"],
], ids=" ".join)
def test_exact_manifest_records_cutoff_and_edge_mass(argv):
    assert cli.main(argv + ["--out", "e.csv"]) == 0
    csv_bytes = Path("e.csv").read_bytes()
    manifest = _read_manifest("e.csv.manifest.json")
    gamma = manifest["config"]["gamma"] if argv[1:3] != ["--state", "vacuum"] else 0.0
    cutoff = manifest["config"]["cutoff"] or cutoff_for_edge_mass(gamma)
    assert manifest["cutoff"] == cutoff
    assert manifest["edge_mass"] == build_bell_state(BellLabel.PSI_MINUS, gamma, cutoff).edge_mass()
    assert 0.0 <= manifest["edge_mass"] <= 1e-10
    if argv[0] == "witness":
        assert int(_read_csv("e.csv")[0]["cutoff"]) == cutoff
    # the manifest still reproduces the run byte for byte
    assert cli.run_from_manifest("e.csv.manifest.json") == 0
    assert Path("e.csv").read_bytes() == csv_bytes


@pytest.mark.parametrize("argv", [
    ["witness", "--state", "vacuum"],
    ["witness", "--gamma", "0"],
    ["witness", "--gamma", "1e-300"],
    ["crosswitness", "--gamma", "0"],
], ids=" ".join)
def test_zero_gain_cutoff_is_the_same_for_every_command(argv):
    # cutoff_for_edge_mass decides the zero-gain cutoff (2 + margin) for all;
    # every value stays 0
    assert cli.main(argv + ["--out", "z.csv"]) == 0
    assert json.loads(Path("z.csv.manifest.json").read_text())["cutoff"] == 4
    rows = _read_csv("z.csv")
    if argv[0] == "witness":
        assert int(rows[0]["cutoff"]) == 4
        assert float(rows[0]["value"]) == 0.0
    else:
        assert all(float(v) == 0.0 for r in rows for k, v in r.items() if k != "witness")


def test_sampled_manifest_has_no_cutoff():
    assert cli.main(["witness", "--pulses", "1000", "--out", "s.csv"]) == 0
    manifest = _read_manifest("s.csv.manifest.json")
    assert "cutoff" not in manifest and "edge_mass" not in manifest


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
    manifest = _read_strict_json("f0.csv.manifest.json")
    assert manifest["rel_deviation_note"] == "undefined (nan): the exact width ratio is 0"
    # a nonzero exact ratio leaves the manifest without the note
    assert cli.main(["fedorov", "--gamma", "0.5", "--pulses", "1000", "--out", "f.csv"]) == 0
    assert "rel_deviation_note" not in _read_strict_json("f.csv.manifest.json")


def test_fedorov_bin_width_past_int64():
    # partner counts stay below 2^63, so any wider bin holds every pulse,
    # as a bin of width 2^62 does
    argv = ["fedorov", "--pulses", "1000", "--seed", "3", "--bin-width"]
    assert cli.main([*argv, "100000000000000000000000", "--out", "wide.csv"]) == 0
    assert cli.main([*argv, "4611686018427387904", "--out", "ref.csv"]) == 0
    assert _read_csv("wide.csv")[0]["ratio"] == _read_csv("ref.csv")[0]["ratio"]


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
    manifest = _read_manifest("sw.csv.manifest.json")
    assert "certification_threshold_eta" in manifest
    assert "zero_crossing_eta" in manifest


def test_sweep_eta_grid_memory_preflight(monkeypatch, capsys):
    # the grid is priced before any point runs: 3 points are refused in one
    # line when free memory is a byte short of them
    from macrobell import states

    monkeypatch.setattr(states, "available_memory", lambda: 3 * SWEEP_BYTES_PER_POINT - 1)
    assert cli.main(["sweep-eta", "--pulses", "10", "--out", "sw.csv",
                     "--eta-grid", "0.2,0.5,0.9"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: efficiency sweep: 3 grid points")
    assert "available memory" in err and err.count("\n") == 1
    assert not os.path.exists("sw.csv")


def test_sweep_eta_mismatched_witness_exact_column():
    # a mismatched witness adds 16 eta^2 N0 (N0 + 1) to the matched loss law;
    # at eta = 1 that is the exact cross-witness value on the state
    assert cli.main(["sweep-eta", "--state", "psi-minus", "--witness", "W_T1",
                     "--eta-grid", "0.2,0.5,1", "--pulses", "2000", "--out", "sw.csv"]) == 0
    rows = _read_csv("sw.csv")
    n0 = math.sinh(0.8) ** 2
    for r in rows:
        eta = float(r["eta"])
        want = 4.0 * eta * n0 * (1.0 - 3.0 * eta) + 16.0 * eta * eta * n0 * (n0 + 1.0)
        assert float(r["exact"]) == pytest.approx(want, rel=1e-12)
        assert abs(float(r["value"]) - want) <= 5.0 * float(r["sigma"])
    mat, kinds, labels = cross_witness_matrix(0.8)
    cross = mat[kinds.index(WitnessKind.W_T1), labels.index(BellLabel.PSI_MINUS)]
    assert float(rows[-1]["exact"]) == pytest.approx(cross, rel=1e-8)


# -- config files ------------------------------------------------------------------


def test_config_file_defaults_and_flag_priority(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[measures]\nn0-grid = 1,2\nconvention = stddev\n")
    assert cli.main(["measures", "--config", str(ini),
                     "--convention", "sqrt2-stddev", "--out", "m.csv"]) == 0
    rows = _read_csv("m.csv")
    assert [float(r["N0"]) for r in rows] == [1.0, 2.0]  # grid from the file
    plot = json.loads(Path("m.csv.plot.json").read_text())
    assert plot["width_convention"] == "sqrt2-stddev"  # flag beats the file
    manifest = _read_manifest("m.csv.manifest.json")
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
    csv_bytes = Path("c.csv").read_bytes()
    log_bytes = Path("pl.ndjson").read_bytes()

    # the manifest reconstructs the run byte-for-byte
    assert cli.run_from_manifest("c.csv.manifest.json") == 0
    assert Path("c.csv").read_bytes() == csv_bytes
    assert Path("pl.ndjson").read_bytes() == log_bytes

    # 8193 pulses span three RNG blocks: the worker count must not matter
    assert cli.main(argv[:-4] + ["--pulse-log", "pl4.ndjson", "--out", "c4.csv",
                                 "--workers", "4"]) == 0
    assert Path("c4.csv").read_bytes() == csv_bytes
    assert Path("pl4.ndjson").read_bytes() == log_bytes


#: manifests in the format written before --bin-width left witness and sweep-eta
#: and --workers left fedorov and sweep-eta, with the CSV each run wrote and
#: what the re-run records in place of a retired spelling
_OLDER_MANIFESTS = [
    ("witness", {"bin_width": 200, "cutoff": None, "eta": 1.0, "gamma": 0.5, "out": "w.csv",
                 "pulse_log": None, "pulses": None, "seed": 0, "simulate": False,
                 "state": "psi-minus", "witness": None, "workers": 1},
     "mode,witness,state,gamma,cutoff,eta,pulses,seed,value,value_error,var_1,var_2,var_3,"
     "var_err_1,var_err_2,var_err_3,mean_s0\n"
     "exact,W_S,psi-minus,0.5,19,1,,,-2.1723225392547487,,0,0,0,,,,1.0861612696273744\n", {}),
    ("witness", {"bin_width": 200, "cutoff": None, "eta": 0.9, "gamma": 0.5, "out": "s.csv",
                 "pulse_log": "p.ndjson", "pulses": 300, "seed": 7, "simulate": True,
                 "state": "psi-minus", "witness": None, "workers": 1},
     "mode,witness,state,gamma,cutoff,eta,pulses,seed,value,value_error,var_1,var_2,var_3,"
     "var_err_1,var_err_2,var_err_3,mean_s0\n"
     "simulated,W_S,psi-minus,0.5,,0.90000000000000002,300,7,-1.6875994054254924,"
     "0.10172287018260448,0.083333333333333343,0.086555183946488284,0.10028985507246377,"
     "0.01966835385879856,0.016242362018815962,0.021022936396838002,0.97888888888888881\n", {}),
    ("fedorov", {"bin_width": 1, "convention": "sqrt2-stddev", "eta": 1.0, "gamma": 1.5,
                 "out": "f.csv", "pulses": 500, "seed": 3, "state": "psi-minus", "workers": 1},
     "state,gamma,eta,pulses,seed,bin_width,convention,ratio,ratio_h,ratio_v,"
     "marginal_width_h,conditional_width_h,marginal_width_v,conditional_width_v,"
     "exact_ratio,rel_deviation\n"
     "psi-minus,1.5,1,500,3,1,sqrt2-stddev,35.21052000000001,5.9821233688381934,"
     "5.8859568465968222,5.9821233688381934,1,5.8859568465968222,1,41.11124703483619,"
     "0.14353072359581107\n", {}),
    ("sweep-eta", {"bin_width": 200, "eta_grid": "0.5,0.9", "eta_max": 0.95, "eta_min": 0.15,
                   "eta_points": 9, "gamma": 0.8, "out": "sw.csv", "pulses": 300, "seed": 5,
                   "state": "psi-minus", "witness": None, "workers": 1},
     "eta,value,sigma,certifies,exact\n"
     "0.5,-0.95531029357116293,0.17833840890573363,1,-0.78873223559744265\n"
     "0.90000000000000002,-4.9274842066146416,0.19888245593561021,1,-4.8270412818563493\n", {}),
    # written before --epsilon and --eta-min/--eta-max/--eta-points left, and
    # before a vacuum witness refused a gain: a single target re-runs as a
    # one-element grid, an evenly spaced efficiency grid as its listed values
    ("truncation", {"epsilon": 0.05, "epsilon_grid": "0.9,0.5,0.2,0.1,0.05,0.02,0.01",
                    "n0_grid": "10", "out": "t.csv"},
     "epsilon,n0,ratio\n0.050000000000000003,10,0.3141964171582794\n",
     {"epsilon_grid": "0.05"}),
    ("sweep-eta", {"eta_grid": "", "eta_max": 0.95, "eta_min": 0.15, "eta_points": 3,
                   "gamma": 0.8, "out": "sw3.csv", "pulses": 300, "seed": 5,
                   "state": "psi-minus", "witness": None},
     "eta,value,sigma,certifies,exact\n"
     "0.14999999999999999,0.25124489037532527,0.099500370862618107,0,0.26028163774715607\n"
     "0.54999999999999993,-1.5002675585284277,0.14610156726594989,1,-1.1278870969043426\n"
     "0.94999999999999996,-5.4260906726124123,0.20410338950130891,1,-5.5447876162500211\n",
     {"eta_grid": "0.15,0.5499999999999999,0.95"}),
    ("sweep-eta", {"eta_grid": "", "eta_max": 0.9, "eta_min": 0.2, "eta_points": 4,
                   "gamma": 0.8, "out": "sw4.csv", "pulses": 300, "seed": 5,
                   "state": "psi-minus", "witness": None},
     "eta,value,sigma,certifies,exact\n"
     "0.20000000000000001,0.18309921962095899,0.10261428160314051,0,0.25239431539118162\n"
     "0.43333333333333335,-0.55362318840579705,0.13606541039736458,1,-0.41014076251067028\n"
     "0.66666666666666663,-2.2308138238573019,0.16091140033668888,1,-2.1032859615931803\n"
     "0.90000000000000002,-4.5504905239687847,0.18984958749608596,1,-4.8270412818563493\n",
     {"eta_grid": "0.2,0.43333333333333335,0.6666666666666666,0.9"}),
    ("sweep-eta", {"eta_grid": "", "eta_max": 0.95, "eta_min": 0.15, "eta_points": 9,
                   "gamma": 0.8, "out": "sw9.csv", "pulses": 300, "seed": 5,
                   "state": "psi-minus", "witness": None},
     "eta,value,sigma,certifies,exact\n"
     "0.14999999999999999,0.25124489037532527,0.099500370862618107,0,0.26028163774715607\n"
     "0.25,-0.0093385358602748325,0.089464874543285805,0,0.19718305889936066\n"
     "0.34999999999999998,-0.2027313266443701,0.12311434860435395,0,-0.055211256491820786\n"
     "0.44999999999999996,-0.67432181345224806,0.13729842896666997,1,-0.49690130842638863\n"
     "0.54999999999999993,-1.051542177629134,0.16665415802119068,1,-1.1278870969043426\n"
     "0.64999999999999991,-2.0281568190263837,0.1601677898251524,1,-1.9481686219256826\n"
     "0.75,-2.9535005574136006,0.18559448713794865,1,-2.9577458834904102\n"
     "0.84999999999999998,-4.3839279078409508,0.18968248499789106,1,-4.1566188815985221\n"
     "0.94999999999999996,-5.621330360460794,0.21647544044852909,1,-5.5447876162500211\n",
     {"eta_grid": _DEFAULT_ETA_GRID}),
    ("witness", {"cutoff": None, "eta": 1.0, "gamma": 3.0, "out": "v.csv", "pulse_log": None,
                 "pulses": None, "seed": 0, "simulate": False, "state": "vacuum",
                 "witness": None, "workers": 1},
     "mode,witness,state,gamma,cutoff,eta,pulses,seed,value,value_error,var_1,var_2,var_3,"
     "var_err_1,var_err_2,var_err_3,mean_s0\n"
     "exact,W_S,vacuum,0,4,1,,,0,,0,0,0,,,,0\n", {"gamma": 0.5}),
]
#: SHA-256 of the pulse log the sampled witness above wrote
_OLDER_PULSE_LOG_SHA256 = "264c13d569ad71c9df3a85dce179e85f71b737a6406ed41bde5a85e4b82b4e33"


@pytest.mark.parametrize("command, config, csv_text, rerun", _OLDER_MANIFESTS,
                         ids=[f"{c}-{cfg['out']}" for c, cfg, _, _ in _OLDER_MANIFESTS])
def test_older_manifests_rerun_to_the_same_bytes(command, config, csv_text, rerun):
    # the retired keys are dropped on re-run; every other key is read as before
    with open("old.manifest.json", "w") as fh:
        json.dump({"command": command, "config": config, "seed": config.get("seed")}, fh)
    assert cli.run_from_manifest("old.manifest.json") == 0
    with open(config["out"], newline="") as fh:
        assert fh.read() == csv_text
    if config.get("pulse_log"):
        with open(config["pulse_log"], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == _OLDER_PULSE_LOG_SHA256
    manifest = _read_manifest(config["out"] + ".manifest.json")
    assert manifest["config"] == {k: v for k, v in {**config, **rerun}.items()
                                  if k in cli._DEFAULTS[command]}


@_FUZZ
@given(start=hs.floats(0.0, 1.0, exclude_min=True), stop=hs.floats(0.0, 1.0, exclude_min=True),
       num=hs.integers(1, 40))
@example(start=5e-324, stop=1e-323, num=7)  # the step underflows to 0
@example(start=0.5, stop=0.5, num=3)
def test_older_eta_grids_are_spaced_as_numpy_spaced_them(start, stop, num):
    assert cli._linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


@pytest.mark.parametrize("command, key", [("measures", "workers"), ("crosswitness", "bin_width"),
                                          ("fedorov", "bogus")])
def test_manifest_with_an_unknown_key_is_refused(command, key):
    config = dict(cli._DEFAULTS[command], **{key: 1})
    with open("bad.manifest.json", "w") as fh:
        json.dump({"command": command, "config": config}, fh)
    with pytest.raises(SystemExit) as exc:
        cli.run_from_manifest("bad.manifest.json")
    assert exc.value.code == 2
