"""Command-line interface.

Subcommands
-----------
witness      exact witness value (or a Monte-Carlo estimate with --simulate)
measures     negativity / effective mode number / width ratio vs mean photons
truncation   truncation-error budgets and retained-subspace economics
crosswitness all four witnesses against all four Bell states
fedorov      width-ratio estimate from a simulated photocounting run
sweep-eta    witness vs detection efficiency, with the certification threshold

Every command writes a CSV (numbers at 17 significant digits) plus a JSON
run manifest (resolved configuration, seed, package version, outputs,
duration) next to it, so any result can be reproduced bit-for-bit with
``run_from_manifest``.  A ``--config`` INI file supplies defaults per
command section; explicit flags win.

Exit codes: 0 success, 2 usage error, 3 numeric/truncation failure, 4 an
output that cannot be written (e.g. a full disk).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .states import BellLabel, NumericError, TruncationMassError
from .witnesses import WitnessKind


class UsageError(ValueError):
    """Bad flag combination or malformed grid (exit code 2)."""


class _Opt(NamedTuple):
    """One option: flag ``--name`` (dashes for underscores) and INI key ``name``."""

    name: str
    default: object = None
    type: type = str  # str, int, float, or bool for a flag that takes no value
    help: str | None = None
    choices: tuple[str, ...] | None = None


def _options(*opts: _Opt, **defaults) -> dict[str, _Opt]:
    """Options by name plus ``--out``; a later entry replaces an earlier one of
    the same name, and ``defaults`` override the entries' builtin defaults."""
    table = {o.name: o for o in (*opts, _Opt("out", help="output CSV path"))}
    return {k: o._replace(default=defaults.get(k, o.default)) for k, o in table.items()}


_STATE = _Opt("state", "psi-minus", choices=tuple(l.value for l in BellLabel))
_GAMMA = _Opt("gamma", type=float)
_ETA = _Opt("eta", 1.0, float, "detection efficiency")
_CUTOFF = _Opt("cutoff", type=int, help="per-mode Fock cutoff (default: auto)")
_WITNESS = _Opt("witness", help="default: the matched witness",
                choices=tuple(k.value for k in WitnessKind))
_CONVENTION = _Opt("convention", "sqrt2-stddev", choices=("stddev", "sqrt2-stddev"))
_N0_GRID = _Opt("n0_grid", help="comma-separated N0 values")
#: the sampling options of witness, fedorov and sweep-eta
_SAMPLING = (
    _STATE, _GAMMA,
    _Opt("pulses", 100_000, int, "pulse count"),
    _Opt("seed", 0, int),
    _Opt("bin_width", 200, int, "partner-count bin width for conditional histograms"),
    _Opt("workers", 1, int, "accepted for compatibility; sampling is serial"),
)

#: the one flag and INI-key inventory: name, builtin default, type, help, choices
_OPTIONS: dict[str, dict[str, _Opt]] = {
    "witness": _options(
        *_SAMPLING, _STATE._replace(choices=_STATE.choices + ("vacuum",)), _CUTOFF, _WITNESS,
        _Opt("simulate", False, bool, "Monte-Carlo estimation instead of exact "
                                      "evaluation (implied by --pulses)"),
        _ETA, _Opt("pulse_log", help="NDJSON per-pulse record path"),
        gamma=0.5, pulses=None, out="witness.csv"),
    "measures": _options(_N0_GRID, _CONVENTION, n0_grid="1,2,5,10,20,50,100",
                         out="measures.csv"),
    "truncation": _options(
        _N0_GRID, _Opt("epsilon", type=float, help="single target (otherwise a grid scan)"),
        _Opt("epsilon_grid", "0.9,0.5,0.2,0.1,0.05,0.02,0.01"),
        n0_grid="10", out="truncation.csv"),
    "crosswitness": _options(_GAMMA, _CUTOFF, gamma=0.5, out="crosswitness.csv"),
    "fedorov": _options(*_SAMPLING, _ETA, _CONVENTION,
                        gamma=1.5, pulses=1_000_000, bin_width=1, out="fedorov.csv"),
    "sweep-eta": _options(
        *_SAMPLING, _Opt("eta_grid", "", help="comma-separated efficiencies"),
        _Opt("eta_min", 0.15, float), _Opt("eta_max", 0.95, float),
        _Opt("eta_points", 9, int), _WITNESS, gamma=0.8, out="sweep_eta.csv"),
}

#: builtin defaults per command
_DEFAULTS = {cmd: {k: o.default for k, o in opts.items()} for cmd, opts in _OPTIONS.items()}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="macrobell",
        description="four-mode bright squeezed-vacuum Bell states: "
                    "witnesses, measures, truncation budgets, virtual runs",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    for command, opts in _OPTIONS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        p.add_argument("--config", help=f"INI file; section [{command}] supplies defaults")
        for o in opts.values():
            kind = (dict(action="store_const", const=True) if o.type is bool
                    else dict(type=o.type, choices=o.choices))
            p.add_argument("--" + o.name.replace("_", "-"), dest=o.name, help=o.help, **kind)
    return top


def _resolve_config(args: argparse.Namespace) -> dict:
    """CLI flag > config-file entry > builtin default."""
    command = args.command
    opts = _OPTIONS[command]
    file_vals: dict = {}
    if getattr(args, "config", None):
        for key, raw in _read_config(args.config, command):
            key = key.replace("-", "_")
            if key not in opts:
                raise UsageError(f"unknown config key {key!r} for command {command!r}")
            opt = opts[key]
            value = file_vals[key] = _convert(opt, raw)
            if value is None and opt.default not in (None, ""):
                raise UsageError(f"config key {key!r} needs a value")
            if opt.choices and value is not None and value not in opt.choices:
                raise UsageError(f"config key {key!r} must be one of "
                                 f"{', '.join(opt.choices)}, got {value!r}")
    resolved = {}
    for key, opt in opts.items():
        cli_val = getattr(args, key, None)
        resolved[key] = cli_val if cli_val is not None else file_vals.get(key, opt.default)
    _check_bounds(resolved)
    return resolved


def _read_config(path: str, command: str) -> list[tuple[str, str]]:
    """(key, raw value) pairs of the INI file's section for ``command``."""
    ini = configparser.ConfigParser()
    try:
        with open(path) as fh:
            ini.read_file(fh)
        return ini.items(command) if ini.has_section(command) else []
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"malformed config file: {' '.join(str(exc).split())}") from exc


def _check_bounds(cfg: dict) -> None:
    """Refuse out-of-range scalar inputs and unwritable outputs before any work starts."""
    import os

    cutoff = cfg.get("cutoff")
    if cutoff is not None and cutoff <= 0:
        raise UsageError(f"cutoff must be positive, got {cutoff}")
    # the closed-form moments take the square of the level count as a float
    if cutoff is not None and (cutoff + 1) ** 2 > sys.float_info.max:
        raise UsageError(f"cutoff must be below {math.sqrt(sys.float_info.max):.4g}, "
                         f"got one of {len(str(cutoff))} digits")
    if "simulate" in cfg:  # witness: the exact and sampled routes take disjoint options
        sampled = cfg["simulate"] or cfg["pulses"] is not None
        if sampled and cutoff is not None:
            raise UsageError("cutoff applies to the exact witness; sampling has no cutoff")
        if not sampled and cfg["pulse_log"]:
            raise UsageError("the exact witness writes no pulse log; "
                             "pass --simulate to record one")
    gamma = cfg.get("gamma", 0.0)
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise UsageError(f"gamma must be finite and nonnegative, got {gamma!r}")
    for key in ("eta", "eta_min", "eta_max"):
        if not 0.0 < cfg.get(key, 1.0) <= 1.0:
            raise UsageError(f"{key} must lie in (0, 1], got {cfg[key]!r}")
    if cfg.get("pulses") is not None and cfg["pulses"] < 3:
        raise UsageError(f"jackknife errors need at least 3 pulses, got {cfg['pulses']}")
    for key in ("bin_width", "eta_points"):
        if cfg.get(key, 1) < 1:
            raise UsageError(f"{key} must be at least 1, got {cfg[key]}")
    if cfg.get("seed", 0) < 0:
        raise UsageError(f"seed must be nonnegative, got {cfg['seed']}")
    workers, cpus = cfg.get("workers", 1), os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise UsageError(f"workers must lie in 1..{cpus} (the CPU count), got {workers}")
    for key in ("out", "pulse_log"):
        path = cfg.get(key)
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            raise UsageError(f"cannot write {key} {path!r}: not a file in an existing directory")


def _convert(opt: _Opt, raw: str):
    """An INI value as the option's type; ``none`` or nothing is None."""
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        return None
    if opt.type is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise UsageError(f"boolean config key {opt.name!r} got {raw!r}")
    try:
        return opt.type(raw)
    except ValueError as exc:
        raise UsageError(f"config key {opt.name!r} must be a number, got {raw!r}") from exc


def _parse_grid(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"malformed {what} grid {text!r}") from exc
    if not values:
        raise UsageError(f"empty {what} grid")
    for v in values:
        if not (math.isfinite(v) and v >= 0.0):
            raise UsageError(f"{what} grid values must be finite and nonnegative, got {v!r}")
    return values


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_manifest(command: str, cfg: dict, outputs: list[str], t0: float,
                    extra: dict | None = None) -> str:
    path = (cfg.get("out") or "run") + ".manifest.json"
    doc = {
        "command": command,
        "config": {k: v for k, v in sorted(cfg.items())},
        "seed": cfg.get("seed"),
        "package_version": __version__,
        "outputs": outputs,
        "duration_s": round(time.time() - t0, 3),
    }
    if extra:
        doc.update(extra)
    _write_json(path, doc)
    return path


# -- command bodies -------------------------------------------------------------


def _cmd_witness(cfg: dict) -> tuple[list[str], dict | None]:
    """exact or sampled entanglement witness"""
    from .states import build_bell_state
    from .witnesses import WitnessKind, cutoff_for_edge_mass, evaluate_witness
    from .simulate import SimConfig, estimate_witness, matched_witness

    if cfg["state"] == "vacuum":
        label = BellLabel.PSI_MINUS  # sign is irrelevant at zero gain
        gamma = 0.0
        shown = "vacuum"
    else:
        label = BellLabel(cfg["state"])
        gamma = cfg["gamma"]
        shown = label.value
    kind = WitnessKind(cfg["witness"]) if cfg["witness"] else matched_witness(label)
    simulate = bool(cfg["simulate"]) or cfg["pulses"] is not None
    header = ["mode", "witness", "state", "gamma", "cutoff", "eta", "pulses", "seed",
              "value", "value_error", "var_1", "var_2", "var_3",
              "var_err_1", "var_err_2", "var_err_3", "mean_s0"]
    if simulate:
        pulses = cfg["pulses"] if cfg["pulses"] is not None else 100_000
        sim = SimConfig(label=label, gamma=gamma, eta=cfg["eta"],
                        pulses=pulses, seed=cfg["seed"], bin_width=cfg["bin_width"])
        rep = estimate_witness(sim, kind=kind, pulse_log=cfg["pulse_log"])
        row = ["simulated", kind.value, shown, gamma, None, cfg["eta"],
               pulses, cfg["seed"], rep.value, rep.value_error,
               *rep.variance_terms, *rep.variance_errors, rep.mean_s0]
    else:
        if cfg["eta"] != 1.0:
            raise UsageError("exact evaluation assumes unit efficiency; "
                             "pass --simulate to model eta < 1")
        n_max = cfg["cutoff"] or cutoff_for_edge_mass(gamma)
        state = build_bell_state(label, gamma, n_max)
        rep = evaluate_witness(kind, state)
        row = ["exact", kind.value, shown, gamma, n_max, 1.0,
               None, None, rep.value, None, *rep.variance_terms,
               None, None, None, rep.mean_s0]
    _write_csv(cfg["out"], header, [row])
    print(f"{kind.value} on {shown} at gamma={gamma}: value = {rep.value:.9g}"
          + (f" +- {rep.value_error:.3g}" if rep.value_error is not None else ""))
    print(f"wrote {cfg['out']}")
    files = [cfg["out"]]
    if cfg.get("pulse_log"):
        files.append(cfg["pulse_log"])
    return files, (None if simulate else {"cutoff": n_max, "edge_mass": rep.meta["edge_mass"]})


def _cmd_measures(cfg: dict) -> list[str]:
    """entanglement measures across mean photon number"""
    from .measures import WidthConvention, gain_scan

    grid = _parse_grid(cfg["n0_grid"], "N0")
    rows = gain_scan(grid, convention=WidthConvention(cfg["convention"]))
    header = ["N0", "negativity", "kbar", "fedorov"]
    _write_csv(cfg["out"], header,
               [[r["n0"], r["negativity"], r["kbar"], r["fedorov"]] for r in rows])
    descriptor = cfg["out"] + ".plot.json"
    _write_json(descriptor, {
        "data": cfg["out"],
        "columns": header,
        "x": {"column": "N0", "label": "mean photons per mode N0", "scale": "log"},
        "y": {"columns": ["negativity", "kbar", "fedorov"],
              "label": "measure value", "scale": "log"},
        "width_convention": cfg["convention"],
        "asymptotes": {"negativity": "16*N0^2", "kbar": "4*N0^2", "fedorov": "2*N0^2"},
        # a normalization undefined at N0 = 0 (NaN) is written as null
        "points": [{k: None if math.isnan(r[k]) else r[k]
                    for k in ("n0", "gamma", "cutoff", "negativity_norm", "kbar_norm",
                              "fedorov_norm")} for r in rows],
    })
    print(f"scanned {len(rows)} gains; wrote {cfg['out']}")
    return [cfg["out"], descriptor]


def _cmd_truncation(cfg: dict) -> list[str]:
    """error budget and subspace size for photon-number cutoffs"""
    from .truncation import dimension_scan

    n0_list = _parse_grid(cfg["n0_grid"], "N0")
    targets = [cfg["epsilon"]] if cfg["epsilon"] is not None else _parse_grid(
        cfg["epsilon_grid"], "epsilon")
    if not all(0.0 < eps < 1.0 for eps in targets):
        raise UsageError(f"epsilon targets must lie in (0, 1), got {targets}")
    points = dimension_scan(n0_list, targets)
    header = ["epsilon", "n0", "ratio"]
    rows = [[p.epsilon_target, p.n0, p.occupancy] for p in points]
    _write_csv(cfg["out"], header, rows)
    meta_path = cfg["out"] + ".meta.json"
    _write_json(meta_path, {
        "data": cfg["out"],
        "columns": header,
        "n0_grid": n0_list,
        "epsilon_grid": targets,
        "ratio": "truncated effective mode number over retained dimension",
        "points": [{
            "n0": p.n0, "gamma": p.gamma, "epsilon_target": p.epsilon_target,
            "achieved_epsilon": p.achieved_epsilon, "alpha": p.alpha,
            "n_total": p.n_total, "dimension": p.dimension,
            "kbar_truncated": p.kbar_truncated, "ratio": p.occupancy,
        } for p in points],
    })
    p = points[-1]
    print(f"N0={p.n0:g}: eps<={p.epsilon_target:g} needs total cutoff "
          f"{p.n_total} (dim {p.dimension}, K^T/dim = {p.occupancy:.4f})")
    print(f"wrote {cfg['out']}")
    return [cfg["out"], meta_path]


def _cmd_crosswitness(cfg: dict) -> tuple[list[str], dict]:
    """4x4 witness-by-state table"""
    from .states import build_bell_state
    from .witnesses import cross_witness_matrix, cutoff_for_edge_mass

    n_max = cfg["cutoff"] or cutoff_for_edge_mass(cfg["gamma"])
    mat, kinds, labels = cross_witness_matrix(cfg["gamma"], n_max=n_max)
    header = ["witness"] + [l.value for l in labels]
    rows = [[k.value, *mat[i]] for i, k in enumerate(kinds)]
    _write_csv(cfg["out"], header, rows)
    diag_ok = all(mat[i, i] < 0 for i in range(4))
    off_ok = all(mat[i, j] > 0 for i in range(4) for j in range(4) if i != j)
    print(f"gamma={cfg['gamma']}: diagonal negative: {diag_ok}; "
          f"off-diagonal positive: {off_ok}")
    print(f"wrote {cfg['out']}")
    mass = build_bell_state(labels[0], cfg["gamma"], n_max).edge_mass()  # the same for all four
    return [cfg["out"]], {"cutoff": n_max, "edge_mass": mass}


def _cmd_fedorov(cfg: dict) -> tuple[list[str], dict | None]:
    """simulated photon-number width ratio"""
    from .measures import WidthConvention, fedorov_ratio
    from .simulate import SimConfig, estimate_fedorov

    sim = SimConfig(label=BellLabel(cfg["state"]), gamma=cfg["gamma"],
                    eta=cfg["eta"], pulses=cfg["pulses"], seed=cfg["seed"],
                    bin_width=cfg["bin_width"])
    est = estimate_fedorov(sim, convention=cfg["convention"])
    exact = fedorov_ratio(cfg["gamma"], convention=WidthConvention(cfg["convention"]))
    rel_deviation = abs(est.ratio - exact) / exact if exact else math.nan
    header = ["state", "gamma", "eta", "pulses", "seed", "bin_width", "convention",
              "ratio", "ratio_h", "ratio_v",
              "marginal_width_h", "conditional_width_h",
              "marginal_width_v", "conditional_width_v",
              "exact_ratio", "rel_deviation"]
    row = [cfg["state"], cfg["gamma"], cfg["eta"], cfg["pulses"], cfg["seed"],
           cfg["bin_width"], cfg["convention"], est.ratio, est.ratio_h, est.ratio_v,
           est.marginal_width_h, est.conditional_width_h,
           est.marginal_width_v, est.conditional_width_v,
           exact, rel_deviation]
    _write_csv(cfg["out"], header, [row])
    print(f"width ratio = {est.ratio:.6g} (exact {exact:.6g}, "
          f"deviation {rel_deviation:.3%})")
    print(f"wrote {cfg['out']}")
    return [cfg["out"]], None if exact else {
        "rel_deviation_note": "undefined (nan): the exact width ratio is 0"}


def _cmd_sweep_eta(cfg: dict) -> tuple[list[str], dict]:
    """witness vs detection efficiency"""
    from .states import check_memory
    from .witnesses import WitnessKind
    from .simulate import SWEEP_BYTES_PER_POINT, SimConfig, efficiency_sweep

    if cfg["eta_grid"]:
        grid = _parse_grid(cfg["eta_grid"], "eta")
        if not all(0.0 < eta <= 1.0 for eta in grid):
            raise UsageError(f"eta grid values must lie in (0, 1], got {grid}")
    else:
        check_memory(cfg["eta_points"], "efficiency sweep", SWEEP_BYTES_PER_POINT,
                     "grid points")
        grid = list(np.linspace(cfg["eta_min"], cfg["eta_max"], cfg["eta_points"]))
    sim = SimConfig(label=BellLabel(cfg["state"]), gamma=cfg["gamma"],
                    pulses=cfg["pulses"], seed=cfg["seed"], bin_width=cfg["bin_width"])
    kind = WitnessKind(cfg["witness"]) if cfg["witness"] else None
    result = efficiency_sweep(sim, grid, kind=kind)
    header = ["eta", "value", "sigma", "certifies", "exact"]
    rows = [[p.eta, p.value, p.sigma, int(p.certifies), p.exact]
            for p in result.points]
    _write_csv(cfg["out"], header, rows)
    if result.certification_threshold is None:
        print("no grid point certifies entanglement at 3 sigma")
    else:
        print(f"certified down to eta = {result.certification_threshold:.4f} "
              "(3 sigma below zero)")
    if result.zero_crossing is None:
        print("no zero crossing bracketed by the grid")
    else:
        print(f"witness crosses zero near eta = {result.zero_crossing:.4f} (ideal 1/3)")
    print(f"wrote {cfg['out']}")
    return [cfg["out"]], {
        "certification_threshold_eta": result.certification_threshold,
        "zero_crossing_eta": result.zero_crossing,
    }


_COMMANDS = {
    "witness": _cmd_witness,
    "measures": _cmd_measures,
    "truncation": _cmd_truncation,
    "crosswitness": _cmd_crosswitness,
    "fedorov": _cmd_fedorov,
    "sweep-eta": _cmd_sweep_eta,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if any(isinstance(value, list) for value in vars(args).values()):
        parser.error("an option value may not be '--'")  # argparse turns --opt=-- into []
    t0 = time.time()
    try:
        cfg = _resolve_config(args)
        result = _COMMANDS[args.command](cfg)
        outputs, extra = result if isinstance(result, tuple) else (result, None)
        manifest = _write_manifest(args.command, cfg, outputs, t0, extra)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TruncationMassError, NumericError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # e.g. a full disk under --out or --pulse-log
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {manifest}")
    return 0


def run_from_manifest(path: str) -> int:
    """Re-execute the run a manifest describes (same outputs, same bytes)."""
    with open(path) as fh:
        doc = json.load(fh)
    argv = [doc["command"]]
    for key, value in sorted(doc["config"].items()):
        if value is None or value is False:
            continue
        flag = f"--{key.replace('_', '-')}"
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return main(argv)


if __name__ == "__main__":
    sys.exit(main())
