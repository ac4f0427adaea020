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
command section; explicit flags win.  ``witness`` has two routes, exact and
sampled; an option only the idle route reads must keep its default.

A plain command line (a command, then ``--flag value`` pairs and bare boolean
flags) is read straight off the option table, each value through its option's
type and choices, into the namespace argparse would give; argparse is imported
and built only for help, errors and other spellings (``--flag=value``, a value
that starts with ``-``), so it alone writes help, usage and error text, and
configparser only for ``--config``.  The modules the commands call are
imported here at the top, ``simulate`` too, though only the sampled routes
call it: its ``numpy.random`` import then counts as start-up, not as the time
of a sampled run.

Exit codes: 0 success; 2 malformed input, with a one-line message: a bad flag,
config file, grid text or output path, or an argument out of the bounds the
library keeps (``InputError``); 3 a numerical refusal (``NumericError``,
``TruncationMassError``, any other ``ValueError`` or an ``ArithmeticError``);
4 an output that cannot be written (e.g. a full disk).
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .measures import WidthConvention, fedorov_ratio, gain_scan
from .simulate import SimConfig, efficiency_sweep, estimate_fedorov, estimate_witness
from .states import BellLabel, InputError, NumericError, build_bell_state
from .truncation import dimension_scan
from .witnesses import WitnessKind, cross_witness_matrix, evaluate_witness, matched_witness

if TYPE_CHECKING:
    import argparse


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
_CUTOFF = _Opt("cutoff", type=int, help="per-mode Fock cutoff (default: untruncated)")
_WITNESS = _Opt("witness", help="default: the matched witness",
                choices=tuple(k.value for k in WitnessKind))
_CONVENTION = _Opt("convention", "sqrt2-stddev", choices=("stddev", "sqrt2-stddev"))
_N0_GRID = _Opt("n0_grid", help="comma-separated N0 values")
#: the sampling options of witness, fedorov and sweep-eta
_SAMPLING = (_STATE, _GAMMA, _Opt("pulses", 100_000, int, "pulse count"), _Opt("seed", 0, int))

#: the one flag and INI-key inventory: name, builtin default, type, help, choices
_OPTIONS: dict[str, dict[str, _Opt]] = {
    "witness": _options(
        *_SAMPLING, _STATE._replace(choices=_STATE.choices + ("vacuum",)), _CUTOFF, _WITNESS,
        _Opt("simulate", False, bool, "Monte-Carlo estimation instead of exact "
                                      "evaluation (implied by --pulses)"),
        _ETA, _Opt("pulse_log", help="NDJSON per-pulse record path"),
        # sampling is serial; the flag stays while perfbench/run.py passes it
        _Opt("workers", 1, int, "accepted for compatibility; sampling is serial"),
        gamma=0.5, pulses=None, out="witness.csv"),
    "measures": _options(_N0_GRID, _CONVENTION, n0_grid="1,2,5,10,20,50,100",
                         out="measures.csv"),
    "truncation": _options(_N0_GRID, _Opt("epsilon_grid", "0.9,0.5,0.2,0.1,0.05,0.02,0.01"),
                           n0_grid="10", out="truncation.csv"),
    "crosswitness": _options(_GAMMA, _CUTOFF, gamma=0.5, out="crosswitness.csv"),
    "fedorov": _options(
        *_SAMPLING, _ETA, _CONVENTION,
        _Opt("bin_width", 1, int, "partner-count bin width for conditional histograms"),
        gamma=1.5, pulses=1_000_000, out="fedorov.csv"),
    "sweep-eta": _options(
        *_SAMPLING, _Opt("eta_grid", help="comma-separated efficiencies"), _WITNESS,
        # nine efficiencies from 0.15 to 0.95, as numpy.linspace spaces them
        eta_grid="0.15,0.25,0.35,0.44999999999999996,0.5499999999999999,0.6499999999999999,"
                 "0.75,0.85,0.95", gamma=0.8, out="sweep_eta.csv"),
}

#: builtin defaults per command
_DEFAULTS = {cmd: {k: o.default for k, o in opts.items()} for cmd, opts in _OPTIONS.items()}


def _build_parser() -> argparse.ArgumentParser:
    """Every subcommand with its options, help and refusals."""
    import argparse

    top = argparse.ArgumentParser(
        prog="macrobell",
        description="four-mode bright squeezed-vacuum Bell states: "
                    "witnesses, measures, truncation budgets, virtual runs",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    for name, opts in _OPTIONS.items():
        # one spelling per option: no abbreviation, so --epsilon is not --epsilon-grid
        p = sub.add_parser(name, help=_COMMANDS[name].__doc__, allow_abbrev=False)
        p.add_argument("--config", help=f"INI file; section [{name}] supplies defaults")
        for o in opts.values():
            kind = (dict(action="store_const", const=True) if o.type is bool
                    else dict(type=o.type, choices=o.choices))
            p.add_argument(_flag(o.name), dest=o.name, help=o.help, **kind)
    return top


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` gives a plain line, a
    command then ``--flag value`` pairs and bare boolean flags, each value not
    starting with ``-`` and passing its option's type and choices; None for any
    other line, which argparse parses, refuses or answers with help."""
    opts = _OPTIONS.get(argv[0]) if argv else None
    if opts is None:
        return None
    flags = {"--config": _Opt("config"), **{_flag(k): o for k, o in opts.items()}}
    args = {"command": argv[0], "config": None, **dict.fromkeys(opts)}
    tokens = iter(argv[1:])
    for token in tokens:
        opt = flags.get(token)
        if opt is None:
            return None
        if opt.type is bool:
            args[opt.name] = True
            continue
        raw = next(tokens, None)
        if raw is None or raw.startswith("-"):
            return None
        try:
            value = opt.type(raw)
        except ValueError:
            return None
        if opt.choices and value not in opt.choices:
            return None
        args[opt.name] = value
    return SimpleNamespace(**args)


def _resolve_config(args: SimpleNamespace | argparse.Namespace) -> dict:
    """CLI flag > config-file entry > builtin default."""
    command = args.command
    opts = _OPTIONS[command]
    file_vals: dict = {}
    if getattr(args, "config", None):
        for key, raw in _read_config(args.config, command):
            key = key.replace("-", "_")
            if key not in opts:
                raise InputError(f"unknown config key {key!r} for command {command!r}")
            opt = opts[key]
            value = file_vals[key] = _convert(opt, raw)
            if value is None and opt.default is not None:
                raise InputError(f"config key {key!r} needs a value")
            if opt.choices and value is not None and value not in opt.choices:
                raise InputError(f"config key {key!r} must be one of "
                                 f"{', '.join(opt.choices)}, got {value!r}")
    resolved = {key: file_vals.get(key, opt.default) for key, opt in opts.items()}
    resolved.update((key, value) for key, value in vars(args).items()
                    if key in opts and value is not None)
    _check_bounds(resolved)
    return resolved


def _read_config(path: str, command: str) -> list[tuple[str, str]]:
    """(key, raw value) pairs of the INI file's section for ``command``."""
    import configparser

    ini = configparser.ConfigParser()
    try:
        with open(path) as fh:
            ini.read_file(fh)
        return ini.items(command) if ini.has_section(command) else []
    except (OSError, UnicodeError) as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise InputError(f"malformed config file: {' '.join(str(exc).split())}") from exc


def _check_bounds(cfg: dict) -> None:
    """Refuse what only the CLI knows to be wrong, before any work starts: a
    cutoff below 1, more workers than CPUs, unwritable outputs."""
    cutoff = cfg.get("cutoff")
    if cutoff is not None and cutoff <= 0:
        raise InputError(f"cutoff must be positive, got {cutoff}")
    workers, cpus = cfg.get("workers", 1), os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise InputError(f"workers must lie in 1..{cpus} (the CPU count), got {workers}")
    for key in ("out", "pulse_log"):
        path = cfg.get(key)
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            raise InputError(f"cannot write {key} {path!r}: not a file in an existing directory")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _convert(opt: _Opt, raw: str):
    """An INI value as the option's type; ``none`` or nothing is None."""
    import configparser

    raw = raw.strip()
    if raw.lower() in ("none", ""):
        return None
    if opt.type is bool:
        if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise InputError(f"boolean config key {opt.name!r} got {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    try:
        return opt.type(raw)
    except ValueError as exc:
        raise InputError(f"config key {opt.name!r} must be a number, got {raw!r}") from exc


def _parse_grid(text: str, what: str) -> list[float]:
    """Outside text as a nonempty list of finite, nonnegative floats."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"malformed {what} grid {text!r}") from exc
    if not values:
        raise InputError(f"empty {what} grid")
    for v in values:
        if not (math.isfinite(v) and v >= 0.0):
            raise InputError(f"{what} grid values must be finite and nonnegative, got {v!r}")
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
        **(extra or {}),
    }
    _write_json(path, doc)
    return path


# -- command bodies -------------------------------------------------------------


def _cmd_witness(cfg: dict) -> tuple[list[str], dict | None]:
    """exact or sampled entanglement witness"""
    shown, default = cfg["state"], _DEFAULTS["witness"]
    vacuum = shown == "vacuum"
    if vacuum and cfg["gamma"] != default["gamma"]:
        raise InputError("--gamma is not read with --state vacuum, whose gain is 0")
    # sampling is picked by --simulate or --pulses; an option only the idle route
    # reads must keep its default
    picked = "--simulate" if cfg["simulate"] else "--pulses" if cfg["pulses"] is not None else None
    simulate = picked is not None
    for key in ("cutoff",) if simulate else ("seed", "workers", "pulse_log", "eta"):
        if cfg[key] != default[key]:
            raise InputError(f"{_flag(key)} is not read with {picked}" if simulate
                             else f"{_flag(key)} is read only with --simulate or --pulses")
    label = BellLabel.PSI_MINUS if vacuum else BellLabel(shown)  # no sign at zero gain
    gamma = 0.0 if vacuum else cfg["gamma"]
    kind = WitnessKind(cfg["witness"]) if cfg["witness"] else matched_witness(label)
    header = ["mode", "witness", "state", "gamma", "cutoff", "eta", "pulses", "seed",
              "value", "value_error", "var_1", "var_2", "var_3",
              "var_err_1", "var_err_2", "var_err_3", "mean_s0"]
    if simulate:
        pulses = cfg["pulses"] if cfg["pulses"] is not None else 100_000
        sim = SimConfig(label=label, gamma=gamma, eta=cfg["eta"], pulses=pulses, seed=cfg["seed"])
        rep = estimate_witness(sim, kind=kind, pulse_log=cfg["pulse_log"])
        row = ["simulated", kind.value, shown, gamma, None, cfg["eta"],
               pulses, cfg["seed"], rep.value, rep.value_error,
               *rep.variance_terms, *rep.variance_errors, rep.mean_s0]
    else:
        rep = evaluate_witness(kind, build_bell_state(label, gamma, cfg["cutoff"]))
        row = ["exact", kind.value, shown, gamma, cfg["cutoff"], 1.0,
               None, None, rep.value, None, *rep.variance_terms,
               None, None, None, rep.mean_s0]
    _write_csv(cfg["out"], header, [row])
    print(f"{kind.value} on {shown} at gamma={gamma}: value = {rep.value:.9g}"
          + (f" +- {rep.value_error:.3g}" if rep.value_error is not None else ""))
    print(f"wrote {cfg['out']}")
    files = [cfg["out"]] + ([cfg["pulse_log"]] if cfg["pulse_log"] else [])
    return files, None if simulate else {k: rep.meta[k] for k in ("cutoff", "edge_mass")}


def _cmd_measures(cfg: dict) -> tuple[list[str], None]:
    """entanglement measures across mean photon number"""
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
    return [cfg["out"], descriptor], None


def _cmd_truncation(cfg: dict) -> tuple[list[str], None]:
    """error budget and subspace size for photon-number cutoffs"""
    n0_list = _parse_grid(cfg["n0_grid"], "N0")
    targets = _parse_grid(cfg["epsilon_grid"], "epsilon")
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
    return [cfg["out"], meta_path], None


def _cmd_crosswitness(cfg: dict) -> tuple[list[str], dict]:
    """4x4 witness-by-state table"""
    mat, kinds, labels = cross_witness_matrix(cfg["gamma"], cfg["cutoff"])
    header = ["witness"] + [l.value for l in labels]
    rows = [[k.value, *mat[i]] for i, k in enumerate(kinds)]
    _write_csv(cfg["out"], header, rows)
    diag_ok = all(mat[i, i] < 0 for i in range(4))
    off_ok = all(mat[i, j] > 0 for i in range(4) for j in range(4) if i != j)
    print(f"gamma={cfg['gamma']}: diagonal negative: {diag_ok}; "
          f"off-diagonal positive: {off_ok}")
    print(f"wrote {cfg['out']}")
    mass = build_bell_state(labels[0], cfg["gamma"], cfg["cutoff"]).edge_mass()  # same for all four
    return [cfg["out"]], {"cutoff": cfg["cutoff"], "edge_mass": mass}


def _cmd_fedorov(cfg: dict) -> tuple[list[str], dict | None]:
    """simulated photon-number width ratio"""
    sim = SimConfig(label=cfg["state"], gamma=cfg["gamma"],
                    eta=cfg["eta"], pulses=cfg["pulses"], seed=cfg["seed"])
    est = estimate_fedorov(sim, convention=cfg["convention"], bin_width=cfg["bin_width"])
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
    grid = _parse_grid(cfg["eta_grid"], "eta")
    sim = SimConfig(label=cfg["state"], gamma=cfg["gamma"],
                    pulses=cfg["pulses"], seed=cfg["seed"])
    kind = WitnessKind(cfg["witness"]) if cfg["witness"] else None
    result = efficiency_sweep(sim, grid, kind=kind)
    header = ["eta", "value", "sigma", "certifies", "exact"]
    rows = [[p.eta, p.value, p.sigma, int(p.certifies), p.exact] for p in result.points]
    _write_csv(cfg["out"], header, rows)
    threshold, crossing = result.certification_threshold, result.zero_crossing
    print("no grid point certifies entanglement at 3 sigma" if threshold is None
          else f"certified down to eta = {threshold:.4f} (3 sigma below zero)")
    print("no zero crossing bracketed by the grid" if crossing is None
          else f"witness crosses zero near eta = {crossing:.4f} (ideal 1/3)")
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
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if any(isinstance(value, list) for value in vars(args).values()):
            parser.error("an option value may not be '--'")  # argparse turns --opt=-- into []
    t0 = time.time()
    try:
        cfg = _resolve_config(args)
        outputs, extra = _COMMANDS[args.command](cfg)
        manifest = _write_manifest(args.command, cfg, outputs, t0, extra)
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # e.g. a full disk under --out or --pulse-log
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {manifest}")
    return 0


#: (command, key) pairs that older manifests record but no option reads any more
_RETIRED_KEYS = (("witness", "bin_width"), ("sweep-eta", "bin_width"), ("fedorov", "workers"),
                 ("sweep-eta", "workers"), ("truncation", "epsilon"), ("sweep-eta", "eta_min"),
                 ("sweep-eta", "eta_max"), ("sweep-eta", "eta_points"))


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``numpy.linspace(start, stop, num)`` as floats, bit for bit."""
    delta, div = stop - start, max(num - 1, 1)
    step = delta / div
    grid = [(i / div * delta if step == 0 else i * step) + start for i in range(num)]
    return grid[:-1] + [stop] if num > 1 else grid


def run_from_manifest(path: str) -> int:
    """Re-execute the run a manifest describes (same outputs, same bytes)."""
    with open(path) as fh:
        doc = json.load(fh)
    command, config = doc["command"], doc["config"]
    # older runs ignored a vacuum witness's gain, and an exact witness without
    # --cutoff ran at the cutoff the manifest records; a retired single epsilon
    # target or evenly spaced efficiency grid re-runs as the grid the run used
    if command == "witness" and config.get("state") == "vacuum":
        config["gamma"] = _DEFAULTS[command]["gamma"]
    if config.get("cutoff") is None and type(doc.get("cutoff")) is int:
        config["cutoff"] = doc["cutoff"]
    if command == "truncation" and config.get("epsilon") is not None:
        config["epsilon_grid"] = repr(config["epsilon"])
    if command == "sweep-eta" and "eta_points" in config and not config.get("eta_grid"):
        grid = _linspace(config["eta_min"], config["eta_max"], config["eta_points"])
        config["eta_grid"] = ",".join(map(repr, grid))
    argv = [command]
    for key, value in sorted(config.items()):
        if value is None or value is False or (command, key) in _RETIRED_KEYS:
            continue
        argv.extend([_flag(key)] if value is True else [_flag(key), str(value)])
    return main(argv)


if __name__ == "__main__":
    sys.exit(main())
