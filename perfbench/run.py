"""Benchmark of the macrobell command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs real ``macrobell`` CLI invocations from the ``src/`` tree of this
checkout, each in a fresh interpreter, as a closed loop: one client,
sequential, each invocation waiting for the previous one.  A workload is
a fixed list of steps (its "pass"); the loop cycles through the steps,
always finishing the first pass and starting a later step only when its
last measured duration still fits into ``--seconds``.  The seed sets the
Monte-Carlo ``--seed`` values, the order of the Bell states and which
witness each ``witness`` call evaluates.

Every output is checked against the paper's closed forms (see
``checks.py``); a nonzero exit, a failed check or a reproducibility
mismatch is a failed operation.  Outputs go to a temporary directory
inside this one, removed after each step.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs every
invocation untraced and then traced (``tracer.py``) and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
with the environment goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import (
    check_crosswitness,
    check_exact_witness,
    check_fedorov,
    check_measures,
    check_simulated_witness,
    check_sweep,
    check_truncation,
    read_csv,
    read_json,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
RESULTS = BENCH / "results"

STATES = ["psi-minus", "psi-plus", "phi-plus", "phi-minus"]
WITNESSES = ["W_S", "W_T1", "W_T2", "W_T3"]
PULSE_LOG = "pulses.ndjson"


# -- workloads -------------------------------------------------------------------


@dataclass
class Invocation:
    key: str  # invocations sharing a key are reduced to one median
    argv: list[str]
    check: Callable[[Path], list[str]]  # output directory -> problems
    aux: bool = False  # trace-only companion run, not part of the pass


@dataclass
class Step:
    invocations: list[Invocation]
    #: files that must come out byte-identical across the step's invocations
    identical: tuple[str, ...] = ()


@dataclass
class Context:
    rng: random.Random
    states: list[str]  # seeded order of the Bell states
    workers: int  # the "more than one worker" count, at most nproc
    trace: bool


def _csv(out: Path) -> list[dict]:
    return read_csv(str(out / "out.csv"))


def crosswitness(ctx: Context, turn: int) -> Step:
    return Step([Invocation("crosswitness", ["crosswitness", "--gamma", "0.5"],
                            lambda out: check_crosswitness(_csv(out), 0.5))])


def exact_witness(gamma: float, slot: int):
    def build(ctx: Context, turn: int) -> Step:
        state = ctx.states[(turn + slot) % len(ctx.states)]
        witness = ctx.rng.choice(WITNESSES)
        argv = ["witness", "--state", state, "--gamma", str(gamma), "--witness", witness]
        return Step([Invocation(f"witness-{gamma}", argv, lambda out: check_exact_witness(
            _csv(out), witness, state, gamma))])
    return build


def simulated_witness(parallel: bool):
    def build(ctx: Context, turn: int) -> Step:
        state, witness = ctx.rng.choice(STATES), ctx.rng.choice(WITNESSES)
        workers = ctx.workers if parallel else 1
        argv = ["witness", "--simulate", "--pulses", "1000000", "--eta", "0.85",
                "--gamma", "0.5", "--state", state, "--witness", witness,
                "--workers", str(workers), "--seed", str(ctx.rng.randrange(2**31))]
        return Step([Invocation(f"witness-sim-w{workers}", argv,
                                lambda out: check_simulated_witness(
                                    _csv(out), witness, state, 0.5, 0.85))])
    return build


def sweep_eta(ctx: Context, turn: int) -> Step:
    state = ctx.states[turn % len(ctx.states)]
    argv = ["sweep-eta", "--state", state, "--gamma", "0.8",
            "--seed", str(ctx.rng.randrange(2**31))]
    return Step([Invocation("sweep-eta", argv, lambda out: check_sweep(_csv(out), state, 0.8))])


def fedorov(ctx: Context, turn: int) -> Step:
    argv = ["fedorov", "--state", ctx.states[(turn + 1) % len(ctx.states)], "--gamma", "1.5",
            "--seed", str(ctx.rng.randrange(2**31))]
    return Step([Invocation("fedorov", argv, lambda out: check_fedorov(_csv(out), 1.5))])


def pulse_log(ctx: Context, turn: int) -> Step:
    state, witness = ctx.rng.choice(STATES), ctx.rng.choice(WITNESSES)
    pulses = 100_000
    base = ["witness", "--simulate", "--pulses", str(pulses), "--gamma", "0.5",
            "--state", state, "--witness", witness, "--seed", str(ctx.rng.randrange(2**31))]

    def check(out: Path) -> list[str]:
        problems = check_simulated_witness(_csv(out), witness, state, 0.5, 1.0)
        with open(out / PULSE_LOG, "rb") as fh:
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        if lines != 3 * pulses:
            problems.append(f"pulse log has {lines} lines, expected {3 * pulses}")
        return problems

    invocations = [
        Invocation(f"pulse-log-w{w}", base + ["--workers", str(w), "--pulse-log", PULSE_LOG],
                   check)
        for w in sorted({1, ctx.workers})
    ]
    if ctx.trace:
        invocations.append(Invocation("no-log-w1", base + ["--workers", "1"],
                                      lambda out: check_simulated_witness(
                                          _csv(out), witness, state, 0.5, 1.0), aux=True))
    return Step(invocations, identical=("out.csv", PULSE_LOG))


def measures(ctx: Context, turn: int) -> Step:
    grid = ["1", "10", "100", "1e3", "1e4", "1e5", "1e6"]
    ctx.rng.shuffle(grid)
    n0 = [float(v) for v in grid]
    return Step([Invocation("measures", ["measures", "--n0-grid", ",".join(grid)],
                            lambda out: check_measures(_csv(out), n0))])


def truncation(ctx: Context, turn: int) -> Step:
    grid = ["10", "100", "1000"]
    ctx.rng.shuffle(grid)
    eps = [0.9, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
    argv = ["truncation", "--n0-grid", ",".join(grid),
            "--epsilon-grid", ",".join(map(str, eps))]
    return Step([Invocation("truncation", argv, lambda out: check_truncation(
        read_json(str(out / "out.csv.meta.json")), [float(v) for v in grid], eps))])


#: workload -> the steps of one pass.  Each workload loads different layers:
#: exact Stokes moments on both sides of the sparse/tensor route switch;
#: Monte-Carlo sampling at one and at several workers; the NDJSON pulse-log
#: write path; the closed-form measures and truncation budgets.
WORKLOADS: dict[str, list[Callable[[Context, int], Step]]] = {
    "exact-witness": [crosswitness, exact_witness(0.8, 0), exact_witness(1.0, 1)],
    "virtual-experiment": [simulated_witness(True), simulated_witness(False), sweep_eta,
                           fedorov],
    "pulse-log": [pulse_log],
    "closed-forms": [measures, truncation],
}


# -- running one invocation --------------------------------------------------------


def spawn(cmd: list[str], cwd: Path, stdout, stderr):
    """Run cmd to completion; return (exit code, its own rusage, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, wall


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of the macrobell.cli import and of scipy's outermost imports.

    ``-X importtime`` prints a module after everything it imported, with
    the nesting depth as indentation; reading it backwards visits every
    parent before its children.
    """
    out = {"import_cli_s": 0.0, "import_scipy_s": 0.0}
    stack: list[tuple[int, str]] = []
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:"):
            continue
        _, cumulative, raw = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        name, depth = raw.strip(), len(raw) - len(raw.lstrip())
        while stack and stack[-1][0] >= depth:
            stack.pop()
        seconds = int(cumulative) * 1e-6
        if name == "macrobell.cli":
            out["import_cli_s"] = seconds
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            out["import_scipy_s"] += seconds
        stack.append((depth, name))
    return out


def run_invocation(inv: Invocation, workdir: Path, traced: bool) -> dict:
    out = workdir / "out"
    out.mkdir(parents=True)
    record_path = workdir / "record.json"
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(CHILD),
           str(record_path), *(["--trace"] if traced else []), "--", *inv.argv,
           "--out", "out.csv"]
    with open(workdir / "stdout", "wb") as so, open(workdir / "stderr", "wb") as se:
        rc, usage, wall = spawn(cmd, out, so, se)
    stderr = (workdir / "stderr").read_text(errors="replace")
    result = {"key": inv.key, "aux": inv.aux, "traced": traced, "rc": rc, "wall_s": wall,
              "rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
    if rc != 0 or not record_path.exists():
        tail = [l for l in stderr.splitlines() if not l.startswith("import time:")][-3:]
        result["problems"].append(f"exit code {rc}: {' | '.join(tail)}")
        return result
    result.update(read_json(str(record_path)))
    result["problems"] += inv.check(out)
    files = [p for p in out.iterdir() if p.is_file()]
    result["output_bytes"] = sum(p.stat().st_size for p in files)
    result["pulse_log_bytes"] = sum(p.stat().st_size for p in files if p.name == PULSE_LOG)
    if traced:
        result.update(parse_importtime(stderr))
    return result


def same_bytes(dirs: list[Path], names) -> list[str]:
    problems = []
    for name in names:
        digests = set()
        for d in dirs:
            h = hashlib.sha256()
            with open(d / name, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            digests.add(h.hexdigest())
        if len(digests) != 1:
            problems.append(f"{name} differs across worker counts")
    return problems


#: set-up samples per run, taken at even intervals of ``--seconds``
SETUP_SAMPLES = 4
SETUP_CMD = [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {str(SRC)!r}); import macrobell.cli"]


def setup_sample() -> float:
    """Wall time of a fresh interpreter that imports macrobell.cli and exits."""
    rc, _, wall = spawn(SETUP_CMD, BENCH, subprocess.DEVNULL, subprocess.DEVNULL)
    if rc != 0:
        raise RuntimeError(f"importing macrobell.cli failed with exit code {rc}")
    return wall


# -- the closed loop ------------------------------------------------------------------


@dataclass
class Run:
    records: list[dict] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
            for p in problems:
                print(f"FAILED: {p}", file=sys.stderr)


def run_loop(workload: str, seed: int, seconds: float, trace: bool, workers: int) -> Run:
    rng = random.Random(seed)
    ctx = Context(rng=rng, states=rng.sample(STATES, len(STATES)), workers=workers,
                  trace=trace)
    modes = (False, True) if trace else (False,)
    last_wall: dict[tuple[str, bool], float] = {}
    run = Run()
    setup_sample()  # untimed: the first import also writes bytecode caches
    start = time.perf_counter()
    # Only a few set-up samples, spread over the run, so that most of the
    # run goes to the invocations whose medians are reported.
    setup_every, last_setup = seconds / SETUP_SAMPLES, -seconds
    turn = 0
    while True:
        for build in WORKLOADS[workload]:
            step = build(ctx, turn)
            predicted = sum(last_wall.get((inv.key, m), 0.0)
                            for inv in step.invocations for m in modes)
            take_setup = not trace and time.perf_counter() - last_setup >= setup_every
            if take_setup and run.setup_s:
                predicted += run.setup_s[-1]
            if turn and time.perf_counter() - start + predicted > seconds:
                return run
            if take_setup:
                last_setup = time.perf_counter()
                run.setup_s.append(setup_sample())
            with tempfile.TemporaryDirectory(dir=BENCH, prefix=".scratch-") as tmp:
                for traced in modes:
                    dirs = []
                    for i, inv in enumerate(step.invocations):
                        workdir = Path(tmp) / f"{int(traced)}-{i}"
                        rec = run_invocation(inv, workdir, traced)
                        last_wall[(inv.key, traced)] = rec["wall_s"]
                        run.records.append(rec)
                        run.count(rec["problems"])
                        if not inv.aux:
                            dirs.append(workdir / "out")
                    if step.identical:
                        run.count(same_bytes(dirs, step.identical))
        turn += 1


# -- metrics --------------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_pass(records: list[dict], value: Callable[[dict], float]) -> float:
    """Sum over the pass's invocation keys of the median value per key."""
    by_key = defaultdict(list)
    for r in records:
        if not r["aux"] and "compute_s" in r:
            by_key[r["key"]].append(value(r))
    return sum(statistics.median(v) for v in by_key.values())


def key_median(records: list[dict], key: str, value: Callable[[dict], float]) -> float:
    return median(value(r) for r in records if r["key"] == key and "compute_s" in r)


def end_to_end(run: Run) -> dict:
    plain = [r for r in run.records if not r["traced"]]
    return {
        "wall_s": (per_pass(plain, lambda r: r["wall_s"]), "s"),
        "compute_s": (per_pass(plain, lambda r: r["compute_s"]), "s"),
        "setup_s": (median(run.setup_s), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in plain), "MB"),
    }


def span(name: str, what: str = "s"):
    return lambda r: r["layers"]["spans"].get(name, {}).get(what, 0.0)


def counter(name: str):
    return lambda r: r["layers"]["counters"].get(name, 0)


def self_share(records: list[dict], modules: tuple[str, ...]) -> float:
    main = per_pass(records, span("cli.main"))
    inside = per_pass(records, lambda r: sum(
        v["self_s"] for k, v in r["layers"]["spans"].items() if k.startswith(modules)))
    return inside / main if main else 0.0


#: spans reported as "<name>.s", inclusive seconds per pass
PASS_SPANS = [
    "basis.occupations", "states.dense", "states.build_bell_state", "states.edge_mass",
    "stokes.variance_of_combination", "stokes.combination_matrix",
    "stokes.apply_combination_tensor", "witnesses.cross_witness_matrix",
    "witnesses.cutoff_for_edge_mass", "simulate.estimate_witness",
    "simulate.efficiency_sweep", "simulate.estimate_fedorov", "simulate.sample_series",
    "simulate.jackknife", "simulate.conditional_width", "measures.gain_scan",
    "truncation.dimension_scan", "cli.main",
]
#: tracer counters, summed per pass
PASS_COUNTERS = [
    "stokes.csr_nnz", "simulate.pulses_sampled", "simulate.bins_skipped",
    "simulate.bins_used", "measures.spectrum_entries", "truncation.points",
]
#: tracer maxima over every traced invocation, with their units
MAXIMA = {
    "basis.occupations_bytes": "bytes", "states.dense_bytes": "bytes",
    "witnesses.max_rel_dev": "ratio", "measures.negativity_rel_dev": "ratio",
}


def per_layer(run: Run) -> dict:
    traced = [r for r in run.records if r["traced"] and "layers" in r]
    plain = [r for r in run.records if not r["traced"]]
    m = {f"{name}.s": (per_pass(traced, span(name)), "s") for name in PASS_SPANS}
    m.update({name: (per_pass(traced, counter(name)), "count") for name in PASS_COUNTERS})
    m.update({name: (max((r["layers"]["maxima"].get(name, 0.0) for r in traced), default=0.0),
                     unit) for name, unit in MAXIMA.items()})
    sampling_s = m["simulate.sample_series.s"][0]
    m.update({
        "import.cli_s": (median(r["import_cli_s"] for r in traced), "s"),
        "import.scipy_s": (median(r["import_scipy_s"] for r in traced), "s"),
        "stokes.variance_of_combination.calls": (
            per_pass(traced, span("stokes.variance_of_combination", "calls")), "count"),
        "stokes.route_sparse_calls": (
            per_pass(traced, span("stokes.combination_matrix", "calls")), "count"),
        "stokes.route_tensor_calls": (
            per_pass(traced, span("stokes.apply_combination_tensor", "calls")), "count"),
        "witnesses.evaluate_witness.self_s": (
            per_pass(traced, span("witnesses.evaluate_witness", "self_s")), "s"),
        "witnesses.evaluate_witness.calls": (
            per_pass(traced, span("witnesses.evaluate_witness", "calls")), "count"),
        "simulate.pulses_per_s": (
            m["simulate.pulses_sampled"][0] / sampling_s if sampling_s else 0.0, "1/s"),
        "simulate.pulse_log_s": (
            key_median(traced, "pulse-log-w1", span("simulate.estimate_witness"))
            - key_median(traced, "no-log-w1", span("simulate.estimate_witness"))
            if any(r["key"] == "no-log-w1" for r in traced) else 0.0, "s"),
        "simulate.pulse_log_bytes": (per_pass(traced, lambda r: r["pulse_log_bytes"]), "bytes"),
        "cli.self_s": (per_pass(traced, span("cli.main", "self_s")), "s"),
        "cli.output_bytes": (per_pass(traced, lambda r: r["output_bytes"]), "bytes"),
        "layers.exact_self_share": (
            self_share(traced, ("stokes.", "states.", "basis.", "witnesses.")), "ratio"),
        "layers.simulate_self_share": (self_share(traced, ("simulate.",)), "ratio"),
        "trace.overhead_s": (per_pass(traced, lambda r: r["compute_s"])
                             - per_pass(plain, lambda r: r["compute_s"]), "s"),
    })
    return m


# -- environment and output --------------------------------------------------------------


def blas_threads():
    """OpenBLAS thread count of the numpy build this interpreter loads, if it says."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workers: int) -> dict:
    import numpy as np
    import scipy

    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    ) if ROOT.joinpath(".git").exists() else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if k in os.environ},
        "git_rev": git.stdout.strip() if git is not None and git.returncode == 0 else None,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "macrobell" / "cli.py").is_file():
        print(f"no macrobell sources under {SRC}", file=sys.stderr)
        return 2

    workers = min(2, len(os.sched_getaffinity(0)))
    env = environment(workers)
    run = run_loop(args.workload, args.seed, args.seconds, bool(args.trace), workers)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    failed_frac = run.failed / run.attempted

    samples = defaultdict(int)
    for r in run.records:
        samples[r["key"]] += 1
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"closed loop, 1 client; invocations per key: {dict(samples)}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {failed_frac:.6g} (failed {run.failed} of {run.attempted})")
    if not args.trace:
        print(f"  setup_s samples: {len(run.setup_s)}")

    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "setup_samples_s": run.setup_s,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "failed_frac": failed_frac, "problems": run.problems,
                   "records": run.records}, fh, indent=1)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
