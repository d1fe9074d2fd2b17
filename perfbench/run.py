#!/usr/bin/env python3
"""tenshop benchmark: the formfind, hop and campaign workloads.

    python3 perfbench/run.py --workload formfind|hop|campaign \
        --seed N --seconds S --trace 0|1

Every measured operation is a `tenshop` command, run in a fresh process
through child.py.  Inputs come from --seed only; the stretch tuples are
drawn from [0.2, 0.8] on the 2x2 lattice of the shipped configuration.
The untraced run (--trace 0) gives the end-to-end metrics.  The traced run
(--trace 1) runs the first input once untraced and then traced, repeatedly,
for the per-layer metrics, the tracing overhead and a check that the
counts repeat exactly.

Standard output ends with a readable JSON report followed, on the last
line, by one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json names for the chosen mode.  See README.md in this
directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread per command process keeps the load within the lanes.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")}
STRETCH_RANGE = (0.2, 0.8)
HOP_WINDOW_S = 0.1            # simulated seconds per hop command
HOP_EQUILIBRIA = 4            # equilibria an untraced hop run cycles through
CAMPAIGN_DURATION_S = 0.2     # simulated seconds per campaign sample
MAX_LANES = 4                 # concurrent commands, at most one per core
DEADLINE_S = 170.0            # hard stop for the whole run
REPEATED_COUNTS = ("formfind.iterations", "formfind.energy_evals",
                   "formfind.gradient_evals", "dynamics.steps",
                   "dynamics.contact_hits")
HOPSIM_REDUCTIONS = ("landing_displacement", "landing_velocity",
                     "center_of_mass", "center_of_mass_weighted",
                     "differential_stretch")


class Run:
    """State of one benchmark run: paths, lanes, deadline, child processes."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.lanes = min(len(os.sched_getaffinity(0)), MAX_LANES)
        self.workdir = (ROOT / ".perfbench_out"
                        / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
        self.env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(SRC),
                    "TENSHOP_LOG": "WARNING"}
        self.procs: set[subprocess.Popen] = set()
        self.lock = threading.RLock()  # the SIGTERM handler takes it too

    def command(self, argv: list[str], name: str, traced: bool) -> dict:
        """Run one tenshop command to completion and time it."""
        outdir = self.workdir / name
        outdir.mkdir(parents=True)
        result_path = self.workdir / f"{name}.result.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
               "1" if traced else "0", "--", *argv, "--output-dir", str(outdir)]
        with (self.workdir / f"{name}.log").open("w") as log:
            spawn_ns = time.monotonic_ns()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, start_new_session=True)
            with self.lock:
                self.procs.add(proc)
            try:
                code = proc.wait(timeout=max(0.1, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                _kill(proc)
                code = None
            finally:
                end_ns = time.monotonic_ns()
                with self.lock:
                    self.procs.discard(proc)
        probe = json.loads(result_path.read_text()) if result_path.exists() else {}
        trace = None
        if traced:
            workers = result_path.with_suffix(".workers").glob("spans-*.json")
            parts = [probe["trace"]] if probe.get("trace") else []
            trace = spans.merge(parts + [json.loads(p.read_text()) for p in workers])
        setup_ns = probe.get("setup_ns")
        return {
            "name": name, "traced": traced, "exit_code": code,
            "outdir": outdir,
            "wall_s": (end_ns - spawn_ns) / 1e9,
            "setup_s": None if setup_ns is None else (setup_ns - spawn_ns) / 1e9,
            "startup_s": (probe["main_ns"] - spawn_ns) / 1e9 if probe else None,
            "maxrss_kb": probe.get("maxrss_kb", 0),
            "bytes_written": sum(p.stat().st_size for p in outdir.rglob("*")
                                 if p.is_file()),
            "trace": trace,
        }

    def remaining(self) -> bool:
        return time.monotonic() < self.deadline

    def stop_all(self):
        """Kill running commands; lanes start no more and later ones die."""
        with self.lock:
            self.deadline = 0.0
            procs = list(self.procs)
        for proc in procs:
            _kill(proc)


def _kill(proc: subprocess.Popen):
    """Kill a command with its pool workers and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def stretch_arg(seed: int, index: int) -> str:
    """The index-th seeded stretch tuple of a 2x2 lattice, as --lambda."""
    values = np.random.default_rng([seed, index]).uniform(*STRETCH_RANGE, size=4)
    return ",".join(repr(float(v)) for v in values)


class Workload:
    """Defaults: one process and one operation per command, no simulation."""
    processes = 1
    operations = 1
    sim_duration = 0.0

    def prepare(self, run: Run):
        """Untimed work before the measured commands."""


class Formfind(Workload):
    """`tenshop formfind` on seeded stretch tuples; no stepping or pool."""
    name = "formfind"
    unit = "1000 CG iterations"

    def __init__(self, run: Run):
        self.seed = run.args.seed

    def argv(self, index: int) -> list[str]:
        return ["formfind", "--lambda", stretch_arg(self.seed, index)]

    def inputs(self) -> dict:
        return {"stretches": "stretch_arg(seed, i) for i = 0, 1, ..."}

    def judge(self, run: Run, cmd: dict) -> dict:
        eq_path = cmd["outdir"] / "equilibrium.json"
        outcome = {"attempted": 1, "failed": 1, "wrong": False, "work": 0.0}
        if eq_path.exists():
            report = json.loads(eq_path.read_text())["report"]
            outcome["work"] = report["iterations"] / 1000.0
            outcome["report_counts"] = {
                "formfind.iterations": report["iterations"],
                "formfind.energy_evals": report["energy_evaluations"],
                "formfind.gradient_evals": report["gradient_evaluations"]}
        if cmd["exit_code"] == 0:
            gmax, tolerance = checks.equilibrium_gradient(eq_path, run.workdir)
            outcome["gradient_max"] = gmax
            outcome["wrong"] = not gmax <= tolerance
            outcome["failed"] = int(outcome["wrong"])
        return outcome

    def end_to_end(self, cmds: list[dict], command_s: float) -> dict:
        return {"formfind_s": (command_s, "s")}


class Hop(Workload):
    """`tenshop hop` over a window from release of seeded equilibria.

    The contact sweep's cost depends on how many masses touch the ground,
    which differs between equilibria, so an untraced run cycles through
    several of them.
    """
    name = "hop"
    unit = "simulated second"
    sim_duration = HOP_WINDOW_S

    def __init__(self, run: Run):
        count = 1 if run.args.trace else HOP_EQUILIBRIA
        self.stretches = [stretch_arg(run.args.seed, i) for i in range(count)]
        self.equilibria: list[Path] = []
        self.prepared_converged: list[bool] = []

    def prepare(self, run: Run):
        def formfind(i):
            return run.command(["formfind", "--lambda", self.stretches[i]],
                               f"prepare-{i}", False)

        with ThreadPoolExecutor(run.lanes) as pool:
            preps = list(pool.map(formfind, range(len(self.stretches))))
        for prep in preps:
            path = prep["outdir"] / "equilibrium.json"
            if prep["exit_code"] not in (0, 3) or not path.exists():
                raise RuntimeError(f"could not form-find a hop equilibrium "
                                   f"(exit code {prep['exit_code']})")
            self.equilibria.append(path)
            self.prepared_converged.append(prep["exit_code"] == 0)

    def argv(self, index: int) -> list[str]:
        equilibrium = self.equilibria[index % len(self.equilibria)]
        return ["hop", str(equilibrium), "--duration", repr(HOP_WINDOW_S)]

    def inputs(self) -> dict:
        return {"stretches": self.stretches, "window_s": HOP_WINDOW_S,
                "prepared_converged": self.prepared_converged}

    def judge(self, run: Run, cmd: dict) -> dict:
        outcome = {"attempted": 1, "failed": 1, "wrong": False, "work": 0.0}
        if cmd["exit_code"] == 0:
            outcome["work"] = HOP_WINDOW_S
            finite, residual = checks.hop_output(cmd["outdir"])
            outcome["ledger_residual"] = residual
            outcome["wrong"] = not (finite and residual <= checks.LEDGER_BOUND)
            outcome["failed"] = int(outcome["wrong"])
        return outcome

    def end_to_end(self, cmds: list[dict], command_s: float) -> dict:
        return {"hop_s_per_sim_s": (command_s / HOP_WINDOW_S, "s/s")}


class Campaign(Workload):
    """`tenshop campaign --jobs <lanes>`: the only workload with the pool."""
    name = "campaign"
    unit = "attempted sample"
    sim_duration = CAMPAIGN_DURATION_S

    def __init__(self, run: Run):
        self.processes = self.operations = run.lanes
        self.seed = run.args.seed

    def argv(self, index: int) -> list[str]:
        return ["campaign", "--samples", str(self.operations),
                "--seed", str(self.seed), "--jobs", str(self.processes),
                "--duration", repr(CAMPAIGN_DURATION_S)]

    def inputs(self) -> dict:
        return {"samples": self.operations, "seed": self.seed,
                "jobs": self.processes, "duration_s": CAMPAIGN_DURATION_S}

    def judge(self, run: Run, cmd: dict) -> dict:
        rows, clean, manifest_ok = checks.campaign_output(cmd["outdir"])
        attempted, failed, wrong = stats.campaign_outcome(
            self.operations, rows, clean, cmd["exit_code"], manifest_ok)
        return {"attempted": attempted, "failed": failed, "wrong": wrong,
                "work": float(attempted), "manifest_ok": manifest_ok}

    def end_to_end(self, cmds: list[dict], command_s: float) -> dict:
        clean = sum(c["attempted"] - c["failed"] for c in cmds)
        hours = sum(c["wall_s"] for c in cmds) / 3600.0
        return {"campaign_samples_per_h": (clean / hours, "1/h")}


WORKLOADS = {w.name: w for w in (Formfind, Hop, Campaign)}


def judged(run: Run, workload, cmd: dict) -> dict:
    """The command with its outcome; unreadable output fails the check."""
    try:
        cmd.update(workload.judge(run, cmd))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        cmd.update(attempted=workload.operations, failed=workload.operations,
                   wrong=cmd["exit_code"] == 0, work=0.0, check_error=repr(exc))
    return cmd


def measure_untraced(run: Run, workload) -> list[dict]:
    """Each lane runs the next seeded input until --seconds have passed."""
    stop = time.monotonic() + run.args.seconds
    cmds: list[dict] = []
    lanes = 1 if isinstance(workload, Campaign) else run.lanes
    counter = itertools.count()
    errors: list[BaseException] = []

    def lane():
        try:
            while time.monotonic() < stop and run.remaining():
                with run.lock:
                    index = next(counter)
                cmd = judged(run, workload, run.command(
                    workload.argv(index), f"cmd-{index}", False))
                with run.lock:
                    cmds.append(cmd)
        except BaseException as exc:
            errors.append(exc)
            run.stop_all()

    threads = [threading.Thread(target=lane) for _ in range(lanes)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return cmds


def measure_traced(run: Run, workload) -> list[dict]:
    """The first input untraced once, then traced until --seconds, twice or more."""
    stop = time.monotonic() + run.args.seconds
    cmds = []
    while len(cmds) < 3 or (time.monotonic() < stop and run.remaining()):
        traced = bool(cmds)
        cmds.append(judged(run, workload, run.command(
            workload.argv(0), f"cmd-{len(cmds)}", traced)))
        if not run.remaining():
            break
    return cmds


def layer_metrics(cmd: dict, workload) -> dict:
    """Per-layer metrics of one traced command: name -> (value, unit)."""
    names, counters = cmd["trace"]["names"], cmd["trace"]["counters"]

    def get(name, field):
        return names.get(name, {}).get(field, 0)

    def layer(prefix, field):
        return sum(v.get(field, 0) for k, v in names.items()
                   if k.startswith(prefix + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    busy_ns = cmd["wall_s"] * 1e9 * workload.processes
    steps = get("dynamics._step_arrays", "calls")
    samples = get("hopsim.run_single_hop", "calls")
    sweeps = get("dynamics.resolve_contacts", "calls")
    energy_samples = get("model.total_energy", "calls")
    iterations = counters.get("formfind.iterations", 0)
    energy_evals = counters.get("formfind.energy_evals", 0)
    metrics = {
        "geometry.build_ms": (layer("geometry", "outer_ns") / 1e6, "ms"),
        "model.discretize_ms": (get("model.discretize", "outer_ns") / 1e6, "ms"),
    }
    for fn, prefix in (("model.elastic_energy", "model.energy"),
                       ("model.energy_gradient", "model.gradient")):
        calls = get(fn, "calls")
        metrics[f"{prefix}_calls"] = (calls, "count")
        metrics[f"{prefix}_us"] = (ratio(get(fn, "incl_ns") / 1e3, calls), "us")
        metrics[f"{prefix}_share"] = (ratio(get(fn, "incl_ns"), busy_ns), "ratio")
    metrics.update({
        "formfind.iterations": (iterations, "count"),
        "formfind.energy_evals": (energy_evals, "count"),
        "formfind.gradient_evals":
            (counters.get("formfind.gradient_evals", 0), "count"),
        "formfind.probes_per_iter": (ratio(energy_evals, iterations), "count"),
        "formfind.self_s": (layer("formfind", "self_ns") / 1e9, "s"),
        "formfind.fallbacks": (counters.get("formfind.fallbacks", 0), "count"),
        "dynamics.dt_s": (ratio(workload.sim_duration
                                * get("dynamics.simulate", "calls"), steps), "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.step_us":
            (ratio(get("dynamics._step_arrays", "incl_ns") / 1e3, steps), "us"),
        "dynamics.self_us_per_step":
            (ratio(get("dynamics._step_arrays", "self_ns") / 1e3, steps), "us"),
        "dynamics.contact_sweeps": (sweeps, "count"),
        "dynamics.contact_hits":
            (counters.get("dynamics.contact_hits", 0), "count"),
        "dynamics.contact_us":
            (ratio(get("dynamics.resolve_contacts", "incl_ns") / 1e3, sweeps), "us"),
        "dynamics.samples": (energy_samples, "count"),
        "dynamics.sample_us":
            (ratio(get("model.total_energy", "incl_ns") / 1e3, energy_samples), "us"),
        "dynamics.ledger_residual": (cmd.get("ledger_residual", 0.0), "ratio"),
        "hopsim.sample_s":
            (ratio(get("hopsim.run_single_hop", "incl_ns") / 1e9, samples), "s"),
        "hopsim.reduce_ms": (ratio(sum(get(f"hopsim.{fn}", "incl_ns")
                                       for fn in HOPSIM_REDUCTIONS) / 1e6,
                                   samples), "ms"),
        "hopsim.pool_busy_share":
            (ratio(get("hopsim.run_single_hop", "incl_ns"), busy_ns), "ratio"),
        "hopsim.failed_samples": (get("hopsim.run_single_hop", "raised"), "count"),
        "cli.startup_s": (cmd["startup_s"] or 0.0, "s"),
        "cli.io_ms": (layer("cli", "self_ns") / 1e6, "ms"),
        "cli.bytes_written": (cmd["bytes_written"], "B"),
    })
    return metrics


def provenance(run: Run) -> dict:
    sha = None  # checkouts without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "tenshop").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "lanes": run.lanes,
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "thread_pins": THREAD_PINS,
    }


def summarize(run: Run, workload, cmds: list[dict], origin) -> tuple[dict, dict]:
    """(readable report, metrics by name for the last line)."""
    traced = run.args.trace == 1
    measured = [c for c in cmds if c["traced"]] if traced else cmds
    attempted = sum(c["attempted"] for c in measured)
    failed = sum(c["failed"] for c in measured)
    wrong = [c["name"] for c in measured if c["wrong"]]
    problems = [f"{name}: output failed its check" for name in wrong]
    walls = [c["wall_s"] for c in measured]
    setups = [c["setup_s"] for c in measured if c["setup_s"] is not None]
    report = {
        "workload": workload.name, "seed": run.args.seed,
        "seconds": run.args.seconds, "trace": run.args.trace,
        "provenance": origin, "inputs": workload.inputs(),
        "unit": workload.unit,
        "attempted": attempted, "failed": failed,
        "timings_s": {"command": stats.timing_summary(walls)},
        "commands": [{k: c[k] for k in ("name", "traced", "exit_code", "wall_s",
                                        "setup_s", "attempted", "failed", "wrong",
                                        "work")}
                     for c in cmds],
    }
    if setups:
        report["timings_s"]["setup"] = stats.timing_summary(setups)
    metrics = {}
    if not traced:
        # Means, not medians: the seeded inputs differ in cost, and a mean
        # over a run is the inverse of its throughput.
        command_s = sum(walls) / len(walls)
        work = sum(c["work"] for c in measured)
        if not work:
            raise RuntimeError("no command completed any work")
        metrics = {
            "s_per_unit": (sum(walls) / work, "s"),
            "command_s": (command_s, "s"),
            "setup_s": (stats.percentile(setups, 50.0), "s"),
            "peak_rss_mb": (max(c["maxrss_kb"] for c in measured) / 1024.0,
                            "MiB"),
            "failed_share": (stats.failed_share(attempted, failed), "ratio"),
            **workload.end_to_end(measured, command_s),
        }
        report["end_to_end"] = {k: {"value": v, "unit": u}
                                for k, (v, u) in metrics.items()}
    else:
        per_cmd = [layer_metrics(c, workload) for c in measured]
        layers = {name: (sum(m[name][0] for m in per_cmd) / len(per_cmd), unit)
                  for name, (_, unit) in per_cmd[0].items()}
        counts = [{k: m[k][0] for k in REPEATED_COUNTS} for m in per_cmd]
        reference = cmds[0].get("report_counts")
        if reference:
            counts.append({**counts[0], **reference})
        repeat = all(c == counts[0] for c in counts)
        if not repeat:
            problems.append("counts differ between runs of the same input")
        overhead = sum(walls) / len(walls) - cmds[0]["wall_s"]
        report.update({
            "counts": counts[0], "counts_repeat": repeat,
            "trace_overhead_s": overhead,
            "trace_overhead_share": overhead / cmds[0]["wall_s"],
            "untraced_reference_s": cmds[0]["wall_s"],
        })
        report["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layers.items()}
        metrics = layers
    report["correct"] = not problems
    report["problems"] = problems
    return report, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "tenshop" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no tenshop sources under {SRC} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    global checks
    import checks  # imports tenshop

    run = Run(args)

    def terminate(signum, frame):
        run.stop_all()
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    origin = provenance(run)
    workload = WORKLOADS[args.workload](run)
    run.workdir.mkdir(parents=True)
    try:
        workload.prepare(run)
        measure = measure_traced if args.trace else measure_untraced
        cmds = measure(run, workload)
        report, metrics = summarize(run, workload, cmds, origin)
    finally:
        run.stop_all()
        shutil.rmtree(run.workdir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    print(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
