"""Benchmark runner for pacok.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  For S seconds it launches one program
process at a time (child.py), each running one workload invocation through
a public entry point, checks that invocation's outputs against the
independent reference in reference.py, and deletes them.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
invocations); with --trace 1 invocations alternate between traced and
untraced, and the metrics are the per-layer ones taken from the traced
invocations' spans, plus the tracing overhead.  See README.md.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench")
INVOCATION_TIMEOUT_S = 120

MPP_TOL = 1e-10
ENERGY_RTOL = 1e-10
STEP_ATOL = 1e-12
FIELD_ATOL = 1e-10
# Round-off allowance when checking that a certified energy never rises.
DECAY_RTOL = 1e-12

# kappa = 4500 is above the "kappa min (energy)" of 4101.07 that
# `pacok check` prints for these parameters, so bounds and decay are certified.
RECORD_PHYSICS = dict(epsilon=0.15625, gamma=200.0, M=1000.0, omega=0.3, kappa=4500.0, tau=1e-3)

# "physics" is what the reference needs; for coarsen-2d it is a copy of the
# program's g1000_2d preset (epsilon = 10 h).
WORKLOADS = {
    "coarsen-2d": dict(
        entry="coarsening_run", steps=400, extents=(1.0, 1.0), save_first_step=True,
        physics=dict(epsilon=10 * 2.0 / 256, gamma=1000.0, M=1e4, omega=0.15, kappa=2000.0,
                     tau=2e-4),
        kwargs=dict(dimension=2, preset="g1000_2d", scale="paper", record_every=100, tol=0.0,
                    t_end=0.08),
    ),
    "record-2d": dict(
        entry="cli", steps=600, extents=(1.0, 1.0), physics=RECORD_PHYSICS,
        config=dict(T=0.6, monitor_every=1, snapshot_times=(0.0, 0.3, 0.6)),
    ),
    "custom-op-2d": dict(
        entry="cli", steps=40, extents=(1.0, 1.0), physics=RECORD_PHYSICS,
        config=dict(T=0.04, monitor_every=10, snapshot_times=(0.0,), operator="custom"),
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_ms": "ms",
    "stepping.check_conditions_ms": "ms",
    "physics.lipschitz_ms": "ms",
    "spectral.linf_norm_ms": "ms",
    "config.load_symbol_ms": "ms",
    "stepping.step_self_us": "us",
    "stepping.loop_self_us": "us",
    "physics.rhs_self_us": "us",
    "spectral.longrange_us": "us",
    "spectral.longrange_calls": "count",
    "spectral.multiplier_us": "us",
    "spectral.multiplier_calls": "count",
    "spectral.fft_pairs_per_step": "1/step",
    "energy.energy_us": "us",
    "stepping.records": "count",
    "grid.snapshot_write_ms": "ms",
    "grid.snapshot_bytes": "B",
    "config.series_write_ms": "ms",
    "config.series_bytes": "B",
    "experiments.count_bumps_ms": "ms",
    "trace.accounted_pct": "%",
    "trace.overhead_pct": "%",
}


class CheckFailed(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def run_config(physics, *, T, monitor_every, snapshot_times, operator="inverse_laplacian",
               symbol_file=""):
    """``pacok run`` config text for a 128^2 random block field, without the seed."""
    lines = [f"{key} = {value!r}" for key, value in physics.items()]
    lines += [
        "N = 128,128", "X = 1.0,1.0", f"T = {T!r}", "tol = 0.0",
        f"monitor_every = {monitor_every}",
        "snapshot_times = " + ",".join(repr(t) for t in snapshot_times),
        "initial = random", "blocks = 8", "lo = 0.0", "hi = 0.8",
        f"operator = {operator}",
    ]
    if symbol_file:
        lines.append(f"op_symbol_file = {symbol_file}")
    return "\n".join(lines) + "\n"


class Bench:
    def __init__(self, workload, seed):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.physics = ref.Physics(**self.spec["physics"])
        self.rng = random.Random(seed)
        self.dir = os.path.join(RUNS_DIR, f"{workload}-{seed}-{os.getpid()}")
        self.cli = None
        self.symbol_file = ""
        self.env = dict(os.environ)
        threads = str(min(2, len(os.sched_getaffinity(0))))
        self.env.update(PACOK_THREADS=threads, OMP_NUM_THREADS=threads,
                        OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                        PYTHONPATH="")

    # --- inputs -----------------------------------------------------------

    def prepare(self):
        os.makedirs(self.dir)
        if self.spec.get("config", {}).get("operator") != "custom":
            return
        # The custom-op-2d checks run the program in this process.
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import pacok.cli
        from pacok.grid import PeriodicGrid
        from pacok.spectral import LongRangeOp, load_symbol_csv, multiplier_array

        self.cli = pacok.cli
        shape, extents = (128, 128), self.spec["extents"]
        self.symbol_file = os.path.join(self.dir, "symbol.csv")
        ref.write_inverse_laplacian_table(self.symbol_file, shape, extents)
        op = LongRangeOp.custom(load_symbol_csv(self.symbol_file))
        mult = multiplier_array(op, PeriodicGrid(shape, extents))
        closed = ref.inverse_laplacian_symbol(shape, extents)[:, : mult.shape[1]]
        expect(np.array_equal(mult, closed),
               "tabulated symbol differs from the closed-form inverse-Laplacian symbol")

    def cli_argv(self, out, program_seed, operator=None):
        config = dict(self.spec["config"])
        config["operator"] = operator or config.get("operator", "inverse_laplacian")
        path = os.path.join(out, f"{config['operator']}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(run_config(self.spec["physics"], symbol_file=self.symbol_file, **config))
            fh.write(f"seed = {program_seed}\n")
        return ["run", "--config", path, "--out", out]

    def write_spec(self, out, program_seed):
        if self.spec["entry"] == "coarsening_run":
            body = dict(entry="coarsening_run", kwargs=dict(self.spec["kwargs"], seed=program_seed),
                        save_first_step=self.spec.get("save_first_step", False))
        else:
            body = dict(entry="cli", argv=self.cli_argv(out, program_seed))
        path = os.path.join(out, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        return path

    # --- one invocation ---------------------------------------------------

    def invoke(self, index, traced):
        out = os.path.join(self.dir, f"inv{index:03d}")
        os.makedirs(out)
        program_seed = self.rng.randrange(2**31)
        spec_path = self.write_spec(out, program_seed)
        with open(os.path.join(out, "stderr.txt"), "wb") as err:
            t_launch = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path, out,
                 "1" if traced else "0"],
                stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=out,
            )
            # wait4 returns the exit and the child's peak RSS together; the
            # alarm bounds the wait.
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(INVOCATION_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
            t_exit = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(os.path.join(out, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"invocation {index} exited with {proc.returncode}:\n{tail}")
        with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        self.check(out, result, program_seed)
        steps = self.spec["steps"]
        sample = dict(
            wall_s=(t_exit - t_launch) / 1e9,
            setup_s=(result["first_step"] - t_launch) / 1e9,
            steps_per_s=steps / ((result["run_end"] - result["first_step"]) / 1e9),
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
        if traced:
            sample["layers"] = layer_metrics(out, result, steps)
        shutil.rmtree(out)
        return sample

    # --- output checks ----------------------------------------------------

    def check(self, out, result, program_seed):
        steps = self.spec["steps"]
        extents = self.spec["extents"]
        p = self.physics
        expect(result["steps"] == steps, f"ran {result['steps']} steps, expected {steps}")
        series = ref.read_series(os.path.join(out, "series.csv"))
        expect(int(series[-1, 0]) == steps, f"series ends at n={series[-1, 0]}, expected {steps}")
        snaps = sorted(f for f in os.listdir(out) if f.startswith("snap_"))
        first, t_first = ref.read_snapshot(os.path.join(out, snaps[0]))
        final, t_final = ref.read_snapshot(os.path.join(out, snaps[-1]))
        expect(t_first == 0.0 and abs(t_final - steps * p.tau) < 1e-9 * p.tau * steps,
               f"snapshots span t={t_first}..{t_final}")
        if self.name == "record-2d":
            expect(result["reports"][0] == [True, True], "bounds and decay are not both certified")
            expect(len(series) == steps + 1, f"{len(series)} series rows, expected {steps + 1}")
            lo, hi = series[:, 2].min(), series[:, 3].max()
            expect(lo >= -MPP_TOL and hi <= 1 + MPP_TOL, f"recorded bounds [{lo}, {hi}]")
            e = series[:, 4]
            rises = np.nonzero(e[1:] > e[:-1] + DECAY_RTOL * np.abs(e[:-1]))[0]
            expect(rises.size == 0, f"energy rises after rows {rises[:5].tolist()}")
            for name in snaps:
                field, t = ref.read_snapshot(os.path.join(out, name))
                row = series[int(round(t / p.tau))]
                e_ref = ref.energy(field, p, extents)
                expect(rel_diff(row[4], e_ref) <= ENERGY_RTOL,
                       f"{name}: series energy {row[4]!r} vs reference {e_ref!r}")
            return
        e_final = ref.energy(final, p, extents)
        expect(rel_diff(series[-1, 4], e_final) <= ENERGY_RTOL,
               f"final energy {series[-1, 4]!r} vs reference {e_final!r}")
        if self.name == "coarsen-2d":
            stepped = np.load(os.path.join(out, "first_step.npy"))
            gap = float(np.max(np.abs(stepped - ref.step(first, p, extents))))
            expect(gap <= STEP_ATOL, f"first step differs from the reference by {gap:.3e}")
            expect(e_final < series[0, 4], f"energy rose from {series[0, 4]!r} to {e_final!r}")
            count = ref.count_bubbles(final)
            expect(result["bump_count"] == count,
                   f"bubble count {result['bump_count']} vs reference {count}")
        else:
            builtin = os.path.join(out, "builtin")
            os.makedirs(builtin)
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(self.cli_argv(builtin, program_seed, "inverse_laplacian"))
            expect(code == 0, f"built-in operator run exited with {code}")
            names = sorted(f for f in os.listdir(builtin) if f.startswith("snap_"))
            expected, _ = ref.read_snapshot(os.path.join(builtin, names[-1]))
            gap = float(np.max(np.abs(final - expected)))
            expect(gap <= FIELD_ATOL, f"custom operator differs from built-in by {gap:.3e}")


def self_times(spans, lo, hi):
    """Duration and self time of each span, counting only its part inside [lo, hi]."""
    inside = [max(0, min(end, hi) - max(start, lo)) for _, start, end, _ in spans]
    own = list(inside)
    for (_, _, _, parent), d in zip(spans, inside):
        if parent >= 0:
            own[parent] -= d
    return inside, own


def layer_metrics(out, result, steps):
    """Per-layer numbers of one traced invocation, from its spans and output files."""
    with open(os.path.join(out, "spans.json"), encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    lo, hi = result["first_step"], result["run_end"]
    _, own = self_times(spans, -math.inf, math.inf)
    in_phase, own_in_phase = self_times(spans, lo, hi)
    total, self_sum, calls, in_window = {}, {}, {}, {}
    for (name, start, end, _), s, d in zip(spans, own, in_phase):
        total[name] = total.get(name, 0) + end - start
        self_sum[name] = self_sum.get(name, 0) + s
        calls[name] = calls.get(name, 0) + 1
        in_window[name] = in_window.get(name, 0) + d
    window = hi - lo
    ms = lambda name: total.get(name, 0) / 1e6
    per_step_us = lambda ns: ns / steps / 1e3
    ffts = sum(1 for t in trace["fft_calls"] if lo <= t <= hi)
    files = os.listdir(out)
    return {
        "cli.import_ms": result["import_ns"] / 1e6,
        "stepping.check_conditions_ms": ms("stepping.check_conditions"),
        "physics.lipschitz_ms": ms("physics.lipschitz"),
        "spectral.linf_norm_ms": ms("spectral.linf_norm"),
        "config.load_symbol_ms": ms("config.load_symbol"),
        "stepping.step_self_us": per_step_us(self_sum.get("stepping.step", 0)),
        "stepping.loop_self_us": per_step_us(self_sum.get("stepping.run", 0)),
        "physics.rhs_self_us": per_step_us(self_sum.get("physics.rhs", 0)),
        "spectral.longrange_us": per_step_us(in_window.get("spectral.longrange", 0)),
        "spectral.longrange_calls": calls.get("spectral.longrange", 0),
        "spectral.multiplier_us": per_step_us(in_window.get("spectral.multiplier", 0)),
        "spectral.multiplier_calls": calls.get("spectral.multiplier", 0),
        "spectral.fft_pairs_per_step": ffts / steps,
        "energy.energy_us": total.get("energy.energy", 0) / max(calls.get("energy.energy", 0), 1) / 1e3,
        "stepping.records": len(ref.read_series(os.path.join(out, "series.csv"))),
        "grid.snapshot_write_ms": ms("grid.snapshot_write"),
        "grid.snapshot_bytes": sum(os.path.getsize(os.path.join(out, f))
                                   for f in files if f.startswith("snap_")),
        "config.series_write_ms": ms("config.series_write"),
        "config.series_bytes": os.path.getsize(os.path.join(out, "series.csv")),
        "experiments.count_bumps_ms": ms("experiments.count_bumps"),
        "trace.accounted_pct": 100.0 * sum(own_in_phase) / window,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pacok", "cli.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'pacok')}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    samples, traced, failed, correct = [], [], 0, True
    try:
        bench.prepare()
        start = time.monotonic()
        index = 0
        # A traced run attempts at least one traced and one untraced invocation.
        while time.monotonic() - start < args.seconds or (args.trace and index < 2):
            is_traced = bool(args.trace) and index % 2 == 0
            try:
                sample = bench.invoke(index, is_traced)
            except CheckFailed as exc:
                print(f"check failed: {args.workload} invocation {index}: {exc}", file=sys.stderr)
                correct = False
            except RuntimeError as exc:
                print(f"failed: {exc}", file=sys.stderr)
                failed += 1
            else:
                (traced if is_traced else samples).append(sample)
            index += 1
    except CheckFailed as exc:
        print(f"check failed: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    if not samples:
        print("error: no invocation completed", file=sys.stderr)
        return 1
    median = lambda rows, key: statistics.median(r[key] for r in rows)
    if args.trace:
        if not traced:
            print("error: no traced invocation completed", file=sys.stderr)
            return 1
        layers = [s["layers"] for s in traced]
        values = {name: statistics.median(l[name] for l in layers) for name in PER_LAYER
                  if name != "trace.overhead_pct"}
        values["trace.overhead_pct"] = 100.0 * (
            1.0 - median(traced, "steps_per_s") / median(samples, "steps_per_s"))
        units = PER_LAYER
    else:
        values = {name: median(samples, name) for name in END_TO_END}
        units = END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": index,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
