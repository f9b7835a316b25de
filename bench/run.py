"""Benchmark of qdecouple: one workload, end to end or traced per layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's systems from the seed, then repeats its op back to
back in this one process (a closed loop with one client) for S seconds and
checks every op's outputs (see workloads.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the environment (and, with --trace 0,
the unscaled median seconds of set-up, op and yardstick).

--trace 0 reports the end-to-end metrics:
    setup_s          median, over SETUP_PROBES fresh processes, of the time
                     to import qdecouple and build the workload's systems,
                     scaled to a host on which the yardstick takes
                     YARDSTICK_NOMINAL_S (each probe's time times
                     YARDSTICK_NOMINAL_S / the yardstick's time around it)
    op_wall_rel_p50  median over ops of the op's wall time divided by the
                     wall time of yardstick(), a fixed Python and NumPy task
                     timed just before and just after the op
    op_cpu_rel_p50   the same for process CPU time (all BLAS threads)
    peak_rss_mb      peak resident memory of this process
    ok_frac          ops that passed their gate / ops attempted
The host is shared: other tenants slow everything that runs on it by a
fifth and more, in stretches of seconds to minutes, so raw seconds per op
spread by that much between runs of the same code.  The yardstick slows
with them, and the ratio cancels the host's speed; it is the op's time in
units of the yardstick, which no change to qdecouple touches.  The raw
medians in seconds are printed on the line before the result, kept with
every op's times under .bench_out/, and the traced run reports them.  The
yardstick's two 4 MiB vectors count in peak_rss_mb.
--trace 1 runs untraced ops for S/2 seconds, then ops traced by tracing.py
for S/2 seconds, and reports the per-layer metrics (medians over traced
ops, per op) with the tracing overhead.  Traced outputs must equal the
untraced ones byte for byte.  Spans and results are also written under
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads  # raises ImportError, exit code 1, where the checkout has no qdecouple sources
from tracing import Tracer, layer_metrics
from workloads import OpFailed

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
END_TO_END = {"setup_s": "s", "op_wall_rel_p50": "yardstick", "op_cpu_rel_p50": "yardstick", "peak_rss_mb": "MiB",
              "ok_frac": "fraction"}
YARDSTICK_LOOPS = 400_000
YARDSTICK_SWEEPS = 12
YARDSTICK_VECTORS = (np.linspace(0.0, 1.0, 1 << 19), np.empty(1 << 19))  # 4 MiB each
YARDSTICK_NOMINAL_S = 0.03  # the yardstick's median wall time on the 2-vCPU Xeon the benchmark was tuned on
TRACE_OVERHEAD = {"trace.untraced_op_s_p50": "s", "trace.op_s_p50": "s", "trace.overhead_s": "s", "trace.ops": "count"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, str]:
    """BLAS library and its thread count, as far as NumPy reveals them."""
    import ctypes

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(args, workload, root: Path) -> dict:
    import scipy

    blas, blas_threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "commit": _git_commit(root),
        "workload": workload.name,
        "op": workload.op,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "one process, one op at a time, no threads besides BLAS",
    }


def yardstick() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed task, the unit the op times are given in.

    A pure-Python loop paces the interpreter and single-threaded NumPy
    arithmetic over 4 MiB vectors paces the caches and memory; neither
    calls BLAS, so BLAS threading does not change the yardstick.
    """
    vector, out = YARDSTICK_VECTORS
    c0, t0 = time.process_time(), time.perf_counter()
    total = 0
    for i in range(YARDSTICK_LOOPS):
        total += i * i
    for _ in range(YARDSTICK_SWEEPS):
        np.multiply(vector, 1.0001, out=out)
        out += vector
    return time.perf_counter() - t0, time.process_time() - c0


def setup_seconds(workload, seed: int) -> list[tuple[float, float]]:
    """Wall time of SETUP_PROBES fresh processes that only set the workload up,
    each with the mean wall time of the yardstick timed just before and after it."""
    times = []
    for _ in range(SETUP_PROBES):
        before = yardstick()[0]
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        times.append((elapsed, (before + yardstick()[0]) / 2))
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return times


def check_wrappers(workload, tracer, layer: dict) -> None:
    """Raise OpFailed unless every wrapper fired as the workload expects."""
    for name, expected in workload.expected_calls.items():
        got = layer[name][0]
        if name.rsplit(".", 1)[0] not in tracer.absent and got != expected:
            raise OpFailed(f"traced {name} = {got}, expected {expected}")
    for prefix in workload.fires:
        name = prefix if prefix in layer else f"{prefix}.calls"
        if prefix not in tracer.absent and not layer[name][0] > 0:
            raise OpFailed(f"traced {name} = {layer[name][0]}, expected at least 1")


class Runner:
    """Runs ops of one workload, checks them and keeps their timings."""

    def __init__(self, workload, state, out_dir: Path):
        self.workload = workload
        self.state = state
        self.out_dir = out_dir
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, tracer=None) -> tuple[list, list, list, list]:
        """Ops back to back for `seconds` (at least one).

        Returns per op its wall and CPU seconds, the mean (wall, CPU) of the
        yardstick timed before and after it, and its layer metrics.
        """
        walls, cpus, sticks, layers = [], [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.reset()
            before = yardstick()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                outputs = self.workload.run_op(self.state, self.out_dir)
            except Exception:  # an op that raises is a failed op; the run goes on
                outputs = None
                traceback.print_exc()
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            after = yardstick()
            sticks.append(((before[0] + after[0]) / 2, (before[1] + after[1]) / 2))
            self.attempted += 1
            if tracer is not None:
                layers.append(layer_metrics(tracer))
            try:
                if outputs is None:
                    raise OpFailed("op raised")
                self.workload.check(outputs)
                if self.reference is None:
                    self.reference = outputs
                elif outputs != self.reference:
                    raise OpFailed("outputs differ from the bytes of the run's first op")
                if tracer is not None:
                    check_wrappers(self.workload, tracer, layers[-1])
            except Exception as exc:  # a gate that cannot read the outputs fails the op too
                self.failed += 1
                print(f"op {self.attempted} failed: {exc!r}", file=sys.stderr)
        return walls, cpus, sticks, layers


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    return {**{name: unit for name, (_, unit) in layer_metrics(Tracer()).items()}, **TRACE_OVERHEAD}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    # the program seeds NumPy generators, which take non-negative seeds only
    args.seed %= 2**32
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args, workload, workloads.ROOT)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record: dict = {"environment": env}
    if not args.trace:
        try:
            probes = setup_seconds(workload, args.seed)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 1
        record["setup_s"] = probes

    out_dir = workloads.OUT_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runner = Runner(workload, workload.setup(args.seed), out_dir)
    seconds = {}
    if not args.trace:
        walls, cpus, sticks, _ = runner.run(args.seconds)
        values = {
            "setup_s": YARDSTICK_NOMINAL_S * statistics.median(p / stick for p, stick in probes),
            "op_wall_rel_p50": statistics.median(w / stick[0] for w, stick in zip(walls, sticks)),
            "op_cpu_rel_p50": statistics.median(c / stick[1] for c, stick in zip(cpus, sticks)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
        seconds = {
            "setup_s_unscaled": statistics.median(p for p, _ in probes),
            "op_s_p50": statistics.median(walls),
            "cpu_s_p50": statistics.median(cpus),
            "yardstick_s_p50": statistics.median(stick[0] for stick in sticks),
        }
        record["ops"] = {"wall_s": walls, "cpu_s": cpus, "yardstick_wall_cpu_s": sticks}
    else:
        walls, _, _, _ = runner.run(args.seconds / 2)
        with Tracer() as tracer:
            traced_walls, _, _, layers = runner.run(args.seconds / 2, tracer)
            spans = list(tracer.spans)
        metrics = {
            name: _metric(statistics.median(layer[name][0] for layer in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        values = {
            "trace.untraced_op_s_p50": untraced,
            "trace.op_s_p50": traced,
            "trace.overhead_s": traced - untraced,
            "trace.ops": len(traced_walls),
        }
        metrics.update({name: _metric(values[name], unit) for name, unit in TRACE_OVERHEAD.items()})
        record["ops"] = {"untraced_wall_s": walls, "traced_wall_s": traced_walls}
        record["absent_wrappers"] = tracer.absent
        # spans of the last traced op: [id, parent id, name, start, end]
        record["spans"] = [[i, *span[:4]] for i, span in enumerate(spans)]
    shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record["result"] = result
    with open(workloads.OUT_ROOT / f"{tag}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"environment": env, "ops": runner.attempted, **seconds}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
