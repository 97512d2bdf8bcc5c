"""Benchmark of gce: four workloads, checked outputs, timings over blocks.

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 15 --trace 0

With --trace 0 the named workload runs untraced in a closed loop with one
client for --seconds of operation time, in whole rounds; every output is
checked after its round, outside the timed region. Between rounds the CLI
counterpart is launched as a subprocess, and set-up time is measured in
fresh interpreters. With --trace 1 every workload runs a fixed number of
untraced and traced rounds in turn, so that every per-layer metric is
reported whichever workload is named. The last line of standard output is
one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# The program is single-threaded; keep BLAS pools at one thread (below nproc)
# here and in every launched interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GCE_TOLERANCE", None)

# Fresh-interpreter launches per run, each for set-up time and for the CLI.
LAUNCHES = 40
LAUNCH_TIMEOUT_S = 60
# Peak RSS is read after this many timed rounds, so that it does not depend
# on how many rounds a run fits.
RSS_ROUNDS = 3


def child_env() -> dict:
    """Environment of a launched interpreter: the checkout's src on PYTHONPATH,
    because the package is not installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_gce():
    init = os.path.join(SRC, "gce", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: {init} not found; run from the root of a gce checkout")
    sys.path.insert(0, SRC)
    import gce

    if os.path.dirname(os.path.abspath(gce.__file__)) != os.path.dirname(init):
        sys.exit(f"error: imported gce from {gce.__file__}, not from {SRC}")
    return gce


def run_round(ops, tracer=None, kinds=None, name=""):
    """Run one round of operations; each gets its own latency.

    Returns (durations_ns, outputs, ok, round_ns). An operation that raises
    is a failed operation; its exception is its output.
    """
    clock = time.perf_counter_ns
    n = len(ops)
    durs, outs, ok = [0] * n, [None] * n, [True] * n
    with warnings.catch_warnings():
        # A RuntimeWarning from gce (log of a negative, overflow) fails the op.
        warnings.simplefilter("error", RuntimeWarning)
        begin = clock()
        if tracer is None:
            for i, (fn, args) in enumerate(ops):
                t0 = clock()
                try:
                    outs[i] = fn(*args)
                except Exception as exc:  # counted as a failed operation
                    outs[i] = exc
                    ok[i] = False
                durs[i] = clock() - t0
        else:
            for i, (fn, args) in enumerate(ops):
                durs[i], outs[i] = tracer.run_op(f"{name}/{kinds[i]}", fn, args)
                ok[i] = not isinstance(outs[i], Exception)
        total = clock() - begin
    return durs, outs, ok, total


def failure_text(op, out) -> str:
    return f"{op[1]!r}: {type(out).__name__}: {out}"


class Tally:
    """Attempted and failed operations, distinct failures and check problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []

    def check(self, wl, outs, ok):
        self.problems += [f"{wl.name}: {p}" for p in wl.check(outs, ok)]

    def add(self, wl, ops, outs, ok):
        """Count a timed round and check its outputs."""
        self.attempted += len(ops)
        for op, out, good in zip(ops, outs, ok):
            if not good:
                self.failed += 1
                key = failure_text(op, out)
                self.failures[key] = self.failures.get(key, 0) + 1
        self.check(wl, outs, ok)


def launch(argv):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=LAUNCH_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def setup_launch(wl, tally, values) -> None:
    """Fresh-interpreter `import gce` plus one cold operation on a tiny input."""
    code = ("import sys, time\nt0 = time.perf_counter()\nimport gce\n"
            f"{wl.setup_code}\nprint(repr(time.perf_counter() - t0))\n")
    _, proc = launch([sys.executable, "-c", code, *wl.setup_argv()])
    if proc.returncode != 0:
        tally.problems.append(f"set-up launch failed: {proc.stderr.strip()[-300:]}")
    else:
        values.append(float(proc.stdout.strip().splitlines()[-1]))


def cli_launch(wl, tally, walls) -> None:
    """Wall time of the workload's CLI counterpart, `python -m gce ...`."""
    k = len(walls)
    wall, proc = launch([sys.executable, "-m", "gce", *wl.cli_argv(k)])
    walls.append(wall)
    if proc.returncode != 0:
        tally.problems.append(f"gce {wl.cli_argv(k)[0]} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")
    else:
        tally.problems += [f"{wl.name} cli: {p}" for p in wl.check_cli(k, proc.stdout)]


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seconds: float) -> dict:
    tally = Tally()
    setup, walls = [], []
    # Launches alternate and are spread evenly over the run, between rounds,
    # so that a slow spell of the machine moves few of them.
    jobs = [(setup_launch, setup), (cli_launch, walls)] * LAUNCHES
    ops = wl.ops()
    # Warm-up round: caches and lazy imports settle; its outputs are checked too.
    _, outs, ok, _ = run_round(ops)
    tally.check(wl, outs, ok)
    del outs
    rates, block_p50, lat, timed_ns, peak = [], [], [], 0, None
    while timed_ns < seconds * 1e9 or len(rates) < RSS_ROUNDS:
        durs, outs, ok, total = run_round(ops)
        timed_ns += total
        tally.add(wl, ops, outs, ok)
        good = [d for d, g in zip(durs, ok) if g]
        rates.append(len(good) * wl.items_per_op / total * 1e9)
        block_p50.append(statistics.median(good) if good else float("inf"))
        lat += good
        del outs
        if len(rates) == RSS_ROUNDS:
            peak = peak_rss_mb()
        while jobs and timed_ns >= seconds * 1e9 * (1 - len(jobs) / (2 * LAUNCHES)):
            job, values = jobs.pop(0)
            job(wl, tally, values)
    for job, values in jobs:
        job(wl, tally, values)
    # The machine's slow spells last seconds to minutes and can slow a
    # quarter or more of a run's blocks by a third. The faster quartile of
    # blocks (upper quartile of throughput, lower quartile of each block's
    # median latency) and the fastest launch track the program's own cost far
    # more steadily than medians do. A failed set-up launch is a recorded
    # problem, so a set-up time of 0 never passes.
    metrics = {
        "items_per_s": (quartiles(rates)[2], "1/s"),
        "op_p50_us": (quartiles(block_p50)[0] / 1e3, "us"),
        "cli_wall_s": (min(walls), "s"),
        "peak_rss_mb": (peak or peak_rss_mb(), "MB"),
        "setup_s": (min(setup) if setup else 0.0, "s"),
    }
    if not lat:
        tally.problems.append(f"{wl.name}: no operation succeeded")
        lat = [0]
    info = {"rounds": len(rates), "ops_timed": len(lat), "op_median_us": statistics.median(lat) / 1e3}
    # The highest of p99 and p90 with at least ten operations beyond it.
    for q in (99, 90):
        if len(lat) * (100 - q) >= 1000:
            info[f"op_p{q}_us"] = statistics.quantiles(lat, n=100, method="inclusive")[q - 1] / 1e3
            break
    info.update({
        "items_per_s_quartiles": quartiles(rates),
        "cli_wall_median_s": statistics.median(walls),
        "setup_median_s": statistics.median(setup) if setup else 0.0,
        "cli_walls_s": walls,
        "setup_runs_s": setup,
    })
    return {"tally": tally, "metrics": metrics, "info": info}


def layer_value(spans, fn_name, stat, roots, items_per_op):
    idx = spans.calls(fn_name, roots)
    if stat == "calls":
        return len(idx) / len(roots)
    if len(idx) == 0:
        return 0.0
    if stat == "call_us":
        return float(statistics.median(spans.duration[idx])) / 1e3
    if stat == "self_us":
        return float(statistics.median(spans.self_time[idx])) / 1e3
    if stat == "ns_per_item":
        return float(statistics.median(spans.duration[idx])) / items_per_op
    values = spans.self_time if stat == "self_ms" else spans.duration
    return float(statistics.median(spans.per_root_sum(values, idx, roots))) / 1e6


def run_traced(env, seed: int) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    tally = Tally()
    tracer = Tracer(env.gce, env.modules)
    per_workload = []
    for cls in WORKLOADS.values():
        wl = cls(env, seed)
        ops = wl.ops()
        _, outs, ok, _ = run_round(ops)
        tally.check(wl, outs, ok)
        del outs
        plain, traced, extra = [], [], {}
        for _ in range(wl.trace_rounds):
            # Untraced and traced rounds alternate, so that drift of the
            # machine and the settling of the heap touch both alike.
            for tracing in (False, True):
                with tracer if tracing else contextlib.nullcontext():
                    durs, outs, ok, _ = run_round(ops, tracer if tracing else None, wl.kinds, wl.name)
                tally.add(wl, ops, outs, ok)
                (traced if tracing else plain).extend(
                    d for d, k, good in zip(durs, wl.kinds, ok) if good and k == "valid")
                if tracing:
                    extra = wl.extra_layers(outs)
                del outs
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        per_workload.append((wl.name, wl.layers, wl.items_per_op, overhead, extra))
        del wl, ops

    spans = tracer.spans()
    metrics = {}
    for name, layers, items, overhead, extra in per_workload:
        roots = spans.roots(f"{name}/valid")
        for metric, fn_name, stat, unit in layers:
            metrics[metric] = (layer_value(spans, fn_name, stat, roots, items), unit)
        for metric, (value, unit) in extra.items():
            metrics[metric] = (float(value), unit)
        metrics[f"{name}.trace_overhead_pct"] = (overhead, "%")
    path = os.path.join(OUT, f"trace-seed{seed}.npz")
    spans.save(path)
    info = {"spans": int(len(spans.parent)), "trace_file": os.path.relpath(path, ROOT)}
    return {"tally": tally, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("point-queries", "grid-sweep", "state-analysis", "bulk-audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gce = import_gce()
    from workloads import WORKLOADS, Env

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        env = Env(gce, workdir)
        if args.trace:
            result = run_traced(env, args.seed)
        else:
            result = run_untraced(WORKLOADS[args.workload](env, args.seed), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally, metrics, info = result["tally"], result["metrics"], result["info"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(f"  attempted {tally.attempted}  failed {tally.failed}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for text, count in tally.failures.items():
        print(f"  failed x{count}: {text}")
    for problem in tally.problems[:20]:
        print(f"  WRONG: {problem}")
    correct = not tally.problems
    result_line = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result_line, "info": info, "failures": tally.failures,
                   "problems": tally.problems}, fh, indent=1)
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
