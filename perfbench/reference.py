"""Reference figures: the import floor and the ROADMAP baseline rows.

    python3 perfbench/reference.py

Times each row of the baseline table in ROADMAP.md again: per-call medians
in-process, the 10^6-triple kernels, the 100x100 sweep, the 10^5-sample
oracle checks, and the CLI launched as `python -m gce` (median of 7
launches). The interpreter and numpy import floor is printed on its own
line. Not part of the benchmark's result; nothing here is checked.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import physics as ph
import run

LAUNCHES = 7


def per_call(fn, *args, repeat=2000) -> float:
    """Median of `repeat` single-call timings, in seconds."""
    clock = time.perf_counter_ns
    times = []
    for _ in range(repeat):
        t0 = clock()
        fn(*args)
        times.append(clock() - t0)
    return statistics.median(times) / 1e9


def launched(argv) -> float:
    """Median wall time of launches; argv may be a function of the launch number."""
    make = argv if callable(argv) else (lambda k: argv)
    return statistics.median(run.launch(make(k))[0] for k in range(LAUNCHES))


def fmt(seconds: float) -> str:
    if seconds >= 1e-1:
        return f"{seconds * 1e3:.0f} ms"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"


def main() -> int:
    gce = run.import_gce()
    from gce import cli, entangle, oracle

    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
    try:
        sym = ph.local_symplectic(0.3, 0.2, 1.1, -0.3) @ ph.two_mode_squeezer(0.7)
        cm = gce.CovarianceMatrix(sym @ np.diag([0.6, 0.6, 0.9, 0.9]) @ sym.T)
        path = os.path.join(workdir, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gce.to_json(cm))
        cfg = oracle.SampleConfig(count=100_000)
        batch = oracle.sample_standard_forms(oracle.SampleConfig(count=1_000_000))
        m1, m2, mu = 0.5 / batch.a, 0.5 / batch.b, gce.param.purity_arrays(
            batch.a, batch.b, batch.c_plus, batch.c_minus)[2]
        sweep = cli.SweepSpec(0.005, 0.9955, 0.01, 0.005, 0.9955, 0.01)
        # A fresh output file per launch: rewriting one makes the file
        # system flush it on close.
        csv = os.path.join(workdir, "sweep{}.csv")

        rows = [
            ("import floor: python -c pass", launched([sys.executable, "-c", "pass"])),
            ("import floor: python -c 'import numpy'", launched([sys.executable, "-c", "import numpy"])),
            ("import gce", launched([sys.executable, "-c", "import gce"])),
            ("estimate (scalar)", per_call(gce.estimate, 0.5, 0.5, 0.6)),
            ("classify", per_call(gce.classify, 0.5, 0.5, 0.6)),
            ("gmems", per_call(gce.gmems, 0.5, 0.5, 0.6)),
            ("glems", per_call(gce.glems, 0.5, 0.5, 0.6)),
            ("is_physical", per_call(gce.is_physical, cm)),
            ("purities(cm)", per_call(gce.purities, cm)),
            ("to_standard_form", per_call(gce.to_standard_form, cm)),
            ("run_analyze", per_call(cli.run_analyze, path, repeat=500)),
            ("en_max, 10^6 triples", per_call(gce.en_max, m1, m2, mu, repeat=7)),
            ("en_min, 10^6 triples", per_call(gce.en_min, m1, m2, mu, repeat=7)),
            ("delta_bounds, 10^6 triples", per_call(gce.delta_bounds, m1, m2, mu, repeat=7)),
            ("region_code, 10^6 triples", per_call(entangle.region_code, m1, m2, mu, repeat=7)),
            ("run_sweep, 100x100 grid", per_call(cli.run_sweep, sweep, repeat=5)),
            ("validate_bounds, 10^5 samples", per_call(oracle.validate_bounds, cfg, repeat=7)),
            ("crosscheck_closed_forms, 10^5 samples",
             per_call(oracle.crosscheck_closed_forms, cfg, repeat=7)),
            ("subprocess classify", launched([sys.executable, "-m", "gce", "classify",
                                              "--mu1", "0.5", "--mu2", "0.5", "--mu", "0.6"])),
            ("subprocess sweep 100x100",
             launched(lambda k: [sys.executable, "-m", "gce", "sweep", "--mu-i", "0.005", "0.9955",
                                 "0.01", "--mu", "0.005", "0.9955", "0.01", "--output",
                                 csv.format(k)])),
            ("subprocess analyze", launched([sys.executable, "-m", "gce", "analyze", path])),
            ("subprocess validate --count 100000",
             launched([sys.executable, "-m", "gce", "validate", "--count", "100000"])),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, seconds in rows:
        print(f"| {name} | {fmt(seconds)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
