"""Self-test of the benchmark's output checkers.

    python3 perfbench/selftest.py

Each checker must accept a true output of gce and reject the same output with
one corruption: en_max off by 1e-6 relative, a swapped region label, a dropped
CSV row, an unphysical written state, an audit report with one violation.
Exits 0 when every case behaves, 1 otherwise. Takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import numpy as np

import checks
import run
from workloads import BulkAudit, Env, PointQueries, StateAnalysis, _rng, _sweep_grid


def _expect(label: str, problems: list[str], should_fail: bool, needle: str = "") -> bool:
    good = bool(problems) == should_fail and (not should_fail or any(needle in p for p in problems))
    verdict = "ok  " if good else "FAIL"
    print(f"{verdict} {label}: {'rejected' if problems else 'accepted'}"
          + (f" ({problems[0]})" if problems else ""))
    return good


def point_queries(env) -> list[bool]:
    wl = PointQueries(env, seed=1)
    ops = [op for op, it in zip(wl.ops(), wl.items) if it[3] >= 0][:256]
    wl.items = [it for it in wl.items if it[3] >= 0][:256]
    _, outs, ok, _ = run.run_round(ops)
    inp, out = wl.tables(outs, ok)
    results = [_expect("point-queries, true answers", checks.check_point_queries(inp, out), False)]

    k = int(np.argmin(np.abs(out["en_max"] - 1.0)))
    bad = copy.deepcopy(out)
    # Keep en_avg and rel_err consistent with the corrupted bound, so that
    # only the comparison with E_N of the extremal state can catch it.
    hi, lo = bad["en_max"][k] * (1.0 + 1e-6), bad["en_min"][k]
    bad["en_max"][k], bad["en_avg"][k], bad["rel_err"][k] = hi, 0.5 * (hi + lo), (hi - lo) / (hi + lo)
    results.append(_expect(f"point-queries, en_max {out['en_max'][k]:.6g} off by 1e-6 relative",
                           checks.check_point_queries(inp, bad), True, "E_N of the gmems"))

    k = out["region"].index("entangled")
    bad = copy.deepcopy(out)
    bad["region"][k] = "coexistence"
    results.append(_expect("point-queries, entangled label swapped for coexistence",
                           checks.check_point_queries(inp, bad), True, "region label"))
    return results


def grid_sweep(env) -> list[bool]:
    spec, mu_i, mu = _sweep_grid(_rng(1, 2), 24)
    cli = env.modules["cli"]
    text = cli.run_sweep(cli.SweepSpec(*spec))
    results = [_expect("grid-sweep, true CSV", checks.check_sweep_csv(text, mu_i, mu), False)]
    lines = text.split("\n")
    dropped = "\n".join(lines[:100] + lines[101:])
    results.append(_expect("grid-sweep, one CSV row dropped",
                           checks.check_sweep_csv(dropped, mu_i, mu), True, "rows"))
    return results


def state_analysis(env) -> list[bool]:
    wl = StateAnalysis(env, seed=1)
    state = wl.states[0]
    report, written = wl._analyze(state)
    report = json.loads(report)
    results = [_expect("state-analysis, true report and states",
                       checks.check_analysis(report, state, written), False)]
    payload = json.loads(written["gmems"])
    # Shrinking the matrix pushes n_minus below 1/2.
    payload["matrix"] = (0.4 * np.asarray(payload["matrix"])).tolist()
    bad = dict(written, gmems=json.dumps(payload))
    results.append(_expect("state-analysis, unphysical written state",
                           checks.check_analysis(report, state, bad), True, "unphysical"))
    return results


def bulk_audit(env) -> list[bool]:
    wl = BulkAudit(env, seed=1, count=20_000)
    _, outs, ok, _ = run.run_round(wl.ops())
    results = [_expect("bulk-audit, true audit", wl.check(outs, ok), False)]
    validate, arrays = copy.deepcopy(outs[0][0]), outs[0][1]
    validate["checks"]["delta_upper"]["violations"] = 1
    validate["total_violations"] = 1
    results.append(_expect("bulk-audit, report with one violation",
                           checks.check_audit(validate, wl.count, wl.sampled, arrays), True,
                           "violation"))
    return results


def main() -> int:
    gce = run.import_gce()
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        env = Env(gce, workdir)
        results = point_queries(env) + grid_sweep(env) + state_analysis(env) + bulk_audit(env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} checker cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
