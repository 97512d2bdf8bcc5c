"""The four workloads: seeded inputs, one operation each, and output checks.

A workload runs in rounds. A round is a fixed list of operations whose
composition does not depend on the seed, so every run attempts whole rounds
of the same kinds of operation and the share of failed operations is the same
in every run. Operations call gce through module attributes at call time,
which is where the tracer's wrappers sit.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import checks
import physics as ph


class Env:
    """The gce package and its modules, imported from the checkout's src."""

    def __init__(self, gce, workdir: str):
        import gce.cli
        import gce.core
        import gce.entangle
        import gce.estimator
        import gce.extremal
        import gce.oracle
        import gce.param

        self.gce = gce
        self.modules = {name: getattr(gce, name) for name in
                        ("core", "param", "entangle", "estimator", "extremal", "oracle", "cli")}
        self.GceError = gce.GceError
        self.workdir = workdir


class Accepted(Exception):
    """An invalid purity triple was answered instead of rejected."""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


class Workload:
    """What run.py uses of a workload, and the shared defaults.

    name, item: the workload and the unit its throughput counts.
    ops(): one round, a list of (function, args); kinds[i] is "valid" or
    "invalid" for operation i; items_per_op items per operation.
    check(outputs, ok): problems with a round's outputs (failed ones skipped).
    setup_code, setup_argv(): the cold operation of a set-up launch.
    cli_argv(k), check_cli(k, stdout): the k-th CLI launch and its check.
    layers, trace_rounds, extra_layers(outputs): the traced run's metrics.
    """

    items_per_op = 1

    def setup_argv(self) -> list[str]:
        return []

    def extra_layers(self, outputs) -> dict:
        return {}


# --------------------------------------------------------------------------
# point-queries


# Invalid triples on which gce fails every time, whatever the seed:
# (1e-6, 1e-6, 1e-13) lies 1e-12 below the strip, inside the absolute 1e-9
# slack of core._purity_violation, so it is answered (with a RuntimeWarning)
# instead of rejected; (1e-200, 1e-200, 1e-300) makes core._purity_violation
# divide 0.0 by 0.0 and raise ZeroDivisionError.
KNOWN_FAULTY = ((1e-6, 1e-6, 1e-13), (1e-200, 1e-200, 1e-300))

POINT_STRATA = ("log-uniform asymmetric", "log-uniform symmetric",
                "near-pure asymmetric", "near-pure symmetric")
POINT_VALID_PER_STRATUM = 496
POINT_INVALID_SEEDED = 62


def _draw_marginals(rng, stratum):
    if stratum.startswith("log-uniform"):
        draw = lambda: 10.0 ** rng.uniform(-3.0, 0.0)
    else:
        draw = lambda: 1.0 - 10.0 ** rng.uniform(-6.0, -1.0)
    m1 = draw()
    return m1, (draw() if stratum.endswith("asymmetric") else m1)


def _draw_valid(rng, stratum):
    """A triple inside the strip, in a region chosen uniformly among those this
    pair of marginals has, and clear of every threshold's collar."""
    while True:
        m1, m2 = _draw_marginals(rng, stratum)
        lower, upper = ph.strip(m1, m2)
        sep = ph.separable_threshold(m1, m2)
        coex = ph.coexistence_threshold(m1, m2)
        spans = ((lower, sep), (sep, min(coex, upper)), (coex, upper))
        feasible = []
        for code, (lo, hi) in enumerate(spans):
            lo, hi = lo + ph.collar(lo), hi - ph.collar(hi)
            if hi > lo:
                feasible.append((code, lo, hi))
        if feasible:
            code, lo, hi = feasible[rng.integers(len(feasible))]
            return float(m1), float(m2), float(lo + (hi - lo) * rng.uniform()), code


def _draw_invalid(rng, k):
    """A triple outside the strip by more than 1e-8, or outside (0, 1]."""
    kind = k % 3
    while True:
        m1, m2 = 10.0 ** rng.uniform(-3.0, 0.0, size=2)
        lower, upper = ph.strip(m1, m2)
        if kind == 0 and lower >= 1e-6:
            return m1, m2, lower * (1.0 - rng.uniform(0.01, 0.9))
        if kind == 1 and upper <= 1.0 - 1e-4:
            return m1, m2, upper + (1.0 - upper) * rng.uniform(0.01, 0.99)
        if kind == 2:
            mu = lower + (upper - lower) * rng.uniform()
            big = 1.0 + rng.uniform(1e-3, 1.0)
            return ((0.0, m2, mu), (m1, -m2, mu), (m1, m2, big),
                    (big, m2, mu), (m1, m2, math.nan), (m1, math.inf, mu))[(k // 3) % 6]


class PointQueries(Workload):
    name = "point-queries"
    item = "triple"

    def __init__(self, env: Env, seed: int):
        self.env = env
        rng = _rng(seed, 1)
        # Each item is (mu1, mu2, mu, code): the reference region code of a
        # valid triple, -1 for a seeded invalid one, -2 for a known faulty one.
        items = [_draw_valid(rng, s) for s in POINT_STRATA for _ in range(POINT_VALID_PER_STRATUM)]
        items += [(*map(float, _draw_invalid(rng, k)), -1) for k in range(POINT_INVALID_SEEDED)]
        items += [(m1, m2, mu, -2) for m1, m2, mu in KNOWN_FAULTY]
        order = rng.permutation(len(items))
        self.items = [items[i] for i in order]
        self.kinds = ["valid" if it[3] >= 0 else "invalid" for it in self.items]
        self.cli_triples = [it[:3] for it in self.items if it[3] >= 0][:8]

    def _answer(self, m1, m2, mu):
        g = self.env.gce
        return g.estimate(m1, m2, mu), g.delta_bounds(m1, m2, mu), g.gmems(m1, m2, mu), g.glems(m1, m2, mu)

    def _reject(self, m1, m2, mu):
        g = self.env.gce
        for fn in (g.estimate, g.delta_bounds, g.gmems, g.glems):
            try:
                fn(m1, m2, mu)
            except self.env.GceError:
                continue
            raise Accepted(f"{fn.__name__} answered an invalid triple")
        return None

    def ops(self):
        return [(self._answer if it[3] >= 0 else self._reject, it[:3]) for it in self.items]

    def tables(self, outputs, ok):
        """Inputs and outputs of the answered valid triples, as arrays."""
        idx = [i for i, it in enumerate(self.items) if it[3] >= 0 and ok[i]]
        inp = {k: np.array([self.items[i][j] for i in idx]) for j, k in enumerate(("mu1", "mu2", "mu", "region"))}
        res = [outputs[i] for i in idx]
        out = {
            "region": [r[0].region.value for r in res],
            "en_max": np.array([r[0].en_max for r in res]),
            "en_min": np.array([r[0].en_min for r in res]),
            "en_avg": np.array([r[0].en_avg for r in res]),
            "rel_err": np.array([r[0].rel_err for r in res]),
            "delta_min": np.array([r[1][0] for r in res]),
            "delta_max": np.array([r[1][1] for r in res]),
            "gmems": np.array([r[2].as_tuple() for r in res]).reshape(-1, 4),
            "glems": np.array([r[3].as_tuple() for r in res]).reshape(-1, 4),
        }
        return inp, out

    def check(self, outputs, ok) -> list[str]:
        return checks.check_point_queries(*self.tables(outputs, ok))

    setup_code = "gce.estimate(0.5, 0.5, 0.6); gce.delta_bounds(0.5, 0.5, 0.6); " \
                 "gce.gmems(0.5, 0.5, 0.6); gce.glems(0.5, 0.5, 0.6)"

    def cli_argv(self, k):
        m1, m2, mu = self.cli_triples[k % len(self.cli_triples)]
        return ["classify", "--mu1", repr(m1), "--mu2", repr(m2), "--mu", repr(mu), "--json"]

    def check_cli(self, k, stdout):
        m1, m2, mu = self.cli_triples[k % len(self.cli_triples)]
        rep = json.loads(stdout)
        code, _ = ph.region(m1, m2, mu)
        problems = []
        if rep["region"] != ph.REGIONS[int(code)]:
            problems.append(f"classify: region {rep['region']!r}")
        d_lo, d_hi = ph.delta_range(m1, m2, mu)
        if not checks.close(rep["en_max"], ph.en_at_delta(m1, m2, mu, d_lo), 1e-8, 1e-9):
            problems.append(f"classify: en_max {rep['en_max']!r}")
        return problems

    # Per-layer metrics of the traced run: (metric, function, statistic, unit).
    layers = (
        ("estimator.estimate_us", "estimator.estimate", "call_us", "us"),
        ("entangle.classify_us", "entangle.classify", "call_us", "us"),
        ("param.delta_bounds_us", "param.delta_bounds", "call_us", "us"),
        ("extremal.gmems_us", "extremal.gmems", "call_us", "us"),
        ("extremal.glems_us", "extremal.glems", "call_us", "us"),
        ("param.require_valid_purities_us", "param.require_valid_purities", "call_us", "us"),
        ("param.require_valid_purities_calls_per_op", "param.require_valid_purities", "calls", "count"),
    )
    trace_rounds = 3


# --------------------------------------------------------------------------
# grid-sweep

GRID_SIDE = 151
CLI_GRID_SIDE = 100


def _sweep_grid(rng, side):
    """Seeded symmetric grid: mu_i and mu each from about 0.01 to 0.999, so
    about a third of the points (mu < mu_i^2) lie outside the strip."""
    i0, i1 = 0.01 + 0.005 * rng.uniform(), 0.999 - 0.005 * rng.uniform()
    g0, g1 = 0.005 + 0.005 * rng.uniform(), 0.999 - 0.005 * rng.uniform()
    di, dg = (i1 - i0) / (side - 1), (g1 - g0) / (side - 1)
    # A stop half a step past the last point gives exactly `side` points.
    spec = (i0, i0 + (side - 0.5) * di, di, g0, g0 + (side - 0.5) * dg, dg)
    # The documented layout: start + k * step.
    return spec, [i0 + k * di for k in range(side)], [g0 + k * dg for k in range(side)]


class GridSweep(Workload):
    name = "grid-sweep"
    item = "grid point"

    def __init__(self, env: Env, seed: int):
        self.env = env
        rng = _rng(seed, 2)
        self.spec_args, self.mu_i, self.mu = _sweep_grid(rng, GRID_SIDE)
        self.cli_spec, self.cli_mu_i, self.cli_mu = _sweep_grid(rng, CLI_GRID_SIDE)
        self.kinds = ["valid"]
        self.items_per_op = GRID_SIDE * GRID_SIDE

    def _sweep(self):
        cli = self.env.modules["cli"]
        return cli.run_sweep(cli.SweepSpec(*self.spec_args))

    def ops(self):
        return [(self._sweep, ())]

    def check(self, outputs, ok) -> list[str]:
        return checks.check_sweep_csv(outputs[0], self.mu_i, self.mu) if ok[0] else []

    setup_code = "from gce import cli; cli.run_sweep(cli.SweepSpec(0.1, 0.9, 0.4, 0.1, 0.9, 0.4))"

    def _cli_csv(self, k):
        # A fresh file per launch: rewriting an existing file makes the
        # file system flush it on close, which would be timed as gce's work.
        return os.path.join(self.env.workdir, f"sweep{k}.csv")

    def cli_argv(self, k):
        path = self._cli_csv(k)
        s = self.cli_spec
        return ["sweep", "--mu-i", repr(s[0]), repr(s[1]), repr(s[2]),
                "--mu", repr(s[3]), repr(s[4]), repr(s[5]), "--output", path]

    def check_cli(self, k, stdout):
        with open(self._cli_csv(k), encoding="utf-8") as fh:
            text = fh.read()
        os.remove(self._cli_csv(k))
        return checks.check_sweep_csv(text, self.cli_mu_i, self.cli_mu)

    layers = (
        ("cli.run_sweep_self_ms", "cli.run_sweep", "self_ms", "ms"),
        ("estimator.estimate_ms", "estimator.estimate", "op_ms", "ms"),
        ("param.check_purity_constraints_ms", "param.check_purity_constraints", "op_ms", "ms"),
        ("estimator.estimate_calls_per_op", "estimator.estimate", "calls", "count"),
    )
    trace_rounds = 2


# --------------------------------------------------------------------------
# state-analysis

STATE_QUOTA = {"separable": 16, "coexistence": 16, "entangled mixed": 8, "entangled near-pure": 8}


def _draw_state(rng):
    """A squeezed thermal state moved out of standard form by a random
    symplectic; near-pure spectra half of the time."""
    near_pure = rng.uniform() < 0.5
    if near_pure:
        n_minus = 0.5 + 10.0 ** rng.uniform(-7.0, -3.0)
        n_plus = n_minus + 10.0 ** rng.uniform(-7.0, -3.0)
    else:
        n_minus = 0.5 + rng.uniform(0.0, 1.5)
        n_plus = n_minus + rng.uniform(0.0, 3.0)
    sym = (ph.local_symplectic(rng.uniform(0.0, np.pi), rng.uniform(-0.6, 0.6),
                               rng.uniform(0.0, np.pi), rng.uniform(-0.6, 0.6))
           @ ph.two_mode_squeezer(rng.uniform(0.0, 1.2))
           @ ph.beam_splitter(rng.uniform(0.0, np.pi))
           @ ph.local_symplectic(rng.uniform(0.0, np.pi), rng.uniform(-0.4, 0.4),
                                 rng.uniform(0.0, np.pi), rng.uniform(-0.4, 0.4)))
    s = sym @ np.diag([n_minus, n_minus, n_plus, n_plus]) @ sym.T
    s = 0.5 * (s + s.T)
    return s, 0.25 / (n_minus * n_plus), near_pure


class StateAnalysis(Workload):
    name = "state-analysis"
    item = "covariance matrix"

    def __init__(self, env: Env, seed: int):
        self.env = env
        rng = _rng(seed, 3)
        to_json = env.modules["core"].to_json
        left = dict(STATE_QUOTA)
        self.states = []
        while any(left.values()):
            s, mu, near_pure = _draw_state(rng)
            m1, m2, _ = ph.purities(s)
            lower, upper = ph.strip(m1, m2)
            code, near = ph.region(m1, m2, mu)
            if near or not (lower + ph.collar(lower) < mu < upper - ph.collar(upper)):
                continue
            key = ph.REGIONS[int(code)]
            if key == "entangled":
                key += " near-pure" if near_pure else " mixed"
            if not left.get(key):
                continue
            left[key] -= 1
            k = len(self.states)
            path = os.path.join(env.workdir, f"state{k:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(to_json(s))
            self.states.append({
                "matrix": s, "mu1": float(m1), "mu2": float(m2), "mu": float(mu),
                "en": float(ph.log_negativity(s)), "n_tilde_minus": float(ph.ppt_n_minus(s)),
                "path": path,
            })
        self.kinds = ["valid"] * len(self.states)

    def _analyze(self, st):
        g, cli = self.env.gce, self.env.modules["cli"]
        report = cli.run_analyze(st["path"], as_json=True)
        # The written states are kept as JSON text: on this kind of disk a
        # rewrite of a file costs far more than gce's own work.
        return report, {
            "gmems": g.to_json(g.from_standard_form(g.gmems(st["mu1"], st["mu2"], st["mu"]))),
            "glems": g.to_json(g.from_standard_form(g.glems(st["mu1"], st["mu2"], st["mu"]))),
        }

    def ops(self):
        return [(self._analyze, (st,)) for st in self.states]

    def check(self, outputs, ok) -> list[str]:
        problems = []
        for st, out, good in zip(self.states, outputs, ok):
            if good:
                found = checks.check_analysis(json.loads(out[0]), st, out[1])
                problems += [f"{os.path.basename(st['path'])}: {p}" for p in found]
        return problems

    setup_code = ("from gce import cli; cli.run_analyze(sys.argv[1], as_json=True); "
                  "gce.to_json(gce.from_standard_form(gce.gmems(0.5, 0.5, 0.6))); "
                  "gce.to_json(gce.from_standard_form(gce.glems(0.5, 0.5, 0.6)))")

    def setup_argv(self):
        return [self.states[0]["path"]]

    def cli_argv(self, k):
        return ["analyze", self.states[k % len(self.states)]["path"], "--json"]

    def check_cli(self, k, stdout):
        st = self.states[k % len(self.states)]
        return checks.check_analysis(json.loads(stdout), st, None)

    layers = (
        ("cli.run_analyze_self_us", "cli.run_analyze", "self_us", "us"),
        ("core.from_json_us", "core.from_json", "call_us", "us"),
        ("core.purities_us", "core.purities", "call_us", "us"),
        ("core.to_standard_form_us", "core.to_standard_form", "call_us", "us"),
        ("core.is_physical_us", "core.is_physical", "call_us", "us"),
        ("estimator.entanglement_report_us", "estimator.entanglement_report", "call_us", "us"),
        ("core.from_standard_form_us", "core.from_standard_form", "call_us", "us"),
        ("core.to_json_us", "core.to_json", "call_us", "us"),
        ("core.is_physical_calls_per_op", "core.is_physical", "calls", "count"),
    )
    trace_rounds = 3


# --------------------------------------------------------------------------
# bulk-audit

AUDIT_COUNT = 1_000_000
CLI_AUDIT_COUNT = 100_000


class BulkAudit(Workload):
    name = "bulk-audit"
    item = "sampled state"

    def __init__(self, env: Env, seed: int, count: int = AUDIT_COUNT):
        self.env = env
        oracle = env.modules["oracle"]
        self.count = count
        self.cfg = oracle.SampleConfig(seed=int(seed), count=count)
        # The states the oracle samples for this config. Their purities feed
        # the array API; purities, seralian and E_N are computed here apart
        # from gce.
        batch = oracle.sample_standard_forms(self.cfg)
        a, b, cp, cm = batch.a, batch.b, batch.c_plus, batch.c_minus
        ab = a * b
        det_s = (ab - cp * cp) * (ab - cm * cm)
        dt = a * a + b * b - 2.0 * cp * cm
        self.sampled = {
            "mu1": 0.5 / a, "mu2": 0.5 / b, "mu": 0.25 / np.sqrt(det_s),
            "delta": a * a + b * b + 2.0 * cp * cm,
            # 2 n~^2 = dt - sqrt(dt^2 - 4 det sigma) = 4 det sigma / (dt + sqrt(...)).
            "en": np.maximum(0.0, -0.5 * np.log(
                8.0 * det_s / (dt + np.sqrt(np.maximum(dt * dt - 4.0 * det_s, 0.0))))),
        }
        # Anchor the closed form above on numpy eigenvalues and numpy.linalg.det
        # for a seeded subsample.
        pick = _rng(seed, 4).choice(count, size=min(count, 4096), replace=False)
        s = ph.standard_form_matrices(np.stack([a[pick], b[pick], cp[pick], cm[pick]], axis=1))
        self.anchor_problems = []
        if not np.all(checks.en_close(self.sampled["en"][pick], ph.log_negativity(s))):
            self.anchor_problems.append("sampled E_N closed form disagrees with eigenvalues")
        if not np.all(checks.close(self.sampled["mu"][pick], ph.purities(s)[2], checks.MU_RTOL)):
            self.anchor_problems.append("sampled purity closed form disagrees with det")
        self.kinds = ["valid"]
        self.items_per_op = count

    def _audit(self):
        g, oracle = self.env.gce, self.env.modules["oracle"]
        entangle = self.env.modules["entangle"]
        m1, m2, mu = self.sampled["mu1"], self.sampled["mu2"], self.sampled["mu"]
        validate = oracle.validate_bounds(self.cfg)
        d_lo, d_hi = g.delta_bounds(m1, m2, mu)
        return validate, {
            "delta_min": d_lo, "delta_max": d_hi,
            "en_max": g.en_max(m1, m2, mu), "en_min": g.en_min(m1, m2, mu),
            "region_code": entangle.region_code(m1, m2, mu),
        }

    def ops(self):
        return [(self._audit, ())]

    def check(self, outputs, ok) -> list[str]:
        if not ok[0]:
            return []
        validate, arrays = outputs[0]
        return self.anchor_problems + checks.check_audit(validate, self.count, self.sampled, arrays)

    setup_code = ("import numpy as np; from gce import oracle, entangle; "
                  "cfg = gce.SampleConfig(seed=1, count=1000); "
                  "oracle.validate_bounds(cfg); "
                  "m = (np.array([0.5, 0.3]), np.array([0.5, 0.4]), np.array([0.6, 0.2])); "
                  "gce.delta_bounds(*m); gce.en_max(*m); gce.en_min(*m); entangle.region_code(*m)")

    def cli_argv(self, k):
        # As `gce validate --count 100000`: default seed, both checks.
        return ["validate", "--count", str(CLI_AUDIT_COUNT)]

    def check_cli(self, k, stdout):
        rep = json.loads(stdout)
        problems = []
        for name in ("bounds", "closed_forms"):
            if rep.get(name, {}).get("total_violations") != 0 or rep[name]["count"] != CLI_AUDIT_COUNT:
                problems.append(f"validate: {name} report {rep.get(name)!r:.200}")
        return problems

    layers = (
        ("oracle.sample_standard_forms_ms", "oracle.sample_standard_forms", "op_ms", "ms"),
        ("oracle.sample_standard_forms_calls_per_op", "oracle.sample_standard_forms", "calls", "count"),
        ("oracle.validate_bounds_self_ms", "oracle.validate_bounds", "self_ms", "ms"),
        ("param.purity_arrays_ns_per_item", "param.purity_arrays", "ns_per_item", "ns"),
        ("estimator.en_max_ns_per_item", "estimator.en_max", "ns_per_item", "ns"),
        ("estimator.en_min_ns_per_item", "estimator.en_min", "ns_per_item", "ns"),
        ("param.delta_bounds_ns_per_item", "param.delta_bounds", "ns_per_item", "ns"),
        ("entangle.region_code_ns_per_item", "entangle.region_code", "ns_per_item", "ns"),
    )
    trace_rounds = 4

    def extra_layers(self, outputs):
        """oracle.acceptance_rate: accepted over trials, from the audit report."""
        return {"oracle.acceptance_rate": (outputs[0][0]["acceptance_rate"], "ratio")}


WORKLOADS = {cls.name: cls for cls in (PointQueries, GridSweep, StateAnalysis, BulkAudit)}
