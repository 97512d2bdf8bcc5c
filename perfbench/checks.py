"""Output checkers for the four workloads.

Each checker takes the program's outputs as plain numbers, strings or parsed
JSON, compares them with computations from ``physics`` or with properties the
method must have, and returns a list of problems (empty when the outputs are
correct). None of them compares against stored program output.
"""

from __future__ import annotations

import json

import numpy as np

import physics as ph

# Agreement of E_N from the program's closed forms with E_N from numpy
# eigenvalues: |got - ref| <= EN_ATOL + EN_RTOL |ref|. Tight enough that a
# 1e-6 relative error in an O(1) bound is caught.
EN_ATOL = 1e-9
EN_RTOL = 1e-8
# Purities and seralians recomputed from a state's determinants.
MU_RTOL = 1e-8
DELTA_RTOL = 1e-9
# A written or constructed state is physical when n_minus >= 1/2 (1 - PHYS_RTOL).
PHYS_RTOL = 1e-9
# Values printed with 12 significant digits.
PRINT_RTOL = 1e-11
# Bulk containment en_min - tol <= E_N <= en_max + tol, the oracle's own slack.
AUDIT_TOL = 1e-9
# The program's default tolerance, reported back by the oracle.
PROGRAM_TOL = 1e-9

SWEEP_HEADER = "mu_i,mu,region,en_min,en_max,en_avg,rel_err"


def _bad(mask, what, problems, where=None):
    """Append one problem naming how many entries fail and the first of them."""
    mask = np.asarray(mask, dtype=bool)
    if mask.any():
        first = int(np.flatnonzero(mask.ravel())[0])
        loc = f" (first at {where[first]})" if where is not None else f" (first at #{first})"
        problems.append(f"{int(mask.sum())} x {what}{loc}")


def close(got, ref, rtol, atol=0.0):
    return np.abs(np.asarray(got) - np.asarray(ref)) <= atol + rtol * np.abs(ref)


def en_close(got, ref):
    return close(got, ref, EN_RTOL, EN_ATOL)


def _check_summary(en_max, en_min, en_avg, rel_err, problems, where, rtol=1e-12):
    """Bounds ordered and non-negative; en_avg and rel_err derived from them
    (to rtol, the precision the values were given with)."""
    _bad(~(en_min <= en_max), "en_min > en_max", problems, where)
    _bad(~(en_min >= 0.0), "negative en_min", problems, where)
    _bad(~close(en_avg, 0.5 * (en_max + en_min), rtol, 1e-300), "en_avg is not the midpoint",
         problems, where)
    total = en_max + en_min
    expect = np.where(total > 0.0, (en_max - en_min) / np.where(total > 0.0, total, 1.0), 0.0)
    _bad(~close(rel_err, expect, 1e-9, 10.0 * rtol), "rel_err != (max - min)/(max + min)",
         problems, where)


def _check_region_bounds(code, en_max, en_min, problems, where):
    """Labels and numbers agree: no entanglement possible below the separable
    threshold, none guaranteed below the coexistence threshold. Codes below
    0 are skipped."""
    _bad((code == 0) & (en_max != 0.0), "separable label with en_max != 0", problems, where)
    _bad((code >= 0) & (code <= 1) & (en_min != 0.0), "non-entangled label with en_min != 0",
         problems, where)
    _bad((code == 2) & ~(en_min > 0.0), "entangled label with en_min == 0", problems, where)


def check_point_queries(inp: dict, out: dict) -> list[str]:
    """Answers to valid triples: estimate + delta_bounds + gmems + glems.

    inp: arrays mu1, mu2, mu and the reference region code of each triple.
    out: region labels, en_max, en_min, en_avg, rel_err, delta_min,
    delta_max, and the (n, 4) standard forms gmems and glems.
    """
    problems: list[str] = []
    m1, m2, mu = inp["mu1"], inp["mu2"], inp["mu"]
    where = [f"({a:.6g}, {b:.6g}, {c:.6g})" for a, b, c in zip(m1, m2, mu)]
    labels = np.asarray(out["region"])
    code = np.array([ph.REGIONS.index(x) if x in ph.REGIONS else -1 for x in labels])
    _bad(code != inp["region"], "region label differs from the paper's thresholds",
         problems, where)

    en_max, en_min = np.asarray(out["en_max"]), np.asarray(out["en_min"])
    _check_summary(en_max, en_min, np.asarray(out["en_avg"]), np.asarray(out["rel_err"]),
                   problems, where)
    _check_region_bounds(code, en_max, en_min, problems, where)

    d_lo, d_hi = ph.delta_range(m1, m2, mu)
    scale = 0.5 / (m1 * m1) + 0.5 / (m2 * m2)
    _bad(~close(out["delta_min"], d_lo, 0.0, DELTA_RTOL * scale), "delta_min off the paper's bound",
         problems, where)
    _bad(~close(out["delta_max"], d_hi, 0.0, DELTA_RTOL * scale), "delta_max off the paper's bound",
         problems, where)

    for family, bound, delta_ref, en in (("gmems", "en_max", d_lo, en_max),
                                         ("glems", "en_min", d_hi, en_min)):
        s = ph.standard_form_matrices(out[family])
        n_minus, _ = ph.symplectic_spectrum(s)
        _bad(~(n_minus >= 0.5 * (1.0 - PHYS_RTOL)), f"{family} state is unphysical",
             problems, where)
        g1, g2, g = ph.purities(s)
        _bad(~(close(g1, m1, MU_RTOL) & close(g2, m2, MU_RTOL) & close(g, mu, MU_RTOL)),
             f"{family} state has other purities than asked for", problems, where)
        _bad(~close(ph.seralian(s), delta_ref, 0.0, DELTA_RTOL * scale),
             f"{family} state is not at the seralian bound", problems, where)
        _bad(~en_close(en, ph.log_negativity(s)), f"{bound} != E_N of the {family} state",
             problems, where)
    return problems


def check_sweep_csv(text: str, mu_i_grid, mu_grid) -> list[str]:
    """CSV of a symmetric sweep over the grid mu_i_grid x mu_grid (row-major)."""
    problems: list[str] = []
    lines = text.split("\n")
    if lines[0] != SWEEP_HEADER:
        return [f"bad header {lines[0]!r}"]
    if lines[-1] != "":
        return ["output does not end with a newline"]
    rows = lines[1:-1]
    expected = len(mu_i_grid) * len(mu_grid)
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    cells = np.array([row.split(",") for row in rows], dtype=object)
    if cells.ndim != 2 or cells.shape[1] != 7:
        return ["rows do not all have 7 fields"]
    mi = cells[:, 0].astype(float)
    mu = cells[:, 1].astype(float)
    label = cells[:, 2].astype(str)
    vals = cells[:, 3:].astype(float)
    want_i = np.repeat(np.asarray(mu_i_grid, dtype=float), len(mu_grid))
    want_mu = np.tile(np.asarray(mu_grid, dtype=float), len(mu_i_grid))
    where = [f"row {k + 2}" for k in range(len(rows))]
    _bad(~(close(mi, want_i, PRINT_RTOL) & close(mu, want_mu, PRINT_RTOL)),
         "grid coordinates out of place", problems, where)

    lower = want_i * want_i
    on_edge = (np.abs(want_mu - lower) <= ph.collar(lower)) | (np.abs(want_mu - 1.0) <= ph.collar(1.0))
    inside = (want_mu >= lower) & (want_mu <= 1.0)
    unphys = label == "unphysical"
    _bad(unphys & inside & ~on_edge, "point inside the strip labelled unphysical", problems, where)
    _bad(~unphys & ~inside & ~on_edge, "point outside the strip not labelled unphysical",
         problems, where)
    _bad(unphys & ~np.all(np.isnan(vals), axis=1), "unphysical row with numbers", problems, where)

    ok = ~unphys & inside & ~on_edge
    m, g = want_i[ok], want_mu[ok]
    w = [where[k] for k in np.flatnonzero(ok)]
    en_min, en_max, en_avg, rel_err = (vals[ok, k] for k in range(4))
    ref, near = ph.region(m, m, g)
    code = np.array([ph.REGIONS.index(x) if x in ph.REGIONS else -1 for x in label[ok]])
    good_label = (code == ref) | (near & (code >= 0) & (np.abs(code - ref) <= 1))
    _bad(~good_label, "region label differs from the paper's thresholds", problems, w)
    d_lo, d_hi = ph.delta_range(m, m, g)
    clear = ~near
    _bad(clear & ~close(en_max, ph.en_at_delta(m, m, g, d_lo), PRINT_RTOL + EN_RTOL, EN_ATOL),
         "en_max off E_N at delta_min", problems, w)
    _bad(clear & ~close(en_min, ph.en_at_delta(m, m, g, d_hi), PRINT_RTOL + EN_RTOL, EN_ATOL),
         "en_min off E_N at delta_max", problems, w)
    _check_summary(en_max, en_min, en_avg, rel_err, problems, w, 2 * PRINT_RTOL)
    _check_region_bounds(np.where(clear, code, -1), en_max, en_min, problems, w)
    return problems


def _written_state(text: str, asked, en_bound: float, family: str, problems: list[str]) -> None:
    """A state written as JSON: physical, at the asked purities, with E_N = its bound."""
    try:
        payload = json.loads(text)
        s = np.asarray(payload["matrix"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{family}: unreadable JSON ({exc})")
        return
    if payload.get("convention") != "vacuum=1/2" or s.shape != (4, 4):
        problems.append(f"{family}: wrong convention tag or shape")
        return
    if not np.array_equal(s, s.T):
        problems.append(f"{family}: matrix is not symmetric")
    n_minus, _ = ph.symplectic_spectrum(s)
    if not n_minus >= 0.5 * (1.0 - PHYS_RTOL):
        problems.append(f"{family}: written state is unphysical (n_minus = {float(n_minus):.9g})")
    got = ph.purities(s)
    if not all(close(x, y, MU_RTOL) for x, y in zip(got, asked)):
        problems.append(f"{family}: written purities {tuple(map(float, got))} != asked {asked}")
    en = float(ph.log_negativity(s))
    if not en_close(en_bound, en):
        problems.append(f"{family}: bound {en_bound!r} != E_N of the written state {en!r}")


def check_analysis(report: dict, state: dict, written: dict[str, str] | None) -> list[str]:
    """One analyzed covariance matrix and the extremal states written for it.

    report: parsed ``analyze --json`` output. state: the matrix, its purities
    from the construction, and the reference E_N and n_tilde_minus from
    eigenvalues. written: JSON text of the gmems and glems states, or None
    when only the report is checked.
    """
    problems: list[str] = []
    s = state["matrix"]
    for key in ("mu1", "mu2", "mu"):
        if not close(report[key], state[key], MU_RTOL):
            problems.append(f"{key} = {report[key]!r}, construction gives {state[key]!r}")
    det_a = np.linalg.det(s[:2, :2])
    det_b = np.linalg.det(s[2:, 2:])
    det_g = np.linalg.det(s[:2, 2:])
    det_s = np.linalg.det(s)
    scale = det_a + det_b + 2.0 * abs(det_g)
    if not close(report["delta"], det_a + det_b + 2.0 * det_g, 0.0, DELTA_RTOL * scale):
        problems.append(f"delta = {report['delta']!r} differs from the state's seralian")
    a, b, cp, cm = (report[k] for k in ("a", "b", "c_plus", "c_minus"))
    if not (close(a * a, det_a, MU_RTOL) and close(b * b, det_b, MU_RTOL)
            and close(cp * cm, det_g, 0.0, MU_RTOL * a * b)
            and close((a * b - cp * cp) * (a * b - cm * cm), det_s, 1e3 * MU_RTOL)
            and cp >= abs(cm)):
        problems.append("standard form does not reproduce the state's invariants")
    if not close(report["n_tilde_minus"], state["n_tilde_minus"], MU_RTOL):
        problems.append(f"n_tilde_minus = {report['n_tilde_minus']!r}, "
                        f"eigenvalues give {state['n_tilde_minus']!r}")
    en = report["log_negativity"]
    if not en_close(en, state["en"]):
        problems.append(f"log_negativity = {en!r}, eigenvalues give {state['en']!r}")
    code, near = ph.region(state["mu1"], state["mu2"], state["mu"])
    label = report["region"]
    if label != ph.REGIONS[int(code)] and not (
            near and label in ph.REGIONS and abs(ph.REGIONS.index(label) - int(code)) == 1):
        problems.append(f"region {label!r}, thresholds give {ph.REGIONS[int(code)]!r}")
    lo, hi = report["en_min"], report["en_max"]
    if not (lo - AUDIT_TOL <= state["en"] <= hi + AUDIT_TOL) or report["containment"] != "ok":
        problems.append(f"E_N = {state['en']!r} outside [{lo!r}, {hi!r}] "
                        f"or containment {report['containment']!r}")
    if not close(report["en_avg"], 0.5 * (lo + hi), 1e-12, 1e-300):
        problems.append("en_avg is not the midpoint")
    if written is None:
        return problems
    asked = (state["mu1"], state["mu2"], state["mu"])
    _written_state(written["gmems"], asked, hi, "gmems", problems)
    _written_state(written["glems"], asked, lo, "glems", problems)
    return problems


def check_audit(validate: dict, count: int, sampled: dict, arrays: dict) -> list[str]:
    """One bulk audit: the oracle's report and the array API on sampled purities.

    sampled: purities, seralian and E_N of the sampled states, computed apart
    from the program. arrays: delta_min, delta_max, en_max, en_min and
    region_code returned by the program for those purities.
    """
    problems: list[str] = []
    if validate.get("count") != count:
        problems.append(f"count {validate.get('count')!r} != {count}")
    if validate.get("total_violations") != 0:
        problems.append(f"{validate.get('total_violations')!r} audit violations")
    if not 0.0 < validate.get("acceptance_rate", -1.0) <= 1.0:
        problems.append(f"acceptance rate {validate.get('acceptance_rate')!r}")
    entries = validate.get("checks", {})
    for key, entry in entries.items():
        if entry.get("violations") != 0:
            problems.append(f"audit check {key} has {entry.get('violations')!r} violations")
        if entry.get("worst_margin") is not None and entry["worst_margin"] < -PROGRAM_TOL:
            problems.append(f"audit check {key} worst margin {entry['worst_margin']!r}")
    for key in ("region_separable", "region_entangled"):
        if not entries.get(key, {}).get("samples"):
            problems.append(f"no audit samples in {key}")

    m1, m2, mu = sampled["mu1"], sampled["mu2"], sampled["mu"]
    delta, en = sampled["delta"], sampled["en"]
    d_lo, d_hi = arrays["delta_min"], arrays["delta_max"]
    slack = AUDIT_TOL * np.maximum(1.0, np.abs(delta))
    _bad(~((d_lo - slack <= delta) & (delta <= d_hi + slack)),
         "sampled seralian outside delta_bounds", problems)
    ref_lo, ref_hi = ph.delta_range(m1, m2, mu)
    _bad(~(close(d_lo, ref_lo, DELTA_RTOL, DELTA_RTOL) & close(d_hi, ref_hi, DELTA_RTOL, DELTA_RTOL)),
         "delta_bounds off the paper's bounds", problems)
    hi, lo = arrays["en_max"], arrays["en_min"]
    _bad(~((lo - AUDIT_TOL <= en) & (en <= hi + AUDIT_TOL)), "E_N outside [en_min, en_max]", problems)
    _bad(~en_close(hi, ph.en_at_delta(m1, m2, mu, ref_lo)), "en_max off E_N at delta_min", problems)
    _bad(~en_close(lo, ph.en_at_delta(m1, m2, mu, ref_hi)), "en_min off E_N at delta_max", problems)
    ref, near = ph.region(m1, m2, mu)
    got = np.asarray(arrays["region_code"])
    _bad(~((got == ref) | (near & (np.abs(got - ref) == 1))),
         "region_code differs from the paper's thresholds", problems)
    _bad((got == 0) & (en > AUDIT_TOL), "entangled state coded separable", problems)
    _bad((got == 2) & ~(en > 0.0), "separable state coded entangled", problems)
    return problems
