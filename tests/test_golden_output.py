"""CLI and kernel output pinned byte for byte against committed files in tests/data.

The files hold the `gce sweep`, `classify --json` and `bounds --json` output
for the fixed inputs below, and the `gce analyze` output (text, `--json` and
`--log-base 2`) for each covariance matrix stored in tests/data/analyze.
Those matrices are fixed inputs, not regenerated: twelve lie outside
standard form, two are near-pure, one is pure, and four carry correlations
of 1e-12 or 1e-8, far below the entries that the float standard form
normalises. The `--json` blocks print the standard form with `repr`, so
they pin its last bits; tests/test_core.py holds it to a 50-digit reference.

kernels.txt holds, as `float.hex`, every bit of the array kernels on 1000
seeded triples (see `_kernel_triples`): the five `estimate_arrays` columns,
the public `en_min`, `en_max`, `region_code`, `relative_error` and both
thresholds, the correlations of the `gmems` and `glems` kernels and of
`gmemms` at the triple's marginals, and `delta_bounds`. The scalar API runs
the same kernels, so `test_scalar_api_matches_kernels_file` holds it to the
same bits; this file is what catches an error they share.

A refactor that keeps every formula must keep these bytes; a change that
alters a printed digit must say why and regenerate the output files, from
the repository root, with

    PYTHONPATH=src python -m tests.test_golden_output
"""

import contextlib
import io
import pathlib

import numpy as np
import pytest

from gce.cli import main
from gce.core import default_tolerance
from gce.entangle import (
    RegionLabel,
    coexistence_threshold,
    region_code,
    separable_threshold,
)
from gce.estimator import en_max, en_min, estimate, estimate_arrays, relative_error
from gce.extremal import _glems_arrays, _gmems_arrays, glems, gmemms, gmems
from gce.param import delta_bounds

DATA = pathlib.Path(__file__).parent / "data"

SWEEP_ARGS = ["sweep", "--mu-i", "0.01", "1", "0.033", "--mu", "0.0001", "1", "0.033"]

# The threshold collars, both strip edges, near-pure and 1e-6 marginals.
TRIPLES = [
    (0.5, 0.5, 0.6),
    (0.3, 0.8, 0.28),
    # on the separable threshold, and inside its tolerance collar
    (0.5, 0.5, 0.3333333333333333),
    (0.5, 0.5, 0.3333333338),
    # inside the coexistence collar, and just above it
    (0.5, 0.5, 0.3779644735092272),
    (0.3, 0.8, 0.2926829288292683),
    # lower strip edge mu = mu1 mu2
    (0.7, 0.4, 0.28),
    # upper strip edge; the second has en_min > en_max before the clamp
    (0.9, 0.2, 0.20454545454545456),
    (0.7102170416433428, 0.003691267149221984, 0.003696834996280335),
    (0.999999999999, 0.999999, 0.999999),
    (0.999999999999, 0.999999999999, 1.0),
    (0.999, 0.999, 1.0),
    (1e-6, 1e-6, 1e-6),
    (1e-6, 3e-6, 3e-12),
]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def _points_text():
    blocks = []
    for command in ("classify", "bounds"):
        for mu1, mu2, mu in TRIPLES:
            argv = [command, "--mu1", repr(mu1), "--mu2", repr(mu2),
                    "--mu", repr(mu), "--json"]
            blocks.append("$ gce " + " ".join(argv) + "\n" + _run(argv))
    return "".join(blocks)


def _analyze_text():
    blocks = []
    for path in sorted((DATA / "analyze").glob("*.json")):
        for extra in ([], ["--json"], ["--log-base", "2"]):
            argv = ["analyze", str(path), *extra]
            shown = ["analyze", f"analyze/{path.name}", *extra]
            blocks.append("$ gce " + " ".join(shown) + "\n" + _run(argv))
    return "".join(blocks)


def _kernel_triples():
    """1000 seeded valid triples over the strata where the kernels branch.

    Marginals log-uniform down to 1e-6, or near-pure at 1 - 10^U(-12, -1),
    half of them symmetric; in 250-triple strata, mu uniform in its strip,
    on a threshold collar at 0, +-0.5, +-1 or +-2 tolerances, on the upper
    strip edge, and uniform again with every third on the lower edge. The thresholds and
    edges are written out here, so the inputs do not depend on the code
    under test.
    """
    rng = np.random.default_rng(2003)
    n = 1000
    log_marginals = 10.0 ** rng.uniform(-6.0, 0.0, (2, n))
    near_pure = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0, (2, n))
    mu1, mu2 = np.where(np.arange(n) % 5 == 1, near_pure, log_marginals)
    mu2 = np.where(np.arange(n) % 2 == 0, mu1, mu2)
    lower = mu1 * mu2
    upper = lower / (lower + np.abs(mu1 - mu2))
    mu = lower + rng.uniform(0.0, 1.0, n) * (upper - lower)
    sep = lower / (mu1 + mu2 - lower)
    coex = lower / np.sqrt(mu1 * mu1 + mu2 * mu2 - lower * lower)
    steps = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * default_tolerance()
    collar = np.where(np.arange(n) % 2 == 0, sep, coex) + steps[np.arange(n) % 7]
    stratum = np.arange(n) // 250
    mu = np.where(stratum == 1, np.clip(collar, lower, upper), mu)
    mu = np.where(stratum == 2, upper, mu)
    mu = np.where((stratum == 3) & (np.arange(n) % 3 == 0), lower, mu)
    return mu1, mu2, mu


def _kernels_text():
    mu1, mu2, mu = _kernel_triples()
    region, lo, hi, avg, rel = estimate_arrays(mu1, mu2, mu, default_tolerance())
    pub_hi, pub_lo = en_max(mu1, mu2, mu), en_min(mu1, mu2, mu)
    most, least = _gmems_arrays(mu1, mu2, mu), _glems_arrays(mu1, mu2, mu)
    edge = [gmemms(x, y) for x, y in zip(mu1.tolist(), mu2.tolist())]
    delta_min, delta_max = delta_bounds(mu1, mu2, mu)
    columns = {
        "mu1": mu1, "mu2": mu2, "mu": mu,
        "region": region, "en_min": lo, "en_max": hi, "en_avg": avg, "rel_err": rel,
        "pub_en_min": pub_lo, "pub_en_max": pub_hi,
        "pub_region": region_code(mu1, mu2, mu),
        "pub_rel_err": relative_error(pub_hi, pub_lo),
        "separable": separable_threshold(mu1, mu2),
        "coexistence": coexistence_threshold(mu1, mu2),
        "gmems_c_plus": most[2], "gmems_c_minus": most[3],
        "glems_c_plus": least[2], "glems_c_minus": least[3],
        "gmemms_c_plus": np.array([sf.c_plus for sf in edge]),
        "gmemms_c_minus": np.array([sf.c_minus for sf in edge]),
        "delta_min": delta_min, "delta_max": delta_max,
    }
    rows = [" ".join(columns)]
    for i in range(len(mu)):
        rows.append(" ".join(
            str(int(v[i])) if v.dtype.kind == "i" else float(v[i]).hex()
            for v in columns.values()
        ))
    return "\n".join(rows) + "\n"


OUTPUTS = {
    "sweep_e.csv": lambda: _run(SWEEP_ARGS),
    "sweep_2.csv": lambda: _run(SWEEP_ARGS + ["--log-base", "2"]),
    "points.txt": _points_text,
    "analyze.txt": _analyze_text,
    "kernels.txt": _kernels_text,
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_matches_committed_file(name):
    expected = (DATA / name).read_text(encoding="utf-8")
    assert OUTPUTS[name]() == expected


def test_scalar_api_matches_kernels_file():
    """Scalar calls give Python floats with the bits of the kernels file."""
    lines = (DATA / "kernels.txt").read_text(encoding="utf-8").splitlines()
    names = lines[0].split()
    for line in lines[1:]:
        row = dict(zip(names, line.split()))
        triple = tuple(float.fromhex(row[k]) for k in ("mu1", "mu2", "mu"))
        est = estimate(*triple)
        assert est.region is list(RegionLabel)[int(row["region"])], triple
        got = {"en_min": est.en_min, "en_max": est.en_max, "en_avg": est.en_avg,
               "rel_err": est.rel_err}
        got["delta_min"], got["delta_max"] = delta_bounds(*triple)
        for name, construct in (("gmems", gmems), ("glems", glems)):
            sf = construct(*triple)
            got[f"{name}_c_plus"], got[f"{name}_c_minus"] = sf.c_plus, sf.c_minus
        for name, value in got.items():
            assert type(value) is float and value.hex() == row[name], (triple, name)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, render in OUTPUTS.items():
        (DATA / name).write_text(render(), encoding="utf-8", newline="\n")
