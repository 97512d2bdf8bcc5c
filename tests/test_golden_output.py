"""CLI output pinned byte for byte against committed files in tests/data.

The files hold the `gce sweep`, `classify --json` and `bounds --json` output
for the fixed inputs below, and the `gce analyze` output (text, `--json` and
`--log-base 2`) for each covariance matrix stored in tests/data/analyze.
Those matrices are fixed inputs, not regenerated: twelve lie outside
standard form, two are near-pure, one is pure, and four carry correlations
of 1e-12 or 1e-8, where the exact standard-form arithmetic matters.

A refactor that keeps every formula must keep these bytes; a change that
alters a printed digit must say why and regenerate the output files, from
the repository root, with

    PYTHONPATH=src python -m tests.test_golden_output
"""

import contextlib
import io
import pathlib

import pytest

from gce.cli import main

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


OUTPUTS = {
    "sweep_e.csv": lambda: _run(SWEEP_ARGS),
    "sweep_2.csv": lambda: _run(SWEEP_ARGS + ["--log-base", "2"]),
    "points.txt": _points_text,
    "analyze.txt": _analyze_text,
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_matches_committed_file(name):
    expected = (DATA / name).read_text(encoding="utf-8")
    assert OUTPUTS[name]() == expected


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, render in OUTPUTS.items():
        (DATA / name).write_text(render(), encoding="utf-8", newline="\n")
