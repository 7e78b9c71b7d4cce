"""Golden outputs of pinned ``qz`` invocations: every subcommand, both families, JSON and CSV.

Each case's stdout must match ``tests/golden/<case>`` byte for byte and its
exit code must match ``manifest.json``. The goldens were written with the
numpy version recorded in the manifest; under another version (another
LAPACK build) the outputs are parsed and compared exactly except for
floats, which must agree to GOLDEN_REL_TOL relative.

Regenerate after an intended output change with
``PYTHONPATH=src python tests/test_golden.py --write`` and review the diff.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from qzeros.cli import main
from qzeros.sweeps import SplitMix64, draw_racah_params

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN_DIR / "manifest.json"
#: Relative float agreement required when numpy differs from the recorded version.
GOLDEN_REL_TOL = 1e-12

# the README parameter sets
AW = ["--family", "aw", "-a", "2", "-b", "3", "-c", "4", "-d", "5", "-q", "0.5"]
RACAH = ["--family", "racah", "--alpha", "3", "--beta", "2", "--gamma", "0.25", "--delta", "5"]
RACAH += ["-q", "0.5"]


def _racah_seed0(command: str, q: str, n: int) -> list:
    """``qz command`` on the seed-0 q-Racah draw of the (q, N) cell."""
    p = draw_racah_params(SplitMix64(0), float(q), n)
    argv = [command, "--family", "racah"]
    for flag, value in (("--alpha", p.alpha), ("--beta", p.beta), ("--gamma", p.gamma),
                        ("--delta", p.delta)):
        argv += [flag, repr(complex(value))]
    return argv + ["-q", q, "-N", str(n)]


def _cases() -> dict:
    base = {
        "zeros-aw": ["zeros", *AW, "-N", "3"],
        "zeros-racah": ["zeros", *RACAH, "-N", "2"],
        "matrix-aw": ["matrix", *AW, "-N", "3"],
        "matrix-racah": ["matrix", *RACAH, "-N", "2"],
        "spectrum-aw": ["spectrum", *AW, "-N", "3"],
        "spectrum-racah": ["spectrum", *RACAH, "-N", "2"],
        "verify-aw-n1": ["verify", *AW, "-N", "1"],
        "verify-aw-n3": ["verify", *AW, "-N", "3"],
        "verify-racah-n1": ["verify", *RACAH, "-N", "1"],
        "verify-racah-n2": ["verify", *RACAH, "-N", "2"],
        "flow-aw": ["flow", *AW, "-N", "3", "--t-end", "0.05"],
        "flow-racah": ["flow", *RACAH, "-N", "2", "--t-end", "0.05"],
        "sweep-aw": ["sweep", "--family", "aw", "-q", "0.6", "-N", "5", "--count", "20"],
        "sweep-racah": ["sweep", "--family", "racah", "-q", "0.6", "-N", "5", "--count", "20"],
    }
    cases = {}
    for name, argv in base.items():
        cases[name + ".json"] = argv
        cases[name + ".csv"] = argv + ["--format", "csv"]
    cases["verify-aw-n3-fails.json"] = ["verify", *AW, "-N", "3", "--tol", "spectrum_match=1e-300"]
    # the seed-0 draw where z_n^(-) meets another zero to 2e-13, a removable singularity of L
    cases["verify-racah-seed0-q0.6-n24.json"] = _racah_seed0("verify", "0.6", 24)
    # eigenvalues in the q^-N cluster near-tie and tie in |computed - predicted|: the pairing
    # pins the assignment's tie rule (the last free column scanned, scanning from the last)
    cases["spectrum-racah-seed0-q0.3-n48.json"] = _racah_seed0("spectrum", "0.3", 48)
    # the README sets at a q that is not rational: the reports skip the diophantine check
    complex_q = ["-q", "0.5+0.2i"]
    cases["verify-aw-complex-q.csv"] = ["verify", *AW[:-2], *complex_q, "-N", "3", "--format", "csv"]
    cases["verify-racah-complex-q.json"] = ["verify", *RACAH[:-2], *complex_q, "-N", "2"]
    return cases


CASES = _cases()


def run_case(argv: list) -> tuple[int, str]:
    """(exit code, stdout) of one in-process ``qz`` invocation; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= GOLDEN_REL_TOL * max(abs(a), abs(b))


def _same_json(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return _close(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_json(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def _float_or_none(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _same_csv(a: str, b: str) -> bool:
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return False
    for ra, rb in zip(rows_a, rows_b):
        for x, y in zip(ra, rb):
            fx, fy = _float_or_none(x), _float_or_none(y)
            if x != y and (fx is None or fy is None or not _close(fx, fy)):
                return False
    return True


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    code, out = run_case(CASES[name])
    assert code == manifest["exit_codes"][name]
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    if manifest["numpy"] == np.__version__:
        assert out == expected
    elif name.endswith(".json") and expected:
        assert _same_json(json.loads(out), json.loads(expected))
    else:
        assert _same_csv(out, expected)


def test_every_case_has_a_golden():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(manifest["exit_codes"]) == sorted(CASES)
    on_disk = {p.name for p in GOLDEN_DIR.iterdir()} - {MANIFEST.name}
    assert on_disk == set(CASES)


def _write() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_case(argv)
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8", newline="")
    manifest = {"numpy": np.__version__, "exit_codes": codes}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
