import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from qzeros import zeroflow
from qzeros.cli import main, parse_complex
from qzeros.polyform import AWParams
from qzeros.report import (
    DEFAULT_TOLERANCES,
    VerificationReport,
    render_report_csv,
    render_report_json,
    resolve_tolerances,
)
from qzeros.sweeps import SplitMix64, draw_aw_params, draw_racah_params
from qzeros.zeroflow import FAMILIES

AW_ARGS = ["--family", "aw", "-a", "2", "-b", "3", "-c", "4", "-d", "5", "-q", "0.5", "-N", "1"]
RACAH_ARGS = [
    "--family",
    "racah",
    "--alpha",
    "3",
    "--beta",
    "2",
    "--gamma",
    "4",
    "--delta",
    "5",
    "-q",
    "0.5",
    "-N",
    "1",
]


class TestComplexParsing:
    def test_plain_real(self):
        assert parse_complex("2") == 2.0

    def test_i_suffix(self):
        assert parse_complex("0.5+0.2i") == 0.5 + 0.2j

    def test_j_suffix(self):
        assert parse_complex("0.5-0.2j") == 0.5 - 0.2j

    def test_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("nope")


class TestTolerances:
    def test_defaults(self):
        tols = resolve_tolerances()
        assert tols == DEFAULT_TOLERANCES

    def test_override(self):
        tols = resolve_tolerances({"spectrum_match": 1e-3})
        assert tols["spectrum_match"] == 1e-3
        assert tols["identity_residual"] == DEFAULT_TOLERANCES["identity_residual"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_tolerances({"bogus": 1.0})

    @pytest.mark.parametrize("value", [0.0, -1e-6, float("inf"), float("nan")])
    def test_nonpositive_or_nonfinite_rejected(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            resolve_tolerances({"spectrum_match": value})


class TestReportRendering:
    def make_report(self, checks):
        p = AWParams(a=2, b=3, c=4, d=5, q=0.5, N=1)
        report = VerificationReport(family="aw", params=p, seed=7)
        for name, residual, tol in checks:
            report.add(name, residual, tol, ["prop2.2"])
        return report

    def test_empty_checks_pass(self):
        report = self.make_report([])
        payload = json.loads(render_report_json(report))
        assert payload["pass"] is True
        assert payload["checks"] == []

    def test_one_failing_check_fails_report(self):
        report = self.make_report([("prop2.2-spectrum", 1.0, 1e-6)])
        payload = json.loads(render_report_json(report))
        assert payload["pass"] is False

    def test_json_schema_fields(self):
        report = self.make_report([("prop2.2-spectrum", 1e-9, 1e-6)])
        payload = json.loads(render_report_json(report))
        assert list(payload.keys()) == [
            "family",
            "params",
            "N",
            "checks",
            "pass",
            "seed",
            "elapsed_ms",
        ]
        assert list(payload["checks"][0].keys()) == [
            "name",
            "residual",
            "tolerance",
            "pass",
            "refs",
        ]
        assert payload["params"]["a"] == {"re": 2.0, "im": 0.0}
        assert payload["N"] == 1
        assert payload["seed"] == 7
        assert payload["elapsed_ms"] == 0

    def test_csv_one_row_per_check(self):
        report = self.make_report([("a", 1e-9, 1e-6), ("b", 2e-9, 1e-6)])
        rows = list(csv.reader(io.StringIO(render_report_csv(report))))
        assert rows[0] == ["name", "residual", "tolerance", "pass", "refs"]
        assert len(rows) == 3
        assert rows[1][0] == "a"


class TestCliCommands:
    def test_verify_anchor_passes(self, capsys):
        code = main(["verify", *AW_ARGS])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        names = [c["name"] for c in payload["checks"]]
        assert "matrix-M-entry" in names
        assert "prop2.1-residuals" in names
        assert "flow-jacobian" in names

    def test_verify_racah_anchor_passes(self, capsys):
        code = main(["verify", *RACAH_ARGS])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pass"] is True
        assert any(c["name"] == "matrix-L-entry" for c in payload["checks"])

    def test_zeros_dump(self, capsys):
        code = main(["zeros", *AW_ARGS])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["zbar"][0]["re"] == pytest.approx(10 / 17)
        assert payload["xbar"][0]["re"] == pytest.approx(10 / 17)
        assert payload["min_separation"] is None  # single zero

    def test_matrix_dump(self, capsys):
        code = main(["matrix", *AW_ARGS])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["label"] == "M"
        assert payload["entries"][0][0]["re"] == pytest.approx(-119.0)

    def test_spectrum_match(self, capsys):
        code = main(["spectrum", *AW_ARGS])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pass"] is True
        assert payload["predicted"][0]["re"] == pytest.approx(-119.0)

    def test_degree_zero_usage_error(self):
        args = [a if a != "1" else "0" for a in AW_ARGS]
        with pytest.raises(SystemExit) as info:
            main(["zeros", *args])
        assert info.value.code == 4

    def test_unknown_tolerance_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", *AW_ARGS, "--tol", "bogus=1"])
        assert info.value.code == 4

    def test_inadmissible_parameters_usage_error(self):
        args = [a if a != "1" else "2" for a in RACAH_ARGS]  # gamma*q hits (gamma*q;q)_2 = 0
        with pytest.raises(SystemExit) as info:
            main(["verify", *args])
        assert info.value.code == 4

    def test_check_failure_exit_code(self, capsys):
        code = main(["verify", *AW_ARGS, "--tol", "spectrum_match=1e-300"])
        capsys.readouterr()
        assert code == 2

    def test_flow_csv_export(self, capsys):
        code = main(["flow", *AW_ARGS, "--t-end", "0.01", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["step", "t", "re_0", "im_0"]
        assert len(rows) > 2
        assert float(rows[-1][1]) == pytest.approx(0.01)

    def test_sweep_passes(self, capsys):
        code = main(
            ["sweep", "--family", "racah", "-q", "0.6", "-N", "3", "--count", "2"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pass"] is True
        assert len(payload["checks"]) == 8  # four checks per drawn set

    def test_racah_spectrum_seed0_q03_n16(self, capsys):
        # the monomial/companion route returned wrong zeros here (max_rel_gap 0.9999)
        p = draw_racah_params(SplitMix64(0), 0.3, 16)
        params = []
        for flag, value in (("--alpha", p.alpha), ("--beta", p.beta), ("--gamma", p.gamma),
                            ("--delta", p.delta)):
            params += [flag, repr(complex(value))]
        code = main(["spectrum", "--family", "racah", *params, "-q", "0.3", "-N", "16"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["max_rel_gap"] <= 1e-6

    def test_byte_determinism(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["verify", *AW_ARGS, "--output", str(out1)]) == 0
        assert main(["verify", *AW_ARGS, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_file_written(self, tmp_path, capsys):
        out = tmp_path / "zeros.csv"
        code = main(["zeros", *AW_ARGS, "--format", "csv", "--output", str(out)])
        assert code == 0
        assert out.exists()
        assert capsys.readouterr().out == ""


class TestCliErrorMapping:
    def test_singular_configuration_exit_code(self, monkeypatch, capsys):
        from qzeros import cli
        from qzeros.errors import SingularConfiguration

        def boom(params):
            raise SingularConfiguration("z^2-1", 0.0)

        monkeypatch.setattr(cli, "compute_zero_set", boom)
        code = main(["zeros", *AW_ARGS])
        err = capsys.readouterr().err
        assert code == 3
        assert "z^2-1" in err

    def test_memory_error_exit_code(self, monkeypatch, capsys):
        # a last resort: an allocation beyond memory exits 3, not 1 with a traceback
        from qzeros import cli

        def boom(args, params, overrides):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "zeros", boom)
        assert main(["zeros", *AW_ARGS]) == 3
        assert "out of memory" in capsys.readouterr().err

    def test_missing_family_parameters_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--family", "aw", "-a", "2", "-q", "0.5", "-N", "1"])
        assert info.value.code == 4


AW_N3 = ["--family", "aw", "-a", "2", "-b", "3", "-c", "4", "-d", "5", "-q", "0.5", "-N", "3"]


def _aw_verify(a="2", q="0.5", n="3"):
    return ["verify", "--family", "aw", "-a", a, "-b", "3", "-c", "4", "-d", "5", "-q", q, "-N", n]


#: Fails only cor2.2.2-isospectral (4.7e-5 against 1e-6), in either format.
AW_LARGE_A_CSV = [*_aw_verify(a="1e10"), "--format", "csv"]


def _sweep(q="0.5", n="3", count="1"):
    return ["sweep", "--family", "aw", "-q", q, "-N", n, "--count", count]


class TestExitCodeTable:
    # the exit code of each input at the edge of what qz admits; none may raise out of main
    TABLE = {
        "flow t-end 0": (["flow", *AW_N3, "--t-end", "0"], 4),
        "flow t-end -1": (["flow", *AW_N3, "--t-end", "-1"], 4),
        "flow t-end nan": (["flow", *AW_N3, "--t-end", "nan"], 4),
        "flow t-end inf": (["flow", *AW_N3, "--t-end", "inf"], 4),
        "flow dt-max 0": (["flow", *AW_N3, "--dt-max", "0"], 4),
        "flow dt-max -0.1": (["flow", *AW_N3, "--dt-max", "-0.1"], 4),
        # a step cap below the integrator's floor 1e-14 * max(1, t_end), given or t-end/50
        "flow dt-max 1e-16": (["flow", *AW_N3, "--dt-max", "1e-16"], 4),
        "flow t-end 1e-16": (["flow", *AW_N3, "--t-end", "1e-16"], 4),
        # t-end/dt-max steps above integrate_flow's budget: rejected before any step
        "flow t-end/dt-max above the step budget": (
            ["flow", *AW_N3, "--t-end", "0.05", "--dt-max", "1e-14", "--format", "csv"],
            4,
        ),
        # more trials than the budget (cut to 10 below): stopped mid-flow
        "flow over its step budget mid-flow": (["flow", *AW_N3, "--dt-max", "0.05"], 3),
        "flow epsilon 0": (["flow", *AW_N3, "--epsilon", "0"], 4),
        "flow epsilon beyond the zero separation": (["flow", *AW_N3, "--epsilon", "1"], 4),
        "sweep count 0": (_sweep(count="0"), 4),
        "sweep count -3": (_sweep(count="-3"), 4),
        # q and N are checked before any draw, as for every other subcommand
        "sweep q^-N overflows": (_sweep(q="0.3", n="600"), 4),
        "sweep q 1": (_sweep(q="1"), 4),
        "sweep q 0": (_sweep(q="0"), 4),
        "sweep q -1 root of unity": (_sweep(q="-1"), 4),
        "sweep q 0.3 N 24": (_sweep(q="0.3", n="24"), 0),
        # a tolerance is finite and positive; no setting turns the failing run into a pass
        "failing run": (AW_LARGE_A_CSV, 2),
        "failing run, tol inf": ([*AW_LARGE_A_CSV, "--tol", "spectrum_match=inf"], 4),
        "failing run, tol nan": ([*_aw_verify(a="1e10"), "--tol", "spectrum_match=nan"], 4),
        "failing run, tol inf json": ([*_aw_verify(a="1e10"), "--tol", "spectrum_match=inf"], 4),
        "tol 0": ([*_aw_verify(), "--tol", "fd_jacobian=0"], 4),
        "tol -1e-6": ([*_aw_verify(), "--tol", "identity_residual=-1e-6"], 4),
        "failing run, QZ_TOL_SCALE inf": (AW_LARGE_A_CSV, 2),
        "a nan": (_aw_verify(a="nan"), 4),
        "q nan": (_aw_verify(q="nan"), 4),
        "a 1e400 overflows": (_aw_verify(a="1e400"), 4),
        "q inf": (_aw_verify(q="inf"), 4),
        "q with a nan part": (_aw_verify(q="0.5+nani"), 4),
        "q^-N overflows": (_aw_verify(q="0.3", n="600"), 4),
        # a degree above polyform.MAX_DEGREE: rejected before the zeros are sought
        "zeros N 40000 above the maximum degree": (
            ["zeros", "--family", "aw", "-a", "0.5", "-b", "0.6", "-c", "0.7", "-d", "0.8"]
            + ["-q", "0.9999", "-N", "40000"],
            4,
        ),
        "q^(N-1) overflows": (_aw_verify(q="1e200"), 4),
        "q^N underflows": (_aw_verify(q="1e-300"), 4),
        # a tiny q is no rational 0; at 1e-100 mu_n^2 leaves the double range, and the
        # trace check forms its powers at a scale where they stay in it
        "q 1e-13": (_aw_verify(q="1e-13"), 0),
        "q 1e-30": (_aw_verify(q="1e-30"), 0),
        "q 1e-13i": (_aw_verify(q="1e-13i"), 0),
        "q 1e-100": (_aw_verify(q="1e-100"), 0),
    }

    #: environment variables set for a case
    ENV = {"failing run, QZ_TOL_SCALE inf": {"QZ_TOL_SCALE": "inf"}}
    #: zeroflow constants set for a case
    CONSTANTS = {"flow over its step budget mid-flow": {"MAX_FLOW_STEPS": 10}}

    @pytest.mark.parametrize("case", TABLE)
    def test_exit_code(self, case, capsys, monkeypatch):
        argv, expected = self.TABLE[case]
        for name, value in self.ENV.get(case, {}).items():
            monkeypatch.setenv(name, value)
        for name, value in self.CONSTANTS.get(case, {}).items():
            monkeypatch.setattr(zeroflow, name, value)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code == expected


def _aw_zero_on_point_guard_argv():
    # d solves A_0 = a + 1/a - 2 x_1 for the N = 1 zero x_1 = (q^(1/2) + q^(-1/2))/2, whose
    # image z = q^(-1/2) fails the genuine point guard q*z^2-1: exit 3
    a, b, c, q = 2.0, 3.0, 4.0, 0.5
    a0 = a + 1 / a - (q**0.5 + q**-0.5)
    d = (a0 * a - (1 - a * b) * (1 - a * c)) / (a0 * a * a * b * c - (1 - a * b) * (1 - a * c) * a)
    return ["matrix", "--family", "aw", "-a", "2", "-b", "3", "-c", "4", "-d", repr(d),
            "-q", "0.5", "-N", "1"]


class TestParserReuse:
    # (argv, exit code): the parser is built once per process and reused
    SEQUENCE = [
        (["zeros", *AW_ARGS], 0),
        (["spectrum", *RACAH_ARGS, "--format", "csv"], 0),
        (["spectrum", *AW_ARGS, "--tol", "spectrum_match=1e-300"], 2),
        (_aw_zero_on_point_guard_argv(), 3),
        (["matrix", "--family", "racah", "-q", "0.5", "-N", "1", "--alpha", "3"], 4),
        (["verify", *AW_ARGS, "--tol", "bogus=1"], 4),
    ]

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        stderr = captured.err if code in (3, 4) else ""  # the others report their elapsed time
        return code, captured.out, stderr

    def test_reused_parser_matches_fresh(self, capsys):
        from qzeros import cli

        reused = [self.run(argv, capsys) for argv, _ in self.SEQUENCE]
        fresh = []
        for argv, _ in self.SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        assert reused == fresh
        assert [r[0] for r in reused] == [code for _, code in self.SEQUENCE]
        assert "q*z^2-1" in reused[3][2]


def test_flow_zeros_matrix_never_import_scipy():
    import os
    import subprocess
    import sys

    import qzeros

    script = (
        "import sys\n"
        "from qzeros.cli import main\n"
        f"args = {AW_ARGS!r}\n"
        "codes = [main([cmd, *args]) for cmd in ('flow', 'zeros', 'matrix')]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qzeros.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[0, 0, 0] []"


class TestSweepMatchesVerify:
    @pytest.mark.parametrize("family", ["aw", "racah"])
    def test_sweep_rows_are_the_verify_checks(self, family, capsys):
        # each set's four rows must be byte-identical to the same-named rows of
        # `verify` on the same drawn parameters
        from qzeros.cli import run_verify
        from qzeros.report import render_report_csv
        from qzeros.sweeps import draw_aw_params

        count = 4
        code = main(["sweep", "--family", family, "-q", "0.6", "-N", "5", "--count", str(count),
                     "--format", "csv"])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert code == 0 and len(rows) == 4 * count
        draw = draw_aw_params if family == "aw" else draw_racah_params
        stream = SplitMix64(0)
        for i in range(count):
            report = run_verify(draw(stream, parse_complex("0.6"), 5))
            verify_rows = {r[0]: r[1:] for r in csv.reader(io.StringIO(render_report_csv(report)))}
            for row in rows[4 * i : 4 * i + 4]:
                prefix, _, name = row[0].partition(".")
                assert prefix == f"set{i:02d}"
                assert row[1:] == verify_rows[name], name


def test_noisy_isospectral_resolve_takes_a_working_precision_step():
    # the seed-10 Askey-Wilson draw at q = 0.6, N = 24 (a verify-grid cell): a double polish
    # of its scaled parameters ends above NOISY_DOUBLE_STEP, and on those zeros the
    # isospectral gap failed its 1e-6 tolerance
    from qzeros.cli import run_verify

    report = run_verify(draw_aw_params(SplitMix64(10), 0.6, 24))
    check = next(c for c in report.checks if c.name == "cor2.2.2-isospectral")
    assert check.passed


class TestUnrepresentableResidual:
    def test_modulus_overflow_is_inf(self):
        from qzeros.report import rel_residual

        # a residual that cannot be represented must fail its check, whichever modulus overflows
        assert rel_residual(complex(1.5e308, 1.5e308), 1.0) == float("inf")
        assert rel_residual(3.0, complex(1.5e308, 1.5e308)) == float("inf")
        assert rel_residual(3 + 4j, 2.0) == 2.5

    def test_verify_fails_instead_of_raising(self, capsys):
        # mu_n^2 overflows at b = c = 1e100, but the trace check scales M and mu first, so
        # every run in one process passes with the same bytes (a = 1e100 exits 3 on the
        # recurrence cancellation instead)
        argv = ["verify", "--family", "aw", "-a", "2", "-b", "1e100", "-c", "1e100", "-d", "5",
                "-q", "0.5", "-N", "4"]
        codes, outs = [], []
        for fmt in ("csv", "json", "csv"):
            codes.append(main(argv + ["--format", fmt]))
            outs.append(capsys.readouterr().out)
        assert codes == [0, 0, 0]
        assert outs[0] == outs[2]



class TestLogSpaceDeterminant:
    @pytest.mark.parametrize("family", ["aw", "racah"])
    @pytest.mark.parametrize("n", [25, 32, 48])
    def test_seed0_q03_large_n_passes(self, capsys, family, n):
        # det M = q^(-N^2) ... = 0.3^(-625) and beyond leaves the double range from N = 25
        # on; the check compares det and the spectrum's product in log space
        record = FAMILIES[family]
        params = record.draw(SplitMix64(0), 0.3 + 0j, n)
        argv = ["verify", "--family", family, "-q", "0.3", "-N", str(n)]
        for name, flag in record.flags.items():
            argv += [flag, repr(complex(getattr(params, name)))]
        assert main(argv) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks[f"{record.corollary_ref}.3-det"]["residual"] <= 1e-11

    def test_real_typed_parameters(self):
        # the README example: real-typed parameters, real negative eigenvalues, whose
        # real logarithm would be NaN
        from qzeros.cli import run_verify

        report = run_verify(AWParams(a=2, b=3, c=4, d=5, q=0.5, N=3))
        (det,) = [c for c in report.checks if c.name == "cor2.2.3-det"]
        assert det.passed and det.residual <= 1e-13

    def test_singular_matrix_fails(self, monkeypatch):
        from qzeros import cli
        from qzeros.numlin import SpectralMatrix

        def singular(params, zs):
            return SpectralMatrix(np.zeros((3, 3)), np.array([1.0, -2.0, 3.0]), "M")

        monkeypatch.setitem(
            cli.FAMILIES, "aw", dataclasses.replace(FAMILIES["aw"], build_matrix=singular)
        )
        report = cli.run_verify(AWParams(a=2, b=3, c=4, d=5, q=0.5, N=3), sweep=True)
        assert report.checks[-1].name == "cor2.2.3-det"
        assert report.checks[-1].residual == 1.0 and not report.checks[-1].passed

    @pytest.mark.parametrize("s", [-1, 1])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_spectrum_product_is_the_closed_form_exactly(self, n, s):
        from fractions import Fraction

        from qseries_oracle import det_closed_form
        from qzeros.report import spectrum_closed_form

        q, product = Fraction(2, 3), Fraction(-5, 7)
        mu = spectrum_closed_form(q, product, s, n)
        assert math.prod(mu) == det_closed_form(q, product, s, n)


class TestRecurrenceCancellation:
    @pytest.mark.parametrize("a", ["1e40", "1e100", "1e300", "1e-300"])
    def test_extreme_a_exits_3_naming_the_cancellation(self, capsys, a):
        # b_n = (a + 1/a - A_n - C_n)/2 sums terms of 1e40 and more into a b_n of order 1
        argv = ["verify", "--family", "aw", "-a", a, "-b", "3", "-c", "4", "-d", "5",
                "-q", "0.5", "-N", "3"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "b_n cancels catastrophically" in captured.err

    @pytest.mark.parametrize("a", ["1e10", "1e20"])
    def test_large_a_within_the_working_precision_is_a_failed_check(self, capsys, a):
        argv = ["verify", "--family", "aw", "-a", a, "-b", "3", "-c", "4", "-d", "5",
                "-q", "0.5", "-N", "3"]
        assert main(argv) == 2
        assert "cancels" not in capsys.readouterr().err


def test_public_names():
    import qzeros

    assert sorted(qzeros.__all__) == [
        "AWParams",
        "BranchDegenerate",
        "ComplexScalar",
        "DEFAULT_TOLERANCES",
        "DegenerateConfiguration",
        "DegenerateDenominator",
        "LengthMismatch",
        "NoConvergence",
        "QZerosError",
        "RacahParams",
        "Recurrence",
        "SingularConfiguration",
        "SingularTrajectory",
        "SpectralMatrix",
        "SpectrumMatch",
        "VerificationReport",
        "ZeroArgument",
        "ZeroSet",
        "__version__",
        "aw_velocity",
        "compute_zero_set",
        "eigenvalues",
        "emit_report",
        "fd_jacobian",
        "find_polynomial_zeros",
        "integrate_flow",
        "match_spectra",
        "qpochhammer",
        "racah_velocity",
        "recurrence_coefficients",
        "resolve_tolerances",
        "x_to_z",
        "z_to_x",
    ]
    for name in qzeros.__all__:
        assert getattr(qzeros, name) is not None, name


def test_readme_cli_examples_exit_0(capsys):
    import pathlib
    import shlex

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("qz ")]
    assert len(lines) == 6  # one per subcommand
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
