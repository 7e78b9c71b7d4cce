import csv
import io
import json

import pytest

from qzeros.cli import main, parse_complex
from qzeros.polyform import AWParams
from qzeros.report import (
    DEFAULT_TOLERANCES,
    VerificationReport,
    render_report_csv,
    render_report_json,
    resolve_tolerances,
    tolerance_scale,
)
from qzeros.sweeps import SplitMix64, draw_racah_params

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
        tols = resolve_tolerances(env={})
        assert tols == DEFAULT_TOLERANCES

    def test_override(self):
        tols = resolve_tolerances({"spectrum_match": 1e-3}, env={})
        assert tols["spectrum_match"] == 1e-3
        assert tols["identity_residual"] == DEFAULT_TOLERANCES["identity_residual"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_tolerances({"bogus": 1.0}, env={})

    def test_env_scale(self):
        tols = resolve_tolerances(env={"QZ_TOL_SCALE": "10"})
        assert tols["fd_jacobian"] == pytest.approx(10 * DEFAULT_TOLERANCES["fd_jacobian"])


    def test_scale_parsing(self):
        assert tolerance_scale({}) == 1.0
        assert tolerance_scale({"QZ_TOL_SCALE": ""}) == 1.0
        assert tolerance_scale({"QZ_TOL_SCALE": "1e-3"}) == 1e-3


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

    def test_check_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setenv("QZ_TOL_SCALE", "1e-20")
        code = main(["verify", *AW_ARGS])
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

    def test_missing_family_parameters_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--family", "aw", "-a", "2", "-q", "0.5", "-N", "1"])
        assert info.value.code == 4


def _racah_seed0_q06_n24_argv():
    # the seed-0 q-Racah draw at q = 0.6, N = 24 trips the z_n^(-)-z_m guard: exit 3
    p = draw_racah_params(SplitMix64(0), 0.6, 24)
    params = []
    for flag, value in (("--alpha", p.alpha), ("--beta", p.beta), ("--gamma", p.gamma),
                        ("--delta", p.delta)):
        params += [flag, repr(complex(value))]
    return ["matrix", "--family", "racah", *params, "-q", "0.6", "-N", "24"]


class TestParserReuse:
    # (argv, exit code): the parser is built once per process and reused
    SEQUENCE = [
        (["zeros", *AW_ARGS], 0),
        (["spectrum", *RACAH_ARGS, "--format", "csv"], 0),
        (["spectrum", *AW_ARGS, "--tol", "spectrum_match=1e-300"], 2),
        (_racah_seed0_q06_n24_argv(), 3),
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
        assert "z_n^(-)-z_m" in reused[3][2]


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
