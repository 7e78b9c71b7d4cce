"""scripts/run_full_verification.py: a typed failure fails its instance, not the run."""

import importlib.util
import pathlib

from qzeros.errors import SingularConfiguration

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_full_verification.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_full_verification", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_typed_failure_is_a_failed_line_and_the_run_goes_on(monkeypatch, capsys):
    script = _load_script()
    real = script.run_verify

    def run_verify(params, **kwargs):
        if params.N == 2 and params.q == 0.6:
            raise SingularConfiguration("z_m-q*z_n", 1e-12)
        return real(params, **kwargs)

    monkeypatch.setattr(script, "run_verify", run_verify)
    assert script.main(["--family", "racah", "--max-degree", "3"]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.endswith("FAIL")]
    assert failed == [
        "racah N= 2 q=0.6        SingularConfiguration: guard violated: z_m-q*z_n (|.| = 1.000e-12)  FAIL"
    ]
    assert sum(line.startswith("racah N= 3") for line in lines) == 2  # the run went on
    assert "5/6 instances fully verified" in lines[-1]


def test_grid_census_tallies_the_verify_grid_cells(monkeypatch, capsys):
    script = _load_script()
    monkeypatch.setattr(script, "GRID_SEEDS", (0,))
    assert script.main(["--grid"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ""  # a passing cell prints nothing
    assert lines[-1].startswith("16/0/0 of 16 cells pass / exit 2 / exit 3")


def test_grid_census_prints_and_counts_each_cell_that_does_not_pass(monkeypatch, capsys):
    script = _load_script()
    real = script.run_verify

    def run_verify(params, **kwargs):
        if params.family == "racah" and params.N == 10 and params.q == 0.6:
            raise SingularConfiguration("z_n-z_m", 1e-12)
        report = real(params, **kwargs)
        if params.family == "aw" and params.N == 4 and params.q == 0.3:
            report.checks[0].passed = False
        return report

    monkeypatch.setattr(script, "GRID_SEEDS", (0,))
    monkeypatch.setattr(script, "run_verify", run_verify)
    assert script.main(["--grid"]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.endswith("FAIL")]
    assert len(failed) == 2
    assert failed[0].startswith("aw    seed=   0 N= 4 q=0.3 checks= 9 worst residual/tol=")
    assert lines[lines.index(failed[0]) + 1].startswith("      failed: prop2.1-residuals")
    assert failed[1] == (
        "racah seed=   0 N=10 q=0.6 SingularConfiguration: guard violated: z_n-z_m "
        "(|.| = 1.000e-12)  FAIL"
    )
    assert lines[-1].startswith("14/1/1 of 16 cells pass / exit 2 / exit 3")
