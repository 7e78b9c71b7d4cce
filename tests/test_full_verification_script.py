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
