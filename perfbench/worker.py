"""One benchmark worker: a fresh interpreter that drives `qz` in-process.

The worker imports ``qzeros.cli`` from the checkout's ``src/``, builds the
workload's invocations from the seed, runs one untimed warm-up pass and
then, depending on ``--mode``:

* ``import``: stops after the import; only its time is reported;
* ``time``: runs timed passes, closed loop with one client (each invocation
  starts when the previous one ends), until ``--seconds`` have passed;
* ``trace``: alternates untimed-tracer passes with traced passes for
  ``--seconds``, to get per-layer totals and the tracing overhead.

It prints one JSON object as the last line of its standard output. The
launcher (run.py) starts it, pins the BLAS thread pools and aggregates.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time

#: Hard cap on the measuring loop, well inside the launcher's time limit.
MAX_MEASURE_S = 100.0
#: Iterations of the speed probe, a fixed pure-Python loop.
PROBE_ITERATIONS = 50_000
#: The probe's time at the reference speed that reported times are scaled to.
REFERENCE_PROBE_S = 0.004


def probe_s() -> float:
    """Time of the speed probe: how fast this interpreter runs right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - t0


class SpeedClock:
    """Rescales measured times to the reference speed.

    The machine is shared and its speed drifts by tens of percent within
    minutes, which swamps run-to-run comparisons. The probe runs right
    before and right after each timed stretch, outside it, and the stretch's
    time is multiplied by REFERENCE_PROBE_S over the mean of the two probes.
    """

    def __init__(self):
        self._before = probe_s()

    def rescale(self, raw_s: float) -> float:
        """The stretch that just ended, in reference-speed seconds."""
        after = probe_s()
        scaled = raw_s * 2.0 * REFERENCE_PROBE_S / (self._before + after)
        self._before = after
        return scaled


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("import", "time", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    return parser.parse_args()


def _import_cli(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qzeros", "cli.py")):
        sys.exit(f"perfbench: no qzeros sources under {src}")
    sys.path.insert(0, src)
    import qzeros.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"perfbench: imported qzeros from {cli.__file__}, not from {src}")
    return cli


def _invoke(cli, inv) -> tuple:
    """Run one invocation; returns (seconds, Outcome, error text or None)."""
    from workloads import Outcome

    if inv.output_path and os.path.exists(inv.output_path):
        os.remove(inv.output_path)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(inv.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # counted as a failed invocation, never fatal
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    data = out.getvalue().encode("utf-8")
    if inv.output_path and os.path.exists(inv.output_path):
        with open(inv.output_path, "rb") as fh:
            data = fh.read()
    return elapsed, Outcome(code=code, output=data), error


def _run_pass(cli, clock: SpeedClock, invocations) -> dict:
    """One closed-loop pass; its wall time is the sum of its invocation times."""
    raw, times, outcomes, errors = [], [], [], []
    for inv in invocations:
        elapsed, outcome, error = _invoke(cli, inv)
        raw.append(elapsed)
        times.append(clock.rescale(elapsed))
        outcomes.append(outcome)
        errors.append(error)
    return {
        "wall_s": sum(times),
        "raw_wall_s": sum(raw),
        "times": times,
        "outcomes": outcomes,
        "errors": errors,
    }


def _digest(outcome) -> str:
    return hashlib.sha256(f"{outcome.code}:".encode() + outcome.output).hexdigest()[:16]


def _judge(invocations, passes: list) -> tuple:
    """Check the first pass's outputs; every later pass must repeat them byte for byte."""
    first = passes[0]
    results = []
    for i, inv in enumerate(invocations):
        outcome, error = first["outcomes"][i], first["errors"][i]
        if error is not None:
            ok, verdicts, note = False, [], error
        else:
            ok, verdicts, note = inv.check(outcome)
        results.append(
            {
                "label": inv.label,
                "exit": outcome.code,
                "ok": bool(ok),
                "verdicts": "".join("P" if v else "F" for v in verdicts),
                "note": note,
                "digest": _digest(outcome),
            }
        )
    mismatched = [
        inv.label
        for i, inv in enumerate(invocations)
        if any(_digest(p["outcomes"][i]) != results[i]["digest"] for p in passes[1:])
    ]
    return results, mismatched


def main() -> int:
    args = _parse()
    clock = SpeedClock()
    started = time.perf_counter()
    cli = _import_cli(args.root)
    raw_import_s = time.perf_counter() - started
    result = {"import_s": clock.rescale(raw_import_s), "raw_import_s": raw_import_s}
    if args.mode != "import":
        import workloads

        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=args.root)
        try:
            t0 = time.perf_counter()
            invocations = workloads.WORKLOADS[args.workload](args.seed, workdir)
            result["build_s"] = clock.rescale(time.perf_counter() - t0)
            warm = _run_pass(cli, clock, invocations)
            result["warmup_s"] = warm["wall_s"]
            result["raw_warmup_s"] = warm["raw_wall_s"]
            measure = _measure if args.mode == "time" else _trace
            result.update(measure(cli, clock, invocations, warm, args))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _measure(cli, clock, invocations, warm, args) -> dict:
    passes = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < min(args.seconds, MAX_MEASURE_S):
        passes.append(_run_pass(cli, clock, invocations))
    results, mismatched = _judge(invocations, [warm] + passes)
    return {
        "pass_wall_s": [p["wall_s"] for p in passes],
        "raw_pass_wall_s": [p["raw_wall_s"] for p in passes],
        "instance_s": [t for p in passes for t in p["times"]],
        "invocations": results,
        "unstable": mismatched,
    }


def _trace(cli, clock, invocations, warm, args) -> dict:
    from tracer import Tracer, delta

    tracer = Tracer()
    plain, traced, per_pass = [], [], []

    def traced_pass():
        tracer.install()
        try:
            before = tracer.snapshot()
            traced.append(_run_pass(cli, clock, invocations))
            per_pass.append(delta(tracer.snapshot(), before))
        finally:
            tracer.uninstall()

    t0 = time.perf_counter()
    while True:
        # alternate which side goes first, so a drift in machine speed
        # does not land on one side only
        if len(plain) % 2 == 0:
            plain.append(_run_pass(cli, clock, invocations))
            traced_pass()
        else:
            traced_pass()
            plain.append(_run_pass(cli, clock, invocations))
        if time.perf_counter() - t0 >= min(args.seconds, MAX_MEASURE_S):
            break
    results, mismatched = _judge(invocations, [warm] + plain + traced)
    return {
        "plain_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "per_pass": [
            {
                "speed": p["wall_s"] / p["raw_wall_s"],
                "stats": d["stats"],
                "counters": d["counters"],
                "edges": [[k[0], k[1], v] for k, v in d["edges"].items()],
            }
            for p, d in zip(traced, per_pass)
        ],
        "invocations": results,
        "unstable": mismatched,
    }


if __name__ == "__main__":
    sys.exit(main())
