"""Spans around the public functions of the qzeros layers, installed from outside.

The library has no tracing of its own, so the benchmark wraps every public
module-level function of each layer module and re-binds the wrapper at every
``qzeros`` module that holds the original under some name. A call that goes
through ``from .numlin import compute_zero_set`` inside ``awspec`` is then
traced as well, so nested calls show up with the span that caused them.

Spans are aggregated in memory per name and per (parent, name) edge: call
count, total time, self time (total minus the time of child spans) and the
number of calls that exited with a ``QZerosError``. Functions called once
per matrix entry or per Newton step are ``LEAVES``: they are only counted,
because timing them would cost more than their bodies; their time stays in
the self time of the span that called them.
"""

from __future__ import annotations

import inspect
import sys
import time

PACKAGE = "qzeros"
#: The layers, in the order the notes list them.
LAYERS = (
    "cli",
    "report",
    "sweeps",
    "polyform",
    "qkernel",
    "numlin",
    "awspec",
    "racahspec",
    "zeroflow",
)

#: Per-element functions: counted, not timed (see the module docstring).
LEAVES = frozenset(
    {
        "polyform.x_to_z",
        "polyform.z_to_x",
        "polyform.aw_eval",
        "polyform.racah_eval",
        "polyform.aw_rational_eval",
        "numlin.horner_pair",
        "numlin.scaled_residual",
        "awspec.eval_A",
        "awspec.eval_G_pair",
        "awspec.eval_K",
        "racahspec.shift_targets",
        "racahspec.point_structure",
        "report.rel_residual",
        "cli.parse_complex",
    }
)

_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)
#: A parameter set is four complex draws of two uniforms each.
_U64_PER_ATTEMPT = 8


class Tracer:
    """Wraps the qzeros layers while installed and aggregates what it sees.

    ``stats[name]`` is ``[calls, total_s, self_s, raised]``; ``edges`` maps
    ``(parent, name)`` to a call count (parent ``None`` at the top);
    ``counters`` holds the derived counts that a plain span cannot give.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple, int] = {}
        self.counters = {
            "zeroflow.steps_accepted": 0,
            "zeroflow.flow_velocity_calls": 0,
            "sweeps.draw.attempts": 0,
            "sweeps.draw.accepted": 0,
            "report.bytes": 0,
        }
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        from qzeros.errors import QZerosError

        self._error = QZerosError
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in LEAVES:
                    wrappers[fn] = self._counted(name, fn)
                else:
                    wrappers[fn] = self._span(name, fn, _HOOKS.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------

    def _record(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _counted(self, name, fn):
        rec = self._record(name)
        error = self._error

        def counted(*args, **kwargs):
            rec[0] += 1
            try:
                return fn(*args, **kwargs)
            except error:
                rec[3] += 1
                raise

        return counted

    def _span(self, name, fn, hook):
        rec = self._record(name)
        stack = self._stack
        edges = self.edges
        error = self._error
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            key = (parent, name)
            edges[key] = edges.get(key, 0) + 1
            before = hook.before(tracer, args) if hook else None
            frame = [name, 0.0]
            stack.append(frame)
            outcome = None
            t0 = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                if isinstance(exc, error):
                    rec[3] += 1
                outcome = exc
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if hook:
                    hook.after(tracer, args, before, outcome)

        return span

    # -- readout --------------------------------------------------------

    def snapshot(self) -> dict:
        """A deep copy of everything aggregated so far."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "edges": dict(self.edges),
            "counters": dict(self.counters),
        }


def delta(after: dict, before: dict) -> dict:
    """What was aggregated between two snapshots."""
    stats = {}
    for name, rec in after["stats"].items():
        base = before["stats"].get(name, [0, 0.0, 0.0, 0])
        stats[name] = [a - b for a, b in zip(rec, base)]
    edges = {k: v - before["edges"].get(k, 0) for k, v in after["edges"].items()}
    counters = {k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()}
    return {"stats": stats, "edges": edges, "counters": counters}


# -- derived counters ------------------------------------------------------


class _FlowSteps:
    """Accepted RK4 steps, and the velocity calls spent inside integrate_flow."""

    @staticmethod
    def before(tracer, args):
        return _velocity_calls(tracer)

    @staticmethod
    def after(tracer, args, before, outcome):
        trajectory = outcome if isinstance(outcome, list) else getattr(outcome, "trajectory", None)
        if trajectory:
            tracer.counters["zeroflow.steps_accepted"] += len(trajectory) - 1
        tracer.counters["zeroflow.flow_velocity_calls"] += _velocity_calls(tracer) - before


def _velocity_calls(tracer) -> int:
    return sum(tracer.stats.get(n, (0,))[0] for n in VELOCITY_SPANS)


class _DrawAttempts:
    """Draw attempts recovered from how far the splitmix64 state advanced."""

    @staticmethod
    def before(tracer, args):
        return args[0].state

    @staticmethod
    def after(tracer, args, before, outcome):
        advanced = ((args[0].state - before) * _GAMMA_INV) & _MASK64
        tracer.counters["sweeps.draw.attempts"] += advanced // _U64_PER_ATTEMPT
        if not isinstance(outcome, BaseException):
            tracer.counters["sweeps.draw.accepted"] += 1


class _ReportBytes:
    """UTF-8 size of every rendered report."""

    @staticmethod
    def before(tracer, args):
        return None

    @staticmethod
    def after(tracer, args, before, outcome):
        if isinstance(outcome, str):
            tracer.counters["report.bytes"] += len(outcome.encode("utf-8"))


VELOCITY_SPANS = ("zeroflow.aw_velocity", "zeroflow.racah_velocity")

_HOOKS = {
    "zeroflow.integrate_flow": _FlowSteps,
    "sweeps.draw_aw_params": _DrawAttempts,
    "sweeps.draw_racah_params": _DrawAttempts,
    "report.emit_report": _ReportBytes,
}
