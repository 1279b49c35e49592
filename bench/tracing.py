"""Spans and counters at kedsum's layer boundaries.

The tracer wraps public functions, or the names ``resum``, ``radial``
and ``hooke`` bound them to, for the duration of ``installed()`` and
restores the originals afterwards.  Spans stay in memory; the run
writes them out when it ends.  ``jets`` is deliberately not wrapped: an
Ar row makes about 450k ``jets.multiply`` calls, and wrapping them
would measure the tracer.  Its time shows in ``radial.eval``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from kedsum import atoms, hooke, kedf, radial, resum

# Per-layer metrics (name, unit, better), in report order.
PER_LAYER = (
    ("radial.eval.calls", "count", "lower"),
    ("radial.eval.busy_s", "s", "lower"),
    ("radial.eval.us_per_call", "us", "lower"),
    ("radial.eval.quad_share", "ratio", "higher"),
    ("kedf.calls", "count", "lower"),
    ("kedf.busy_s", "s", "lower"),
    ("radial.quad.calls", "count", "lower"),
    ("radial.quad.neval", "count", "lower"),
    ("radial.quad.self_s", "s", "lower"),
    ("radial.find_poles.busy_s", "s", "lower"),
    ("radial.find_poles.evals", "count", "lower"),
    ("radial.find_poles.poles", "count", "higher"),
    ("radial.pv.busy_s", "s", "lower"),
    ("radial.pv.self_s", "s", "lower"),
    ("radial.pv.windows", "count", "higher"),
    ("radial.grid.busy_s", "s", "lower"),
    ("radial.spline_fit.busy_s", "s", "lower"),
    ("resum.t0.busy_s", "s", "lower"),
    ("resum.t02.busy_s", "s", "lower"),
    ("resum.t024.busy_s", "s", "lower"),
    ("resum.pade11.busy_s", "s", "lower"),
    ("resum.pade21.busy_s", "s", "lower"),
    ("hooke.solve.self_s", "s", "lower"),
    ("hooke.ks_kinetic.busy_s", "s", "lower"),
    ("atoms.load.busy_s", "s", "lower"),
    ("atoms.hf_kinetic.busy_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """Busy time, self time and calls per layer, plus the coarse spans.

    Busy time counts only the outermost span of a layer, so a layer that
    calls itself (``kedf.tau_point`` calling ``kedf.contractions``) is
    not counted twice.  Self time is a span's duration minus the time
    of the spans directly inside it.  ``row`` tags the spans recorded
    while it is set, so the spans of one table row share it.
    """

    def __init__(self):
        self.busy = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.spans: list[tuple] = []
        self.row = None
        self._stack: list[list] = []
        self._active = Counter()

    def _wrap(self, fn, name, keep=True, after=None):
        stack, active = self._stack, self._active

        def traced(*args, **kwargs):
            span = name(*args) if callable(name) else name
            nested = active[span]
            active[span] = nested + 1
            frame = [0.0, len(self.spans) if keep else None]
            if keep:
                self.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[span] = nested
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.self_time[span] += duration - frame[0]
                if not nested:
                    self.busy[span] += duration
                    self.calls[span] += 1
                if keep:
                    parent = next((f[1] for f in reversed(stack)
                                   if f[1] is not None), None)
                    self.spans[frame[1]] = (span, start, end, parent,
                                            self.row)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_eval(self, args, result):
        if self._active["radial.quad"]:
            self.counts["radial.eval.in_quad"] += 1
        if self._active["radial.find_poles"]:
            self.counts["radial.find_poles.evals"] += 1

    def _after_quad(self, args, result):
        # radial always asks quad for full_output: (value, abserr, info).
        self.counts["radial.quad.neval"] += result[2]["neval"]

    def _after_poles(self, args, result):
        self.counts["radial.find_poles.poles"] += len(result)

    def _after_pv(self, args, result):
        self.counts["radial.pv.windows"] += len(args[1])

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries; restore the originals on exit."""
        model = radial.DensityModel
        targets = [
            (model, "eval", "radial.eval", False, self._after_eval),
            (model, "rho", "radial.eval", False, self._after_eval),
            (resum, "tau_point", "kedf", False, None),
            (kedf, "contractions", "kedf", False, None),
            (radial, "quad", "radial.quad", True, self._after_quad),
            (resum, "find_poles", "radial.find_poles", True,
             self._after_poles),
            (resum, "principal_value_integrate", "radial.pv", True,
             self._after_pv),
            (radial, "grid_for_density", "radial.grid", True, None),
            (hooke, "grid_for_density", "radial.grid", True, None),
            (radial, "tabulated_derivatives", "radial.spline_fit", True,
             None),
            (resum, "integrate_method",
             lambda _model, method, *rest: f"resum.{method.value}", True,
             None),
            (hooke, "solve_general", "hooke.solve", True, None),
            (hooke, "singlet_ks_kinetic", "hooke.ks_kinetic", True, None),
            (atoms, "bundled_basis", "atoms.load", True, None),
            (atoms, "hf_kinetic", "atoms.hf_kinetic", True, None),
        ]
        originals = [(obj, attr, getattr(obj, attr))
                     for obj, attr, *_ in targets]
        try:
            for (obj, attr, name, keep, after), (_, _, fn) in zip(
                    targets, originals):
                setattr(obj, attr, self._wrap(fn, name, keep, after))
            yield self
        finally:
            for obj, attr, fn in originals:
                setattr(obj, attr, fn)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer figures (atoms.load comes from set-up instead)."""
        busy, calls, counts = self.busy, self.calls, self.counts
        eval_calls = calls["radial.eval"]
        out = {
            "radial.eval.calls": eval_calls,
            "radial.eval.busy_s": busy["radial.eval"],
            "radial.eval.us_per_call": (1e6 * busy["radial.eval"]
                                        / max(eval_calls, 1)),
            "radial.eval.quad_share": (counts["radial.eval.in_quad"]
                                       / max(eval_calls, 1)),
            "kedf.calls": calls["kedf"],
            "kedf.busy_s": busy["kedf"],
            "radial.quad.calls": calls["radial.quad"],
            "radial.quad.neval": counts["radial.quad.neval"],
            "radial.quad.self_s": self.self_time["radial.quad"],
            "radial.find_poles.busy_s": busy["radial.find_poles"],
            "radial.find_poles.evals": counts["radial.find_poles.evals"],
            "radial.find_poles.poles": counts["radial.find_poles.poles"],
            "radial.pv.busy_s": busy["radial.pv"],
            "radial.pv.self_s": self.self_time["radial.pv"],
            "radial.pv.windows": counts["radial.pv.windows"],
            "radial.grid.busy_s": busy["radial.grid"],
            "radial.spline_fit.busy_s": busy["radial.spline_fit"],
            "hooke.solve.self_s": self.self_time["hooke.solve"],
            "hooke.ks_kinetic.busy_s": busy["hooke.ks_kinetic"],
            "atoms.hf_kinetic.busy_s": busy["atoms.hf_kinetic"],
        }
        for method in resum.ALL_METHODS:
            name = f"resum.{method.value}"
            out[f"{name}.busy_s"] = busy[name]
        scale_free = ("radial.eval.us_per_call", "radial.eval.quad_share")
        return {k: v if k in scale_free else v / passes
                for k, v in out.items()}
