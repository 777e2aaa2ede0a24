"""Per-layer tracing from outside the package.

``install`` wraps the public functions of each ``idcos`` layer where they are
looked up (module globals, class attributes and the override dicts of
``SplitIVP``), so nothing under ``src/`` changes.  A wrapper records a span
(name, start, end, parent) and counts at the layer boundary while the tracer
is active; otherwise it only forwards the call.  Wrappers are installed in
the traced child process alone, never in an end-to-end run.

Times of a layer are inclusive span times (time inside calls to that layer),
except ``idc.level_s``, which is the self time of the predict and correct
spans: their span time minus the part covered by their child spans, i.e.
level stacking, rhs caching and loop overhead.
"""

from collections import Counter, defaultdict
import functools
import os
import time


class Tracer:
    """Spans kept in memory as parallel lists, plus event counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self.active = False
        self.missing = []
        self._stack = [-1]

    def span(self, name, fn, on_exit=None):
        """Wrap fn so each active call records a span named name.

        on_exit(tracer, index, args, result) runs after the call, e.g. to
        count bytes or rename the span once its outcome is known.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1])
            tracer.ends.append(0.0)
            tracer._stack.append(index)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = time.perf_counter()
                tracer._stack.pop()
            if on_exit is not None:
                on_exit(tracer, index, args, result)
            return result
        return wrapper

    def counter(self, name, fn, amount=None):
        """Wrap fn so each active call adds amount(args, result) (or 1) to name."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                tracer.counts[name] += 1 if amount is None else amount(args, result)
            return result
        return wrapper

    def patch(self, owner, attr, make):
        """Replace owner.attr by make(original); record a missing target."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))

    def aggregate(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        table = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            row = table[name]
            row["calls"] += 1
            row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
        return dict(table)


def _written_bytes(tracer, index, args, result):
    tracer.counts["harness.io_bytes"] += os.path.getsize(args[0])


def _banded_cols(tracer, index, args, result):
    b = args[1]
    tracer.counts["banded.solve_cols"] += 1 if b.ndim == 1 else b.shape[1]


def _field_cells(tracer, index, args, result):
    tracer.counts["stability.cells"] += result.size


def install(tracer):
    """Wrap every traced layer of idcos in this process."""
    from idcos import banded, harness, idc, ode, pde2d, problems, stability

    for key, build in list(problems.PROBLEM_BUILDERS.items()):
        problems.PROBLEM_BUILDERS[key] = tracer.span("problems.build", build)
    tracer.patch(pde2d, "build_stencil",
                 lambda f: tracer.span("stencils.build", f))

    for attr in ("_write_csv", "write_field_snapshot", "write_field_csv",
                 "write_contour_csv"):
        tracer.patch(harness, attr,
                     lambda f: tracer.span("harness.io", f, _written_bytes))
    # the manifest's size varies with its wall-time digits: timed, not counted
    for attr in ("_write_manifest", "_sha256"):
        tracer.patch(harness, attr, lambda f: tracer.span("harness.io", f))

    tracer.patch(idc, "predict", lambda f: tracer.span("idc.predict", f))
    tracer.patch(idc, "correct_once", lambda f: tracer.span("idc.correct", f))
    tracer.patch(idc, "_cache_rhs", lambda f: tracer.counter(
        "idc.rhs_evals", f,
        lambda args, out: args[0].num_operators * (args[1].M + 1)))
    tracer.patch(idc.ErrorProblem, "shift", lambda f: _counted_shift(tracer, f))
    tracer.patch(idc, "get_stepper", lambda f: functools.wraps(f)(
        lambda name: tracer.span("steppers.step", f(name))))
    tracer.patch(idc, "lagrange_eval", lambda f: tracer.span("polyint.interp", f))
    tracer.patch(idc, "partial_integral", lambda f: tracer.span("polyint.quad", f))
    tracer.patch(ode.SplitIVP, "f_total",
                 lambda f: tracer.counter("ode.f_total_calls", f))

    tracer.patch(pde2d.SemiDiscreteSystem, "split_ivp",
                 lambda f: _traced_overrides(tracer, f))
    op = pde2d.DirectionalDiffusionOperator
    tracer.patch(op, "boundary_contribution",
                 lambda f: tracer.span("pde2d.boundary", f))
    tracer.patch(op, "apply_homogeneous",
                 lambda f: tracer.span("pde2d.stencil_apply", f))
    tracer.patch(op, "solve_homogeneous",
                 lambda f: tracer.span("pde2d.line_solve", f))
    tracer.patch(op, "_solver", lambda f: _line_factor_lookup(tracer, f))
    source = pde2d.PointwiseSourceOperator
    tracer.patch(source, "solve_implicit", lambda f: tracer.span("pde2d.newton", f))
    tracer.patch(source, "__init__", lambda f: _counted_jacobian(tracer, f))

    tracer.patch(banded.BandedMatrix, "__init__",
                 lambda f: tracer.span("banded.factor", f))
    tracer.patch(banded.BandedMatrix, "solve",
                 lambda f: tracer.span("banded.solve", f, _banded_cols))

    tracer.patch(stability, "amplification_field",
                 lambda f: tracer.span("stability.field", f, _field_cells))
    tracer.patch(stability, "marching_squares",
                 lambda f: tracer.span("stability.contour", f))


def _counted_shift(tracer, shift):
    @functools.wraps(shift)
    def wrapper(self, t):
        if tracer.active:
            tracer.counts["idc.shift_calls"] += 1
            if t in getattr(self, "_shift", ()):
                tracer.counts["idc.shift_hits"] += 1
        return shift(self, t)
    return wrapper


def _traced_overrides(tracer, split_ivp):
    # the factored ADI predictor and corrector live in the SplitIVP's dicts
    @functools.wraps(split_ivp)
    def wrapper(*args, **kwargs):
        ivp = split_ivp(*args, **kwargs)
        for table in (ivp.predictor_overrides, ivp.corrector_overrides):
            if "adi" in table:
                table["adi"] = tracer.span("pde2d.adi_sweep", table["adi"])
        return ivp
    return wrapper


def _line_factor_lookup(tracer, lookup):
    # a lookup that grows the operator's factor cache is a miss: its span is
    # renamed so line_factor_s times exactly the factorising calls
    traced = tracer.span("pde2d.line_lookup", lookup)

    @functools.wraps(lookup)
    def wrapper(self, alpha):
        if not tracer.active:
            return lookup(self, alpha)
        cached = len(self._solvers)
        index = len(tracer.names)
        result = traced(self, alpha)
        tracer.counts["pde2d.line_factor_lookups"] += 1
        if len(self._solvers) > cached:
            tracer.names[index] = "pde2d.line_factor"
        return result
    return wrapper


def _counted_jacobian(tracer, init):
    # Newton iterations are counted as jacobian evaluations
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.source_jacobian = tracer.counter("pde2d.newton_iters",
                                              self.source_jacobian)
    return wrapper


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of one traced harness call."""
    agg = tracer.aggregate()
    c = tracer.counts

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def incl(name):
        return agg.get(name, {}).get("incl_s", 0.0)

    factors = calls("pde2d.line_factor")
    lookups = c["pde2d.line_factor_lookups"]
    return {
        "pde2d.line_factor_count": factors,
        "pde2d.line_factor_s": incl("pde2d.line_factor"),
        "pde2d.line_factor_hit_ratio": _ratio(lookups - factors, lookups),
        "pde2d.line_solve_calls": calls("pde2d.line_solve"),
        "pde2d.line_solve_s": incl("pde2d.line_solve"),
        "banded.solve_calls": calls("banded.solve"),
        "banded.solve_cols": c["banded.solve_cols"],
        "banded.solve_s": incl("banded.solve"),
        "banded.factor_count": calls("banded.factor"),
        "banded.factor_s": incl("banded.factor"),
        "pde2d.boundary_calls": calls("pde2d.boundary"),
        "pde2d.boundary_s": incl("pde2d.boundary"),
        "pde2d.stencil_apply_calls": calls("pde2d.stencil_apply"),
        "pde2d.stencil_apply_s": incl("pde2d.stencil_apply"),
        "pde2d.newton_solves": calls("pde2d.newton"),
        "pde2d.newton_iters": c["pde2d.newton_iters"],
        "pde2d.newton_s": incl("pde2d.newton"),
        "pde2d.adi_sweep_calls": calls("pde2d.adi_sweep"),
        "pde2d.adi_sweep_s": incl("pde2d.adi_sweep"),
        "steppers.step_calls": calls("steppers.step"),
        "steppers.step_s": incl("steppers.step"),
        "idc.predict_s": incl("idc.predict"),
        "idc.correct_s": incl("idc.correct"),
        "idc.level_s": sum(agg.get(n, {}).get("self_s", 0.0)
                           for n in ("idc.predict", "idc.correct")),
        "idc.rhs_evals": c["idc.rhs_evals"],
        "idc.shift_hit_ratio": _ratio(c["idc.shift_hits"], c["idc.shift_calls"]),
        "polyint.interp_calls": calls("polyint.interp"),
        "polyint.interp_s": incl("polyint.interp"),
        "polyint.quad_calls": calls("polyint.quad"),
        "polyint.quad_s": incl("polyint.quad"),
        "ode.f_total_calls": c["ode.f_total_calls"],
        "stability.field_s": incl("stability.field"),
        "stability.contour_s": incl("stability.contour"),
        "stability.cells": c["stability.cells"],
        "harness.io_s": incl("harness.io"),
        "harness.io_bytes": c["harness.io_bytes"],
        "stencils.build_s": incl("stencils.build"),
        "problems.build_s": incl("problems.build"),
        "trace.spans": len(tracer.names),
    }


# Layers whose zero/nonzero pattern across workloads is fixed by design; a
# traced run that breaks it fails loudly.
def pattern_breaks(workload, metrics):
    """Descriptions of every broken expectation for this workload."""
    expect = {
        "pde2d.boundary_calls": workload == "heat-adi-ladder",
        "pde2d.newton_iters": workload == "fhn-sim",
        "stability.field_s": workload == "stability-scan",
        "stability.contour_s": workload == "stability-scan",
        "stability.cells": workload == "stability-scan",
        "steppers.step_calls": workload in ("fhn-sim", "stability-scan"),
    }
    return [f"{name} is {metrics[name]!r}, expected "
            f"{'nonzero' if nonzero else 'zero'}"
            for name, nonzero in expect.items()
            if bool(metrics[name]) != nonzero]
