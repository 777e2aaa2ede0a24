"""The four benchmark workloads, as inputs to the public harness entry points.

Inputs are fixed by the paper's studies; the run seed only picks the probe
nodes and cells the accuracy oracle samples.  Each workload puts the bulk of
one layer's work where another workload bypasses it:

heat-adi-ladder     Dirichlet, constant coefficient: one shared banded factor
                    per alpha and boundary terms rebuilt on every call.
varcoef-adi-ladder  periodic, variable coefficient: block-diagonal sparse LU
                    per alpha and rung, two stencils per line, no boundary.
                    N stays at 40: at N >= 60 the cs=1 cells blow up silently.
fhn-sim             three operators, two components: one alpha per operator,
                    periodic Woodbury line solves, pointwise 2x2 Newton.
stability-scan      the same IDC/quadrature code on one 160k-wide complex
                    state for one macro step; marching squares; large CSVs.

This module imports nothing from ``idcos`` at load time, so a fresh process
can time the package import as part of set-up.
"""

WORKLOADS = {
    "heat-adi-ladder": dict(
        experiment="convergence", problem="example1", scheme="adi",
        grid_n=60, end_time=0.0125, nt_list=(30, 40, 50, 60),
        corrections=(0, 1, 2)),
    "varcoef-adi-ladder": dict(
        experiment="convergence", problem="example2", scheme="adi",
        grid_n=40, end_time=0.05, nt_list=(40, 80, 160),
        corrections=(0, 1, 2)),
    "fhn-sim": dict(
        experiment="simulate", problem="fhn", scheme="lie-trotter",
        grid_n=200, corrections=(2,), dt=0.005, snap_times=(0.05,),
        end_time=0.05),
    "stability-scan": dict(
        experiment="stability", scheme="strang", corrections=(0, 1, 2),
        resolution=(301, 301), residual_mode="oversampled(13)"),
}


def run_config(name, out_dir, **overrides):
    """The workload's RunConfig writing its artifacts into out_dir."""
    from idcos.harness import RunConfig
    return RunConfig(out_dir=out_dir, **{**WORKLOADS[name], **overrides})


def setup(name):
    """Build the workload's problem (or scan grid) once, as a run starts."""
    spec = WORKLOADS[name]
    if spec["experiment"] == "stability":
        from idcos.stability import StabilityScan
        re, im = StabilityScan(scheme=spec["scheme"],
                               corrections=max(spec["corrections"]),
                               resolution=spec["resolution"]).axes()
        return re[:, None] + 1j * im[None, :]
    from idcos.problems import PROBLEM_BUILDERS
    problem = PROBLEM_BUILDERS[spec["problem"]](N=spec["grid_n"])
    return problem.split_ivp(spec["end_time"])


def call(cfg):
    """Run the harness entry point for the configured experiment."""
    from idcos import harness
    entry = {"convergence": harness.run_convergence,
             "simulate": harness.run_simulation,
             "stability": harness.run_stability}[cfg.experiment]
    return entry(cfg)
