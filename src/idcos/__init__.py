"""High order time integration: integral deferred correction over operator splitting.

The time layers (``idc``, ``ode``, ``polyint``, ``steppers``, ``stability``)
and the ``harness`` load with the package.  The PDE backend (``banded``,
``stencils``, ``pde2d``, ``problems``) loads on first access (PEP 562), so a
stability scan, which discretises no PDE, loads none of it.  Only ``banded``
needs scipy, and only a variable coefficient's stacked lines load it, when
their operator is built: a constant-coefficient problem (example1, example3,
FitzHugh-Nagumo, Schnakenberg) runs on numpy alone.
"""

import importlib

from .errors import (LinearSolveError, NewtonError, PoleError, SolverError,
                     StepperError, UnsupportedSchemeError, UsageError)
from .idc import (ErrorProblem, IDCConfig, IDCLevelResult, correct_once, idc_march,
                  idc_solve, predict, solve_macro_interval)
from .ode import DiagonalLinearOperator, MatrixLinearOperator, SplitIVP, ZeroOperator
from .polyint import UniformNodeSet, lagrange_eval, partial_integral
from .steppers import adi_step, get_stepper, lie_trotter_step, strang_step
from .stability import (StabilityScan, amplification, amplification_field,
                        scan_region, stability_boundary_real_axis)
from .harness import (ConvergenceReport, RunConfig, run_convergence,
                      run_simulation, run_stability, write_field_snapshot)

__version__ = "0.1.0"

# name -> defining submodule of the PDE backend, imported on first access
_LAZY = {
    "BandedMatrix": "banded",
    **dict.fromkeys(("StencilOperator", "build_stencil", "fd_weights"), "stencils"),
    **dict.fromkeys(("CoefficientField", "DirectionalDiffusionOperator", "Grid2D",
                     "PointwiseSourceOperator", "SemiDiscreteSystem", "adi_pde_step"),
                    "pde2d"),
    **dict.fromkeys(("PDEProblem", "PROBLEM_BUILDERS", "example1", "example2",
                     "example3", "fhn", "schnakenberg"), "problems"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
