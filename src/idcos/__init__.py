"""High order time integration: integral deferred correction over operator splitting."""

from .errors import (LinearSolveError, NewtonError, PoleError, SolverError,
                     StepperError, UnsupportedSchemeError, UsageError)
from .idc import (ErrorProblem, IDCConfig, IDCLevelResult, correct_once, idc_march,
                  idc_solve, predict, solve_macro_interval)
from .ode import DiagonalLinearOperator, MatrixLinearOperator, SplitIVP, ZeroOperator
from .polyint import UniformNodeSet, lagrange_eval, partial_integral
from .steppers import adi_step, get_stepper, lie_trotter_step, strang_step
from .banded import BandedMatrix
from .stencils import StencilOperator, build_stencil, fd_weights
from .pde2d import (CoefficientField, DirectionalDiffusionOperator, Grid2D,
                    PointwiseSourceOperator, SemiDiscreteSystem, adi_pde_step,
                    write_field_snapshot)
from .problems import (PDEProblem, PROBLEM_BUILDERS, example1, example2, example3,
                       fhn, schnakenberg)
from .stability import (StabilityScan, amplification, amplification_field,
                        scan_region, stability_boundary_real_axis)
from .harness import (ConvergenceReport, RunConfig, run_convergence,
                      run_simulation, run_stability)

__version__ = "0.1.0"
